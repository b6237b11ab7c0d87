"""Symmetry groups as quotient lattices: elements, subgroups, duality."""

import itertools
import time
from fractions import Fraction
from math import gcd

import pytest

from saitodual import burnside, groups, linalg
from saitodual.burnside import (CyclotomicProduct, burnside_from_cyclotomic,
                                element_zeta)
from saitodual.errors import (IndexBoundsError, OwnershipError,
                              ResourceBoundError)
from saitodual.groups import (MAX_LISTED_ROOTS, MAX_LISTED_SUBGROUPS,
                              MAX_SUBGROUP_ORDER, GroupPresentation,
                              SubgroupKey, _part_base, dual_subgroup,
                              enumerate_subgroups, full_subgroup,
                              geometric_roots, isotropy_subgroup,
                              monodromy_element, pairing, root_count,
                              subgroup_count, subgroup_generated_by,
                              subgroup_meet, symmetry_group,
                              trivial_subgroup)
from saitodual.linalg import IntMatrix, RationalVector
from saitodual.polynomials import canonical_weights, parse_polynomial

from conftest import distinct_groups
from oracles import (brute_roots, coordinate_roots, divisors, hnf_meet,
                     kernel_dual, kernel_dual_all_pairs, solve_contains,
                     subgroup_join, triangular_contains,
                     triangular_contains_element, triangular_dual,
                     triangular_meet)


@pytest.fixture(scope="module")
def z6_poly():
    return parse_polynomial("x^3 + x*y^2")


@pytest.fixture(scope="module")
def z6(z6_poly):
    return symmetry_group(z6_poly)


class TestPresentation:
    def test_chain_example(self):
        p = symmetry_group(parse_polynomial("x^3*y + y^3"))
        assert p.order == 9
        assert p.invariant_factors == (1, 9)
        assert p.is_cyclic

    def test_fermat_direct_sum(self):
        p = symmetry_group(parse_polynomial("x^4 + y^6"))
        assert p.order == 24
        assert p.invariant_factors == (2, 12)
        assert not p.is_cyclic
        assert p.structure_name() == "Z2 x Z12"

    def test_order_equals_determinant(self, corpus_sample):
        for f in corpus_sample:
            assert symmetry_group(f).order == abs(f.det)
            assert symmetry_group(f).dual().order == abs(f.det)

    def test_generators_generate(self, corpus_sample):
        for f in corpus_sample[:12]:
            p = symmetry_group(f)
            key = subgroup_generated_by(p, p.generators())
            assert key == full_subgroup(p)

    def test_element_count(self, z6):
        elements = list(z6.elements())
        assert len(elements) == 6
        assert len(set(elements)) == 6
        assert all(z6.order % g.order == 0 for g in elements)

    def test_element_membership_validation(self, z6):
        with pytest.raises(OwnershipError):
            z6.element(RationalVector([1, 1], 5))

    def test_constructor_reduces_and_checks(self, z6):
        # Unreduced coordinates, as a RationalVector or as fractions, name
        # the element they are congruent to mod 1.
        h = z6.element([Fraction(1, 3), Fraction(1, 3)])
        assert h.scaled() == h.sort_key() == (2, 2)
        assert h.coords == RationalVector([1, 1], 3)
        assert str(h) == "(1/3, 1/3)" and repr(h) == "GroupElement(1/3, 1/3)"
        assert z6.element([Fraction(4, 3), Fraction(-2, 3)]) == h
        assert z6.element(RationalVector([-5, 7], 3)) == h
        assert z6.element([0, 3]) == z6.identity()
        with pytest.raises(OwnershipError):
            z6.element([Fraction(1, 3)])
        with pytest.raises(OwnershipError):
            z6.element([Fraction(1, 2), Fraction(0)])

    def test_elements_are_integer_vectors(self, monkeypatch):
        # Walking, adding and scaling elements, listing and printing roots
        # and inverting the cyclotomic correspondence build no
        # RationalVector.
        def refuse(*args, **kwargs):
            raise AssertionError("a RationalVector was built")

        monkeypatch.setattr(groups, "RationalVector", refuse)
        monkeypatch.setattr(burnside, "RationalVector", refuse,
                            raising=False)
        rank2 = symmetry_group(parse_polynomial("x^4 + y^6"))
        elements = list(rank2.elements())
        sums = [g + h for g in elements[:6] for h in elements]
        multiples = [k * g - g for g in elements for k in range(-3, 4)]
        f = parse_polynomial("x^29*y + y^29*z + z^29*x")
        p = symmetry_group(f)
        roots = geometric_roots(f, p)
        texts = [str(r) for r in roots]
        z12 = symmetry_group(parse_polynomial("x^12"))
        phi = CyclotomicProduct(12, {1: 1, 4: -1, 12: 2})
        a = burnside_from_cyclotomic(phi, z12)
        monkeypatch.undo()
        assert len(set(elements)) == 24 and set(sums) == set(elements)
        assert len(multiples) == 7 * 24
        assert len(roots) == 813
        assert texts == [str(r.coords) for r in roots]
        generator = next(g for g in z12.elements() if g.order == 12)
        assert element_zeta(generator, a) == phi

    def test_sides_share_the_torus(self, z6_poly):
        direct_of_transpose = symmetry_group(z6_poly.transpose())
        transposed_side = symmetry_group(z6_poly).dual()
        assert direct_of_transpose == transposed_side
        assert hash(direct_of_transpose) == hash(transposed_side)


class TestSubgroups:
    def test_empty_generation_is_trivial(self, z6):
        key = subgroup_generated_by(z6, [])
        assert key == trivial_subgroup(z6)
        assert key.basis == IntMatrix.diagonal([6, 6])

    def test_order_three_subgroup(self, z6_poly, z6):
        h = monodromy_element(z6_poly, z6)
        assert h.order == 3
        key = subgroup_generated_by(z6, [h])
        assert key.order == 3

    def test_join_meet_lattice(self, z6):
        subs = enumerate_subgroups(z6)
        orders = sorted(s.order for s in subs)
        assert orders == [1, 2, 3, 6]
        by_order = {s.order: s for s in subs}
        assert subgroup_join(by_order[2], by_order[3]) == by_order[6]
        assert subgroup_meet(by_order[2], by_order[3]) == by_order[1]

    def test_subgroup_count_examples(self):
        z7 = symmetry_group(parse_polynomial("x^7"))
        assert len(enumerate_subgroups(z7)) == 2
        z9 = symmetry_group(parse_polynomial("x^9"))
        assert [s.order for s in enumerate_subgroups(z9)] == [1, 3, 9]
        klein = symmetry_group(parse_polynomial("x^2 + y^2"))
        assert len(enumerate_subgroups(klein)) == 5

    def test_meet_miss_runs_no_hnf(self, monkeypatch):
        # A meet that misses a part's table merges the names of the two
        # part lattices (``triangular_join``): no lattice_basis and no HNF
        # of any kind.  Z4 x Z8 has 22 subgroups.  The listed presentation
        # meets them from its index.  On an unlisted copy each key is
        # named on first lookup, here by testing that it contains itself,
        # with no HNF either, and then every meet lands on a key the
        # copy's index holds.
        p = symmetry_group(parse_polynomial("x^3*y + y^3*x + z^4"))
        subgroups = enumerate_subgroups(p)
        q = GroupPresentation(p.constraint)
        copies = [SubgroupKey(q, h.basis) for h in subgroups]

        def refuse(*args):
            raise AssertionError("a meet ran an HNF")

        monkeypatch.setattr(groups, "lattice_basis", refuse)
        monkeypatch.setattr(linalg, "_hnf_core", refuse)
        assert all(h.contains(h) for h in copies)
        meets = {(h, k): subgroup_meet(h, k)
                 for h in copies for k in copies}
        indexed = [subgroup_meet(h, k) for h in subgroups for k in subgroups]
        assert q._index.listed is None
        monkeypatch.undo()
        assert indexed == list(meets.values())
        for (h, k), meet in meets.items():
            oracle = hnf_meet(h, k)
            assert meet == oracle and meet.order == oracle.order

    def test_enumeration_bound(self):
        # Z10000 has one subgroup per divisor; one element more is refused.
        at_bound = symmetry_group(parse_polynomial(f"x^{MAX_SUBGROUP_ORDER}"))
        assert len(enumerate_subgroups(at_bound)) == 25
        above = symmetry_group(
            parse_polynomial(f"x^{MAX_SUBGROUP_ORDER + 1}"))
        with pytest.raises(ResourceBoundError) as info:
            enumerate_subgroups(above)
        assert str(MAX_SUBGROUP_ORDER) in str(info.value)

    def test_subgroup_elements_match_order(self, z6):
        for key in enumerate_subgroups(z6):
            elems = list(key.elements())
            assert len(elems) == key.order
            assert all(key.contains_element(g) for g in elems)

    def test_ownership_checks(self, z6):
        other = symmetry_group(parse_polynomial("x^5"))
        with pytest.raises(OwnershipError):
            subgroup_generated_by(z6, [other.identity()])

    def test_full_subgroup_membership_needs_no_solve(self, z6, monkeypatch):
        # Membership in a proper subgroup reads the rows of its scaled
        # inverse; the full group needs none.
        def no_solve(*args):
            raise AssertionError("scaled_inverse called")

        full = full_subgroup(z6)
        subs = enumerate_subgroups(z6)
        monkeypatch.setattr(groups, "scaled_inverse", no_solve)
        assert all(full.contains(h) for h in subs)
        assert all(full.contains_element(g) for g in z6.elements())

    def test_full_subgroup_membership_checks_ownership_first(self, z6):
        other = symmetry_group(parse_polynomial("x^5"))
        full = full_subgroup(z6)
        with pytest.raises(OwnershipError):
            full.contains(full_subgroup(other))
        with pytest.raises(OwnershipError):
            full.contains(trivial_subgroup(other))
        with pytest.raises(OwnershipError):
            full.contains_element(other.identity())

    def test_canonical_key_independent_of_generators(self, z6):
        # Distinct generating sets of the same subgroup must yield the
        # identical key.
        g = next(e for e in z6.elements() if e.order == 6)
        variants = [
            [g], [-g], [g, 2 * g], [5 * g, g], [g, -g, 3 * g],
        ]
        keys = {subgroup_generated_by(z6, gens) for gens in variants}
        assert len(keys) == 1
        assert keys.pop() == full_subgroup(z6)


def squares(k):
    """x1^2 + ... + xk^2, whose group is (Z/2)^k."""
    return parse_polynomial(" + ".join(f"x{i}^2" for i in range(1, k + 1)))


# The 4-loop at this p has the cyclic group of order p^4 - 1, about 1e30,
# whose largest prime factor trial division would never reach.
BIG_LOOP_P = 31622777


def big_loop(first=1):
    """The 4-loop at BIG_LOOP_P in x_first, ..., x_{first+3}."""
    xs = [f"x{first + i}" for i in range(4)]
    return " + ".join(f"{x}^{BIG_LOOP_P}*{y}"
                      for x, y in zip(xs, xs[1:] + xs[:1]))


def gaussian_binomial(n, k, q):
    """Number of k-dimensional subspaces of F_q^n."""
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


class TestSubgroupCounts:
    """Subgroup counts from closed formulas, with no enumeration oracle."""

    def test_rank_two_counts_match_hampejs_formula(self, batch45):
        # #Sub(Z_m x Z_n) = sum over a | m, b | n of gcd(a, b) (Hampejs,
        # Holighaus, Toth and Wiesmeyr 2014); cyclic groups have m = 1.
        checked = 0
        for p in distinct_groups(batch45, max_order=200):
            nontrivial = [o for o in p.invariant_factors if o > 1]
            if len(nontrivial) > 2:
                continue
            m, n = ([1, 1] + nontrivial)[-2:]
            assert len(enumerate_subgroups(p)) == sum(
                gcd(a, b) for a in divisors(m) for b in divisors(n))
            checked += 1
        assert checked == 2219

    @pytest.mark.parametrize("q, total", [(2, 67), (3, 212), (5, 1120)])
    def test_elementary_abelian_counts_are_gaussian_binomial_sums(self, q,
                                                                   total):
        p = symmetry_group(parse_polynomial(f"x^{q} + y^{q} + z^{q} + w^{q}"))
        assert p.invariant_factors == (q,) * 4
        assert sum(gaussian_binomial(4, k, q) for k in range(5)) == total
        subs = enumerate_subgroups(p)
        assert len(subs) == total
        for k in range(5):
            assert sum(1 for h in subs if h.order == q ** k) == \
                gaussian_binomial(4, k, q)

    def test_closed_form_count_matches_listing(self, batch45):
        # Every distinct corpus group of order <= 200, both sides, and
        # (Z/2)^k for k <= 6: the count read off the invariant factors
        # is the length of the listing.
        found = distinct_groups(batch45, max_order=200)
        counts = [subgroup_count(p) for p in found]
        listed = [len(enumerate_subgroups(p)) for p in found]
        assert counts == listed
        assert (len(found), sum(listed)) == (2331, 48191)
        for k in range(1, 7):
            p = symmetry_group(squares(k))
            assert subgroup_count(p) == len(enumerate_subgroups(p)) == sum(
                gaussian_binomial(k, j, 2) for j in range(k + 1))

    def test_listing_refused_by_count_before_any_key(self, monkeypatch):
        # (Z/2)^8 has order 256 and 417,199 subgroups, (Z/2)^13 order
        # 8,192 and 3.76e13: both are refused from their counts, with no
        # key and no index built.  The pinned Z6^4 is inside the bound.
        def refuse(*args):
            raise AssertionError("a key was built")

        refused = [(symmetry_group(squares(k)), count)
                   for k, count in [(8, 417199), (13, 37558989808526)]]
        z6 = symmetry_group(parse_polynomial("x^6 + y^6 + z^6 + w^6"))
        monkeypatch.setattr(groups, "lattice_basis", refuse)
        monkeypatch.setattr(SubgroupKey, "_wrap", classmethod(refuse))
        for p, count in refused:
            assert p.order <= MAX_SUBGROUP_ORDER
            assert subgroup_count(p) == count > MAX_LISTED_SUBGROUPS
            with pytest.raises(ResourceBoundError) as info:
                enumerate_subgroups(p)
            assert f"{count} subgroups" in str(info.value)
            assert str(MAX_LISTED_SUBGROUPS) in str(info.value)
            assert p._index is None
        assert subgroup_count(z6) == 14204 <= MAX_LISTED_SUBGROUPS

    def test_count_refused_above_the_order_bound(self):
        # Above MAX_SUBGROUP_ORDER the part base need not be prime, and
        # Birkhoff's count needs primes: the 4-loop of order about 1e30
        # is refused at once, with nothing factored.
        p = symmetry_group(parse_polynomial(big_loop()))
        start = time.perf_counter()
        for count in (subgroup_count, enumerate_subgroups):
            with pytest.raises(ResourceBoundError) as info:
                count(p)
            assert str(MAX_SUBGROUP_ORDER) in str(info.value)
        assert time.perf_counter() - start < 0.1

    def test_part_base_refines_without_factoring(self):
        # The primes below 100 are divided out; the rest is refined by
        # gcds into pairwise coprime members, which need not be prime.
        assert _part_base((12, 101 * 103, 103 * 107 ** 2)) == [
            2, 3, 101, 103, 107 ** 2]
        assert _part_base((10403, 10403 ** 2, 4 * 10403)) == [2, 10403]
        assert _part_base((1, 1)) == []

    def test_z6_fourth_power_within_five_seconds(self):
        # Order 1296: 67 * 212 = 14,204 subgroups, one per pair of a
        # subgroup of Z2^4 and one of Z3^4.
        p = symmetry_group(parse_polynomial("x^6 + y^6 + z^6 + w^6"))
        start = time.perf_counter()
        subs = enumerate_subgroups(p)
        elapsed = time.perf_counter() - start
        assert len(subs) == len(set(subs)) == 14204
        assert elapsed < 5.0


@pytest.fixture
def calls(monkeypatch):
    """Counts of the HNFs (``lattice_basis``) and scaled inverses the
    package runs from here on."""
    counts = {"lattice_basis": 0, "scaled_inverse": 0}

    def counting(module, name):
        run = getattr(module, name)

        def counted(*args):
            counts[name] += 1
            return run(*args)
        monkeypatch.setattr(module, name, counted)

    counting(groups, "lattice_basis")
    counting(groups, "scaled_inverse")
    counting(linalg, "scaled_inverse")
    return counts


class TestSylowIndex:
    """Meets, containment and duals of listed subgroups, read off the
    per-prime tables of the presentation's index."""

    F = "x^6 + y^6"  # Z6 x Z6: 30 subgroups, 5 of Z2^2 times 6 of Z3^2

    def test_unlisted_presentation_names_keys_on_lookup(self, calls):
        # A never listed presentation names each key on first lookup,
        # with one scaled inverse per part (here the 2- and 3-parts) and
        # no HNF, and keeps it as its tuple's key.  Each dual then names
        # its key on the dual side with one HNF, and the dual back is the
        # key itself.  Meets and containment run neither.
        f = parse_polynomial(self.F)
        bases = [h.basis for h in enumerate_subgroups(symmetry_group(f))]
        p = GroupPresentation(symmetry_group(f).constraint)
        keys = [SubgroupKey(p, b) for b in bases]
        p.dual()  # whose ambient basis is one HNF
        calls.update(lattice_basis=0, scaled_inverse=0)
        duals = [dual_subgroup(h) for h in keys]
        assert calls == {"lattice_basis": 30, "scaled_inverse": 60}
        assert all(dual_subgroup(k) is h for h, k in zip(keys, duals))
        for h in keys:
            for k in keys:
                assert subgroup_meet(h, k) == hnf_meet(h, k)
                assert h.contains(k) == solve_contains(h, k)
        assert calls == {"lattice_basis": 30, "scaled_inverse": 60}
        assert p._index.listed is None and p.dual()._index.listed is None

    def test_one_dual_after_listing_runs_at_most_one_hnf(self, calls):
        # A dual names its key on the dual side with one HNF and no
        # inverse, and lists nothing there; the dual back lands on the
        # listed key itself.  Meets and containment run neither.
        p = symmetry_group(parse_polynomial(self.F))
        subs = enumerate_subgroups(p)
        p.dual()  # whose ambient basis is one HNF
        calls.update(lattice_basis=0, scaled_inverse=0)
        dual = dual_subgroup(subs[7])
        assert calls == {"lattice_basis": 1, "scaled_inverse": 0}
        assert len(p.dual()._index._keys) == 1
        assert p.dual()._index.listed is None
        for h in subs:
            calls.update(lattice_basis=0)
            dual = dual_subgroup(h)
            assert calls["lattice_basis"] <= 1
            assert dual_subgroup(dual) is h
            assert calls["lattice_basis"] <= 1
        assert len(p.dual()._index._keys) == 30
        calls.update(lattice_basis=0)
        for h in subs:
            for k in subs:
                subgroup_meet(h, k)
                h.contains(k)
        assert calls == {"lattice_basis": 0, "scaled_inverse": 0}

    def test_listing_twice_returns_the_same_keys(self):
        p = symmetry_group(parse_polynomial(self.F))
        first = enumerate_subgroups(p)
        second = enumerate_subgroups(p)
        assert first == second and first is not second
        assert all(a is b for a, b in zip(first, second))

    def test_keys_of_another_presentation_object_are_looked_up(self):
        # An operand from an equal presentation object is found by its
        # basis, and that object builds no index.  Its keys meet and
        # contain each other on its own index, named on first lookup,
        # as the listed keys do.
        f = parse_polynomial(self.F)
        p = symmetry_group(f)
        subs = enumerate_subgroups(p)
        other = symmetry_group(f)
        twins = [SubgroupKey(other, k.basis) for k in subs]
        for h in subs:
            for k, twin in zip(subs, twins):
                assert subgroup_meet(h, twin) == hnf_meet(h, k)
                assert h.contains(twin) == h.contains(k)
        assert other._index is None
        for h, twin_h in zip(subs, twins):
            for k, twin in zip(subs, twins):
                assert subgroup_meet(twin_h, twin) == subgroup_meet(h, k)
                assert twin_h.contains(twin) == h.contains(k)
        assert other._index.listed is None


class TestBigOrders:
    """Meets, containment, element membership and duals in groups far
    above MAX_SUBGROUP_ORDER, whose orders are never factored, against
    the triangular oracles."""

    @pytest.mark.parametrize("text", [big_loop(),
                                      big_loop() + " + " + big_loop(5)])
    def test_lattice_matches_triangular_oracles(self, text):
        # The 4-loop (cyclic) and the sum of two (Z_m x Z_m): above the
        # primes below 100 each keeps one composite part.  The subgroups
        # are generated by i*a + j*b, and by i*a and j*b, for i and j in
        # ``scales`` and the first and last standard generators a and b.
        start = time.perf_counter()
        p = symmetry_group(parse_polynomial(text))
        part = max(p.invariant_factors)
        for q in range(2, 100):
            while part % q == 0:
                part //= q
        assert part > 10 ** 20 and _part_base(p.invariant_factors)[-1] == part
        a, b = p.generators()[0], p.generators()[-1]
        scales = [1, 2, 97, part, 2 * 97 * part]
        elements = [i * a + j * b for i in scales for j in scales]
        keys = list(dict.fromkeys(
            [subgroup_generated_by(p, [g]) for g in elements]
            + [subgroup_generated_by(p, [i * a, j * b])
               for i, j in zip(scales, reversed(scales))]))
        assert len(keys) == (21 if p.is_cyclic else 30)
        for h in keys:
            dual = dual_subgroup(h)
            assert dual == triangular_dual(h)
            assert h.order * dual.order == p.order
            assert dual_subgroup(dual) == h
            for k in keys:
                meet = subgroup_meet(h, k)
                oracle = triangular_meet(h, k)
                assert meet == oracle and meet.order == oracle.order
                assert h.contains(k) == triangular_contains(h, k)
                assert k.contains(h) == triangular_contains(k, h)
            for g in elements:
                assert h.contains_element(g) == \
                    triangular_contains_element(h, g)
        assert time.perf_counter() - start < 1.0


class TestIsotropy:
    def test_empty_set_is_full_group(self, z6):
        assert isotropy_subgroup(z6, []) == full_subgroup(z6)

    def test_all_indices_is_trivial(self, z6):
        assert isotropy_subgroup(z6, [0, 1]) == trivial_subgroup(z6)

    def test_example_orders(self, z6_poly, z6):
        assert isotropy_subgroup(z6, [0]).order == 2
        p_t = symmetry_group(z6_poly).dual()
        assert isotropy_subgroup(p_t, [1]).order == 3

    def test_monotone(self, corpus_sample):
        for f in corpus_sample[:10]:
            p = symmetry_group(f)
            n = f.nvars
            for i_set in itertools.combinations(range(n), min(2, n)):
                smaller = isotropy_subgroup(p, i_set)
                for j_set in itertools.combinations(i_set, len(i_set) - 1):
                    assert isotropy_subgroup(p, j_set).contains(smaller)

    def test_out_of_range(self, z6):
        with pytest.raises(IndexBoundsError):
            isotropy_subgroup(z6, [5])

    def test_brute_force_agreement(self, z6):
        iso = isotropy_subgroup(z6, [0])
        by_hand = [g for g in z6.elements()
                   if (g.coords.fractions()[0]) == Fraction(0)]
        assert subgroup_generated_by(z6, by_hand) == iso


class TestPairing:
    def test_identity_pairs_to_zero(self, z6_poly, z6):
        p_t = symmetry_group(z6_poly).dual()
        for mu in z6.elements():
            assert pairing(p_t.identity(), mu) == 0

    def test_shift_invariance(self, z6_poly, z6):
        # Coordinates are reduced mod 1 on construction, so adding integer
        # vectors yields the same element and the same pairing value.
        p_t = symmetry_group(z6_poly).dual()
        lam = next(g for g in p_t.elements() if g.order > 1)
        mu = next(g for g in z6.elements() if g.order > 1)
        shifted = z6.element(RationalVector(
            [n + mu.coords.denominator for n in mu.coords.numerators],
            mu.coords.denominator))
        assert shifted == mu
        assert pairing(lam, shifted) == pairing(lam, mu)

    def test_biadditive(self):
        f = parse_polynomial("x^3*y + y^3")
        p = symmetry_group(f)
        p_t = symmetry_group(f).dual()
        lams = list(p_t.elements())
        mus = list(p.elements())
        for lam1, lam2 in itertools.product(lams[:5], repeat=2):
            for mu in mus[:5]:
                assert pairing(lam1 + lam2, mu) == \
                    (pairing(lam1, mu) + pairing(lam2, mu)) % 1
        for lam in lams[:5]:
            for mu1, mu2 in itertools.product(mus[:5], repeat=2):
                assert pairing(lam, mu1 + mu2) == \
                    (pairing(lam, mu1) + pairing(lam, mu2)) % 1

    def test_non_degenerate(self):
        f = parse_polynomial("x^3*y + y^3")
        p = symmetry_group(f)
        p_t = symmetry_group(f).dual()
        mus = list(p.elements())
        for lam in p_t.elements():
            if all(pairing(lam, mu) == 0 for mu in mus):
                assert lam.is_identity()

    def test_mismatched_groups_rejected(self, z6):
        other = symmetry_group(parse_polynomial("x^5"))
        with pytest.raises(OwnershipError):
            pairing(other.identity(), z6.identity())


class TestDualSubgroup:
    def test_trivial_and_full(self, z6):
        p_t = z6.dual()
        assert dual_subgroup(trivial_subgroup(z6)) == full_subgroup(p_t)
        assert dual_subgroup(full_subgroup(z6)) == trivial_subgroup(p_t)

    def test_isotropy_example(self, z6_poly, z6):
        h2 = isotropy_subgroup(z6, [0])
        p_t = symmetry_group(z6_poly).dual()
        assert dual_subgroup(h2) == isotropy_subgroup(p_t, [1])
        assert dual_subgroup(h2).order == 3

    @pytest.mark.parametrize("text", [
        "x^3 + x*y^2", "x^4 + y^6", "x^2 + y^2", "x^3*y + y^3",
        "x^2*y + y^3*z + z^4", "x^2*y + y^2*z + z^2*x",
    ])
    def test_duality_laws_and_kernel_oracle(self, text):
        f = parse_polynomial(text)
        p = symmetry_group(f)
        for h in enumerate_subgroups(p):
            dual = dual_subgroup(h)
            assert h.order * dual.order == p.order
            assert dual_subgroup(dual) == h
            assert dual == kernel_dual(h)

    def test_kernel_oracle_all_pairs_spot(self, z6):
        for h in enumerate_subgroups(z6):
            assert dual_subgroup(h) == kernel_dual_all_pairs(h)

    @pytest.mark.parametrize("text", ["x^21 + y^22", "x^15 + y^15"])
    def test_double_dual_on_larger_groups(self, text):
        # Orders 462 and 225, one cyclic and one of rank two.
        p = symmetry_group(parse_polynomial(text))
        assert p.order <= 500
        for h in enumerate_subgroups(p):
            dual = dual_subgroup(h)
            assert dual_subgroup(dual) == h
            assert h.order * dual.order == p.order


class TestMonodromyAndRoots:
    def test_fermat(self):
        f = parse_polynomial("x^5")
        h = monodromy_element(f)
        assert h.coords == RationalVector([1], 5)
        assert h.order == 5
        assert geometric_roots(f) == [h]

    def test_chain_example(self):
        h = monodromy_element(parse_polynomial("x^3*y + y^3"))
        assert h.coords.fractions() == (Fraction(2, 9), Fraction(3, 9))
        assert h.order == 9

    def test_reduced_weights_example(self, z6_poly):
        h = monodromy_element(z6_poly)
        assert h.coords.fractions() == (Fraction(1, 3), Fraction(1, 3))
        assert h.order == 3

    def test_roots_of_z6_example(self, z6_poly, z6):
        roots = geometric_roots(z6_poly)
        assert len(roots) == 2
        h = monodromy_element(z6_poly, z6)
        assert all(2 * r == h for r in roots)
        # Not every solution generates, but at least one does.
        assert sorted(r.order for r in roots) == [3, 6]
        assert roots == sorted(roots, key=lambda g: g.coords.fractions())

    def test_roots_brute_force(self, z6_poly, z6):
        h = monodromy_element(z6_poly, z6)
        c = canonical_weights(z6_poly).gcd_factor
        expected = sorted((g for g in z6.elements() if c * g == h),
                          key=lambda g: g.coords.fractions())
        assert geometric_roots(z6_poly, z6) == expected

    def test_listing_builds_no_fraction(self, monkeypatch):
        # The roots are listed and sorted on integer vectors only.
        f = parse_polynomial("x^29*y + y^29*z + z^29*x")

        def refuse(*args):
            raise AssertionError("a Fraction was built")

        monkeypatch.setattr(linalg, "Fraction", refuse)
        monkeypatch.setattr(groups, "Fraction", refuse)
        p = symmetry_group(f)
        roots = geometric_roots(f, p)
        monkeypatch.undo()
        assert len(roots) == root_count(f, p) == 813
        assert roots == coordinate_roots(f, p)

    def test_no_roots_for_non_cyclic(self):
        assert geometric_roots(parse_polynomial("x^2 + y^2")) == []

    def test_roots_are_trial_solutions_and_cyclic_groups_have_a_generator(
            self, corpus_sample):
        # Cyclic groups always have a generating root, but roots can exist
        # in a non-cyclic group too (see test_non_cyclic_group_with_roots).
        for f in corpus_sample:
            p = symmetry_group(f)
            roots = geometric_roots(f, p)
            assert roots == brute_roots(f, p)
            if p.is_cyclic:
                assert any(r.order == p.order for r in roots)
            if roots:
                assert len(roots) == root_count(f, p)

    def test_non_cyclic_group_with_roots(self):
        # Z2 x Z42: h has order 21 = d/c with c = 4, and 4G is the cyclic
        # subgroup of order 21, so c*g = h has |G[4]| = 2 * 2 solutions.
        f = parse_polynomial("x^3*y + y^5*x + z^2*w + w^3")
        p = symmetry_group(f)
        assert p.invariant_factors[-2:] == (2, 42)
        assert root_count(f, p) == 4
        roots = geometric_roots(f, p)
        assert len(roots) == 4
        h = monodromy_element(f, p)
        assert all(4 * r == h for r in roots)

    def test_listing_bounded(self):
        f = parse_polynomial("x^131*y + y^131*z + z^131*x")
        assert root_count(f) == 17031 <= MAX_LISTED_ROOTS
        big = parse_polynomial("x^1013*y + y^1013*z + z^1013*w + w^1013*x")
        assert root_count(big) == 1038484040
        with pytest.raises(ResourceBoundError) as info:
            geometric_roots(big)
        assert "1038484040" in str(info.value)

    def test_foreign_group_rejected(self, z6):
        # The monodromy element (2/9, 1/3) of x^3*y + y^3 is not in Z6, so
        # the lattice solve never sees it.
        with pytest.raises(OwnershipError):
            geometric_roots(parse_polynomial("x^3*y + y^3"), z6)
