"""Burnside-ring arithmetic, the duality transform, and cyclotomic products."""

import copy
import itertools
import time

import pytest

from saitodual.burnside import (BurnsideElement, CyclotomicProduct,
                                burnside_from_cyclotomic, element_zeta, mark,
                                multiply, restrict, saito_dual)
from saitodual.errors import OwnershipError, StructureError
from saitodual.groups import (enumerate_subgroups, full_subgroup,
                              monodromy_element, symmetry_group,
                              trivial_subgroup)
from saitodual.polynomials import parse_polynomial
from saitodual.zeta import (AtomRecords, DualPair, equivariant_zeta,
                            verify_zeta_duality)

import oracles
from conftest import distinct_groups, pair_over
from oracles import (brute_element_zeta, brute_mark, brute_multiply,
                     brute_restrict, induce, per_action_multiply,
                     per_action_restrict)


@pytest.fixture(scope="module")
def z9():
    return symmetry_group(parse_polynomial("x^9"))


@pytest.fixture(scope="module")
def z6_poly():
    return parse_polynomial("x^3 + x*y^2")


@pytest.fixture(scope="module")
def z6(z6_poly):
    return symmetry_group(z6_poly)


@pytest.fixture(scope="module")
def z12():
    return symmetry_group(parse_polynomial("x^4 + y^3"))


@pytest.fixture(scope="module")
def z24():
    return symmetry_group(parse_polynomial("x^2*y + y^3*z + z^4"))


def orbit(scope, key):
    return BurnsideElement.orbit(scope, key)


class TestScope:
    def test_orbit_key_outside_scope_rejected(self, z24):
        subs = {s.order: s for s in enumerate_subgroups(z24)}
        with pytest.raises(OwnershipError):
            BurnsideElement(subs[2], {subs[3]: 1})
        with pytest.raises(OwnershipError):
            orbit(subs[4], subs[8])
        assert orbit(subs[8], subs[4]).cardinality() == 2
        assert BurnsideElement(subs[6], {subs[3]: 2, subs[1]: 0}).terms == \
            {subs[3]: 2}

    def test_products_and_restrictions_stay_in_scope(self, z24):
        # multiply and restrict build their keys as meets inside the
        # scope and drop the coefficients that cancel.
        subs = enumerate_subgroups(z24)
        scope = full_subgroup(z24)
        a = orbit(scope, subs[2]) - orbit(scope, subs[3])
        for k in subs:
            r = restrict(a, k)
            assert all(k.contains(h) and c for h, c in r.terms.items())
            assert r == BurnsideElement(k, r.terms)
        square = multiply(a, a)
        assert all(square.terms.values())
        assert square == BurnsideElement(scope, square.terms)
        assert a - a == BurnsideElement(scope)


class TestMultiply:
    def test_unit(self, z9):
        scope = full_subgroup(z9)
        one = BurnsideElement.unit(scope)
        a = orbit(scope, trivial_subgroup(z9)) - 2 * one
        assert multiply(one, a) == a

    def test_free_square_in_z9(self, z9):
        scope = full_subgroup(z9)
        free = orbit(scope, trivial_subgroup(z9))
        assert multiply(free, free) == 9 * free

    def test_distinct_order_two_subgroups(self):
        p = symmetry_group(parse_polynomial("x^2 + y^2"))
        scope = full_subgroup(p)
        twos = [s for s in enumerate_subgroups(p) if s.order == 2]
        h, k = twos[0], twos[1]
        product = multiply(orbit(scope, h), orbit(scope, k))
        assert product == orbit(scope, trivial_subgroup(p))

    def test_matches_brute_force(self, z12):
        scope = full_subgroup(z12)
        subs = enumerate_subgroups(z12)
        for h, k in itertools.combinations_with_replacement(subs, 2):
            assert multiply(orbit(scope, h), orbit(scope, k)) == \
                brute_multiply(scope, h, k)

    def test_scope_mismatch(self, z9, z6):
        with pytest.raises(OwnershipError):
            multiply(BurnsideElement.unit(full_subgroup(z9)),
                     BurnsideElement.unit(full_subgroup(z6)))


class TestRestrict:
    def test_to_full_group_is_identity(self, z6):
        scope = full_subgroup(z6)
        a = orbit(scope, trivial_subgroup(z6)) - 3 * BurnsideElement.unit(scope)
        assert restrict(a, scope) == a

    def test_z6_example_against_oracle(self, z6):
        scope = full_subgroup(z6)
        subs = {s.order: s for s in enumerate_subgroups(z6)}
        res = restrict(orbit(scope, subs[3]), subs[2])
        assert res == brute_restrict(orbit(scope, subs[3]), subs[2])
        assert res == orbit(subs[2], trivial_subgroup(z6))

    def test_all_pairs_against_oracle(self, z12):
        scope = full_subgroup(z12)
        subs = enumerate_subgroups(z12)
        for h in subs:
            a = orbit(scope, h)
            for k in subs:
                assert restrict(a, k) == brute_restrict(a, k)

    def test_ring_homomorphism(self, z12):
        scope = full_subgroup(z12)
        subs = enumerate_subgroups(z12)
        a = orbit(scope, subs[1]) - 2 * orbit(scope, subs[3])
        b = orbit(scope, subs[2]) + orbit(scope, subs[0])
        for k in subs:
            assert restrict(multiply(a, b), k) == \
                multiply(restrict(a, k), restrict(b, k))

    def test_ownership_errors(self, z12, z6):
        a = BurnsideElement.unit(full_subgroup(z12))
        foreign = trivial_subgroup(z6)
        with pytest.raises(OwnershipError):
            restrict(a, foreign)
        with pytest.raises(OwnershipError):
            induce(a, foreign)
        with pytest.raises(OwnershipError):
            mark(a, foreign)
        # Restriction target must lie inside the scope.
        small = next(s for s in enumerate_subgroups(z12) if s.order == 2)
        scoped = BurnsideElement.unit(small)
        with pytest.raises(OwnershipError):
            restrict(scoped, full_subgroup(z12))


class TestTableOracles:
    def test_tables_match_per_action_oracles(self, batch45, monkeypatch):
        # The brute-force products and restrictions act on coset ids,
        # with no reduction per action; the per-action reductions they
        # replaced agree on every pair of subgroups of every corpus group
        # of order at most 24, both sides.  Restrictions are checked
        # before the products tabulate the scope's addition and after.
        monkeypatch.setattr(oracles, "_table_cache", {})
        groups = distinct_groups(batch45, max_order=24)
        pairs = checked = 0
        for p in groups:
            scope = full_subgroup(p)
            subs = enumerate_subgroups(p)
            orbits = [BurnsideElement.orbit(scope, h) for h in subs]
            restrictions = [per_action_restrict(a, k)
                            for a in orbits for k in subs]
            assert restrictions == [brute_restrict(a, k)
                                    for a in orbits for k in subs]
            for h, k in itertools.combinations_with_replacement(subs, 2):
                assert brute_multiply(scope, h, k) == \
                    per_action_multiply(scope, h, k)
                pairs += 1
            assert restrictions == [brute_restrict(a, k)
                                    for a in orbits for k in subs]
            checked += len(restrictions)
        assert (len(groups), pairs, checked) == (220, 14575, 27259)


class TestInduce:
    def test_one_point_set(self, z6):
        scope = full_subgroup(z6)
        k = next(s for s in enumerate_subgroups(z6) if s.order == 3)
        ind = induce(BurnsideElement.unit(k), scope)
        assert ind == orbit(scope, k)

    def test_free_orbit(self, z6):
        scope = full_subgroup(z6)
        k = next(s for s in enumerate_subgroups(z6) if s.order == 3)
        a = orbit(k, trivial_subgroup(z6))
        assert induce(a, scope) == orbit(scope, trivial_subgroup(z6))

    def test_not_multiplicative_witness(self, z6):
        scope = full_subgroup(z6)
        k = next(s for s in enumerate_subgroups(z6) if s.order == 3)
        one_k = BurnsideElement.unit(k)
        lhs = induce(multiply(one_k, one_k), scope)
        rhs = multiply(induce(one_k, scope), induce(one_k, scope))
        assert lhs != rhs


class TestMark:
    def test_trivial_subgroup_counts_points(self, z12):
        scope = full_subgroup(z12)
        subs = enumerate_subgroups(z12)
        a = orbit(scope, subs[0]) - 2 * orbit(scope, subs[-1])
        assert mark(a, trivial_subgroup(z12)) == a.cardinality()

    def test_full_group_mark(self, z6):
        scope = full_subgroup(z6)
        for h in enumerate_subgroups(z6):
            expected = 1 if h == scope else 0
            assert mark(orbit(scope, h), scope) == expected

    def test_ring_homomorphism_against_oracle(self, z12):
        scope = full_subgroup(z12)
        subs = enumerate_subgroups(z12)
        a = orbit(scope, subs[1]) + 2 * orbit(scope, subs[4])
        b = orbit(scope, subs[2]) - orbit(scope, subs[0])
        ab = multiply(a, b)
        for k in subs:
            assert mark(ab, k) == mark(a, k) * mark(b, k)
            assert mark(a, k) == brute_mark(a, k)

    def test_subgroup_outside_scope_rejected(self, z24):
        # As restrict does: K3 is not inside S2, so mark_K3 of a set over
        # S2 is undefined, not 0.
        subs = {s.order: s for s in enumerate_subgroups(z24)}
        with pytest.raises(OwnershipError):
            mark(BurnsideElement.unit(subs[2]), subs[3])
        with pytest.raises(OwnershipError):
            restrict(BurnsideElement.unit(subs[2]), subs[3])
        assert mark(BurnsideElement.unit(subs[6]), subs[3]) == 1
        assert mark(orbit(subs[6], subs[2]), subs[3]) == 0

    def test_joint_marks_injective_on_basis(self, z12):
        scope = full_subgroup(z12)
        subs = enumerate_subgroups(z12)
        vectors = {}
        for h in subs:
            vec = tuple(mark(orbit(scope, h), k) for k in subs)
            assert vec not in vectors.values()
            vectors[h] = vec


class TestSaitoDual:
    def test_unit_and_free_swap(self, z6_poly, z6):
        scope = full_subgroup(z6)
        dual_scope = full_subgroup(z6.dual())
        assert saito_dual(BurnsideElement.unit(scope)) == \
            orbit(dual_scope, trivial_subgroup(z6.dual()))
        assert saito_dual(orbit(scope, trivial_subgroup(z6))) == \
            BurnsideElement.unit(dual_scope)

    def test_orbit_sizes_swap_in_cyclic_groups(self, z12):
        # An orbit with m points maps to an orbit with d/m points.
        scope = full_subgroup(z12)
        d = z12.order
        for h in enumerate_subgroups(z12):
            image = saito_dual(orbit(scope, h))
            (key, coeff), = image.terms.items()
            assert coeff == 1
            orbit_size = d // h.order
            assert d // key.order == d // orbit_size

    def test_example_z6(self, z6, z6_poly):
        scope = full_subgroup(z6)
        subs = {s.order: s for s in enumerate_subgroups(z6)}
        a = orbit(scope, subs[2]) - orbit(scope, subs[1]) \
            - BurnsideElement.unit(scope)
        p_t = z6.dual()
        dual_subs = {s.order: s for s in enumerate_subgroups(p_t)}
        dual_scope = full_subgroup(p_t)
        expected = orbit(dual_scope, dual_subs[3]) \
            - BurnsideElement.unit(dual_scope) \
            - orbit(dual_scope, dual_subs[1])
        assert saito_dual(a) == expected

    def test_involution_and_additivity(self, z12):
        scope = full_subgroup(z12)
        subs = enumerate_subgroups(z12)
        a = orbit(scope, subs[1]) - 4 * orbit(scope, subs[2])
        b = 2 * orbit(scope, subs[0])
        assert saito_dual(saito_dual(a)) == a
        assert saito_dual(a + b) == saito_dual(a) + saito_dual(b)
        images = {saito_dual(orbit(scope, h)) for h in subs}
        assert len(images) == len(subs)

    def test_requires_full_scope(self, z6):
        k = next(s for s in enumerate_subgroups(z6) if s.order == 3)
        with pytest.raises(StructureError):
            saito_dual(BurnsideElement.unit(k))


class TestIsSaitoDualLargeBuckets:
    def test_sum_of_eleven_squares(self, monkeypatch):
        # Z2^11: 2,048 reduced zeta terms, each a product of one merged
        # subgroup of each of the eleven blocks x_i^2.  The zeta check
        # reads one dual map, of that block's record and itself, and one
        # lookup per term: no dual subgroup and no key.  Its verdicts
        # agree with the built transform, on a transposed side rebuilt
        # from a copy of the block's record with a coefficient negated
        # too.
        import saitodual.groups
        calls = []
        original = saitodual.groups.dual_subgroup
        monkeypatch.setattr(saitodual.groups, "dual_subgroup",
                            lambda h: calls.append(h) or original(h))
        pair = DualPair(parse_polynomial(
            " + ".join(f"x{i}^2" for i in range(1, 12))))
        start = time.perf_counter()
        assert verify_zeta_duality(pair).equal
        assert time.perf_counter() - start < 5
        rep, rep_t = pair.report, pair.report_t
        assert calls == [] and "reduced" not in vars(rep)
        assert len(rep._terms) == 2048
        (record,) = set(rep._records) | set(rep_t._records)
        assert record.dual_map(record) == (1, 0)
        monkeypatch.undo()
        transform = saito_dual(rep.reduced)
        assert transform == -rep_t.reduced
        negated = copy.copy(record)
        (rows, c, r, index), other = record.merged
        negated.merged = ((rows, -c, r, index), other)
        atoms = AtomRecords()
        atoms[record.presentation.constraint] = negated
        side_t = equivariant_zeta(pair.ft, pair.group_t, atoms)
        assert not verify_zeta_duality(pair_over(rep, side_t)).equal
        assert transform != -side_t.reduced


class TestElementZeta:
    def test_identity_transformation(self, z6):
        scope = full_subgroup(z6)
        for h in enumerate_subgroups(z6):
            phi = element_zeta(z6.identity(), orbit(scope, h))
            assert phi == CyclotomicProduct(1, {1: z6.order // h.order})

    def test_z9_chain_zeta(self, z9):
        scope = full_subgroup(z9)
        subs = {s.order: s for s in enumerate_subgroups(z9)}
        a = orbit(scope, subs[3]) - orbit(scope, subs[1])
        g = next(e for e in z9.elements() if e.order == 9)
        assert element_zeta(g, a) == CyclotomicProduct(9, {3: 1, 9: -1})

    def test_z6_monodromy_zeta(self, z6_poly, z6):
        scope = full_subgroup(z6)
        subs = {s.order: s for s in enumerate_subgroups(z6)}
        a = orbit(scope, subs[2]) - orbit(scope, subs[1])
        h = monodromy_element(z6_poly, z6)
        assert element_zeta(h, a) == CyclotomicProduct(3, {3: -1})

    def test_against_cycle_count_oracle(self, z12):
        scope = full_subgroup(z12)
        subs = enumerate_subgroups(z12)
        a = orbit(scope, subs[1]) - orbit(scope, subs[0]) \
            + 2 * orbit(scope, subs[3])
        for g in z12.elements():
            assert element_zeta(g, a) == brute_element_zeta(g, a)

    def test_element_outside_scope_rejected(self, z6):
        k = next(s for s in enumerate_subgroups(z6) if s.order == 2)
        g = next(e for e in z6.elements() if e.order == 3)
        with pytest.raises(OwnershipError):
            element_zeta(g, BurnsideElement.unit(k))


class TestCyclotomicCorrespondence:
    def test_one_point_factor(self, z9):
        phi = CyclotomicProduct(9, {1: 1})
        a = burnside_from_cyclotomic(phi, z9)
        assert a == BurnsideElement.unit(full_subgroup(z9))

    def test_free_orbit_factor(self, z9):
        phi = CyclotomicProduct(9, {9: 1})
        a = burnside_from_cyclotomic(phi, z9)
        assert a == BurnsideElement.orbit(full_subgroup(z9),
                                          trivial_subgroup(z9))

    def test_inverse_of_element_zeta(self, z9):
        phi = CyclotomicProduct(9, {3: 1, 9: -1})
        a = burnside_from_cyclotomic(phi, z9)
        subs = {s.order: s for s in enumerate_subgroups(z9)}
        scope = full_subgroup(z9)
        assert a == orbit(scope, subs[3]) - orbit(scope, subs[1])

    @pytest.mark.parametrize("d", [1, 2, 6, 12, 30, 60])
    def test_round_trip_all_moduli(self, d):
        p = symmetry_group(parse_polynomial(f"x^{d}")) if d > 1 else \
            symmetry_group(parse_polynomial("x"))
        divisors = [m for m in range(1, d + 1) if d % m == 0]
        # A representative spread of factor maps over the divisors.
        samples = [
            {m: 1 for m in divisors},
            {m: (-1) ** i * (i + 1) for i, m in enumerate(divisors)},
            {divisors[-1]: -2},
        ]
        gens = [g for g in p.elements() if g.order == d]
        generator = gens[0] if gens else p.identity()
        for factors in samples:
            phi = CyclotomicProduct(d, factors)
            a = burnside_from_cyclotomic(phi, p)
            assert element_zeta(generator, a) == phi

    def test_non_cyclic_rejected(self):
        p = symmetry_group(parse_polynomial("x^2 + y^2"))
        with pytest.raises(StructureError):
            burnside_from_cyclotomic(CyclotomicProduct(4, {2: 1}), p)

    def test_modulus_mismatch_rejected(self, z9):
        with pytest.raises(StructureError):
            burnside_from_cyclotomic(CyclotomicProduct(3, {3: 1}), z9)


class TestCyclotomicProduct:
    def test_validation(self):
        with pytest.raises(ValueError):
            CyclotomicProduct(6, {4: 1})
        with pytest.raises(ValueError):
            CyclotomicProduct(0, {})

    def test_zero_exponents_dropped(self):
        assert CyclotomicProduct(6, {2: 0, 3: 1}).factors == {3: 1}

    def test_multiplication_rescales_to_lcm(self):
        a = CyclotomicProduct(4, {2: 1})
        b = CyclotomicProduct(6, {3: -1})
        ab = a * b
        assert ab.modulus == 12
        assert ab.factors == {2: 1, 3: -1}

    def test_power_and_inverse(self):
        a = CyclotomicProduct(6, {2: 1, 3: -2})
        assert (a ** -1).factors == {2: -1, 3: 2}
        assert (a * a.inverse()).is_one()
        assert (a ** 0).is_one()

    def test_degree(self):
        assert CyclotomicProduct(9, {3: 1, 9: -1}).degree() == -6

    def test_format(self):
        assert CyclotomicProduct(9, {3: 1, 9: -1}).format() == \
            "(1-t^3)(1-t^9)^-1"
        assert CyclotomicProduct(6, {1: -1, 2: 1, 6: -1}).format() == \
            "(1-t)^-1(1-t^2)(1-t^6)^-1"
        assert CyclotomicProduct(5, {}).format() == "1"

    def test_with_modulus(self):
        a = CyclotomicProduct(3, {3: -1})
        b = a.with_modulus(6)
        assert b.modulus == 6 and b.factors == {3: -1}
        with pytest.raises(ValueError):
            a.with_modulus(4)
