"""The closed forms of the isotropy subgroup, the coset order, the root
count and the root duality, the subgroups built in SNF coordinates, the
one integer solver of ``linalg``, the integer element arithmetic on
d-scaled vectors, the annihilator test of the zeta duality, the zeta
report, classical zeta and weights of a direct sum assembled from its
atoms, and the meets, dual subgroups and containment read off cached
scaled inverses, checked against the searches, root lists, join closure,
rational elimination, rational element arithmetic, dual lattices, full
subset loop, ``element_zeta``, ``canonical_weights``, dual-lattice HNFs,
inverses of C*B and lattice solves they replaced (kept in ``oracles`` or
in the package): over the whole acceptance corpus on both sides, and on
random integer matrices."""

import itertools
import json
from fractions import Fraction

from hypothesis import assume, example, given, settings, strategies as st

import pytest

from saitodual.burnside import (BurnsideElement, _coset_order,
                                burnside_from_cyclotomic, element_zeta,
                                is_saito_dual, saito_dual)
from saitodual.errors import SingularMatrixError, StructureError
from saitodual.groups import (GroupElement, GroupPresentation,
                              SubgroupKey, dual_subgroup, enumerate_subgroups,
                              full_subgroup, geometric_roots,
                              isotropy_subgroup, monodromy_element, pairing,
                              root_count, subgroup_generated_by,
                              subgroup_meet, symmetry_group,
                              trivial_subgroup)
from saitodual.linalg import (IntMatrix, determinant, lattice_basis,
                              lattice_solve, scaled_inverse)
from saitodual.enumeration import generate_corpus, run_batch
from saitodual.polynomials import (InvertiblePolynomial, canonical_weights,
                                   parse_polynomial)
from saitodual.zeta import (AtomRecords, _diagonal_blocks, equivariant_zeta,
                            generating_root_exists, generating_root_zeta)

from conftest import distinct_groups
from oracles import (RationalElement, ambient_quotient_data, brute_roots,
                     coordinate_roots, cramer_weights,
                     direct_equivariant_zeta, divisor_coset_order,
                     element_mismatches, fraction_lattice_solve,
                     fraction_scaled_inverse, hnf_meet, inverse_dual,
                     join_closure_subgroups, kernel_dual_all_pairs,
                     listed_root_zeta, meet_isotropy, reference_generators,
                     solve_contains, solve_contains_element,
                     with_generators)


def sides(batch45):
    """(polynomial, group, zeta report) for both sides of every corpus
    polynomial, from the records of the acceptance batch."""
    for record in batch45.records:
        for rep in (record.theorem.rhs_report, record.theorem.lhs_report):
            yield rep.polynomial, rep.group, rep


def nonempty_subsets(n):
    for k in range(1, n + 1):
        yield from itertools.combinations(range(n), k)


def factorization_mismatches(p):
    """The facts of the one Smith form S = U*C*V of ``p`` that fail: its
    dual is built from the transposed factorization and returns ``p``;
    the dual's invariant factors and ambient basis are those of a fresh
    Smith form of C^T; the stored generators have the orders d_j and,
    with the d*e_i, span the ambient basis, which the columns of d*C^-1
    (by rational elimination) span too; every standard generator is the
    sum of its SNF coordinates a_j times the stored generators; and every
    pair of standard generators x, y of the two sides pairs to
    sum_j a_j*b_j/d_j mod 1 in their SNF coordinates a, b."""
    q = p.dual()
    d, n, factors = p.order, p.rank, p.invariant_factors
    bad = []
    if q.dual() is not p:
        bad.append("dual of dual")
    fresh = GroupPresentation(p.constraint.transpose(), q.side)
    if (q.invariant_factors, q.ambient_basis) != (
            fresh.invariant_factors, fresh.ambient_basis):
        bad.append("fresh Smith form of C^T")
    gens = p._gens.columns()
    if [GroupElement._wrap(p, tuple(x % d for x in g)).order
            for g in gens] != list(factors):
        bad.append("generator orders")
    base = [[d if r == i else 0 for r in range(n)] for i in range(n)]
    inverse = fraction_scaled_inverse(p.constraint, d)
    if not (lattice_basis(gens + base, n) == p.ambient_basis
            == lattice_basis(inverse.columns() + base, n)):
        bad.append("ambient basis")
    for x in p.generators():
        a = p._coordinates(x.scaled())
        if tuple(sum(c * g[i] for c, g in zip(a, gens)) % d
                 for i in range(n)) != x.scaled():
            bad.append(f"coordinates of {x}")
        for y in q.generators():
            b = q._coordinates(y.scaled())
            diagonal = sum(Fraction(s * t, o)
                           for s, t, o in zip(a, b, factors)) % 1
            if pairing(x, y) != diagonal:
                bad.append(f"pairing of {x} and {y}")
    return bad


def quotient_data_mismatches(f, p):
    """Where the generators of ``p``'s own Smith form and those of the
    second Smith form the package ran before (``ambient_quotient_data``)
    give different results: the invariant factors, every subgroup, and,
    for a cyclic group, the element of the generating-root zeta function
    under ``burnside_from_cyclotomic``.  The roots of the old data are
    ``coordinate_roots``, checked against ``geometric_roots``
    elsewhere."""
    gens, orders, _ = ambient_quotient_data(p)
    old = with_generators(p, gens)
    bad = []
    if orders != p.invariant_factors:
        bad.append("orders")
    if enumerate_subgroups(old) != enumerate_subgroups(p):
        bad.append("subgroups")
    if p.is_cyclic:
        rep = equivariant_zeta(f, p)
        phi = generating_root_zeta(rep)
        if not (burnside_from_cyclotomic(phi, p)
                == burnside_from_cyclotomic(phi, old) == rep.reduced):
            bad.append("burnside_from_cyclotomic")
    return bad


def differs_from_direct_loop(rep):
    """Whether a zeta report differs anywhere in its JSON text, audit
    order included, from the full subset loop's over the same group."""
    direct = direct_equivariant_zeta(rep.polynomial, rep.group)
    return json.dumps(rep.to_json()) != json.dumps(direct.to_json())


def lattice_mismatches(subgroups, terms, sampled):
    """Counts (duals, meet pairs, containment tests, mismatches) of the
    dual of every subgroup against ``inverse_dual``, and of the meet of
    each sampled (subgroup, term) pair against ``hnf_meet`` and the
    containment of each in the other against ``solve_contains``.  Pair
    (i, j) of the i-th subgroup and the j-th term is sampled when
    ``sampled(i, j)``."""
    pairs = mismatches = 0
    for h in subgroups:
        mismatches += dual_subgroup(h) != inverse_dual(h)
    for i, h in enumerate(subgroups):
        for j, k in enumerate(terms):
            if not sampled(i, j):
                continue
            pairs += 1
            mismatches += (subgroup_meet(h, k) != hnf_meet(h, k)
                           or h.contains(k) != solve_contains(h, k)
                           or k.contains(h) != solve_contains(k, h))
    return len(subgroups), pairs, 2 * pairs, mismatches


def composition_counts(batch):
    """(sides, sides that are sums, sides whose report differs from the
    full subset loop's) over the records of a batch."""
    checked = sums = mismatches = 0
    for f, _, rep in sides(batch):
        checked += 1
        sums += len(_diagonal_blocks(f.exponents)) > 1
        mismatches += differs_from_direct_loop(rep)
    return checked, sums, mismatches


def composed_fact_mismatches(rep):
    """The facts of a zeta report composed from its atoms' records that
    differ from the forms they replaced: the classical zeta from
    ``element_zeta`` of the monodromy (of a fresh copy of the polynomial,
    so its weights are not the composed ones) on the equivariant zeta,
    the polynomial's weights from ``canonical_weights``, and each audit
    key's carried order from a fresh ``SubgroupKey``."""
    f, p = rep.polynomial, rep.group
    fresh = InvertiblePolynomial(f.exponents)
    bad = []
    if rep.classical != element_zeta(monodromy_element(fresh, p),
                                     rep.equivariant):
        bad.append("classical")
    if f.weights != canonical_weights(fresh):
        bad.append("weights")
    for t in rep.subset_terms:
        if t.isotropy.order != SubgroupKey(p, t.isotropy.basis).order:
            bad.append(f"order of {t.indices}")
    return bad


def composed_fact_counts(batch):
    """(sides, sides with a composed fact that differs) over the records
    of a batch."""
    checked = mismatches = 0
    for _, _, rep in sides(batch):
        checked += 1
        mismatches += bool(composed_fact_mismatches(rep))
    return checked, mismatches


@pytest.fixture(scope="module")
def batch55_sample():
    """One batch over a seeded sample of the (5,5) sums corpus."""
    corpus, _ = generate_corpus(5, 5, include_sums=True, sample=150,
                                seed=12)
    return run_batch(corpus, keep_records=True)


def outcome(solver, *args):
    """The solver's result, or the type of the error it raised."""
    try:
        return solver(*args)
    except (SingularMatrixError, ValueError) as exc:
        return type(exc)


class TestCorpusDifferential:
    def test_isotropy_matches_meet(self, batch45):
        checked = mismatches = 0
        for _, p, _ in sides(batch45):
            for subset in nonempty_subsets(p.rank):
                checked += 1
                mismatches += (isotropy_subgroup(p, subset)
                               != meet_isotropy(p, subset))
        assert (checked, mismatches) == (42912, 0)

    def test_coset_order_matches_divisor_search(self, batch45):
        # Every Burnside term of every equivariant zeta function, against
        # the monodromy element and every standard generator.
        checked = mismatches = 0
        for f, p, rep in sides(batch45):
            elements = [monodromy_element(f, p)] + p.generators()
            for h in rep.equivariant.terms:
                for g in elements:
                    checked += 1
                    mismatches += (_coset_order(h.basis, g.scaled())
                                   != divisor_coset_order(g, h))
        assert (checked, mismatches) == (88936, 0)

    def test_scaled_inverse_matches_fraction_elimination(self, batch45):
        # What the package inverts for a corpus polynomial: its exponent
        # matrix E with |det E| for the weights, and C*B with d^2 for each
        # reduced zeta term B, which oracles.inverse_dual inverts (upper
        # triangular for chains, otherwise the HNF route).
        checked = mismatches = 0
        for f, p, rep in sides(batch45):
            dd = p.order ** 2
            inputs = [(f.exponents, abs(f.det))]
            inputs += [(p.constraint * h.basis, dd)
                       for h in rep.reduced.terms]
            for m, s in inputs:
                checked += 1
                mismatches += (scaled_inverse(m, s)
                               != fraction_scaled_inverse(m, s))
        assert (checked, mismatches) == (24472, 0)

    def test_generating_root_closed_form_matches_listing(self, batch45):
        # Both sides of every cyclic corpus group: the existence test and
        # the cyclotomic product against the first generating listed root.
        checked = mismatches = 0
        for _, p, rep in sides(batch45):
            if not p.is_cyclic:
                continue
            checked += 1
            oracle = listed_root_zeta(rep)
            exists = generating_root_exists(rep)
            mismatches += (exists != (oracle is not None)
                           or exists and generating_root_zeta(rep) != oracle)
        assert (checked, mismatches) == (1664, 0)

    def test_root_count_matches_listing(self, batch45):
        # Every corpus group, both sides; 12 non-cyclic sides have roots.
        checked = mismatches = non_cyclic_with_roots = 0
        for f, p, _ in sides(batch45):
            listed = coordinate_roots(f, p)
            count = root_count(f, p)
            checked += 1
            mismatches += (count != len(listed)
                           or geometric_roots(f, p) != listed)
            non_cyclic_with_roots += bool(count) and not p.is_cyclic
        assert (checked, mismatches, non_cyclic_with_roots) == (3152, 0, 12)

    def test_subgroups_match_join_closure(self, batch45):
        # Every distinct corpus group of order <= 200, both sides: the same
        # keys in the same order.
        groups = distinct_groups(batch45, max_order=200)
        subgroups = mismatches = 0
        for p in groups:
            built = enumerate_subgroups(p)
            subgroups += len(built)
            mismatches += built != join_closure_subgroups(p)
        assert (len(groups), subgroups, mismatches) == (2331, 48191, 0)

    def test_subgroup_lattice_matches_replaced_forms(self, batch45):
        # Every distinct corpus group of order <= 200, both sides, on a
        # fresh presentation whose caches go with it: the dual of each
        # subgroup, and the meet and both containments of a rotating
        # quarter of the (subgroup, equivariant zeta term) pairs, every
        # subgroup and every term among them.  All 370,259 pairs take
        # about 50 s.
        reps = {}
        for _, p, rep in sides(batch45):
            if p.order <= 200:
                reps.setdefault(p.constraint, rep)
        totals = [len(reps), 0, 0, 0, 0]
        for rep in reps.values():
            p = rep.group
            fresh = GroupPresentation(p.constraint, p.side)
            counts = lattice_mismatches(
                enumerate_subgroups(fresh),
                sorted(rep.equivariant.terms, key=SubgroupKey.sort_key),
                lambda i, j: (i + j) % 4 == 0)
            totals[1:] = map(sum, zip(totals[1:], counts))
        assert totals == [2331, 48191, 92541, 185082, 0]

    def test_element_arithmetic_matches_rationals(self, batch45):
        # Every element of every distinct corpus group of order <= 200,
        # both sides, against each standard generator; the generators
        # themselves against rational elimination.
        groups = distinct_groups(batch45, max_order=200)
        checked = mismatches = 0
        for p in groups:
            gens = p.generators()
            refs = reference_generators(p)
            mismatches += sum(g.sort_key() != r.scaled(p.order)
                              for g, r in zip(gens, refs))
            for g in p.elements():
                checked += 1
                mismatches += bool(element_mismatches(g, gens, refs))
        assert (len(groups), checked, mismatches) == (2331, 213249, 0)

    def test_is_saito_dual_matches_transform(self, batch45):
        # Every corpus polynomial, with the theorem's sign and with the
        # wrong one: the annihilator test against building the transform.
        checked = holds = mismatches = 0
        for record in batch45.records:
            rep = record.theorem.rhs_report
            rep_t = record.theorem.lhs_report
            for sign in (1, -1):
                oracle = sign * rep_t.reduced == saito_dual(rep.reduced)
                checked += 1
                holds += oracle
                mismatches += (is_saito_dual(rep.reduced,
                                             sign * rep_t.reduced) != oracle)
        assert (checked, holds, mismatches) == (3152, 1576, 0)

    def test_annihilator_pairs_match_dual_subgroup(self, batch45):
        # Every reduced zeta term H of every corpus polynomial against every
        # term K of the transposed side with |H|*|K| = d, as one-term
        # elements: the pairing test against the dual lattice.
        checked = holds = mismatches = 0
        for record in batch45.records:
            rep = record.theorem.rhs_report
            rep_t = record.theorem.lhs_report
            d = rep.group.order
            scope = full_subgroup(rep.group)
            scope_t = full_subgroup(rep_t.group)
            for h in rep.reduced.terms:
                dual = dual_subgroup(h)
                for k in rep_t.reduced.terms:
                    if h.order * k.order != d:
                        continue
                    oracle = dual == k
                    checked += 1
                    holds += oracle
                    mismatches += is_saito_dual(
                        BurnsideElement.orbit(scope, h),
                        BurnsideElement.orbit(scope_t, k)) != oracle
        assert (checked, holds, mismatches) == (13716, 10660, 0)

    def test_one_smith_form_per_pair(self, batch45):
        # Every corpus side: the dual, generators and SNF coordinates of
        # the one factorization, and 46,480 generator pairs.
        checked = pairs = mismatches = 0
        for _, p, _ in sides(batch45):
            checked += 1
            pairs += p.rank ** 2
            mismatches += bool(factorization_mismatches(p))
        assert (checked, pairs, mismatches) == (3152, 46480, 0)

    def test_weights_match_cramer(self, batch45):
        checked = mismatches = 0
        for f, _, _ in sides(batch45):
            checked += 1
            ws = f.weights
            mismatches += cramer_weights(f.exponents) != (
                ws.canonical_weights, ws.canonical_degree)
        assert (checked, mismatches) == (3152, 0)

    def test_quotient_data_matches_second_smith_form(self, batch45):
        # Every corpus side: its subgroups and, when cyclic, the
        # correspondence, from both generator sets.
        checked = mismatches = 0
        for f, p, _ in sides(batch45):
            checked += 1
            mismatches += bool(quotient_data_mismatches(f, p))
        assert (checked, mismatches) == (3152, 0)

    def test_zeta_reports_match_direct_loop(self, batch45):
        # Every corpus side, as the batch assembled it from its shared
        # atom records.
        assert composition_counts(batch45) == (3152, 2264, 0)

    def test_sums_sample_zeta_reports_match_direct_loop(self,
                                                        batch55_sample):
        # A seeded sample of the (5,5) sums corpus, through one batch.
        assert composition_counts(batch55_sample) == (300, 250, 0)

    def test_composed_facts_match_replaced_forms(self, batch45):
        # Every corpus side: the classical zeta by the lcm rule, the
        # weights of a sum from its atoms' and the key orders read off
        # the product of indices.
        assert composed_fact_counts(batch45) == (3152, 0)

    def test_sums_sample_composed_facts_match_replaced_forms(
            self, batch55_sample):
        assert composed_fact_counts(batch55_sample) == (300, 0)


@st.composite
def exponent_matrices(draw):
    """An invertible polynomial with a nonsingular 2x2 to 4x4 exponent
    matrix, entries 0 to 5, |det| <= 96.  Half are direct sums of two
    blocks, where non-cyclic groups are common."""
    n = draw(st.integers(2, 4))
    rows = [[draw(st.sampled_from([0, 0, 1, 2, 3, 4, 5])) for _ in range(n)]
            for _ in range(n)]
    if draw(st.booleans()):
        k = draw(st.integers(1, n - 1))
        rows = [[x if (i < k) == (j < k) else 0 for j, x in enumerate(r)]
                for i, r in enumerate(rows)]
    det = determinant(rows)
    assume(det != 0 and abs(det) <= 96)
    return InvertiblePolynomial(rows)


# Blocks that are not loops or chains: a non-loop/chain block, linear and
# unimodular blocks (d = 1) and blocks with a negative determinant; and
# chains whose monodromy orders share factors, so that the lcm rule and
# the product differ (x^2*y + y^3 has order 3 and its transpose 6, the
# other two and their transposes 4).
SPECIAL_ATOMS = (
    ((2, 1, 1), (0, 2, 0), (0, 0, 2)),  # x^2*y*z + y^2 + z^2
    ((1, 0), (0, 2)),                   # x + y^2
    ((1, 1), (1, 2)),                   # x*y + x*y^2, det 1
    ((1, 2), (3, 0)),                   # x*y^2 + x^3, det -6
    ((0, 1), (1, 0)),                   # y + x, det -1
    ((1,),),                            # x
    ((2, 1), (0, 3)),                   # x^2*y + y^3, order 3
    ((2, 1), (0, 2)),                   # x^2*y + y^2, order 4
    ((4,),),                            # x^4, order 4
)


@st.composite
def atoms(draw):
    """One nonsingular block: a special one or a random 1x1 to 3x3 with
    entries 0 to 4."""
    if draw(st.booleans()):
        return draw(st.sampled_from(SPECIAL_ATOMS))
    m = draw(st.integers(1, 3))
    rows = draw(st.lists(st.lists(st.integers(0, 4), min_size=m,
                                  max_size=m), min_size=m, max_size=m))
    assume(determinant(rows) != 0)
    return rows


def block_sum(blocks):
    """The polynomial whose exponent matrix is block diagonal with the
    given blocks, in order."""
    n = sum(len(b) for b in blocks)
    rows = []
    offset = 0
    for b in blocks:
        for r in b:
            rows.append([0] * offset + list(r)
                        + [0] * (n - offset - len(r)))
        offset += len(b)
    return InvertiblePolynomial(rows)


@st.composite
def block_sums(draw):
    """A direct sum of 2 to 4 atoms on at most 7 variables, sometimes
    with its first atom repeated."""
    blocks = draw(st.lists(atoms(), min_size=2, max_size=4))
    if draw(st.booleans()):
        blocks.append(blocks[0])
    assume(sum(len(b) for b in blocks) <= 7)
    return block_sum(blocks)


# One atom cache that every composition example shares, as a batch does
# whose largest polynomial has 7 variables.
BATCH_ATOMS = AtomRecords(7)


@st.composite
def small_groups(draw):
    """A presentation of a nonsingular 2x2 to 4x4 integer matrix with
    |det| <= 64, including negative and off-block entries."""
    n = draw(st.integers(2, 4))
    rows = draw(st.lists(st.lists(st.integers(-3, 5), min_size=n,
                                  max_size=n), min_size=n, max_size=n))
    det = determinant(rows)
    assume(det != 0 and abs(det) <= 64)
    return GroupPresentation(rows)


@st.composite
def solver_matrices(draw):
    """A square 1x1 to 5x5 integer matrix of one of five shapes: general,
    upper triangular, lower triangular, unimodular, or singular."""
    n = draw(st.integers(1, 5))
    shape = draw(st.sampled_from(
        ["general", "upper", "lower", "unimodular", "singular"]))
    entries = st.integers(-4, 6)
    rows = [[draw(entries) for _ in range(n)] for _ in range(n)]
    if shape == "upper":
        rows = [[x if j >= i else 0 for j, x in enumerate(r)]
                for i, r in enumerate(rows)]
    elif shape == "lower":
        rows = [[x if j <= i else 0 for j, x in enumerate(r)]
                for i, r in enumerate(rows)]
    elif shape == "unimodular":
        # (unit lower) * (unit upper), columns permuted: |det| = 1.
        lo = IntMatrix([[x if j < i else int(i == j) for j, x in enumerate(r)]
                        for i, r in enumerate(rows)])
        up = IntMatrix([[x if j > i else int(i == j) for j, x in enumerate(r)]
                        for i, r in enumerate(rows)])
        perm = draw(st.permutations(range(n)))
        rows = [[r[j] for j in perm] for r in (lo * up).rows]
    elif shape == "singular":
        # The last row is an integer combination of the others (zero for
        # n = 1).
        a = draw(st.lists(entries, min_size=n - 1, max_size=n - 1))
        rows[-1] = [sum(c * r[j] for c, r in zip(a, rows)) for j in range(n)]
    return IntMatrix(rows)


class TestRandomMatrices:
    @settings(max_examples=150, deadline=None)
    @given(small_groups(), st.data())
    def test_isotropy_matches_meet(self, p, data):
        subset = data.draw(st.sets(st.integers(0, p.rank - 1)))
        assert isotropy_subgroup(p, subset) == meet_isotropy(p, subset)

    @settings(max_examples=150, deadline=None)
    @given(small_groups(), st.data())
    def test_coset_order_matches_divisor_search(self, p, data):
        gens = p.generators()

        def element():
            coeffs = data.draw(st.lists(st.integers(0, p.order),
                                        min_size=len(gens),
                                        max_size=len(gens)))
            g = p.identity()
            for k, gen in zip(coeffs, gens):
                g = g + k * gen
            return g

        subset = data.draw(st.sets(st.integers(0, p.rank - 1)))
        subgroups = [isotropy_subgroup(p, subset),
                     subgroup_generated_by(p, [element(), element()])]
        g = element()
        for h in subgroups:
            assert _coset_order(h.basis, g.scaled()) == \
                divisor_coset_order(g, h)

    @settings(max_examples=150, deadline=None)
    @given(small_groups())
    # Z2^4 and Z4^3: the deepest trees of choices |det| <= 64 allows.
    @example(GroupPresentation(IntMatrix.diagonal([2, 2, 2, 2])))
    @example(GroupPresentation(IntMatrix.diagonal([4, 4, 4])))
    def test_subgroups_match_join_closure(self, p):
        assert enumerate_subgroups(p) == join_closure_subgroups(p)

    @settings(max_examples=150, deadline=None)
    @given(small_groups())
    def test_element_sort_key_orders_like_fractions(self, p):
        elements = list(p.elements())
        assert sorted(elements, key=lambda g: g.sort_key()) == \
            sorted(elements, key=lambda g: g.coords.fractions())

    @settings(max_examples=150, deadline=None)
    @given(small_groups())
    @example(GroupPresentation(IntMatrix.diagonal([4, 4, 4])))
    def test_element_arithmetic_matches_rationals(self, p):
        # Every pair of elements, and the generators against rational
        # elimination.
        elements = list(p.elements())
        assert len(set(elements)) == p.order
        refs = [RationalElement(g.coords.numerators, g.coords.denominator)
                for g in elements]
        for g in elements:
            assert element_mismatches(g, elements, refs) == []
        assert [g.sort_key() for g in p.generators()] == \
            [r.scaled(p.order) for r in reference_generators(p)]

    @settings(max_examples=150, deadline=None)
    @given(small_groups(), st.lists(st.integers(-2, 2), min_size=1,
                                    max_size=12))
    # Z2^4: many subgroups of each order, most of them not each other's
    # duals.
    @example(GroupPresentation(IntMatrix.diagonal([2, 2, 2, 2])),
             [1, 0, -1, 2, 0])
    def test_is_saito_dual_matches_dual_subgroup(self, p, coeffs):
        # Every subgroup H against every K of the dual side with
        # |H|*|K| = d, against the dual lattice and against the pairing
        # kernel; then sums of terms against the transform.
        d = p.order
        scope = full_subgroup(p)
        scope_t = full_subgroup(p.dual())
        subgroups = enumerate_subgroups(p)
        subgroups_t = enumerate_subgroups(p.dual())
        for h in subgroups:
            dual = dual_subgroup(h)
            kernel = kernel_dual_all_pairs(h)
            for k in subgroups_t:
                if h.order * k.order == d:
                    assert is_saito_dual(
                        BurnsideElement.orbit(scope, h),
                        BurnsideElement.orbit(scope_t, k)) \
                        == (dual == k) == (kernel == k)
        a = BurnsideElement(scope, zip(subgroups, itertools.cycle(coeffs)))
        b = BurnsideElement(scope_t, zip(subgroups_t,
                                         itertools.cycle(coeffs[::-1])))
        for other in (b, saito_dual(a), saito_dual(a) + b, -saito_dual(a)):
            assert is_saito_dual(a, other) == (other == saito_dual(a))

    @settings(max_examples=150, deadline=None)
    @given(small_groups())
    @example(GroupPresentation(IntMatrix.diagonal([2, 2, 2, 2])))
    def test_subgroup_lattice_matches_replaced_forms(self, p):
        # Every subgroup's dual; the meet and both containments of every
        # pair of subgroups; every element in every subgroup.
        subgroups = enumerate_subgroups(p)
        n = len(subgroups)
        assert lattice_mismatches(subgroups, subgroups,
                                  lambda i, j: True) == (n, n * n,
                                                         2 * n * n, 0)
        for h in subgroups:
            for g in p.elements():
                assert h.contains_element(g) == \
                    solve_contains_element(h, g)

    @settings(max_examples=50, deadline=None)
    @given(small_groups())
    def test_is_saito_dual_errors_match_transform(self, p):
        # A scope short of the full group raises like the transform; an
        # element over any other group than the dual side is not the dual.
        assume(p.order > 1)
        a = BurnsideElement.unit(full_subgroup(p))
        partial = BurnsideElement.unit(trivial_subgroup(p))
        with pytest.raises(StructureError):
            saito_dual(partial)
        with pytest.raises(StructureError):
            is_saito_dual(partial, saito_dual(a))
        other = GroupPresentation(p.constraint.scale(2))
        assert not is_saito_dual(a, BurnsideElement.unit(full_subgroup(other)))
        assert is_saito_dual(a, saito_dual(a))

    @settings(max_examples=300, deadline=None)
    @given(solver_matrices(), st.data())
    def test_scaled_inverse_matches_fraction_elimination(self, m, data):
        det = determinant(m)
        scalar = data.draw(st.one_of(
            st.integers(0, 40),
            st.integers(-3, 3).map(lambda k: k * det)))
        assert outcome(scaled_inverse, m, scalar) == \
            outcome(fraction_scaled_inverse, m, scalar)

    @settings(max_examples=300, deadline=None)
    @given(solver_matrices(), st.data())
    def test_lattice_solve_matches_fraction_elimination(self, m, data):
        n = m.nrows
        coords = st.lists(st.integers(-20, 20), min_size=n, max_size=n)
        vector = data.draw(st.one_of(
            coords, coords.map(m.apply_to_vector)))
        assert outcome(lattice_solve, m, vector) == \
            outcome(fraction_lattice_solve, m, vector)

    @settings(max_examples=200, deadline=None)
    @given(exponent_matrices())
    # Z2 x Z2 without roots; Z2 x Z42 (x^3*y + y^5*x + z^2*w + w^3) with 4.
    @example(InvertiblePolynomial([[2, 0], [0, 2]]))
    @example(InvertiblePolynomial([[3, 1, 0, 0], [1, 5, 0, 0],
                                   [0, 0, 2, 1], [0, 0, 0, 3]]))
    def test_roots_closed_forms_match_listing(self, f):
        p = symmetry_group(f)
        brute = brute_roots(f, p)
        assert root_count(f, p) == len(brute)
        assert geometric_roots(f, p) == coordinate_roots(f, p) == brute
        if p.is_cyclic:
            rep = equivariant_zeta(f, p)
            oracle = listed_root_zeta(rep)
            assert generating_root_exists(rep) == (oracle is not None)
            assert generating_root_zeta(rep) == oracle or oracle is None

    @settings(max_examples=200, deadline=None)
    @given(small_groups())
    @example(GroupPresentation(IntMatrix.diagonal([2, 2, 2, 2])))
    def test_one_smith_form_per_pair(self, p):
        assert factorization_mismatches(p) == []
        assert factorization_mismatches(p.dual()) == []

    @settings(max_examples=200, deadline=None)
    @given(exponent_matrices())
    # det E = -6: the weights of x*y^2 + x^3 are positive.
    @example(InvertiblePolynomial([[1, 2], [3, 0]]))
    def test_weights_and_quotient_data_match_replaced_forms(self, f):
        ws = f.weights
        assert cramer_weights(f.exponents) == (ws.canonical_weights,
                                               ws.canonical_degree)
        assert ws.canonical_degree == abs(f.det)
        for g, p in ((f, symmetry_group(f)),
                     (f.transpose(), symmetry_group(f).dual())):
            assert quotient_data_mismatches(g, p) == []


class TestAtomComposition:
    @settings(max_examples=150, deadline=None)
    @given(block_sums())
    @example(block_sum([((2,),)] * 3))
    @example(block_sum([((2, 1), (0, 3)), ((2, 1), (0, 3))]))
    @example(block_sum([SPECIAL_ATOMS[0], SPECIAL_ATOMS[3],
                        SPECIAL_ATOMS[4]]))
    # x^2*y + y^3 + z^2*w + w^2, and orders 4 and 4: lcm 4, product 16.
    @example(block_sum([SPECIAL_ATOMS[6], SPECIAL_ATOMS[7]]))
    @example(block_sum([SPECIAL_ATOMS[7], SPECIAL_ATOMS[8]]))
    # Unimodular summands, d_a = 1, around one of d = 4.
    @example(block_sum([SPECIAL_ATOMS[2], SPECIAL_ATOMS[8],
                        SPECIAL_ATOMS[4], SPECIAL_ATOMS[5]]))
    def test_block_sums_match_direct_loop(self, f):
        p = symmetry_group(f)
        assert len(_diagonal_blocks(f.exponents)) > 1
        for g, q in ((f, p), (f.transpose(), p.dual())):
            rep = equivariant_zeta(g, q)
            assert composed_fact_mismatches(rep) == []
            assert not differs_from_direct_loop(rep)
            rep = equivariant_zeta(g, q, BATCH_ATOMS)
            assert composed_fact_mismatches(rep) == []
            assert not differs_from_direct_loop(rep)

    @pytest.mark.parametrize("text, blocks", [
        ("x1^2*x3 + x2^3 + x3^3", [(0, 3)]),  # interleaved components
        ("x^2*y + z^3 + y^3", [(0, 3)]),      # monomials out of order
        ("x^2*y + y^3 + z^2", [(0, 2), (2, 3)]),
        ("x^2 + y^2 + z^2 + w^2", [(0, 1), (1, 2), (2, 3), (3, 4)]),
        ("x*y + x*y^2 + z^3", [(0, 2), (2, 3)]),
        ("x^2*y + y^3 + z^2*w + w^2", [(0, 2), (2, 4)]),
        ("x^2*y + y^3 + z^5", [(0, 2), (2, 3)]),
    ])
    def test_fixed_cases_match_direct_loop(self, text, blocks):
        f = parse_polynomial(text)
        assert _diagonal_blocks(f.exponents) == blocks
        p = symmetry_group(f)
        for g, q in ((f, p), (f.transpose(), p.dual())):
            assert _diagonal_blocks(g.exponents) == blocks
            rep = equivariant_zeta(g, q)
            assert composed_fact_mismatches(rep) == []
            assert not differs_from_direct_loop(rep)
            rep = equivariant_zeta(g, q, BATCH_ATOMS)
            assert composed_fact_mismatches(rep) == []
            assert not differs_from_direct_loop(rep)
