"""The closed forms of the isotropy subgroup, the coset order, the root
count and the root duality, and the one integer solver of ``linalg``,
checked against the searches, root lists and rational elimination they
replaced (kept in ``oracles``): over the whole acceptance corpus on both
sides, and on random integer matrices."""

import itertools

from hypothesis import assume, example, given, settings, strategies as st

from saitodual.burnside import _coset_order
from saitodual.errors import SingularMatrixError
from saitodual.groups import (GroupPresentation, geometric_roots,
                              isotropy_subgroup, monodromy_element,
                              root_count, subgroup_generated_by,
                              symmetry_group)
from saitodual.linalg import (IntMatrix, determinant, lattice_solve,
                              scaled_inverse)
from saitodual.polynomials import InvertiblePolynomial
from saitodual.zeta import (equivariant_zeta, generating_root_exists,
                            generating_root_zeta)

from oracles import (brute_roots, coordinate_roots, divisor_coset_order,
                     fraction_lattice_solve, fraction_scaled_inverse,
                     listed_root_zeta, meet_isotropy)


def sides(batch45):
    """(polynomial, group, zeta report) for both sides of every corpus
    polynomial, from the records of the acceptance batch."""
    for record in batch45.records:
        for rep in (record.theorem.rhs_report, record.theorem.lhs_report):
            yield rep.polynomial, rep.group, rep


def nonempty_subsets(n):
    for k in range(1, n + 1):
        yield from itertools.combinations(range(n), k)


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
        # What the group layer inverts for a corpus polynomial: C*B with
        # d^2 for each reduced zeta term B (dual_subgroup; upper triangular
        # for chains, otherwise the HNF route), and the unimodular SNF
        # transform U of the group, which _lattice_quotient_data inverts.
        checked = mismatches = 0
        for _, p, rep in sides(batch45):
            dd = p.order ** 2
            inputs = [(p._quotient_data()[2], 1)]
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
