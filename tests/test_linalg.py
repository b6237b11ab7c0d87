"""Exact linear algebra: determinants, HNF, SNF, lattices, rationals."""

from fractions import Fraction

import itertools
from math import gcd

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from saitodual.errors import DimensionError, RankError, SingularMatrixError
from saitodual.linalg import (IntMatrix, RationalVector, _format_vectors,
                              determinant, extended_gcd, format_fractions,
                              invariant_factors, lattice_basis, lattice_solve,
                              scaled_inverse, smith_normal_form,
                              triangular_dual_basis, triangular_join)

from oracles import (laplace_determinant, lattice_basis_by_enumeration,
                     lattice_member, matrix_from_columns)


def square_matrices(max_n=4, lo=-9, hi=9):
    return st.integers(1, max_n).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(lo, hi), min_size=n, max_size=n),
            min_size=n, max_size=n))


def nonsingular_matrices(max_n=3, lo=-6, hi=6):
    return square_matrices(max_n, lo, hi).filter(
        lambda rows: laplace_determinant(rows) != 0)


@st.composite
def generator_sets(draw, max_dim=4, lo=-6, hi=6):
    """(columns, dim): 1 to dim + 2 integer vectors of length dim, with a
    repeated or combined column and a zero row now and then, so that
    rank-deficient sets are common."""
    dim = draw(st.integers(1, max_dim))
    count = draw(st.integers(1, dim + 2))
    entries = st.integers(lo, hi)
    cols = [[draw(entries) for _ in range(dim)] for _ in range(count)]
    if count > 1 and draw(st.booleans()):
        k = draw(st.integers(-2, 2))
        cols[-1] = [a + k * b for a, b in zip(cols[0], cols[-2])]
    if draw(st.booleans()):
        row = draw(st.integers(0, dim - 1))
        for c in cols:
            c[row] = 0
    return cols, dim


def minors_gcd(cols, dim):
    """The gcd of the dim x dim minors of the matrix with columns
    ``cols``: the index of their lattice in Z^dim, 0 below full rank."""
    g = 0
    for pick in itertools.combinations(cols, dim):
        g = gcd(g, laplace_determinant([list(r) for r in zip(*pick)]))
    return g


def assert_column_hnf(h):
    """The package's HNF convention: upper triangular, positive pivots,
    each entry right of a pivot in [0, pivot)."""
    assert h.is_upper_triangular()
    for i in range(h.nrows):
        assert h.entry(i, i) > 0
        for j in range(i + 1, h.ncols):
            assert 0 <= h.entry(i, j) < h.entry(i, i)


@st.composite
def upper_triangular(draw, n, lo=-9, hi=9):
    """Rows of an n x n upper-triangular matrix with a nonzero diagonal."""
    entries = st.integers(lo, hi)
    return [[draw(entries.filter(bool)) if j == i else
             draw(entries) if j > i else 0 for j in range(n)]
            for i in range(n)]


class TestDeterminant:
    def test_hand_examples(self):
        assert determinant(IntMatrix([[3, 1], [0, 3]])) == 9
        assert determinant(IntMatrix([[3, 0], [1, 2]])) == 6

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_identity(self, n):
        assert determinant(IntMatrix.identity(n)) == 1

    def test_non_square_rejected(self):
        with pytest.raises(DimensionError):
            determinant(IntMatrix([[1, 2, 3], [4, 5, 6]]))

    @given(square_matrices())
    @settings(max_examples=150, deadline=None)
    def test_matches_cofactor_expansion(self, rows):
        assert determinant(IntMatrix(rows)) == laplace_determinant(rows)

    @given(square_matrices(max_n=3, lo=-5, hi=5),
           square_matrices(max_n=3, lo=-5, hi=5))
    @settings(max_examples=100, deadline=None)
    def test_multiplicative(self, a, b):
        if len(a) != len(b):
            return
        ma, mb = IntMatrix(a), IntMatrix(b)
        assert determinant(ma * mb) == determinant(ma) * determinant(mb)

    def test_no_overflow_on_large_entries(self):
        big = 10 ** 30
        m = IntMatrix([[big, 1], [1, big]])
        assert determinant(m) == big * big - 1


def column_hnf(m):
    """The canonical basis of the column lattice of the square ``m``."""
    return lattice_basis(m.columns(), m.nrows)


class TestHermiteNormalForm:
    """The HNF of a lattice, ``lattice_basis``: it keeps no transform."""

    def test_identity(self):
        assert column_hnf(IntMatrix.identity(3)) == IntMatrix.identity(3)

    def test_spans_the_column_lattice(self):
        # H and M hold each other's columns, so they span one lattice;
        # M is not triangular, so its solves go through its Smith form.
        m = IntMatrix([[4, 2, 1], [0, 3, 5], [7, 1, 2]])
        h = column_hnf(m)
        assert all(lattice_member(h, c) for c in m.columns())
        assert all(lattice_member(m, c) for c in h.columns())
        assert determinant(h) == abs(determinant(m))

    def test_column_permutation_invariance(self):
        h1 = column_hnf(IntMatrix([[2, 0], [0, 1]]))
        h2 = column_hnf(IntMatrix([[0, 2], [1, 0]]))
        assert h1 == h2

    def test_convention(self):
        # Upper triangular, positive pivots, entries right of each pivot
        # reduced modulo the pivot.
        assert_column_hnf(column_hnf(IntMatrix([[9, 2], [0, 3]])))

    def test_against_enumeration_oracle(self):
        cols = [(9, 0), (2, 3)]
        h = lattice_basis(cols, 2)
        expected = lattice_basis_by_enumeration(cols, 2)
        assert h.to_lists() == expected
        assert determinant(h) == 27

    def test_idempotent(self):
        h = column_hnf(IntMatrix([[6, 2, 1], [0, 4, 3], [0, 0, 5]]))
        assert column_hnf(h) == h

    def test_rank_deficient_rejected(self):
        with pytest.raises(RankError):
            column_hnf(IntMatrix([[1, 2], [2, 4]]))

    @given(st.integers(1, 5).flatmap(lambda rows: st.tuples(
        st.just(rows), st.integers(rows, rows + 2))), st.data())
    @settings(max_examples=150, deadline=None)
    @example((3, 2), None)
    def test_random_echelon_form(self, shape, data):
        # The columns of a random rows x cols matrix, cols >= rows, of
        # full row rank or not: H in the convention's echelon form,
        # spanning their lattice, or RankError exactly when they do not
        # span rank ``rows``.
        nrows, ncols = shape
        if data is None:
            # A zero row: rank 2 in three dimensions.
            rows = [[2, 4], [0, 0], [3, 1]]
        else:
            entries = st.integers(-7, 7)
            rows = [[data.draw(entries) for _ in range(ncols)]
                    for _ in range(nrows)]
            if data.draw(st.booleans()):
                k = data.draw(st.integers(-2, 2))
                rows[-1] = [x * k for x in rows[0]]
        cols = [list(c) for c in zip(*rows)]
        index = minors_gcd(cols, nrows)
        if not index:
            with pytest.raises(RankError):
                lattice_basis(cols, nrows)
            return
        h = lattice_basis(cols, nrows)
        assert_column_hnf(h)
        assert determinant(h) == index
        assert all(lattice_member(h, c) for c in cols)
        assert lattice_basis(cols[::-1], nrows) == h

    @given(nonsingular_matrices(), st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 2), st.integers(0, 2),
                  st.integers(-3, 3)),
        max_size=8))
    @settings(max_examples=80, deadline=None)
    def test_lattice_invariance_under_unimodular(self, rows, ops):
        # Random unimodular column transforms (additions, swaps, negations
        # generate all of GL(n, Z)) must not change the canonical form:
        # the column lattice is unchanged.
        m = IntMatrix(rows)
        n = m.ncols
        cols = [list(c) for c in zip(*rows)]
        for kind, i, j, k in ops:
            i, j = i % n, j % n
            if kind == 0 and i != j:
                cols[j] = [a + k * b for a, b in zip(cols[j], cols[i])]
            elif kind == 1:
                cols[i], cols[j] = cols[j], cols[i]
            elif kind == 2:
                cols[i] = [-a for a in cols[i]]
        m2 = matrix_from_columns(cols)
        assert column_hnf(m) == column_hnf(m2)


class TestSmithNormalForm:
    def test_hand_examples(self):
        s, _, _ = smith_normal_form(IntMatrix([[3, 1], [0, 3]]))
        assert s == IntMatrix.diagonal([1, 9])
        s, _, _ = smith_normal_form(IntMatrix.diagonal([2, 3]))
        assert s == IntMatrix.diagonal([1, 6])
        s, u, v = smith_normal_form(IntMatrix.identity(3))
        assert s == u == v == IntMatrix.identity(3)

    def test_singular_rejected(self):
        with pytest.raises(SingularMatrixError):
            smith_normal_form(IntMatrix([[1, 2], [2, 4]]))

    @given(nonsingular_matrices())
    @settings(max_examples=120, deadline=None)
    def test_decomposition_invariants(self, rows):
        m = IntMatrix(rows)
        s, u, v = smith_normal_form(m)
        assert u * m * v == s
        assert determinant(u) in (1, -1)
        assert determinant(v) in (1, -1)
        diag = [s.entry(i, i) for i in range(s.nrows)]
        assert all(d > 0 for d in diag)
        for a, b in zip(diag, diag[1:]):
            assert b % a == 0
        prod = 1
        for d in diag:
            prod *= d
        assert prod == abs(determinant(m))
        assert abs(determinant(s)) == abs(determinant(m))

    def test_invariant_factors(self):
        assert invariant_factors(IntMatrix([[3, 1], [0, 3]])) == (1, 9)
        assert invariant_factors(IntMatrix.diagonal([4, 6])) == (2, 12)


class TestScaledInverseAndLattices:
    @given(nonsingular_matrices(), st.integers(1, 60))
    @settings(max_examples=80, deadline=None)
    def test_scaled_inverse_product(self, rows, k):
        m = IntMatrix(rows)
        s = k * abs(laplace_determinant(rows))
        inv = scaled_inverse(m, s)
        assert m * inv == IntMatrix.identity(m.nrows).scale(s)

    def test_triangular_fast_paths(self):
        upper = IntMatrix([[2, 1], [0, 4]])
        assert upper * scaled_inverse(upper, 8) == IntMatrix.identity(2).scale(8)
        lower = upper.transpose()
        assert lower * scaled_inverse(lower, 8) == IntMatrix.identity(2).scale(8)

    def test_non_integral_rejected(self):
        with pytest.raises(ValueError):
            scaled_inverse(IntMatrix([[2, 0], [0, 3]]), 2)

    def test_singular_rejected(self):
        with pytest.raises(SingularMatrixError):
            scaled_inverse(IntMatrix([[1, 1], [1, 1]]), 1)

    def test_lattice_basis_redundant_generators(self):
        basis = lattice_basis([(9, 0), (2, 3), (11, 3), (9, 0)], 2)
        assert basis == IntMatrix([[9, 2], [0, 3]])

    def test_lattice_basis_rank_error(self):
        with pytest.raises(RankError):
            lattice_basis([(2, 4)], 2)

    # Three generators cost the oracle 49^3 points, about 0.1 s.
    @given(st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
                    min_size=2, max_size=3))
    @settings(max_examples=30, deadline=None)
    @example([(0, 2), (0, 3), (5, 0)])
    def test_lattice_basis_matches_enumeration(self, cols):
        assume(minors_gcd(cols, 2))
        assert (lattice_basis(cols, 2).to_lists()
                == lattice_basis_by_enumeration(cols, 2))

    @given(generator_sets())
    @settings(max_examples=200, deadline=None)
    @example(([[0, 1, 0], [0, 0, 2], [0, 3, 3], [4, 0, 0]], 3))
    @example(([[2, 0], [4, 0], [0, 3]], 2))
    def test_lattice_basis_random_generators(self, case):
        # Full rank: a canonical basis of a lattice holding every generator
        # with the index of theirs (the gcd of their maximal minors), so
        # it is their lattice.  Rank-deficient: RankError.
        cols, dim = case
        index = minors_gcd(cols, dim)
        if not index:
            with pytest.raises(RankError):
                lattice_basis(cols, dim)
            return
        basis = lattice_basis(cols, dim)
        assert_column_hnf(basis)
        assert determinant(basis) == index
        assert all(lattice_member(basis, c) for c in cols)
        assert lattice_basis(cols[::-1] + cols, dim) == basis

    def test_lattice_solve_and_membership(self):
        basis = IntMatrix([[9, 2], [0, 3]])
        assert lattice_solve(basis, (11, 3)) == [1, 1]
        assert lattice_member(basis, (9, 0))
        assert not lattice_member(basis, (1, 0))

    @pytest.mark.parametrize("rows, vector, error", [
        ([[1, 2, 3], [0, 1, 2]], (1, 1), DimensionError),
        ([[9, 2], [0, 3]], (1,), DimensionError),
        ([[9, 2], [0, 3]], (1, 1, 7), DimensionError),
        ([[0, 1], [0, 1]], (1, 1), SingularMatrixError),
        ([[1, 0], [1, 0]], (1, 1), SingularMatrixError),
    ], ids=["non-square", "short-vector", "long-vector", "singular-upper",
            "singular-lower"])
    def test_lattice_solve_rejects_bad_input(self, rows, vector, error):
        with pytest.raises(error):
            lattice_solve(IntMatrix(rows), vector)

    def test_extended_gcd(self):
        for a, b in [(12, 18), (-4, 6), (0, 5), (7, 0), (0, 0), (-3, -9)]:
            g, x, y = extended_gcd(a, b)
            assert g == a * x + b * y
            assert g >= 0


class TestTriangularJoin:
    @given(st.integers(1, 5).flatmap(lambda n: st.tuples(
        upper_triangular(n), upper_triangular(n))))
    @settings(max_examples=200, deadline=None)
    @example(([[4, 1], [0, 6]], [[6, 5], [0, -4]]))
    @example(([[4, 2, 2], [0, 4, 2], [0, 0, 4]],
              [[4, 2, 2], [0, 4, 2], [0, 0, 4]]))
    def test_join_is_the_row_hnf_of_both(self, case):
        # The same lattice as the HNF of all the rows, in the canonical
        # row form, and independent of the order of the operands.
        a, b = case
        n = len(a)
        join = triangular_join(a, b)
        # Upper triangular, positive pivots, each entry above a pivot in
        # [0, pivot).
        assert join.is_upper_triangular()
        for k in range(n):
            assert join.entry(k, k) > 0
            for i in range(k):
                assert 0 <= join.entry(i, k) < join.entry(k, k)
        assert lattice_basis(join.rows, n) == lattice_basis(a + b, n)
        assert triangular_join(b, a) == join
        assert triangular_join(join.rows, a) == join

    @given(st.integers(1, 5).flatmap(lambda n: st.tuples(
        upper_triangular(n), upper_triangular(n))), st.integers(1, 4))
    @settings(max_examples=150, deadline=None)
    def test_dual_basis_matches_hnf_of_scaled_inverse(self, case, k):
        a, b = case
        join = triangular_join(a, b)
        n = join.nrows
        scalar = k * determinant(join)
        assert (triangular_dual_basis(join, scalar)
                == lattice_basis(scaled_inverse(join, scalar).columns(), n))

    def test_dual_basis_rejects_non_integral(self):
        join = triangular_join([[2, 1], [0, 3]], [[2, 1], [0, 3]])
        # 6*J^-1 = [[3, -1], [0, 2]], the -1 reduced mod 3.
        assert triangular_dual_basis(join, 6) == IntMatrix([[3, 2], [0, 2]])
        with pytest.raises(ValueError):
            triangular_dual_basis(join, 3)


class TestRationalVector:
    def test_reduction_to_lowest_shared_terms(self):
        v = RationalVector([2, 4], 6)
        assert v.numerators == (1, 2) and v.denominator == 3

    def test_negative_denominator_normalized(self):
        v = RationalVector([1, -2], -4)
        assert v.denominator == 4 and v.numerators == (-1, 2)

    def test_zero_vector(self):
        v = RationalVector([0, 0], 7)
        assert v.denominator == 1 and v.numerators == (0, 0)

    def test_from_fractions_round_trip(self):
        fr = (Fraction(1, 3), Fraction(5, 6), Fraction(0))
        assert RationalVector.from_fractions(fr).fractions() == fr


def fraction_vectors(den):
    return st.lists(st.one_of(st.integers(-3 * den, 3 * den),
                              st.sampled_from([0, den - 1, 1 - den])),
                    min_size=1, max_size=5)


class TestFormatFractions:
    """``format_fractions``, the one-vector case of ``_format_vectors``,
    against ``str`` of each ``Fraction``."""

    @given(st.integers(1, 10 ** 7).flatmap(
        lambda den: st.tuples(st.just(den), fraction_vectors(den))))
    @example((1, [0, -1, 5]))
    @example((6, [0, 5, -5, -6, 12, 3]))
    @example((2248092, [2248091, -2248091, 0, 1124046]))
    @settings(max_examples=300, deadline=None)
    def test_matches_fraction_text(self, case):
        den, nums = case
        expected = "(" + ", ".join(str(Fraction(x, den)) for x in nums) + ")"
        assert format_fractions(nums, den) == expected


def fraction_texts(vectors, den):
    return ["(" + ", ".join(str(Fraction(x, den)) for x in vec) + ")"
            for vec in vectors]


def formatter_cases(den):
    """(den, vectors): up to six vectors of one dimension, with values
    drawn among 0, multiples of den and any numerator within 3*den."""
    values = st.one_of(st.integers(-3 * den, 3 * den),
                       st.integers(-3, 3).map(lambda k: k * den),
                       st.sampled_from([0, den - 1, 1 - den]))
    return st.integers(1, 5).flatmap(lambda dim: st.tuples(
        st.just(den), st.lists(st.lists(values, min_size=dim, max_size=dim),
                               max_size=6)))


class TestFormatVectors:
    """``_format_vectors``, which writes each distinct value once, against
    ``str`` of each ``Fraction`` and against its one-vector case
    ``format_fractions`` on each vector."""

    # den = 1, small dens, and dens near the largest group order of the
    # big-determinant queries (about 4e12).
    @given(st.one_of(st.just(1), st.integers(2, 10 ** 7),
                     st.integers(4 * 10 ** 12 - 10 ** 6,
                                 4 * 10 ** 12 + 10 ** 6)).flatmap(
        formatter_cases))
    @example((1, [[0, 1, -1], [2, 0, 5]]))
    @example((4 * 10 ** 12, [[0, 4 * 10 ** 12, 10 ** 12],
                             [2 * 10 ** 12, 4 * 10 ** 12 - 1, -8 * 10 ** 12]]))
    @example((6, []))
    @example((6, [[]]))
    @settings(max_examples=300, deadline=None)
    def test_matches_fraction_text(self, case):
        den, vectors = case
        texts = _format_vectors(vectors, den)
        assert texts == fraction_texts(vectors, den)
        assert texts == [format_fractions(v, den) for v in vectors]

    def test_repeated_values(self):
        assert _format_vectors([(3, 0, 3), (0, 6, 9), (3, 3, 3)], 6) == [
            "(1/2, 0, 1/2)", "(0, 1, 3/2)", "(1/2, 1/2, 1/2)"]
