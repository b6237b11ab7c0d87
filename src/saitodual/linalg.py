"""Exact integer and rational linear algebra.

Everything here works on arbitrary-precision Python integers; there is no
floating point anywhere.  The module provides fraction-free determinants,
a column-style Hermite normal form, the Smith normal form with transform
accumulation, and the small set of lattice primitives the group layer is
built on.  Two triangular row bases are joined by a top-down merge
(``triangular_join``), and the dual of the join needs only the reduction
pass of the HNF (``triangular_dual_basis``).

One solver: every scaled inverse and lattice solve ends in integer
upper-triangular back-substitution.  An upper-triangular input (every HNF
basis) goes there directly; any other square input is first brought to its
column HNF H = M*U, and the solution for H is mapped back through the
unimodular U.  There is no rational elimination.

HNF convention used throughout the package: for a matrix of full column
rank, H = M*U is column-echelon with the pivot of each column strictly
below the pivot of the previous one, pivots positive, and every entry to
the right of a pivot reduced into [0, pivot).  For square nonsingular
input this makes H upper triangular.  Two generating sets spanning the
same column lattice produce the identical H.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from operator import mul

from .errors import DimensionError, RankError, SingularMatrixError


class IntMatrix:
    """Immutable matrix of exact integers, stored row-major."""

    __slots__ = ("_rows", "_hash", "_tri")

    def __init__(self, rows):
        data = []
        width = None
        for row in rows:
            tup = tuple(int(x) for x in row)
            if width is None:
                width = len(tup)
            elif len(tup) != width:
                raise DimensionError("rows have unequal lengths")
            data.append(tup)
        if not data or width == 0:
            raise DimensionError("matrix must have at least one row and column")
        self._rows = tuple(data)
        self._hash = None
        self._tri = None

    @classmethod
    def _wrap(cls, rows):
        """Trusted constructor: ``rows`` must already be a tuple of equal
        length tuples of ints."""
        m = object.__new__(cls)
        m._rows = rows
        m._hash = None
        m._tri = None
        return m

    @classmethod
    def identity(cls, n):
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def diagonal(cls, entries):
        entries = list(entries)
        n = len(entries)
        return cls([[entries[i] if i == j else 0 for j in range(n)] for i in range(n)])

    @property
    def rows(self):
        return self._rows

    @property
    def nrows(self):
        return len(self._rows)

    @property
    def ncols(self):
        return len(self._rows[0])

    def is_square(self):
        return self.nrows == self.ncols

    def entry(self, i, j):
        return self._rows[i][j]

    def column(self, j):
        return tuple(r[j] for r in self._rows)

    def columns(self):
        return list(zip(*self._rows))

    def to_lists(self):
        return [list(r) for r in self._rows]

    def flat(self):
        """Row-major flat tuple of all entries."""
        return tuple(x for r in self._rows for x in r)

    def transpose(self):
        return IntMatrix._wrap(tuple(zip(*self._rows)))

    def submatrix(self, row_indices, col_indices):
        return IntMatrix([[self._rows[i][j] for j in col_indices]
                          for i in row_indices])

    def __mul__(self, other):
        if not isinstance(other, IntMatrix):
            return NotImplemented
        if self.ncols != other.nrows:
            raise DimensionError("inner dimensions do not match")
        cols = list(zip(*other._rows))
        return IntMatrix([[sum(a * b for a, b in zip(row, col)) for col in cols]
                          for row in self._rows])

    def scale(self, k):
        return IntMatrix([[k * x for x in row] for row in self._rows])

    def apply_to_vector(self, vec):
        """Matrix-vector product with an integer sequence."""
        return tuple(sum(map(mul, row, vec)) for row in self._rows)

    def is_upper_triangular(self):
        if self._tri is None:
            self._tri = all(self._rows[i][j] == 0
                            for i in range(self.nrows)
                            for j in range(min(i, self.ncols)))
        return self._tri

    def __eq__(self, other):
        return isinstance(other, IntMatrix) and self._rows == other._rows

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self._rows)
        return self._hash

    def __repr__(self):
        return f"IntMatrix({[list(r) for r in self._rows]})"


def extended_gcd(a, b):
    """Return (g, x, y) with g = gcd(a, b) >= 0 and a*x + b*y = g."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        return -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def determinant(m):
    """Exact determinant by fraction-free (Bareiss) elimination."""
    if not isinstance(m, IntMatrix):
        m = IntMatrix(m)
    if not m.is_square():
        raise DimensionError("determinant requires a square matrix")
    n = m.nrows
    a = m.to_lists()
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = a[k][k]
        for i in range(k + 1, n):
            aik = a[i][k]
            row_i = a[i]
            row_k = a[k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * pivot - aik * row_k[j]) // prev
            row_i[k] = 0
        prev = pivot
    return sign * a[n - 1][n - 1]


def _column_combine(rows, j_keep, j_kill, i):
    """Unimodular column operation on the row lists ``rows`` zeroing
    rows[i][j_kill], which is nonzero, into rows[i][j_keep]."""
    a = rows[i][j_keep]
    b = rows[i][j_kill]
    if a != 0 and b % a == 0:
        # Elementary operation; leaves the kept column untouched.
        q = b // a
        for row in rows:
            row[j_kill] -= q * row[j_keep]
        return
    g, x, y = extended_gcd(a, b)
    ag = a // g
    bg = b // g
    for row in rows:
        ck, cl = row[j_keep], row[j_kill]
        row[j_keep] = x * ck + y * cl
        row[j_kill] = ag * cl - bg * ck


def _live_rows(h, u, i):
    """The rows a column operation of step i changes: rows 0..i of h,
    below which every column it combines is zero, and all of u."""
    return h[:i + 1] if u is None else h[:i + 1] + u


def _reduce_right(h, u, pivots):
    """The reduction pass of a column HNF: every entry right of a pivot
    (i, j), bottom pivot first, into [0, pivot) by subtracting multiples
    of column j, which is zero below row i."""
    ncols = len(h[0])
    for i, j in pivots:
        row_i = h[i]
        p = row_i[j]
        live = None
        for j2 in range(j + 1, ncols):
            q = row_i[j2] // p
            if q:
                if live is None:
                    live = _live_rows(h, u, i)
                for row in live:
                    row[j2] -= q * row[j]


def _hnf_core(m, accumulate):
    """Column-style HNF on a list-of-lists copy.

    Returns (h, u, pivots) where pivots is a list of (row, col) pairs from
    bottom to top and u is None unless transform accumulation was requested.
    Rows are eliminated bottom-up; when row i is reached every column left
    of the boundary is zero below it, so each step touches only the live
    rows (see ``_live_rows``).
    """
    nrows = len(m)
    ncols = len(m[0])
    h = [list(r) for r in m]
    u = [[1 if i == j else 0 for j in range(ncols)] for i in range(ncols)] \
        if accumulate else None
    pivots = []
    boundary = ncols
    for i in range(nrows - 1, -1, -1):
        if boundary == 0:
            break
        target = boundary - 1
        row_i = h[i]
        live = None
        for j in range(target):
            if row_i[j]:
                if live is None:
                    live = _live_rows(h, u, i)
                _column_combine(live, target, j, i)
        if row_i[target] < 0:
            for row in live or _live_rows(h, u, i):
                row[target] = -row[target]
        if row_i[target] != 0:
            pivots.append((i, target))
            boundary -= 1
    _reduce_right(h, u, pivots)
    return h, u, pivots


def hermite_normal_form(m):
    """Column-style Hermite normal form.

    Returns (H, U) with H = M*U, U unimodular, following the convention
    documented in the module docstring.  Raises RankError when the columns
    of M are linearly dependent.
    """
    if not isinstance(m, IntMatrix):
        m = IntMatrix(m)
    h, u, pivots = _hnf_core(m.rows, accumulate=True)
    if len(pivots) < m.ncols:
        raise RankError("matrix does not have full column rank")
    return (IntMatrix._wrap(tuple(tuple(r) for r in h)),
            IntMatrix._wrap(tuple(tuple(r) for r in u)))


def lattice_basis(columns, dim):
    """Canonical HNF basis of the full-rank lattice spanned by ``columns``.

    ``columns`` is an iterable of integer vectors of length ``dim``.
    Redundant generators are allowed; the result is the unique dim x dim
    canonical basis.  Raises RankError if the span has rank < dim.
    """
    cols = [tuple(c) for c in columns]
    if not cols:
        raise RankError("no generators supplied")
    m = [[c[i] for c in cols] for i in range(dim)]
    h, _, pivots = _hnf_core(m, accumulate=False)
    rank = len(pivots)
    if rank < dim:
        raise RankError("generators do not span a full-rank lattice")
    drop = len(cols) - dim
    return IntMatrix._wrap(tuple(tuple(row[drop:]) for row in h))


def triangular_join(a, b):
    """Canonical row basis of the lattice spanned by the rows of ``a`` and
    ``b``: ``a`` is n rows of length n, upper triangular with a nonzero
    diagonal (row i is zero before position i), and ``b`` any rows of
    length n, usually another such basis.

    The rows of b are merged into those of a top-down by leading
    position: a row of b meets the current row i of the basis at each
    position i where it is nonzero, by a division when row i's pivot
    divides its entry and otherwise by the unimodular gcd step that
    leaves the gcd as row i's pivot and a remainder zero up to position
    i.  For a triangular b that is n(n+1)/2 steps and no general HNF.
    The result, an upper-triangular IntMatrix with positive pivots and
    each entry above a pivot reduced into [0, pivot), is the row HNF of
    the lattice: two pairs spanning the same lattice give the identical
    matrix."""
    n = len(a)
    rows = [list(r) for r in a]
    for r in b:
        v = list(r)
        for i in range(n):
            y = v[i]
            if not y:
                continue
            row = rows[i]
            x = row[i]
            if y % x == 0:
                q = y // x
                for j in range(i + 1, n):
                    v[j] -= q * row[j]
            else:
                g, s, t = extended_gcd(x, y)
                xg, yg = x // g, y // g
                for j in range(i, n):
                    rj, vj = row[j], v[j]
                    row[j] = s * rj + t * vj
                    v[j] = xg * vj - yg * rj
    # Bottom row first, so that each row is reduced by reduced rows.
    for i in range(n - 1, -1, -1):
        row = rows[i]
        if row[i] < 0:
            row[i:] = [-x for x in row[i:]]
        for k in range(i + 1, n):
            q = row[k] // rows[k][k]
            if q:
                below = rows[k]
                for j in range(k, n):
                    row[j] -= q * below[j]
    return IntMatrix._wrap(tuple(map(tuple, rows)))


def triangular_dual_basis(join, scalar):
    """Canonical HNF basis of the column lattice of scalar * J^-1 for an
    upper-triangular J with positive diagonal (a ``triangular_join``).

    The columns of scalar * J^-1 (``scaled_inverse``: one
    back-substitution each) are upper triangular already, with the
    positive pivots scalar / J_ii, so the reduction pass of the HNF
    (``_reduce_right``) alone makes them the basis, with no gcd step.
    Raises ValueError when scalar * J^-1 is not integral."""
    h = [list(r) for r in scaled_inverse(join, scalar).rows]
    _reduce_right(h, None, [(i, i) for i in range(len(h) - 1, -1, -1)])
    return IntMatrix._wrap(tuple(map(tuple, h)))


def smith_normal_form(m):
    """Smith normal form with transforms.

    Returns (S, U, V) with S = U*M*V diagonal, d_1 | d_2 | ... | d_n all
    positive, and U, V unimodular.  Requires square nonsingular input.
    """
    if not isinstance(m, IntMatrix):
        m = IntMatrix(m)
    if not m.is_square():
        raise DimensionError("Smith normal form requires a square matrix")
    n = m.nrows
    s = m.to_lists()
    u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    v = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def row_combine(k, i):
        # Zero s[i][k] against the pivot s[k][k]; left transform.  The
        # elementary fast path keeps the pivot row untouched, which makes
        # the clearing loop terminate once the pivot divides everything.
        a, b = s[k][k], s[i][k]
        if b == 0:
            return
        if a != 0 and b % a == 0:
            q = b // a
            for mat in (s, u):
                rk, ri = mat[k], mat[i]
                for j in range(len(rk)):
                    ri[j] -= q * rk[j]
            return
        g, x, y = extended_gcd(a, b)
        ag, bg = a // g, b // g
        for mat in (s, u):
            rk, ri = mat[k], mat[i]
            for j in range(len(rk)):
                rk[j], ri[j] = x * rk[j] + y * ri[j], ag * ri[j] - bg * rk[j]

    def col_combine(k, j):
        # Zero s[k][j] against the pivot s[k][k]; right transform.
        a, b = s[k][k], s[k][j]
        if b == 0:
            return
        if a != 0 and b % a == 0:
            q = b // a
            for mat in (s, v):
                for row in mat:
                    row[j] -= q * row[k]
            return
        g, x, y = extended_gcd(a, b)
        ag, bg = a // g, b // g
        for mat in (s, v):
            for row in mat:
                ck, cj = row[k], row[j]
                row[k] = x * ck + y * cj
                row[j] = ag * cj - bg * ck

    def clear_at(k):
        while True:
            for i in range(k + 1, n):
                row_combine(k, i)
            dirty = False
            for j in range(k + 1, n):
                if s[k][j] != 0:
                    col_combine(k, j)
                    dirty = True
            if not dirty:
                return

    for k in range(n):
        if s[k][k] == 0:
            found = False
            for i in range(k, n):
                for j in range(k, n):
                    if s[i][j] != 0:
                        if i != k:
                            s[k], s[i] = s[i], s[k]
                            u[k], u[i] = u[i], u[k]
                        if j != k:
                            for mat in (s, v):
                                for row in mat:
                                    row[k], row[j] = row[j], row[k]
                        found = True
                        break
                if found:
                    break
            if not found:
                raise SingularMatrixError("matrix is singular")
        clear_at(k)

    # Enforce the divisibility chain d_1 | d_2 | ... | d_n.
    changed = True
    while changed:
        changed = False
        for k in range(n - 1):
            a, b = s[k][k], s[k + 1][k + 1]
            if b % a != 0:
                # Pull column k+1 into column k, then re-diagonalize.
                for mat in (s, v):
                    for row in mat:
                        row[k] += row[k + 1]
                clear_at(k)
                clear_at(k + 1)
                changed = True

    for k in range(n):
        if s[k][k] < 0:
            for j in range(n):
                s[k][j] = -s[k][j]
                u[k][j] = -u[k][j]
        if s[k][k] == 0:
            raise SingularMatrixError("matrix is singular")
    return IntMatrix(s), IntMatrix(u), IntMatrix(v)


def invariant_factors(m):
    """Diagonal of the Smith normal form as a tuple d_1 | ... | d_n."""
    s, _, _ = smith_normal_form(m)
    return tuple(s.entry(i, i) for i in range(s.nrows))


def _solve_upper_triangular(rows, col, last):
    """Solve R*x = col for upper-triangular R with exact integer result,
    or None.  ``col`` is zero after position ``last``, and so is x."""
    x = [0] * len(rows)
    for i in range(last, -1, -1):
        acc = col[i]
        row = rows[i]
        for j in range(i + 1, last + 1):
            acc -= row[j] * x[j]
        q, r = divmod(acc, row[i])
        if r != 0:
            return None
        x[i] = q
    return x


def _triangular_form(m):
    """Rows of an upper-triangular H with nonzero diagonal and a unimodular
    U with H = M*U, for square M.  U is None when M is already upper
    triangular (every HNF basis is); otherwise H is the column HNF of M."""
    if not m.is_square():
        raise DimensionError("matrix must be square")
    if m.is_upper_triangular():
        h, u = m, None
    else:
        try:
            h, u = hermite_normal_form(m)
        except RankError:
            raise SingularMatrixError("matrix is singular") from None
    rows = h.rows
    if any(rows[i][i] == 0 for i in range(len(rows))):
        raise SingularMatrixError("matrix is singular")
    return rows, u


def scaled_inverse(m, scalar):
    """Return scalar * M^{-1} as an IntMatrix.

    Raises SingularMatrixError on singular input and ValueError when the
    scaled inverse is not integral.  The one solver is upper-triangular
    back-substitution: any other input is first brought to its column HNF
    H = M*U, and scalar * M^{-1} = U * (scalar * H^{-1}); U is unimodular,
    so both sides are integral together.
    """
    if not isinstance(m, IntMatrix):
        m = IntMatrix(m)
    rows, u = _triangular_form(m)
    n = len(rows)
    cols = []
    for j in range(n):
        e = [scalar if i == j else 0 for i in range(n)]
        x = _solve_upper_triangular(rows, e, j)
        if x is None:
            raise ValueError("scaled inverse is not integral")
        cols.append(x)
    inv = IntMatrix._wrap(tuple(zip(*cols)))
    return inv if u is None else u * inv


def lattice_solve(basis, vector):
    """Integer coordinates x with basis*x = vector, or None.

    ``basis`` must be square nonsingular (DimensionError, SingularMatrixError
    otherwise) and ``vector`` of length ``basis.nrows``.  An upper-triangular
    basis (the canonical HNF case) is solved by back-substitution directly;
    any other is brought to its column HNF H = basis*U first, and
    x = U*y with H*y = vector.
    """
    rows, u = _triangular_form(basis)
    n = len(rows)
    vector = list(vector)
    if len(vector) != n:
        raise DimensionError(
            f"vector has {len(vector)} coordinates, basis has {n} rows")
    x = _solve_upper_triangular(rows, vector, n - 1)
    if x is None or u is None:
        return x
    return list(u.apply_to_vector(x))


class RationalVector:
    """Vector of rationals with a shared positive denominator, for input
    and display only: group elements are stored as d-scaled integer
    vectors (see ``groups.GroupElement``).

    Stored in lowest shared terms: the gcd of all numerators and the
    denominator is 1, so equal vectors are syntactically equal.
    """

    __slots__ = ("_nums", "_den")

    def __init__(self, numerators, denominator=1):
        den = int(denominator)
        if den == 0:
            raise ZeroDivisionError("denominator must be nonzero")
        nums = [int(x) for x in numerators]
        if not nums:
            raise DimensionError("vector must have at least one coordinate")
        if den < 0:
            den = -den
            nums = [-x for x in nums]
        g = den
        for x in nums:
            g = gcd(g, x)
            if g == 1:
                break
        if g > 1:
            nums = [x // g for x in nums]
            den //= g
        self._nums = tuple(nums)
        self._den = den

    @classmethod
    def from_fractions(cls, fracs):
        fracs = [Fraction(f) for f in fracs]
        den = 1
        for f in fracs:
            den = den * f.denominator // gcd(den, f.denominator)
        return cls([f.numerator * (den // f.denominator) for f in fracs], den)

    @property
    def numerators(self):
        return self._nums

    @property
    def denominator(self):
        return self._den

    def fractions(self):
        return tuple(Fraction(x, self._den) for x in self._nums)

    def __eq__(self, other):
        return (isinstance(other, RationalVector)
                and self._nums == other._nums and self._den == other._den)

    def __hash__(self):
        return hash((self._nums, self._den))

    def __repr__(self):
        return f"RationalVector({list(self._nums)}, {self._den})"

    def __str__(self):
        return format_fractions(self._nums, self._den)


def format_fractions(nums, den):
    """The vector of fractions x/den for x in ``nums``, written as
    "(a/b, c, ...)" with each coordinate in lowest terms; ``den`` must be
    positive.  The one-vector case of ``_format_vectors``."""
    return _format_vectors([nums], den)[0]


def _format_vectors(vectors, den):
    """``format_fractions(v, den)`` for each v in ``vectors``: each
    distinct value x is written once, as ``str(Fraction(x, den))`` writes
    it, and each vector joins the texts of its values."""
    texts = {x: str(x // den) if (g := gcd(x, den)) == den
             else f"{x // g}/{den // g}" for x in set().union(*vectors)}
    text = texts.__getitem__
    return [f"({', '.join(map(text, vec))})" for vec in vectors]
