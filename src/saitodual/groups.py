"""Finite abelian symmetry groups as quotient lattices.

The symmetry group of an invertible polynomial with exponent matrix E is
realized as the quotient lattice L/Z^n where L = {v in Q^n : E*v integral}
(the "direct" side) or L = {v : E^T*v integral} (the "transposed" side,
which is the direct side of the transposed polynomial and is identified
with the character group of the direct side via the bilinear pairing
(a, b) |-> a^T E b mod 1).

Subgroups are intermediate lattices Z^n <= L_H <= L, named canonically by
the Hermite normal form of the integer lattice d*L_H where d is the group
order.  All values are immutable.
"""

from __future__ import annotations

import itertools
import os
from fractions import Fraction
from math import gcd, lcm, prod
from operator import mul

from .errors import (ConfigurationError, IndexBoundsError, OwnershipError,
                     ResourceBoundError, SingularMatrixError)
from .linalg import (IntMatrix, RationalVector, format_fractions,
                     lattice_basis, scaled_inverse, smith_normal_form)

DEFAULT_MAX_GROUP_ORDER = 10_000
_MAX_ORDER_ENV = "SAITO_MAX_GROUP_ORDER"

# Most geometric roots that `geometric_roots` lists; above it only
# `root_count` answers.  Listing and printing cost about 7 us and 0.5 KiB
# per root: `roots --json` on the 3-loop at p = 131, 200 and 300 (17,031,
# 39,801 and 89,701 roots, the last with the bound lifted) took 0.21, 0.39
# and 0.72 s at 25, 36 and 63 MiB peak RSS, whole process, best of 3
# (Python 3.11, one core of a shared 2-CPU x86-64 host).  The bound keeps
# a listing under about 0.5 s and 45 MiB.
MAX_LISTED_ROOTS = 50_000


def _max_group_order():
    raw = os.environ.get(_MAX_ORDER_ENV, str(DEFAULT_MAX_GROUP_ORDER))
    try:
        bound = int(raw)
    except ValueError:
        bound = 0
    if bound < 1:
        raise ConfigurationError(
            f"{_MAX_ORDER_ENV} must be a positive integer, got {raw!r}")
    return bound


class GroupPresentation:
    """A finite abelian group presented as E^{-1}Z^n / Z^n.

    ``constraint`` is the integer matrix whose integrality condition cuts
    out the group; ``side`` records whether this is the symmetry group of
    the polynomial itself ("direct") or of its transpose ("transposed").
    Equality and hashing use the constraint matrix only, so the direct
    presentation of the transposed polynomial and the transposed
    presentation of the original compare equal -- they are literally the
    same subgroup of the torus.

    Each presentation keeps the scaled inverses its subgroup lattices use
    (see ``_dual_rows``), its meets by operand pair and by dual lattice
    (see ``subgroup_meet``), and d*C^-1.
    """

    __slots__ = ("_constraint", "_side", "_order", "_factors", "_u", "_v",
                 "_gens", "_ambient", "_dual", "_full_key", "_trivial_key",
                 "_inverse", "_dual_rows_cache", "_meet_cache",
                 "_dual_meet_cache")

    def __init__(self, constraint, side="direct"):
        c = constraint if isinstance(constraint, IntMatrix) else IntMatrix(constraint)
        if not c.is_square():
            raise SingularMatrixError("constraint matrix must be square")
        s, u, v = smith_normal_form(c)
        self._setup(c, side, tuple(s.entry(i, i) for i in range(s.nrows)),
                    u, v)

    def _setup(self, constraint, side, factors, u, v, dual=None):
        """Fill in the presentation from a Smith form S = U*C*V, diagonal
        ``factors`` d_j.  The group is V*S^-1*Z^n / Z^n: an element x is
        the sum of a_j times the generators V*e_j/d_j (of order d_j) for
        its SNF coordinates a = U*C*x; the d-scaled generators span d*L."""
        order = prod(factors)
        self._constraint = constraint
        self._side = side
        self._order = order
        self._factors = factors
        self._u = u
        self._v = v
        self._gens = _scaled_generators(v, factors, order)
        self._ambient = lattice_basis(self._gens.columns(), constraint.nrows)
        self._dual = dual
        self._full_key = None
        self._trivial_key = None
        self._inverse = None
        self._dual_rows_cache = {}
        self._meet_cache = {}
        self._dual_meet_cache = {}

    @property
    def constraint(self):
        return self._constraint

    @property
    def side(self):
        return self._side

    @property
    def order(self):
        return self._order

    @property
    def invariant_factors(self):
        return self._factors

    @property
    def rank(self):
        return self._constraint.nrows

    @property
    def is_cyclic(self):
        return sum(1 for f in self._factors if f > 1) <= 1

    @property
    def ambient_basis(self):
        """Canonical basis of the scaled ambient lattice d*L."""
        return self._ambient

    def dual(self):
        """The opposite-side presentation (transposed constraint), from
        the Smith form S = V^T*C^T*U^T; its dual is this presentation."""
        if self._dual is None:
            flipped = "transposed" if self._side == "direct" else "direct"
            self._dual = object.__new__(GroupPresentation)
            self._dual._setup(self._constraint.transpose(), flipped,
                              self._factors, self._v.transpose(),
                              self._u.transpose(), self)
        return self._dual

    def _scaled_inverse(self):
        """d*C^-1 for the constraint C, read off the Smith form as
        V*diag(d/d_j)*U."""
        if self._inverse is None:
            self._inverse = self._gens * self._u
        return self._inverse

    def _dual_rows(self, basis):
        """Rows spanning d*M^* for the scaled lattice M of ``basis``
        (dZ^n <= M <= Z^n, so d*M^* lies between the same two): the rows
        of d*B^-1, one back-substitution for an upper-triangular HNF B.
        Only their span matters, so a meet stores its join instead (see
        ``subgroup_meet``).  A vector v lies in M exactly when every row
        r has r.v = 0 (mod d)."""
        rows = self._dual_rows_cache.get(basis)
        if rows is None:
            rows = scaled_inverse(basis, self._order).rows
            self._dual_rows_cache[basis] = rows
        return rows

    def _coordinates(self, vec):
        """The SNF coordinates a = U*C*x of the element x = vec/d."""
        d = self._order
        return tuple(a // d for a in self._u.apply_to_vector(
            self._constraint.apply_to_vector(vec)))

    def structure_name(self):
        nontrivial = [f for f in self._factors if f > 1]
        if not nontrivial:
            return "trivial"
        return " x ".join(f"Z{f}" for f in nontrivial)

    def element(self, coords):
        return GroupElement(self, coords)

    def identity(self):
        return GroupElement._wrap(self, (0,) * self.rank)

    def generators(self):
        """The standard generators: columns of the constraint's inverse,
        reduced mod 1.  From the Smith form, d*C^-1 = V*diag(d/d_j)*U."""
        d = self._order
        return [GroupElement._wrap(self, tuple(x % d for x in col))
                for col in self._scaled_inverse().columns()]

    def elements(self):
        """All group elements, one per class; order of iteration is the
        product order over the invariant-factor generators."""
        for vec in _enumerate_quotient(self, self._ambient):
            yield GroupElement._wrap(self, vec)

    def __eq__(self, other):
        return other is self or (isinstance(other, GroupPresentation)
                                 and self._constraint == other._constraint)

    def __hash__(self):
        return hash(self._constraint)

    def __repr__(self):
        return (f"GroupPresentation(side={self._side!r}, order={self._order}, "
                f"structure={self.structure_name()!r})")


class GroupElement:
    """An element x of a GroupPresentation of order d, stored as the
    integer vector d*x reduced mod d: every coordinate of x has a
    denominator dividing d, so this vector names x exactly.

    The constructor checks that the coordinates (a RationalVector or a
    sequence of fractions, reduced mod 1 here) lie in the group;
    ``_wrap`` trusts a vector the package built itself."""

    __slots__ = ("_presentation", "_vec")

    def __init__(self, presentation, coords):
        if not isinstance(coords, RationalVector):
            coords = RationalVector.from_fractions(coords)
        self._presentation = presentation
        self._vec = _scaled_member(presentation, coords.numerators,
                                   coords.denominator)

    @classmethod
    def _wrap(cls, presentation, vec):
        """Trusted constructor: ``vec`` must be a tuple of ints in [0, d)
        that is d times an element of the group."""
        g = object.__new__(cls)
        g._presentation = presentation
        g._vec = vec
        return g

    @property
    def presentation(self):
        return self._presentation

    @property
    def coords(self):
        """The coordinates x in [0, 1) as a RationalVector."""
        return RationalVector(self._vec, self._presentation.order)

    @property
    def order(self):
        d = self._presentation.order
        return d // gcd(d, *self._vec)

    def is_identity(self):
        return not any(self._vec)

    def scaled(self):
        """The integer vector d*x for the group order d."""
        return self._vec

    def __add__(self, other):
        self._require_same(other)
        d = self._presentation.order
        return GroupElement._wrap(self._presentation, tuple(
            (a + b) % d for a, b in zip(self._vec, other._vec)))

    def __sub__(self, other):
        self._require_same(other)
        d = self._presentation.order
        return GroupElement._wrap(self._presentation, tuple(
            (a - b) % d for a, b in zip(self._vec, other._vec)))

    def __neg__(self):
        d = self._presentation.order
        return GroupElement._wrap(self._presentation,
                                  tuple(-a % d for a in self._vec))

    def __mul__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        d = self._presentation.order
        return GroupElement._wrap(self._presentation,
                                  tuple(k * a % d for a in self._vec))

    __rmul__ = __mul__

    def _require_same(self, other):
        if self._presentation != other._presentation:
            raise OwnershipError("elements belong to different groups")

    def __eq__(self, other):
        return (isinstance(other, GroupElement)
                and self._presentation == other._presentation
                and self._vec == other._vec)

    def __hash__(self):
        return hash((self._presentation, self._vec))

    def sort_key(self):
        """The integer vector d*x: every coordinate lies in [0, 1) and its
        denominator divides d, so these keys sort exactly like the
        rational coordinates."""
        return self._vec

    def __repr__(self):
        return f"GroupElement{self}"

    def __str__(self):
        return format_fractions(self._vec, self._presentation.order)


def _scaled_member(presentation, nums, den):
    """The vector d*x mod d for x = nums/den, after checking that x lies
    in the group of order d."""
    if len(nums) != presentation.rank:
        raise OwnershipError("coordinate dimension does not match group")
    for row in presentation.constraint.rows:
        if sum(a * b for a, b in zip(row, nums)) % den:
            raise OwnershipError(
                "coordinates do not satisfy the group's integrality "
                "condition")
    d = presentation.order
    if any(d * x % den for x in nums):
        raise OwnershipError("element order does not divide group order")
    return tuple(d * x // den % d for x in nums)


class SubgroupKey:
    """Canonical name of a subgroup: the HNF basis of its scaled lattice.

    For a subgroup H = L_H / Z^n of a group of order d, the key stores the
    canonical basis of the integer lattice d*L_H, which satisfies
    d*Z^n <= d*L_H <= d*L.  Equal subgroups have identical keys.
    """

    __slots__ = ("_presentation", "_basis", "_order", "_hash")

    def __init__(self, presentation, basis):
        self._presentation = presentation
        self._basis = basis
        det = 1
        for i in range(basis.nrows):
            det *= basis.entry(i, i)
        self._order = presentation.order ** basis.nrows // det
        self._hash = None

    @classmethod
    def _wrap(cls, presentation, basis, order):
        """Trusted constructor: ``basis`` must be the canonical basis of a
        subgroup of ``order`` elements, as when the order is read off a
        product of subgroups."""
        key = object.__new__(cls)
        key._presentation = presentation
        key._basis = basis
        key._order = order
        key._hash = None
        return key

    @property
    def presentation(self):
        return self._presentation

    @property
    def basis(self):
        return self._basis

    @property
    def order(self):
        return self._order

    @property
    def index(self):
        return self._presentation.order // self._order

    def is_full(self):
        return self._order == self._presentation.order

    def is_trivial(self):
        return self._order == 1

    def _holds(self, vectors):
        """Whether every vector lies in the scaled lattice: each row of
        d*B^-1 pairs with it to 0 mod d."""
        d = self._presentation.order
        rows = self._presentation._dual_rows(self._basis)
        return all(sum(map(mul, r, v)) % d == 0
                   for v in vectors for r in rows)

    def contains_element(self, g):
        if g.presentation != self._presentation:
            raise OwnershipError("element belongs to a different group")
        return self.is_full() or self._holds((g.scaled(),))

    def contains(self, other):
        """True when ``other`` is a subgroup of this subgroup: |K| divides
        |H| and d*B_H^-1*B_K = 0 (mod d)."""
        if other._presentation != self._presentation:
            raise OwnershipError("subgroups belong to different groups")
        if self.is_full():
            return True
        if self._order % other._order:
            return False
        return self._holds(zip(*other._basis.rows))

    def elements(self):
        """All elements of the subgroup (enumeration-scale use only)."""
        for vec in _enumerate_quotient(self._presentation, self._basis):
            yield GroupElement._wrap(self._presentation, vec)

    def sort_key(self):
        return (self._order, self._basis.flat())

    def to_json(self):
        return {"order": self._order, "basis": list(self._basis.flat())}

    def __eq__(self, other):
        return (isinstance(other, SubgroupKey)
                and self._presentation == other._presentation
                and self._basis == other._basis)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self._presentation, self._basis))
        return self._hash

    def __repr__(self):
        return f"SubgroupKey(order={self._order}, basis={self._basis!r})"


def _scaled_generators(v, orders, d):
    """V*diag(d/o_j) for a Smith form S = U*X*V, diagonal ``orders``: as
    X^-1*Z^n = V*S^-1*Z^n, column j is d times a generator of order o_j."""
    scale = [d // o for o in orders]
    return IntMatrix._wrap(tuple(tuple(x * k for x, k in zip(row, scale))
                                 for row in v.rows))


def _lattice_quotient_data(presentation, basis):
    """(scaled_generators, orders) for the quotient (basis/d)/Z^n, where
    basis/d = X^-1*Z^n for X = d*basis^-1 (see ``_scaled_generators``)."""
    d = presentation.order
    s, _, v = smith_normal_form(scaled_inverse(basis, d))
    orders = tuple(s.entry(i, i) for i in range(s.nrows))
    return _scaled_generators(v, orders, d), orders


def _enumerate_quotient(presentation, basis):
    """The d-scaled integer vector, reduced mod d, of every class of
    (basis/d)/Z^n."""
    d = presentation.order
    n = presentation.rank
    gens, orders = ((presentation._gens, presentation._factors)
                    if basis == presentation.ambient_basis
                    else _lattice_quotient_data(presentation, basis))
    current = [(0,) * n]
    for j, o in enumerate(orders):
        if o == 1:
            continue
        col = gens.column(j)
        current = [tuple((v[i] + k * col[i]) % d for i in range(n))
                   for v in current for k in range(o)]
    return current


def symmetry_group(f):
    """Symmetry group presentation of an invertible polynomial; its
    ``dual()`` is the group of the transpose (the character-group side)."""
    return GroupPresentation(f.exponents, "direct")


def full_subgroup(presentation):
    if presentation._full_key is None:
        presentation._full_key = SubgroupKey(presentation,
                                             presentation.ambient_basis)
    return presentation._full_key


def trivial_subgroup(presentation):
    if presentation._trivial_key is None:
        presentation._trivial_key = SubgroupKey(
            presentation, IntMatrix.diagonal([presentation.order]
                                             * presentation.rank))
    return presentation._trivial_key


def subgroup_generated_by(presentation, generators):
    """Canonical key of the smallest subgroup containing ``generators``."""
    n = presentation.rank
    d = presentation.order
    cols = [[d if i == j else 0 for i in range(n)] for j in range(n)]
    for g in generators:
        if g.presentation != presentation:
            raise OwnershipError("generator belongs to a different group")
        cols.append(list(g.scaled()))
    return SubgroupKey(presentation, lattice_basis(cols, n))


def subgroup_meet(a, b):
    """Intersection of two subgroups, via duality of scaled lattices: the
    dual of M_H n M_K is M_H^* + M_K^*, so one HNF J of the rows of
    d*B_H^-1 and d*B_K^-1 spans d*(M_H n M_K)^*, and the rows of d*J^-1
    span the meet's scaled lattice.  Meets are kept by operand pair and
    by J, which different pairs share; J is also the meet's dual rows."""
    p = a.presentation
    if b.presentation != p:
        raise OwnershipError("subgroups belong to different groups")
    pair = frozenset((a.basis, b.basis))
    meet = p._meet_cache.get(pair)
    if meet is None:
        n = p.rank
        join = lattice_basis(p._dual_rows(a.basis) + p._dual_rows(b.basis), n)
        meet = p._dual_meet_cache.get(join)
        if meet is None:
            basis = lattice_basis(scaled_inverse(join, p.order).rows, n)
            p._dual_rows_cache.setdefault(basis, tuple(zip(*join.rows)))
            meet = p._dual_meet_cache[join] = SubgroupKey(p, basis)
        p._meet_cache[pair] = meet
    return meet


def isotropy_subgroup(presentation, indices):
    """Subgroup of elements whose coordinates at ``indices`` (0-based) are
    integral: the isotropy of the corresponding coordinate subtorus.

    Mod Z^n such an element is (0, v_J) on the complement J, with C[:,J]*v_J
    integral for the constraint C; those v_J form the dual of the lattice
    spanned by the rows of C[:,J], whose HNF basis B gives d*B^-T, read as
    the rows of d*B^-1.  Padding those with zeros off J and adding d*e_i
    for i in ``indices`` spans the scaled lattice of the subgroup."""
    n = presentation.rank
    idx = set(indices)
    for i in idx:
        if not 0 <= i < n:
            raise IndexBoundsError(f"variable index {i} out of range 0..{n - 1}")
    if not idx:
        return full_subgroup(presentation)
    free = [j for j in range(n) if j not in idx]
    if not free:
        return trivial_subgroup(presentation)
    d = presentation.order
    k = len(free)
    rows = lattice_basis(
        ([row[j] for j in free] for row in presentation.constraint.rows), k)
    dual = scaled_inverse(rows, d)
    cols = [[d if r == i else 0 for r in range(n)] for i in idx]
    for c in dual.rows:
        col = [0] * n
        for j, x in zip(free, c):
            col[j] = x
        cols.append(col)
    return SubgroupKey(presentation, lattice_basis(cols, n))


def dual_subgroup(key):
    """Dual of a subgroup: the kernel of character restriction, computed by
    the exact dual-lattice formula on the opposite-side presentation.  Its
    scaled lattice is spanned by the columns of d^2*(C*B)^-T, that is the
    rows of d^2*(C*B)^-1 = (d*B^-1)*(d*C^-1): the key's dual rows times
    the presentation's d*C^-1, with no inverse of C*B."""
    p = key.presentation
    inverse = p._scaled_inverse().columns()
    basis = lattice_basis(
        ([sum(map(mul, r, c)) for c in inverse]
         for r in p._dual_rows(key.basis)), p.rank)
    return SubgroupKey(p.dual(), basis)


def pairing(a, b):
    """Exact value in [0, 1) of the bilinear pairing between an element of
    a group and an element of its character group: a^T * E * b mod 1 where
    E is the direct-side constraint."""
    pa, pb = a.presentation, b.presentation
    if pa.constraint == pb.constraint.transpose():
        alpha, e, beta = a, pb.constraint, b
    elif pb.constraint == pa.constraint.transpose():
        alpha, e, beta = b, pa.constraint, a
    else:
        raise OwnershipError("elements do not belong to mutually dual groups")
    w = e.apply_to_vector(beta.scaled())
    dot = sum(x * y for x, y in zip(alpha.scaled(), w))
    return Fraction(dot, pa.order * pb.order) % 1


def _prime_factors(m):
    """The distinct primes of m, by trial division (m is at most the group
    order, which ``enumerate_subgroups`` bounds before it calls this)."""
    primes = []
    q = 2
    while q * q <= m:
        if m % q == 0:
            primes.append(q)
            while m % q == 0:
                m //= q
        q += 1
    if m > 1:
        primes.append(m)
    return primes


def _hnf_lattices(orders):
    """Column HNF bases of every lattice M with diag(orders)Z^k <= M <= Z^k,
    each yielded once as its list of columns.

    M's basis H is upper triangular with pivots h_ii | o_i and the entries
    right of each pivot in [0, h_ii); the rows are chosen bottom-up.  The
    coefficients c of o_j e_j = H c are solved along the way (c_j =
    o_j / h_jj, and row i < j needs h_ii c_i = -sum_{l > i} h_il c_l), so
    each entry h_ij is drawn only from the solutions of the congruence that
    puts o_j e_j in the span, and a row with none is dropped at once."""
    k = len(orders)
    pivots = [[t for t in range(1, o + 1) if o % t == 0] for o in orders]
    h = [[0] * k for _ in range(k)]
    coeffs = [[0] * k for _ in range(k)]  # coeffs[j]: o_j e_j = H coeffs[j]

    def choose_row(i):
        if i < 0:
            yield [[h[r][c] for r in range(c + 1)] for c in range(k)]
            return
        for pivot in pivots[i]:
            h[i][i] = pivot
            coeffs[i][i] = orders[i] // pivot
            yield from choose_entry(i, i + 1)

    def choose_entry(i, j):
        if j == k:
            yield from choose_row(i - 1)
            return
        pivot = h[i][i]
        a = coeffs[j][j]
        s = sum(coeffs[j][l] * h[i][l] for l in range(i + 1, j))
        g = gcd(a, pivot)
        if s % g:
            return
        step = pivot // g
        first = (-s // g) * pow(a // g, -1, step) % step
        for x in range(first, pivot, step):
            h[i][j] = x
            coeffs[j][i] = -(s + a * x) // pivot
            yield from choose_entry(i, j + 1)

    yield from choose_row(k - 1)


def enumerate_subgroups(presentation):
    """All subgroups, each exactly once, sorted by (order, basis).

    Refuses groups larger than the SAITO_MAX_GROUP_ORDER environment
    variable (default 10000).

    In the SNF coordinates of the presentation the group is the sum of
    the Z/o_j, and every subgroup is the product of one subgroup of each
    Sylow p-part.  The p-part is the sum of the Z/p^v_j (v_j the p-adic
    valuation of o_j), generated by (o_j / p^v_j) times the j-th generator,
    and its subgroups are the lattices listed by ``_hnf_lattices``.  Each
    product is mapped back through those generators, together with the
    columns d*e_i, and named by one HNF."""
    bound = _max_group_order()
    if presentation.order > bound:
        raise ResourceBoundError(
            f"group order {presentation.order} exceeds bound {bound}")
    d = presentation.order
    n = presentation.rank
    gens, orders = presentation._gens, presentation._factors
    parts = []
    for q in _prime_factors(max(orders)):
        part_gens, part_orders = [], []
        for j, o in enumerate(orders):
            power = 1
            while o % (power * q) == 0:
                power *= q
            if power > 1:
                part_gens.append([o // power * x for x in gens.column(j)])
                part_orders.append(power)
        subgroups = []
        for columns in _hnf_lattices(part_orders):
            vectors = []
            for col in columns:
                vec = tuple(sum(c * g[i] for c, g in zip(col, part_gens)) % d
                            for i in range(n))
                if any(vec):
                    vectors.append(vec)
            subgroups.append(vectors)
        parts.append(subgroups)
    base = [tuple(d if r == i else 0 for r in range(n)) for i in range(n)]
    keys = [SubgroupKey(presentation,
                        lattice_basis(base + [v for vs in combo for v in vs],
                                      n))
            for combo in itertools.product(*parts)]
    keys.sort(key=lambda key: key.sort_key())
    return keys


def monodromy_element(f, group=None):
    """The monodromy transformation as a group element: coordinates are the
    reduced weights over the reduced degree."""
    p = group if group is not None else symmetry_group(f)
    ws = f.weights
    return GroupElement._wrap(p, _scaled_member(p, ws.reduced_weights,
                                                ws.reduced_degree))


def root_count(f, group=None):
    """Number of geometric roots of ``f``: the solutions g of c*g = h, with
    c the gcd of the canonical weights and h the monodromy element, counted
    from the invariant factors o_j of G without building any element.

    The solutions, when there are any, form a coset of the c-torsion of G,
    which has prod_j gcd(c, o_j) elements.  There are some exactly when h
    lies in cG.  With d = |G|, h has order d/c, and prime by prime that
    holds exactly when d/c divides the exponent of cG, which is
    e / gcd(c, e) for the exponent e = lcm(o_j) of G.  Every cyclic group
    passes; a non-cyclic one can pass too (x^3*y + y^5*x + z^2*w + w^3,
    with G = Z2 x Z42, has 4 roots)."""
    p = group if group is not None else symmetry_group(f)
    c = f.weights.gcd_factor
    e = lcm(*p.invariant_factors)
    if (e // gcd(c, e)) % (p.order // c):
        return 0
    count = 1
    for o in p.invariant_factors:
        count *= gcd(c, o)
    return count


def geometric_roots(f, group=None):
    """All group elements g with c*g equal to the monodromy element, where
    c is the gcd of the canonical weights, sorted canonically by
    coordinates.  There are ``root_count(f, group)`` of them, that is
    prod_j gcd(c, o_j) over the invariant factors o_j, or none; above
    MAX_LISTED_ROOTS this raises ResourceBoundError instead of listing.
    Not every solution generates: in Z6 with c=2 the equation 2x = h also
    has an order-3 solution.  A cyclic group always has a generating root,
    and the root duality needs no list: see ``zeta.verify_root_duality``."""
    p = group if group is not None else symmetry_group(f)
    c = f.weights.gcd_factor
    h = monodromy_element(f, p)
    count = root_count(f, p)
    if count > MAX_LISTED_ROOTS:
        raise ResourceBoundError(
            f"{count} geometric roots exceed the listing bound "
            f"{MAX_LISTED_ROOTS}")
    if not count:
        return []
    d = p.order
    n = p.rank
    # monodromy_element raises OwnershipError unless h lies in the group;
    # root_count > 0 makes each coordinate equation c*x = t_j (mod o_j)
    # solvable in the SNF coordinates t of h.
    t = p._coordinates(h.scaled())
    # Each root is the sum over j of x_j times the j-th SNF generator,
    # with x_j ranging over the solutions of c*x_j = t_j (mod o_j), that
    # is over range(x0, o_j, o_j/gcd(c, o_j)).  The roots are built as
    # d-scaled integers reduced mod d, one list per coordinate, then
    # sorted as tuples (the order of ``GroupElement.sort_key``) and only
    # then wrapped.
    coords = [[0] for _ in range(n)]
    for col, o, tj in zip(zip(*p._gens.rows), p._factors, t):
        g = gcd(c, o)
        step = o // g
        x0 = (tj % o // g) * pow(c // g, -1, step) % step
        xs = range(x0, o, step)
        coords = [[(v + x * a) % d for v in vs for x in xs]
                  for vs, a in zip(coords, col)]
    wrap = GroupElement._wrap
    return [wrap(p, v) for v in sorted(zip(*coords))]
