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
from math import gcd, lcm

from .errors import (ConfigurationError, IndexBoundsError, OwnershipError,
                     ResourceBoundError, SingularMatrixError)
from .linalg import (IntMatrix, RationalVector, lattice_basis, lattice_solve,
                     scaled_inverse, smith_normal_form)

DEFAULT_MAX_GROUP_ORDER = 10_000
_MAX_ORDER_ENV = "SAITO_MAX_GROUP_ORDER"

# Most geometric roots that `geometric_roots` lists; above it only
# `root_count` answers.  Listing costs about 35 us and 0.8 KiB per root:
# `roots --json` on the 3-loop at p = 131, 200 and 300 (17,031, 39,801 and
# 89,701 roots) took 0.64, 1.4 and 2.9 s at 29, 46 and 82 MiB peak RSS
# (Python 3.11, one core of a 2-CPU x86-64 host).  The bound keeps a
# listing under about 2 s and 60 MiB.
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
    """

    __slots__ = ("_constraint", "_side", "_order", "_factors",
                 "_ambient", "_dual", "_quotient",
                 "_full_key", "_trivial_key", "_dual_basis_cache",
                 "_meet_cache")

    def __init__(self, constraint, side="direct"):
        c = constraint if isinstance(constraint, IntMatrix) else IntMatrix(constraint)
        if not c.is_square():
            raise SingularMatrixError("constraint matrix must be square")
        s, _, v = smith_normal_form(c)
        factors = tuple(s.entry(i, i) for i in range(s.nrows))
        order = 1
        for f in factors:
            order *= f
        self._constraint = c
        self._side = side
        self._order = order
        self._factors = factors
        # Scaled ambient lattice d*L = span of columns of V * diag(d/d_j).
        n = c.nrows
        cols = [[v.entry(i, j) * (order // factors[j]) for i in range(n)]
                for j in range(n)]
        self._ambient = lattice_basis(cols, n)
        self._dual = None
        self._quotient = None
        self._full_key = None
        self._trivial_key = None
        self._dual_basis_cache = {}
        self._meet_cache = {}

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
        """The opposite-side presentation (transposed constraint)."""
        if self._dual is None:
            flipped = "transposed" if self._side == "direct" else "direct"
            self._dual = GroupPresentation(self._constraint.transpose(), flipped)
        return self._dual

    def structure_name(self):
        nontrivial = [f for f in self._factors if f > 1]
        if not nontrivial:
            return "trivial"
        return " x ".join(f"Z{f}" for f in nontrivial)

    def element(self, coords):
        return GroupElement(self, coords)

    def identity(self):
        return GroupElement(self, RationalVector([0] * self.rank, 1))

    def generators(self):
        """The standard generators: columns of the constraint's inverse,
        reduced mod 1."""
        d = self._order
        scaled = scaled_inverse(self._constraint, d)
        return [GroupElement(self, RationalVector(col, d).mod1())
                for col in scaled.columns()]

    def _quotient_data(self):
        if self._quotient is None:
            self._quotient = _lattice_quotient_data(self, self._ambient)
        return self._quotient

    def elements(self):
        """All group elements, one per class; order of iteration is the
        product order over the invariant-factor generators."""
        for coords in _enumerate_quotient(self, self._ambient):
            yield GroupElement(self, coords, _checked=False)

    def __eq__(self, other):
        return (isinstance(other, GroupPresentation)
                and self._constraint == other._constraint)

    def __hash__(self):
        return hash(self._constraint)

    def __repr__(self):
        return (f"GroupPresentation(side={self._side!r}, order={self._order}, "
                f"structure={self.structure_name()!r})")


class GroupElement:
    """An element of a GroupPresentation, stored as exponent coordinates
    reduced into [0, 1) with a shared denominator in lowest terms."""

    __slots__ = ("_presentation", "_coords")

    def __init__(self, presentation, coords, _checked=True):
        if not isinstance(coords, RationalVector):
            coords = RationalVector.from_fractions(coords)
        coords = coords.mod1()
        if coords.dim != presentation.rank:
            raise OwnershipError("coordinate dimension does not match group")
        if _checked:
            den = coords.denominator
            c = presentation.constraint
            for row in c.rows:
                if sum(a * b for a, b in zip(row, coords.numerators)) % den:
                    raise OwnershipError(
                        "coordinates do not satisfy the group's integrality "
                        "condition")
            if presentation.order % den:
                raise OwnershipError("element order does not divide group order")
        self._presentation = presentation
        self._coords = coords

    @property
    def presentation(self):
        return self._presentation

    @property
    def coords(self):
        return self._coords

    @property
    def order(self):
        return self._coords.denominator

    def is_identity(self):
        return self._coords.denominator == 1

    def scaled(self, k=None):
        """Integer coordinate vector k * coords (default k = group order)."""
        if k is None:
            k = self._presentation.order
        return self._coords.scaled(k)

    def __add__(self, other):
        self._require_same(other)
        return GroupElement(self._presentation,
                            (self._coords + other._coords).mod1(),
                            _checked=False)

    def __sub__(self, other):
        self._require_same(other)
        return GroupElement(self._presentation,
                            (self._coords - other._coords).mod1(),
                            _checked=False)

    def __neg__(self):
        return GroupElement(self._presentation, (-self._coords).mod1(),
                            _checked=False)

    def __mul__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        return GroupElement(self._presentation, (k * self._coords).mod1(),
                            _checked=False)

    __rmul__ = __mul__

    def _require_same(self, other):
        if self._presentation != other._presentation:
            raise OwnershipError("elements belong to different groups")

    def __eq__(self, other):
        return (isinstance(other, GroupElement)
                and self._presentation == other._presentation
                and self._coords == other._coords)

    def __hash__(self):
        return hash((self._presentation, self._coords))

    def sort_key(self):
        return self._coords.sort_key()

    def __repr__(self):
        return f"GroupElement{self._coords}"

    def __str__(self):
        return str(self._coords)


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

    def contains_element(self, g):
        if g.presentation != self._presentation:
            raise OwnershipError("element belongs to a different group")
        return lattice_solve(self._basis, g.scaled()) is not None

    def contains(self, other):
        """True when ``other`` is a subgroup of this subgroup."""
        if other._presentation != self._presentation:
            raise OwnershipError("subgroups belong to different groups")
        if other._order > self._order:
            return False
        return all(
            lattice_solve(self._basis, other._basis.column(j)) is not None
            for j in range(other._basis.ncols))

    def elements(self):
        """All elements of the subgroup (enumeration-scale use only)."""
        for coords in _enumerate_quotient(self._presentation, self._basis):
            yield GroupElement(self._presentation, coords, _checked=False)

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


def _lattice_quotient_data(presentation, basis):
    """Generators and coordinates for the quotient (basis/d)/Z^n.

    Returns (scaled_generators, orders, u) where column j of
    ``scaled_generators`` is d times a generator whose class has order
    ``orders[j]``, and ``u`` maps basis coordinates to generator
    coordinates.
    """
    d = presentation.order
    x = scaled_inverse(basis, d)
    s, u, _ = smith_normal_form(x)
    u_inv = scaled_inverse(u, 1)
    gens = basis * u_inv
    orders = tuple(s.entry(i, i) for i in range(s.nrows))
    return gens, orders, u


def _enumerate_quotient(presentation, basis):
    """Yield RationalVector coordinates of every class of (basis/d)/Z^n."""
    d = presentation.order
    n = presentation.rank
    if basis == presentation.ambient_basis:
        gens, orders, _ = presentation._quotient_data()
    else:
        gens, orders, _ = _lattice_quotient_data(presentation, basis)
    current = [(0,) * n]
    for j, o in enumerate(orders):
        if o == 1:
            continue
        col = gens.column(j)
        current = [tuple((v[i] + k * col[i]) % d for i in range(n))
                   for v in current for k in range(o)]
    for vec in current:
        yield RationalVector(vec, d)


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


def subgroup_join(a, b):
    """Smallest subgroup containing both (the product HK)."""
    if a.presentation != b.presentation:
        raise OwnershipError("subgroups belong to different groups")
    return SubgroupKey(a.presentation, lattice_basis(
        a.basis.columns() + b.basis.columns(), a.presentation.rank))


def _scaled_dual_basis(presentation, basis):
    # The columns of d*B^-T are the rows of d*B^-1.
    cached = presentation._dual_basis_cache.get(basis)
    if cached is None:
        cached = lattice_basis(
            scaled_inverse(basis, presentation.order).rows,
            presentation.rank)
        presentation._dual_basis_cache[basis] = cached
    return cached


def _meet_bases(presentation, basis_a, basis_b):
    key = frozenset((basis_a, basis_b))
    cached = presentation._meet_cache.get(key)
    if cached is None:
        da = _scaled_dual_basis(presentation, basis_a)
        db = _scaled_dual_basis(presentation, basis_b)
        summed = lattice_basis(da.columns() + db.columns(), presentation.rank)
        cached = _scaled_dual_basis(presentation, summed)
        presentation._meet_cache[key] = cached
    return cached


def subgroup_meet(a, b):
    """Intersection of two subgroups, via duality of scaled lattices."""
    if a.presentation != b.presentation:
        raise OwnershipError("subgroups belong to different groups")
    return SubgroupKey(a.presentation,
                       _meet_bases(a.presentation, a.basis, b.basis))


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
    the exact dual-lattice formula on the opposite-side presentation.  The
    columns of d^2*(C*B)^-T are the rows of d^2*(C*B)^-1."""
    p = key.presentation
    d = p.order
    m = p.constraint * key.basis
    basis = lattice_basis(scaled_inverse(m, d * d).rows, p.rank)
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
    w = e.apply_to_vector(beta.coords.numerators)
    dot = sum(x * y for x, y in zip(alpha.coords.numerators, w))
    return Fraction(dot, alpha.coords.denominator
                    * beta.coords.denominator) % 1


def enumerate_subgroups(presentation, bound=None):
    """All subgroups, each exactly once, sorted by (order, basis).

    Refuses groups larger than ``bound`` (default from the
    SAITO_MAX_GROUP_ORDER environment variable, else 10000).
    """
    if bound is None:
        bound = _max_group_order()
    if presentation.order > bound:
        raise ResourceBoundError(
            f"group order {presentation.order} exceeds bound {bound}")
    cyclics = {trivial_subgroup(presentation)}
    for g in presentation.elements():
        cyclics.add(subgroup_generated_by(presentation, [g]))
    known = set(cyclics)
    frontier = list(cyclics)
    while frontier:
        nxt = []
        for s in frontier:
            for c in cyclics:
                j = subgroup_join(s, c)
                if j not in known:
                    known.add(j)
                    nxt.append(j)
        frontier = nxt
    return sorted(known, key=lambda k: k.sort_key())


def monodromy_element(f, group=None):
    """The monodromy transformation as a group element: coordinates are the
    reduced weights over the reduced degree."""
    p = group if group is not None else symmetry_group(f)
    ws = f.weights
    coords = RationalVector(ws.reduced_weights, ws.reduced_degree).mod1()
    return GroupElement(p, coords)


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
    gens, orders, u = p._quotient_data()
    # monodromy_element raises OwnershipError unless h lies in the group,
    # so the solve always succeeds; root_count > 0 makes each coordinate
    # equation c*x = t_j (mod o_j) solvable.
    t = u.apply_to_vector(lattice_solve(p.ambient_basis, h.scaled()))
    per_coordinate = []
    for j, o in enumerate(orders):
        g = gcd(c, o)
        step = o // g
        x0 = (t[j] % o // g) * pow(c // g, -1, step) % step
        per_coordinate.append([x0 + m * step for m in range(g)])
    roots = []
    for combo in itertools.product(*per_coordinate):
        vec = [0] * n
        for j, k in enumerate(combo):
            col = gens.column(j)
            for i in range(n):
                vec[i] = (vec[i] + k * col[i]) % d
        roots.append(GroupElement(p, RationalVector(vec, d), _checked=False))
    roots.sort(key=lambda g: g.sort_key())
    return roots
