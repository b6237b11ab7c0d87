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

Every subgroup is the product of its parts over a pairwise coprime base
of the order (``_part_base``): the primes below 100, and the gcd
refinement of what the invariant factors keep above them, so no order is
ever factored.  A presentation keeps that structure as its
``_SylowIndex``, made on first use: meets, containment, element
membership and duals are read off per-part tables, each entry computed
once on small lattices.  ``enumerate_subgroups`` fills the index with
every subgroup, and any other key is named there when first looked up.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd, lcm, prod
from operator import mul

from .errors import (IndexBoundsError, OwnershipError, ResourceBoundError,
                     SingularMatrixError)
from .linalg import (IntMatrix, RationalVector, format_fractions,
                     lattice_basis, scaled_inverse, smith_normal_form,
                     triangular_dual_basis, triangular_join)
from .polynomials import direct_sum_weights, smith_weights

# Largest group whose subgroups ``enumerate_subgroups`` lists.
MAX_SUBGROUP_ORDER = 10_000

# Most subgroups that ``enumerate_subgroups`` lists, checked on their
# closed-form ``subgroup_count`` before any key is built.  The order bound
# alone does not bound the work: (Z/2)^13 has order 8,192 and 3.76e13
# subgroups.  A listing costs about one rank-n HNF per subgroup:
# x^6 + y^6 + z^6 + w^6 (rank 4, 14,204 subgroups) lists in 0.41 s at
# 32 MiB peak RSS, and x1^2 + ... + x7^2 (rank 7, 29,212 subgroups, with
# the bound lifted) in 4.9 s at 127 MiB, whole process, best of 3 (Python
# 3.11, one core of a shared 2-CPU x86-64 host).
MAX_LISTED_SUBGROUPS = 20_000

# Most geometric roots that `geometric_roots` lists; above it only
# `root_count` answers.  Listing and printing cost about 2 us and 0.4 KiB
# per root: `roots --json` on the 3-loop at p = 131, 200 and 300 (17,031,
# 39,801 and 89,701 roots, the last with the bound lifted) took 0.068,
# 0.104 and 0.201 s at 24, 31 and 54 MiB peak RSS, whole process, best
# of 3 (Python 3.11, one core of a shared 2-CPU x86-64 host).  The bound
# keeps a listing under about 0.15 s and 40 MiB.
MAX_LISTED_ROOTS = 50_000


class GroupPresentation:
    """A finite abelian group presented as E^{-1}Z^n / Z^n.

    ``constraint`` is the integer matrix whose integrality condition cuts
    out the group.  Equality and hashing use the constraint matrix only,
    so the presentation of the transposed polynomial and the ``dual()``
    of the original compare equal -- they are literally the same subgroup
    of the torus.

    The constructor runs one Smith form S = U*C*V, and ``dual()`` reads
    the transposed one from it.  A constraint of several blocks can be
    composed from presentations of its blocks (``_direct_sum``): its
    order, invariant factors and ambient basis are read off the blocks',
    and U, V and the generators wait for the first caller that needs
    them, which then runs the Smith form of the composed side's
    constraint, so every output is the one the constructor would give.

    From the first meet, containment, membership test or dual of one of
    its subgroups, or the first listing, a presentation keeps its
    ``_SylowIndex``.
    """

    __slots__ = ("_constraint", "_order", "_factors", "_u", "_v",
                 "_gens", "_ambient", "_weights", "_parts", "_dual",
                 "_full_key", "_trivial_key", "_index")

    def __init__(self, constraint):
        c = constraint if isinstance(constraint, IntMatrix) else IntMatrix(constraint)
        if not c.is_square():
            raise SingularMatrixError("constraint matrix must be square")
        s, u, v = smith_normal_form(c)
        self._setup(c, tuple(s.entry(i, i) for i in range(s.nrows)), u, v)

    def _setup(self, constraint, factors, u, v, parts=None, dual=None):
        """Fill in the presentation from the diagonal ``factors`` d_j of a
        Smith form S = U*C*V.  The group is V*S^-1*Z^n / Z^n: an element x
        is the sum of a_j times the generators V*e_j/d_j (of order d_j) for
        its SNF coordinates a = U*C*x; the d-scaled generators span d*L.
        A composed presentation passes its block ``parts`` instead of U
        and V (see ``_transforms``), and its dual passes neither.  No
        ambient basis is computed here (see ``ambient_basis``)."""
        self._constraint = constraint
        self._order = prod(factors)
        self._factors = factors
        self._u = u
        self._v = v
        self._gens = None
        self._parts = parts
        self._ambient = None
        self._weights = None
        self._dual = dual
        self._full_key = None
        self._trivial_key = None
        self._index = None

    @property
    def constraint(self):
        return self._constraint

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
        """Canonical basis of the scaled ambient lattice d*L, computed on
        first read and kept: the HNF of the scaled generators; for a
        composed presentation and its dual read off their blocks' (see
        ``_block_diagonal``); and at rank 1, where the constraint is
        (+-d), Z itself."""
        if self._ambient is None:
            if self.rank == 1:
                self._ambient = IntMatrix._wrap(((1,),))
            elif self._composed():
                self._ambient = _block_diagonal(
                    [(part.ambient_basis, part.order, cols)
                     for part, cols, _ in self._block_parts()], self._order)
            else:
                self._ambient = lattice_basis(self._scaled_gens().columns(),
                                              self.rank)
        return self._ambient

    def _composed(self):
        """Whether this presentation, or the one it is the dual of, was
        composed from its blocks' (``_direct_sum``)."""
        return self._parts is not None or (self._dual is not None
                                           and self._dual._parts is not None)

    def _block_parts(self):
        """(presentation, columns, rows) of each block of a composed
        presentation, or of its dual: the blocks' duals, at their rows."""
        return self._parts or [(part.dual(), rows, cols)
                               for part, cols, rows in self._dual._parts]

    def _weight_system(self):
        """The weight system of the constraint, kept: read off its Smith
        form S = U*C*V (``polynomials.smith_weights``), or for a composed
        presentation and its dual composed from their blocks'
        (``direct_sum_weights``), with no Smith form run."""
        if self._weights is None:
            if self._composed():
                parts = self._block_parts()
                self._weights = direct_sum_weights(
                    [part._weight_system() for part, _, _ in parts],
                    [cols for _, cols, _ in parts])
            else:
                self._weights = smith_weights(self._u, self._v,
                                              self._factors)
        return self._weights

    def dual(self):
        """The opposite-side presentation (transposed constraint), from
        the Smith form S = V^T*C^T*U^T; its dual is this presentation.
        The dual of a composed presentation is composed from its blocks'
        duals."""
        if self._dual is None:
            q = self._dual = object.__new__(GroupPresentation)
            if self._parts is None:
                q._setup(self._constraint.transpose(), self._factors,
                         self._v.transpose(), self._u.transpose(), dual=self)
            else:
                q._setup(self._constraint.transpose(), self._factors,
                         None, None, dual=self)
        return self._dual

    def _transforms(self):
        """(U, V) of the Smith form S = U*C*V.  A composed presentation
        runs the Smith form of its own constraint on first use; its dual
        takes the transposes, as ``dual()`` gives them to the dual of any
        other presentation."""
        if self._u is None:
            if self._parts is None:
                u, v = self._dual._transforms()
                self._u, self._v = v.transpose(), u.transpose()
            else:
                _, self._u, self._v = smith_normal_form(self._constraint)
        return self._u, self._v

    def _scaled_gens(self):
        """V*diag(d/d_j): column j is d times the j-th generator."""
        if self._gens is None:
            self._gens = _scaled_generators(self._transforms()[1],
                                            self._factors, self._order)
        return self._gens

    def _coordinates(self, vec):
        """The SNF coordinates a = U*C*x of the element x = vec/d."""
        d = self._order
        return tuple(a // d for a in self._transforms()[0].apply_to_vector(
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
        inverse = self._scaled_gens() * self._transforms()[0]
        return [GroupElement._wrap(self, tuple(x % d for x in col))
                for col in inverse.columns()]

    def elements(self):
        """All group elements, one per class; order of iteration is the
        product order over the invariant-factor generators."""
        for vec in _enumerate_quotient(self, self.ambient_basis):
            yield GroupElement._wrap(self, vec)

    def __eq__(self, other):
        return other is self or (isinstance(other, GroupPresentation)
                                 and self._constraint == other._constraint)

    def __hash__(self):
        return hash(self._constraint)

    def __repr__(self):
        return (f"GroupPresentation(order={self._order}, "
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

    A key carries, once looked up, its positions in its presentation's
    ``_SylowIndex``.
    """

    __slots__ = ("_presentation", "_basis", "_order", "_hash", "_positions")

    def __init__(self, presentation, basis):
        self._presentation = presentation
        self._basis = basis
        det = 1
        for i in range(basis.nrows):
            det *= basis.entry(i, i)
        self._order = presentation.order ** basis.nrows // det
        self._hash = None
        self._positions = None

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
        key._positions = None
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

    def contains_element(self, g):
        """Whether ``g`` lies in this subgroup, read part by part
        (``_SylowIndex.contains_element``)."""
        if g.presentation != self._presentation:
            raise OwnershipError("element belongs to a different group")
        p = self._presentation
        return self.is_full() or (
            p._index or _sylow_index(p)).contains_element(self, g)

    def contains(self, other):
        """True when ``other`` is a subgroup of this subgroup: |K| divides
        |H| and each part of K lies in H's (``_SylowIndex.contains``)."""
        if other._presentation != self._presentation:
            raise OwnershipError("subgroups belong to different groups")
        if self.is_full():
            return True
        if self._order % other._order:
            return False
        p = self._presentation
        return (p._index or _sylow_index(p)).contains(self, other)

    def elements(self):
        """All elements of the subgroup (enumeration-scale use only)."""
        for vec in _enumerate_quotient(self._presentation, self._basis):
            yield GroupElement._wrap(self._presentation, vec)

    def sort_key(self):
        return (self._order, self._basis.flat())

    def to_json(self):
        return self._json_of(self.sort_key())

    @staticmethod
    def _json_of(sort_key):
        """The JSON of the key whose ``sort_key()`` is ``sort_key``: its
        order and flattened basis."""
        order, flat = sort_key
        return {"order": order, "basis": list(flat)}

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


def _block_rows(rows, scale, positions, n):
    """``rows`` times ``scale``, the rows of one block of an n x n matrix,
    with entry k of each moved to column positions[k]."""
    if len(positions) == n:  # the only block
        return rows
    out = []
    for row in rows:
        full = [0] * n
        for j, x in zip(positions, row):
            full[j] = scale * x
        out.append(tuple(full))
    return tuple(out)


def _stacked(rows):
    """The matrix of ``rows``, those of upper-triangular bases with
    positive pivots placed at distinct positions, in pivot order: each is
    larger than every later one, which is zero up to its pivot."""
    return IntMatrix._wrap(tuple(sorted(rows, reverse=True)))


def _block_diagonal(blocks, d):
    """The matrix with (d/d_a)*B_a at rows and columns ``positions_a``,
    for the (B_a, d_a, positions_a) in ``blocks``, B_a the scaled basis of
    a subgroup of a group of order d_a dividing d: that of the product of
    those subgroups.  At sorted positions each upper-triangular HNF keeps
    its pivots and its reduced entries right of them: the whole is one."""
    n = sum(b.nrows for b, _, _ in blocks)
    return _stacked([row for b, order, positions in blocks
                     for row in _block_rows(b.rows, d // order, positions, n)])


def _chain_factors(orders):
    """The invariant factors of the sum of the cyclic groups Z/o for o in
    ``orders``: Z/a + Z/b = Z/gcd(a, b) + Z/lcm(a, b), applied pairwise
    until each divides the next.  After pass i the i-th entry is the gcd
    of all entries from i on, so it divides every later one."""
    fs = list(orders)
    for i in range(len(fs)):
        for j in range(i + 1, len(fs)):
            a, b = fs[i], fs[j]
            g = gcd(a, b)
            fs[i], fs[j] = g, a // g * b
    return tuple(fs)


def _direct_sum(constraint, parts):
    """The presentation of ``constraint`` composed with no Smith form from
    ``parts``, (presentation, columns, rows) of each of its blocks:
    G = G_1 x ... x G_k has order d = prod d_a, the invariant factors of
    all the blocks' merged by ``_chain_factors``, and ambient basis the
    (d/d_a)*A_a at their columns, and its dual's at their rows.  The
    ambient basis, U, V and the generators come on first use
    (``GroupPresentation._transforms``)."""
    p = object.__new__(GroupPresentation)
    p._setup(constraint, _chain_factors([f for part, _, _ in parts
                                         for f in part.invariant_factors]),
             None, None, tuple(parts))
    return p


def _enumerate_quotient(presentation, basis):
    """The d-scaled integer vector, reduced mod d, of every class of
    (basis/d)/Z^n, from the presentation's generators or, for a
    subgroup's basis, those of the Smith form of X = d*basis^-1, as
    basis/d = X^-1*Z^n (``_scaled_generators``)."""
    d = presentation.order
    n = presentation.rank
    if basis == presentation.ambient_basis:
        gens, orders = presentation._scaled_gens(), presentation._factors
    else:
        s, _, v = smith_normal_form(scaled_inverse(basis, d))
        orders = tuple(s.entry(i, i) for i in range(s.nrows))
        gens = _scaled_generators(v, orders, d)
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
    return GroupPresentation(f.exponents)


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
    """Intersection of two subgroups.  A full, trivial or equal operand
    decides the meet at once; any other is read part by part off the
    presentation's index (``_SylowIndex.meet``)."""
    p = a.presentation
    if b.presentation != p:
        raise OwnershipError("subgroups belong to different groups")
    if a._order == p.order or b._order == 1 or a._basis == b._basis:
        return b
    if b._order == p.order or a._order == 1:
        return a
    return (p._index or _sylow_index(p)).meet(a, b)


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
    """Dual of a subgroup: the kernel of character restriction, on the
    opposite-side presentation, read part by part off the index of the
    key's presentation (``_SylowIndex.dual``)."""
    p = key.presentation
    return (p._index or _sylow_index(p)).dual(key)


def _is_dual(p, rows, index, dual_rows, dual_index):
    """Whether the subgroup K of ``p.dual()`` with the rows ``dual_rows``
    of its scaled basis and index ``dual_index`` is, by the supports of
    the two bases, the dual H~ of the subgroup H of ``p`` given alike by
    ``rows`` and ``index``.  True proves K = H~; False only says that the
    supports do not show it.

    K is H~ exactly when |H|*|K| = d, that is index*dual_index = d, and K
    lies in the annihilator of H: B_K^T*C*B_H = 0 (mod d^2) for the
    scaled bases B_H, B_K and the constraint C (``dual_subgroup``).  A
    basis column divisible by d scales an integer vector, which pairs to
    0 with every element of the other side.  So when C vanishes on the
    rows where K's other columns are supported and the columns where H's
    are, the product is exactly 0 there, with no product formed.  That is
    the complement lemma (arXiv:1105.1964) read as a support statement:
    H = G^I has its other columns at the variables J off I, its label,
    the isotropy subgroup of the transposed side at the rows R' off R,
    has them at R, and E[R, J] = 0."""
    d = p.order
    if index * dual_index != d:
        return False
    cols = [j for j, used in enumerate(_support(rows, d)) if used]
    return not any(row[j] for row, used in zip(p.constraint.rows,
                                               _support(dual_rows, d))
                   if used for j in cols)


def _support(rows, d):
    """Per row of the scaled basis with ``rows``, whether it is nonzero in
    some column that is not divisible by d."""
    live = [j for j, col in enumerate(zip(*rows)) if any(x % d for x in col)]
    return [any(row[j] for j in live) for row in rows]


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


# The primes below 100.  A group of order at most MAX_SUBGROUP_ORDER has
# at most one prime factor above them, as 101^2 > MAX_SUBGROUP_ORDER, so
# ``_part_base`` splits it into its Sylow parts.
_SMALL_PRIMES = tuple(q for q in range(2, 100)
                      if all(q % r for r in range(2, q)))


def _part_base(factors):
    """A pairwise coprime base of the invariant factors ``factors``, in
    increasing order, such that each factor is a product of powers of its
    members: the group is the sum of its parts, one per member.  The
    members are the primes below 100 that divide a factor, and the factor
    refinement (Bach, Driscoll and Shallit, J. Algorithms 15, 1993) of
    what the factors keep once those are divided out: two terms a, b with
    g = gcd(a, b) > 1 give way to a/g, g and b/g until no two share a
    factor.  Only gcds are taken, so no order is factored."""
    top = lcm(*factors)
    base = [q for q in _SMALL_PRIMES if top % q == 0]
    rest = set()
    for o in factors:
        for q in base:
            while o % q == 0:
                o //= q
        rest.add(o)
    rest.discard(1)
    coprime = set()
    while rest:
        a = rest.pop()
        b = next((b for b in coprime if gcd(a, b) > 1), None)
        if b is None:
            coprime.add(a)
        else:
            coprime.remove(b)
            g = gcd(a, b)
            rest.update({a // g, g, b // g} - {1})
    return base + sorted(coprime)


def _valuations(factors, q):
    """(j, v_j) for each invariant factor o_j that q divides, q^v_j the
    largest power of q dividing o_j."""
    out = []
    for j, o in enumerate(factors):
        v = 0
        while o % q == 0:
            o //= q
            v += 1
        if v:
            out.append((j, v))
    return out


def _gaussian_binomial(n, k, q):
    """The number of k-dimensional subspaces of F_q^n."""
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def _sylow_subgroup_count(q, exponents):
    """The number of subgroups of the sum of the Z/q^e for e in
    ``exponents``, an abelian q-group of type lambda: Birkhoff's count of
    its subgroups of type mu,

        prod_i q^(mu'_{i+1} * (lambda'_i - mu'_i))
               * [lambda'_i - mu'_{i+1} choose mu'_i - mu'_{i+1}]_q

    over the conjugate partitions, summed over every mu inside lambda in
    one pass down the columns i: ``sums[a]`` adds up the products over
    the columns from i on of the mu with mu'_i = a."""
    top = max(exponents)
    conj = [sum(1 for e in exponents if e >= i) for i in range(1, top + 2)]
    sums = [1]  # past the last column, mu' is 0
    for i in range(top - 1, -1, -1):
        width, after = conj[i], conj[i + 1]
        sums = [sum(q ** (b * (width - a))
                    * _gaussian_binomial(width - b, a - b, q) * sums[b]
                    for b in range(min(a, after) + 1))
                for a in range(width + 1)]
    return sum(sums)


def subgroup_count(presentation):
    """The number of subgroups, in closed form with no key built: the
    product of the counts of the Sylow q-parts (``_sylow_subgroup_count``)
    over the members q of ``_part_base``.  Refuses groups larger than
    MAX_SUBGROUP_ORDER, as only up to it are those members prime."""
    if presentation.order > MAX_SUBGROUP_ORDER:
        raise ResourceBoundError(f"group order {presentation.order} exceeds "
                                 f"bound {MAX_SUBGROUP_ORDER}")
    factors = presentation.invariant_factors
    count = 1
    for q in _part_base(factors):
        count *= _sylow_subgroup_count(
            q, [v for _, v in _valuations(factors, q)])
    return count


def _hnf_lattices(orders):
    """Every lattice M with diag(orders)Z^k <= M <= Z^k, each yielded once
    as the columns of its column HNF H and the rows of s*H^-1, for s the
    largest order.

    H is upper triangular with pivots h_ii | o_i and the entries right of
    each pivot in [0, h_ii); the rows are chosen bottom-up.  The
    coefficients c of o_j e_j = H c are solved along the way (c_j =
    o_j / h_jj, and row i < j needs h_ii c_i = -sum_{l > i} h_il c_l), so
    each entry h_ij is drawn only from the solutions of the congruence that
    puts o_j e_j in the span, and a row with none is dropped at once.
    Those coefficients are the columns of H^-1*diag(orders), which gives
    s*H^-1 with no inverse."""
    k = len(orders)
    s = max(orders)
    pivots = [[t for t in range(1, o + 1) if o % t == 0] for o in orders]
    h = [[0] * k for _ in range(k)]
    coeffs = [[0] * k for _ in range(k)]  # coeffs[j]: o_j e_j = H coeffs[j]

    def choose_row(i):
        if i < 0:
            yield ([tuple(h[r][c] for r in range(k)) for c in range(k)],
                   [[coeffs[j][r] * (s // orders[j]) for j in range(k)]
                    for r in range(k)])
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


def _diagonal_rows(entries):
    """The rows of the diagonal matrix with ``entries``."""
    k = len(entries)
    return [tuple(x if r == c else 0 for c in range(k))
            for r, x in enumerate(entries)]


class _SylowPart:
    """The subgroups of one part of a presentation met so far, with their
    meets and duals, each computed once.

    The part belongs to a member q of the coprime base ``_part_base``: a
    prime gives the Sylow q-part, any other member the sum of the Sylow
    parts of its primes, which are never found.  In the SNF coordinates
    the part is the sum of the Z/q_j, q_j the largest power of q dividing
    the invariant factor o_j, generated by h_j = u_j*g_j for the j-th
    generator g_j and u_j = o_j/q_j, which is prime to q_j.  A subgroup is
    the lattice M with diag(q)Z^k <= M <= Z^k of the coefficients of the
    h_j that land in it; the element with the SNF coordinates a has the
    coefficients a_j*u_j^-1 mod q_j here (``coefficients``).  The
    exponent s = max q_j kills the part, so s*Z^k <= M, and M is named by
    the canonical row basis J of s*M^*: c lies in M exactly when
    J*c = 0 (mod s) (``holds``).  A lattice gets a position when first
    met, which keeps J and generators of M (for a listed M, the columns
    of its HNF, and for a located one those it was given).

    - The meet of M and K is named by the ``triangular_join`` of their
      J's, and K lies in M exactly when that meet is K.
    - The pairing of the SNF generators of the two sides is diag(1/o_j)
      (U*C*V = S, and the dual side's Smith form is its transpose), so h_i
      and the dual side's h*_j pair to delta_ij * w_j / s with the weights
      w_j = u_j*s/q_j.  The annihilator N of M, in the dual side's
      coordinates, is the x with c^T*diag(w)*x = 0 (mod s) for every
      generator c of M: its J is the join of s*I with the rows
      c^T*diag(w).  And x lies in N exactly when diag(u)*x lies in
      diag(q/s)*(s*M^*), so the rows r of M's J give N's generators
      diag(u^-1 mod q)*diag(q/s)*r, with the q_j e_j, which are zero.

    None of this needs q prime.  No part runs an HNF, and an inverse only
    names a lattice given by generators (``locate``) or gives generators
    of a meet that lands off every known lattice: the columns of s*J^-1
    (``triangular_dual_basis``), made when first needed."""

    __slots__ = ("_columns", "_orders", "_scalar", "_weights", "_inverses",
                 "_gens", "_modulus", "sizes", "_names", "_generators",
                 "_vectors", "_positions", "_meets", "_duals")

    def __init__(self, factors, gens, q):
        valuations = _valuations(factors, q)
        self._columns = [j for j, _ in valuations]
        orders = self._orders = [q ** v for _, v in valuations]
        s = self._scalar = max(orders)
        units = [factors[j] // t for (j, _), t in zip(valuations, orders)]
        self._weights = [u % t * (s // t) for u, t in zip(units, orders)]
        self._inverses = [pow(u, -1, t) for u, t in zip(units, orders)]
        self._gens = [[u * x for x in gens.column(j)]
                      for (j, _), u in zip(valuations, units)]
        self._modulus = prod(factors)
        self.sizes = []
        self._names = []
        self._generators = []
        self._vectors = []
        self._positions = {}
        self._meets = {}
        self._duals = {}

    def listing(self):
        """The positions of all subgroups of the part, in the order of
        ``_hnf_lattices``."""
        return [self.position(triangular_join(rows, ()), columns)
                for columns, rows in _hnf_lattices(self._orders)]

    def coefficients(self, a):
        """The coefficients in this part of the element with the SNF
        coordinates ``a`` (``GroupPresentation._coordinates``)."""
        return [a[j] * v % t for j, v, t
                in zip(self._columns, self._inverses, self._orders)]

    def locate(self, generators):
        """The position of the lattice M spanned by the coefficient
        vectors ``generators`` and diag(q)Z^k: the rows of its canonical
        basis R (``triangular_join``) span M, so the columns of s*R^-1
        span s*M^*, which their join with s*I names."""
        s = self._scalar
        span = triangular_join(_diagonal_rows(self._orders), generators)
        return self.position(
            triangular_join(_diagonal_rows([s] * len(self._orders)),
                            scaled_inverse(span, s).columns()), generators)

    def position(self, name, generators=None):
        """The position of the lattice named ``name``; one met for the
        first time keeps ``generators``, when the caller has them."""
        i = self._positions.get(name)
        if i is None:
            i = self._positions[name] = len(self._names)
            self._names.append(name)
            self._generators.append(generators)
            self._vectors.append(None)
            # |M / diag(q)Z^k| = prod q / det H, and det J = s^k / det H.
            self.sizes.append(prod(self._orders) * prod(
                row[j] for j, row in enumerate(name.rows))
                // self._scalar ** len(self._orders))
        return i

    def generators(self, i):
        """Generators of the lattice at ``i``."""
        gens = self._generators[i]
        if gens is None:
            gens = self._generators[i] = triangular_dual_basis(
                self._names[i], self._scalar).columns()
        return gens

    def holds(self, i, c):
        """Whether the coefficient vector ``c`` lies in the lattice at
        ``i``."""
        s = self._scalar
        return all(sum(map(mul, r, c)) % s == 0 for r in self._names[i].rows)

    def meet(self, i, j):
        """The position of the meet of the lattices at ``i`` and ``j``."""
        if i == j:
            return i
        pair = (i, j) if i < j else (j, i)
        m = self._meets.get(pair)
        if m is None:
            m = self._meets[pair] = self.position(
                triangular_join(self._names[i].rows, self._names[j].rows))
        return m

    def contains(self, i, j):
        """Whether the lattice at ``i`` contains the one at ``j``."""
        return self.sizes[i] % self.sizes[j] == 0 and self.meet(i, j) == j

    def dual(self, i, other):
        """The position in ``other``, the same member's part of the dual
        side, of the annihilator of the lattice at ``i``."""
        m = self._duals.get(i)
        if m is None:
            s = self._scalar
            paired = [[x * w % s for x, w in zip(c, self._weights)]
                      for c in self.generators(i)]
            m = self._duals[i] = other.position(
                triangular_join(_diagonal_rows([s] * len(self._orders)),
                                paired),
                [[r_j * t // s * v % t for r_j, t, v
                  in zip(r, self._orders, self._inverses)]
                 for r in self._names[i].rows])
        return m

    def vectors(self, i):
        """The nonzero d-scaled vectors, reduced mod the group order d, of
        the generators of the lattice at ``i`` mapped through the h_j."""
        out = self._vectors[i]
        if out is None:
            d = self._modulus
            out = self._vectors[i] = []
            for c in filter(any, self.generators(i)):
                vec = tuple(sum(map(mul, c, row)) % d
                            for row in zip(*self._gens))
                if any(vec):
                    out.append(vec)
        return out


class _SylowIndex:
    """The subgroups of a presentation met so far as products of their
    parts, one ``_SylowPart`` per member of the coprime base of its
    invariant factors (``_part_base``): each key's basis maps to its tuple
    of positions, one per part, and each tuple to its key.  A meet, a
    containment, an element test or a dual is read part by part off the
    parts' tables, and a meet or a dual names its result by its tuple, so
    each pair of positions of one part is computed once.  A tuple met for
    the first time costs the one HNF that names its key.

    ``enumerate_subgroups`` fills the index with every subgroup, and a
    dual fills the dual side's with the duals it lands on.  Any other key
    is named on first lookup (``positions_of``)."""

    __slots__ = ("_presentation", "parts", "_base", "_keys", "_tuples",
                 "listed")

    def __init__(self, presentation):
        factors = presentation.invariant_factors
        gens = presentation._scaled_gens()
        self._presentation = presentation
        self.parts = [_SylowPart(factors, gens, q)
                      for q in _part_base(factors)]
        self._base = _diagonal_rows([presentation.order] * presentation.rank)
        self._keys = {}
        self._tuples = {}
        self.listed = None

    def positions_of(self, key):
        """The tuple of positions of ``key``.  A basis met for the first
        time is named here: the SNF coordinates of its nonzero columns,
        scaled into each part (``_SylowPart.coefficients``), generate the
        part's lattice (``_SylowPart.locate``).  A key of this presentation
        object keeps its tuple, and becomes its key unless one is kept."""
        own = key._presentation is self._presentation
        t = key._positions if own else None
        if t is None:
            t = self._tuples.get(key._basis)
            if t is None:
                p, d = self._presentation, self._presentation.order
                coords = [p._coordinates(c) for c in key._basis.columns()
                          if any(x % d for x in c)]
                t = self._tuples[key._basis] = tuple(
                    part.locate([part.coefficients(a) for a in coords])
                    for part in self.parts)
            if own:
                key._positions = t
                self._keys.setdefault(t, key)
        return t

    def key(self, positions):
        """The key of the product of the parts at ``positions``."""
        key = self._keys.get(positions)
        if key is None:
            p = self._presentation
            columns = list(self._base)
            order = 1
            for part, i in zip(self.parts, positions):
                columns += part.vectors(i)
                order *= part.sizes[i]
            basis = lattice_basis(columns, p.rank)
            key = self._keys[positions] = SubgroupKey._wrap(p, basis, order)
            key._positions = positions
            self._tuples[basis] = positions
        return key

    def meet(self, a, b):
        return self.key(tuple(part.meet(i, j) for part, i, j in zip(
            self.parts, self.positions_of(a), self.positions_of(b))))

    def contains(self, h, k):
        return all(part.contains(i, j) for part, i, j in zip(
            self.parts, self.positions_of(h), self.positions_of(k)))

    def contains_element(self, key, g):
        a = self._presentation._coordinates(g.scaled())
        return all(part.holds(i, part.coefficients(a))
                   for part, i in zip(self.parts, self.positions_of(key)))

    def dual(self, key):
        """The dual of ``key`` on the dual side, whose index it fills: each
        part's annihilator is read off this side's pairing
        (``_SylowPart.dual``), never off the dual side's table."""
        t = self.positions_of(key)
        q = self._presentation.dual()
        other = q._index or _sylow_index(q)
        return other.key(tuple(part.dual(i, dual_part) for part, dual_part, i
                               in zip(self.parts, other.parts, t)))


def _sylow_index(presentation):
    """The presentation's ``_SylowIndex``, made on first use."""
    if presentation._index is None:
        presentation._index = _SylowIndex(presentation)
    return presentation._index


def enumerate_subgroups(presentation):
    """All subgroups, each exactly once, sorted by (order, basis).

    Refuses groups larger than MAX_SUBGROUP_ORDER, and groups with more
    than MAX_LISTED_SUBGROUPS subgroups, counted in closed form
    (``subgroup_count``, which also checks the order) before any key is
    built.

    In the SNF coordinates of the presentation the group is the sum of
    the Z/o_j, and every subgroup is the product of one subgroup of each
    Sylow p-part.  The p-part is the sum of the Z/p^v_j (v_j the p-adic
    valuation of o_j), generated by (o_j / p^v_j) times the j-th generator,
    and its subgroups are the lattices listed by ``_hnf_lattices``.  Each
    product is mapped back through those generators, together with the
    columns d*e_i, and named by one HNF.  The listing fills the
    presentation's ``_SylowIndex`` with these keys; a second call returns
    the same keys."""
    count = subgroup_count(presentation)
    if count > MAX_LISTED_SUBGROUPS:
        raise ResourceBoundError(f"{count} subgroups exceed the listing "
                                 f"bound {MAX_LISTED_SUBGROUPS}")
    index = _sylow_index(presentation)
    if index.listed is None:
        keys = [index.key(positions) for positions in itertools.product(
            *(part.listing() for part in index.parts))]
        keys.sort(key=SubgroupKey.sort_key)
        index.listed = keys
    return list(index.listed)


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
    wrap = GroupElement._wrap
    return [wrap(p, v) for v in _root_vectors(f, p)]


def _root_vectors(f, p):
    """The geometric roots of ``f`` in its group ``p`` as sorted d-scaled
    integer vectors, the order of ``GroupElement.sort_key``: what
    ``geometric_roots`` wraps, and what the ``roots`` command formats with
    no element per root."""
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
    # sorted as tuples (the order of ``GroupElement.sort_key``).
    coords = [[0] for _ in range(n)]
    for col, o, tj in zip(zip(*p._scaled_gens().rows), p._factors, t):
        g = gcd(c, o)
        step = o // g
        x0 = (tj % o // g) * pow(c // g, -1, step) % step
        xs = range(x0, o, step)
        coords = [[(v + x * a) % d for v in vs for x in xs]
                  for vs, a in zip(coords, col)]
    return sorted(zip(*coords))
