"""Brute-force oracles used by the test suite.

Everything here recomputes results from first principles -- explicit coset
spaces, orbit BFS, per-orbit stabilizer scans, element-by-element pairing
kernels -- independently of the closed forms in the package.  Points are
d-scaled integer coordinate tuples throughout.
"""

from __future__ import annotations

import copy
import functools
import itertools
from fractions import Fraction
from math import gcd, isqrt, lcm

from saitodual.burnside import BurnsideElement, CyclotomicProduct, element_zeta
from saitodual.enumeration import (atom_specs, build_polynomial,
                                   canonical_matrix_key)
from saitodual.groups import (GroupElement, SubgroupKey, full_subgroup,
                              isotropy_subgroup, monodromy_element,
                              subgroup_generated_by, symmetry_group,
                              trivial_subgroup)
from saitodual.errors import OwnershipError, SingularMatrixError
from saitodual.linalg import (IntMatrix, RationalVector, determinant,
                              lattice_basis, lattice_solve, scaled_inverse,
                              smith_normal_form)
from saitodual.zeta import SubsetTerm, ZetaReport

_elements_cache = {}
_coset_cache = {}
_stabilizer_cache = {}


def scaled_elements(key):
    """All elements of the subgroup as d-scaled integer tuples."""
    cached = _elements_cache.get(key)
    if cached is None:
        cached = [g.scaled() for g in key.elements()]
        _elements_cache[key] = cached
    return cached


def reduce_mod_basis(vec, basis):
    """Canonical representative of ``vec`` modulo the column lattice of an
    upper-triangular basis."""
    v = list(vec)
    rows = basis.rows
    n = len(v)
    for i in range(n - 1, -1, -1):
        q = v[i] // rows[i][i]
        if q:
            for k in range(i + 1):
                v[k] -= q * rows[k][i]
    return tuple(v)


def coset_space(scope, sub):
    """Canonical representatives of the cosets of ``sub`` inside ``scope``."""
    cache_key = (scope, sub)
    cached = _coset_cache.get(cache_key)
    if cached is None:
        basis = sub.basis
        seen = set()
        for vec in scaled_elements(scope):
            seen.add(reduce_mod_basis(vec, basis))
        cached = sorted(seen)
        _coset_cache[cache_key] = cached
    return cached


def _stabilizer_key(p, stab_vecs):
    cache_key = (p, frozenset(stab_vecs))
    cached = _stabilizer_cache.get(cache_key)
    if cached is None:
        cached = subgroup_generated_by(
            p, [GroupElement._wrap(p, v) for v in stab_vecs])
        _stabilizer_cache[cache_key] = cached
    return cached


def orbit_decomposition(scope, points, act):
    """Decompose a finite scope-set into orbit classes.

    ``act(g_scaled, point) -> point`` must implement the action.  Each
    orbit is computed as the literal image of a representative under every
    group element, which also yields the stabilizer in the same scan.
    Returns the corresponding BurnsideElement over ``scope``.
    """
    p = scope.presentation
    elements = scaled_elements(scope)
    remaining = set(points)
    counts = {}
    while remaining:
        start = remaining.pop()
        orbit = set()
        stab = []
        for g in elements:
            y = act(g, start)
            orbit.add(y)
            if y == start:
                stab.append(g)
        remaining -= orbit
        stab_key = _stabilizer_key(p, stab)
        counts[stab_key] = counts.get(stab_key, 0) + 1
    return BurnsideElement(scope, counts)


def _coset_action(basis):
    def act(g, x):
        return reduce_mod_basis(tuple(a + b for a, b in zip(g, x)), basis)
    return act


def brute_multiply(scope, h, k):
    """Orbit decomposition of the product of the coset spaces S/H x S/K."""
    reps_h = coset_space(scope, h)
    reps_k = coset_space(scope, k)
    act_h = _coset_action(h.basis)
    act_k = _coset_action(k.basis)
    points = [(x, y) for x in reps_h for y in reps_k]

    def act(g, point):
        return (act_h(g, point[0]), act_k(g, point[1]))

    return orbit_decomposition(scope, points, act)


def brute_restrict(a, sub):
    """Orbit decomposition of each term's coset space under the subgroup
    action, summed with coefficients."""
    out = BurnsideElement(sub)
    for h, c in a.terms.items():
        points = coset_space(a.scope, h)
        piece = orbit_decomposition(sub, points, _coset_action(h.basis))
        out = out + c * piece
    return out


def induce(a, target):
    """Induction to a larger scope: [K/U] |-> [T/U].  Additive but not
    multiplicative."""
    if target.presentation != a.scope.presentation:
        raise OwnershipError("target belongs to a different group")
    if not target.contains(a.scope):
        raise OwnershipError("induction target does not contain the scope")
    return BurnsideElement(target, a.terms)


def brute_element_zeta(g, a):
    """Cycle-count zeta of the permutation induced by ``g`` on each term's
    coset space."""
    order = g.order
    vec = g.scaled()
    factors = {}
    for h, c in a.terms.items():
        act = _coset_action(h.basis)
        remaining = set(coset_space(a.scope, h))
        while remaining:
            start = remaining.pop()
            x = act(vec, start)
            length = 1
            while x != start:
                remaining.discard(x)
                x = act(vec, x)
                length += 1
            factors[length] = factors.get(length, 0) + c
    return CyclotomicProduct(order, factors)


def brute_mark(a, sub):
    """Fixed points of every element of ``sub`` simultaneously, counted on
    the explicit union of coset spaces."""
    total = 0
    sub_elements = scaled_elements(sub)
    for h, c in a.terms.items():
        act = _coset_action(h.basis)
        fixed = sum(1 for x in coset_space(a.scope, h)
                    if all(act(g, x) == x for g in sub_elements))
        total += c * fixed
    return total


def kernel_dual(sub):
    """Kernel-of-restriction dual computed by element-by-element pairing:
    the set of opposite-side elements pairing to 0 with every generator of
    the subgroup."""
    p = sub.presentation
    pd = p.dual()
    d = p.order
    e = p.constraint
    dd = d * d
    # Columns of the scaled basis generate the subgroup.
    images = [e.apply_to_vector(sub.basis.column(j))
              for j in range(sub.basis.ncols)]
    kernel = []
    for vec in scaled_elements(full_subgroup(pd)):
        if all(sum(a * b for a, b in zip(vec, w)) % dd == 0 for w in images):
            kernel.append(pd.element(RationalVector(vec, d)))
    return subgroup_generated_by(pd, kernel)


def kernel_dual_all_pairs(sub, opposite_elements=None):
    """Like kernel_dual but pairing against every element of the subgroup,
    with exact rational pairing values."""
    from saitodual.groups import pairing
    p = sub.presentation
    pd = p.dual()
    members = list(sub.elements())
    kernel = []
    for lam in full_subgroup(pd).elements():
        if all(pairing(lam, mu) == Fraction(0) for mu in members):
            kernel.append(lam)
    return subgroup_generated_by(pd, kernel)


def laplace_determinant(rows):
    """Cofactor-expansion determinant; independent of the package path."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [[row[k] for k in range(n) if k != j] for row in rows[1:]]
        sign = -1 if j % 2 else 1
        total += sign * rows[0][j] * laplace_determinant(minor)
    return total


def matrix_from_columns(columns):
    """The IntMatrix whose columns are ``columns``."""
    return IntMatrix([list(row) for row in zip(*columns)])


def lattice_member(basis, vector):
    """True when ``vector`` lies in the column lattice of ``basis``."""
    return lattice_solve(basis, vector) is not None


def lattice_basis_by_enumeration(columns, dim, radius=24):
    """Canonical upper-triangular lattice basis found by brute-force point
    enumeration (small 2x2 cases only): for each pivot row, the smallest
    positive value achievable in that row with zeros below, then entries to
    the right reduced into [0, pivot)."""
    import itertools

    assert dim == 2 and len(columns) >= 2
    points = set()
    span = range(-radius, radius + 1)
    for coeffs in itertools.product(span, repeat=len(columns)):
        x = sum(c * col[0] for c, col in zip(coeffs, columns))
        y = sum(c * col[1] for c, col in zip(coeffs, columns))
        points.add((x, y))
    # Pivot of row 1: smallest positive y.
    p1 = min(y for _, y in points if y > 0)
    # Pivot of row 0: smallest positive x with y = 0.
    p0 = min(x for x, y in points if y == 0 and x > 0)
    # Column above pivot p1 reduced mod p0.
    x1 = min(x for x, y in points if y == p1 and x >= 0)
    return [[p0, x1 % p0], [0, p1]]


def subgroup_join(a, b):
    """Smallest subgroup containing both (the product HK)."""
    if a.presentation != b.presentation:
        raise OwnershipError("subgroups belong to different groups")
    return SubgroupKey(a.presentation, lattice_basis(
        a.basis.columns() + b.basis.columns(), a.presentation.rank))


@functools.lru_cache(maxsize=4096)
def scaled_dual_basis(d, basis):
    """HNF of d times the dual of the column lattice of ``basis``: of the
    rows of d*B^-1 (the columns of d*B^-T)."""
    return lattice_basis(scaled_inverse(basis, d).rows, basis.nrows)


def meet_bases(p, basis_a, basis_b):
    """Basis of the meet of two scaled lattices of ``p`` through three
    dual-lattice HNFs, as ``subgroup_meet`` computed it before it kept the
    scaled inverses: the HNF of each operand's dual, the HNF of their sum
    and the HNF of that sum's dual."""
    d = p.order
    da = scaled_dual_basis(d, basis_a)
    db = scaled_dual_basis(d, basis_b)
    summed = lattice_basis(da.columns() + db.columns(), p.rank)
    return scaled_dual_basis(d, summed)


def hnf_meet(a, b):
    """``subgroup_meet`` by three dual-lattice HNFs."""
    p = a.presentation
    return SubgroupKey(p, meet_bases(p, a.basis, b.basis))


def inverse_dual(key):
    """``dual_subgroup`` as the HNF of the rows of d^2*(C*B)^-1, with C*B
    inverted by ``scaled_inverse`` (a column HNF with transform unless
    C*B is upper triangular)."""
    p = key.presentation
    d = p.order
    m = p.constraint * key.basis
    return SubgroupKey(p.dual(),
                       lattice_basis(scaled_inverse(m, d * d).rows, p.rank))


def solve_contains(h, k):
    """``h.contains(k)`` by solving B_H*x = v for each column v of B_K."""
    return all(lattice_solve(h.basis, v) is not None
               for v in k.basis.columns())


def solve_contains_element(h, g):
    """``h.contains_element(g)`` by solving B_H*x = d*g."""
    return lattice_solve(h.basis, g.scaled()) is not None


def meet_isotropy(p, indices):
    """Isotropy subgroup as the meet of the full group with the lattice of
    vectors integral at ``indices``, through three dual-lattice HNFs."""
    idx = set(indices)
    if not idx:
        return full_subgroup(p)
    d = p.order
    constraint = IntMatrix.diagonal([d if i in idx else 1
                                     for i in range(p.rank)])
    return SubgroupKey(p, meet_bases(p, p.ambient_basis, constraint))


def join_closure_subgroups(p):
    """All subgroups of ``p``, sorted by (order, basis), as
    ``enumerate_subgroups`` found them before it built them: the cyclic
    subgroup of every element, one HNF each, then every join of those until
    no new subgroup appears."""
    cyclics = {trivial_subgroup(p)}
    for g in p.elements():
        cyclics.add(subgroup_generated_by(p, [g]))
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


def fraction_scaled_inverse(m, scalar):
    """scalar * M^{-1} by rational Gauss-Jordan elimination on [M | scalar*I];
    SingularMatrixError when M is singular, ValueError when the result is
    not integral."""
    n = m.nrows
    a = [[Fraction(x) for x in row]
         + [Fraction(scalar if i == j else 0) for j in range(n)]
         for i, row in enumerate(m.rows)]
    for k in range(n):
        pivot_row = next((i for i in range(k, n) if a[i][k] != 0), None)
        if pivot_row is None:
            raise SingularMatrixError("matrix is singular")
        if pivot_row != k:
            a[k], a[pivot_row] = a[pivot_row], a[k]
        pk = a[k][k]
        a[k] = [x / pk for x in a[k]]
        for i in range(n):
            if i != k and a[i][k] != 0:
                f = a[i][k]
                a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    out = []
    for i in range(n):
        row = []
        for j in range(n, 2 * n):
            val = a[i][j]
            if val.denominator != 1:
                raise ValueError("scaled inverse is not integral")
            row.append(val.numerator)
        out.append(row)
    return IntMatrix(out)


def fraction_lattice_solve(basis, vector):
    """Integer x with basis*x = vector, or None, by rational Gaussian
    elimination and back-substitution; SingularMatrixError when the basis
    is singular."""
    n = basis.nrows
    a = [[Fraction(x) for x in row] for row in basis.rows]
    b = [Fraction(x) for x in vector]
    for k in range(n):
        pivot_row = next((i for i in range(k, n) if a[i][k] != 0), None)
        if pivot_row is None:
            raise SingularMatrixError("basis is singular")
        if pivot_row != k:
            a[k], a[pivot_row] = a[pivot_row], a[k]
            b[k], b[pivot_row] = b[pivot_row], b[k]
        for i in range(k + 1, n):
            if a[i][k] != 0:
                f = a[i][k] / a[k][k]
                a[i] = [x - f * y for x, y in zip(a[i], a[k])]
                b[i] -= f * b[k]
    x = [Fraction(0)] * n
    for i in range(n - 1, -1, -1):
        acc = b[i]
        for j in range(i + 1, n):
            acc -= a[i][j] * x[j]
        x[i] = acc / a[i][i]
    if any(val.denominator != 1 for val in x):
        return None
    return [val.numerator for val in x]


def divisors(n):
    out = [k for k in range(1, isqrt(n) + 1) if n % k == 0]
    out += [n // k for k in reversed(out) if k * k != n]
    return out


def divisor_coset_order(g, h):
    """Order of the coset g + H by trial over the divisors of ord(g)."""
    return next(r for r in divisors(g.order) if h.contains_element(r * g))


def dedup_corpus(max_vars, max_exp, include_sums=False, include_chains=True,
                 include_loops=True):
    """The corpus as first generated: build every block combination, key
    each polynomial by ``(nvars, canonical_matrix_key)``, keep the first per
    key and sort by key.  Returns (corpus, number of polynomials built)."""
    specs = atom_specs(max_vars, max_exp, include_chains, include_loops)
    combos = [[s] for s in specs]
    if include_sums:
        sizes = [len(ps) for _, ps in specs]

        def extend(start, used, acc):
            for i in range(start, len(specs)):
                if used + sizes[i] > max_vars:
                    continue
                acc.append(specs[i])
                if len(acc) >= 2:
                    combos.append(list(acc))
                extend(i, used + sizes[i], acc)
                acc.pop()

        extend(0, 0, [])
    seen = {}
    for combo in combos:
        f = build_polynomial(combo)
        seen.setdefault((f.nvars, canonical_matrix_key(f.exponents)), f)
    return [seen[k] for k in sorted(seen)], len(combos)


def coordinate_roots(f, p):
    """Every solution g of c*g = h, as ``geometric_roots`` listed them
    before it was counted first: solve c*x_j = t_j (mod o_j) in the SNF
    coordinates t of the monodromy element h, coordinate by coordinate,
    and combine; no solution when one coordinate has none.  Sorted by the
    rational coordinates, not by ``sort_key``, which is under test."""
    c = f.weights.gcd_factor
    h = monodromy_element(f, p)
    d = p.order
    n = p.rank
    gens, orders, u = ambient_quotient_data(p)
    t = u.apply_to_vector(lattice_solve(p.ambient_basis, h.scaled()))
    per_coordinate = []
    for j, o in enumerate(orders):
        tj = t[j] % o
        g = gcd(c, o)
        if tj % g:
            return []
        step = o // g
        x0 = (tj // g) * pow(c // g, -1, step) % step
        per_coordinate.append([x0 + m * step for m in range(g)])
    roots = []
    for combo in itertools.product(*per_coordinate):
        vec = [0] * n
        for j, k in enumerate(combo):
            col = gens.column(j)
            for i in range(n):
                vec[i] = (vec[i] + k * col[i]) % d
        roots.append(GroupElement._wrap(p, tuple(vec)))
    roots.sort(key=lambda g: g.coords.fractions())
    return roots


def brute_roots(f, p):
    """Every solution g of c*g = h, by trial over all group elements, in
    the order of their rational coordinates."""
    c = f.weights.gcd_factor
    h = monodromy_element(f, p)
    return sorted((g for g in p.elements() if c * g == h),
                  key=lambda g: g.coords.fractions())


def listed_root_zeta(report):
    """The root-duality side as ``verify_root_duality`` computed it from
    root lists: the zeta function of the first generating root among the
    listed roots on the reduced zeta, with modulus d; None when no listed
    root generates."""
    f, p = report.polynomial, report.group
    d = p.order
    root = next((g for g in coordinate_roots(f, p) if g.order == d), None)
    if root is None:
        return None
    return element_zeta(root, report.reduced).with_modulus(d)


class RationalElement:
    """Reference for ``GroupElement`` arithmetic: the rational coordinates
    x, reduced mod 1, over one denominator in lowest terms, added, negated
    and scaled as rationals, as the package did before it stored d*x."""

    __slots__ = ("nums", "den")

    def __init__(self, nums, den):
        nums = [x % den for x in nums]
        g = gcd(den, *nums)
        if g > 1:
            nums = [x // g for x in nums]
            den //= g
        self.nums = tuple(nums)
        self.den = den

    def _combine(self, other, sign):
        den = lcm(self.den, other.den)
        m, k = den // self.den, sign * (den // other.den)
        return RationalElement(
            [a * m + b * k for a, b in zip(self.nums, other.nums)], den)

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __neg__(self):
        return RationalElement([-x for x in self.nums], self.den)

    def __rmul__(self, k):
        return RationalElement([k * x for x in self.nums], self.den)

    @property
    def order(self):
        return self.den

    def fractions(self):
        return tuple(Fraction(x, self.den) for x in self.nums)

    def scaled(self, d):
        """The integer vector d*x; d must be a multiple of the order."""
        q, r = divmod(d, self.den)
        assert r == 0, f"{d} is not a multiple of the order {self.den}"
        return tuple(x * q for x in self.nums)

    def __str__(self):
        return "(" + ", ".join(str(x) for x in self.fractions()) + ")"


def reference_generators(p):
    """The standard generators of ``p`` as RationalElements: the columns
    of the constraint's inverse by rational elimination, reduced mod 1."""
    d = p.order
    inverse = fraction_scaled_inverse(p.constraint, d)
    return [RationalElement(col, d) for col in inverse.columns()]


def element_mismatches(g, others, references):
    """The operations on which the group element ``g`` disagrees with
    RationalElement arithmetic on its coordinates: ``coords`` (in [0, 1)
    and in the group), ``sort_key``, ``order``, ``str``, ``-g``, ``k*g``
    for k in -3..3, and ``g + h`` and ``g - h`` for each h in ``others``,
    whose references are ``references``.  Results are compared by their
    d-scaled vectors."""
    p = g.presentation
    d = p.order
    coords = g.coords
    a = RationalElement(coords.numerators, coords.denominator)
    bad = []
    den = coords.denominator
    if not (all(0 <= x < den for x in coords.numerators)
            and all(sum(c * x for c, x in zip(row, coords.numerators)) % den
                    == 0 for row in p.constraint.rows)):
        bad.append("coords")
    if g.sort_key() != a.scaled(d):
        bad.append("sort_key")
    if g.order != a.order:
        bad.append("order")
    if str(g) != str(a):
        bad.append("str")
    if (-g).sort_key() != (-a).scaled(d):
        bad.append("-g")
    for k in range(-3, 4):
        if (k * g).sort_key() != (k * a).scaled(d):
            bad.append(f"{k}*g")
    for h, b in zip(others, references):
        if (g + h).sort_key() != (a + b).scaled(d):
            bad.append(f"g + {h}")
        if (g - h).sort_key() != (a - b).scaled(d):
            bad.append(f"g - {h}")
    return bad


def ambient_quotient_data(p):
    """The full group's quotient data as the package computed it before it
    kept the Smith form of its constraint: a second Smith form
    S = U*X*V of X = d*A^-1 for the ambient basis A.  Returns
    (generators, orders, U): column j of A*U^-1 is d times a generator of
    order S_jj, and U maps coordinates in A to generator coordinates."""
    d = p.order
    basis = p.ambient_basis
    s, u, _ = smith_normal_form(scaled_inverse(basis, d))
    orders = tuple(s.entry(i, i) for i in range(s.nrows))
    return basis * scaled_inverse(u, 1), orders, u


def with_generators(p, gens):
    """A copy of ``p`` that walks its elements and builds its subgroups
    from the d-scaled generators ``gens`` (of the orders
    ``p.invariant_factors``) instead of those of its own Smith form."""
    q = copy.copy(p)
    q._gens = gens
    return q


def cramer_weights(e):
    """(weights, degree) by Cramer's rule, as the package computed them
    before one scaled inverse did: w_i = det(E with column i replaced by
    ones) and the degree det E, one Bareiss determinant each, both
    multiplied by the sign of det E."""
    n = e.nrows
    det = determinant(e)
    sign = 1 if det > 0 else -1
    weights = []
    for i in range(n):
        cols = [[e.entry(r, j) if j != i else 1 for j in range(n)]
                for r in range(n)]
        weights.append(sign * determinant(IntMatrix(cols)))
    return tuple(weights), sign * det


def direct_equivariant_zeta(f, group=None):
    """The zeta report by the full subset loop over all 2^n subsets, one
    isotropy subgroup per contributing subset, as the package computed it
    before it assembled a direct sum from its atoms' records."""
    p = group if group is not None else symmetry_group(f)
    e = f.exponents
    n = f.nvars
    support = [frozenset(j for j in range(n) if e.entry(i, j))
               for i in range(n)]
    terms = {}
    audit = []
    for k in range(1, n + 1):
        sign = 1 if k % 2 else -1
        for subset in itertools.combinations(range(n), k):
            sset = frozenset(subset)
            rows_in = [i for i in range(n) if support[i] <= sset]
            if len(rows_in) != k:
                continue
            iso = isotropy_subgroup(p, subset)
            block_det = determinant(e.submatrix(rows_in, subset))
            audit.append(SubsetTerm(subset, sign, iso, sign * block_det))
            terms[iso] = terms.get(iso, 0) + sign
    scope = full_subgroup(p)
    equivariant = BurnsideElement(scope, terms)
    reduced = equivariant - BurnsideElement.unit(scope)
    classical = element_zeta(monodromy_element(f, p), equivariant)
    return ZetaReport(f, p, equivariant, reduced, classical, tuple(audit))
