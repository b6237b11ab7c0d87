"""Burnside-ring arithmetic for finite abelian groups.

Elements are sparse integer combinations of orbit classes [S/H] over a
scope subgroup S (usually the full group), with subgroups named by their
canonical lattice keys.  Negative coefficients (virtual sets) are
first-class.  The module also houses cyclotomic products -- sparse maps
m -> s_m representing prod_{m|d} (1 - t^m)^{s_m} together with their
modulus d -- and the correspondence between the two for cyclic groups.
"""

from __future__ import annotations

from math import gcd
from operator import mul

from .errors import OwnershipError, StructureError
from .groups import (GroupElement, GroupPresentation, SubgroupKey,
                     dual_subgroup, full_subgroup, subgroup_generated_by,
                     subgroup_meet)


# Most candidate terms ``is_saito_dual`` scans by the annihilator pairing;
# a term with more is looked up by its dual subgroup, which costs about as
# much as scanning 15 to 20 candidates (the crossover is in CHANGES.md).
MAX_PAIRED_BUCKET = 16


class CyclotomicProduct:
    """A rational function prod_{m|d} (1 - t^m)^{s_m} with fixed modulus d."""

    __slots__ = ("_modulus", "_factors", "_hash")

    def __init__(self, modulus, factors=()):
        modulus = int(modulus)
        if modulus < 1:
            raise ValueError("modulus must be a positive integer")
        clean = {}
        items = factors.items() if hasattr(factors, "items") else factors
        for m, s in items:
            m = int(m)
            s = int(s)
            if m < 1 or modulus % m:
                raise ValueError(f"factor index {m} does not divide modulus {modulus}")
            if s:
                clean[m] = clean.get(m, 0) + s
        self._modulus = modulus
        self._factors = {m: s for m, s in clean.items() if s}
        self._hash = None

    @property
    def modulus(self):
        return self._modulus

    @property
    def factors(self):
        return dict(self._factors)

    def is_one(self):
        return not self._factors

    def degree(self):
        """Sum of m * s_m: the Euler characteristic of the underlying
        virtual set."""
        return sum(m * s for m, s in self._factors.items())

    def __mul__(self, other):
        if not isinstance(other, CyclotomicProduct):
            return NotImplemented
        d1, d2 = self._modulus, other._modulus
        lcm = d1 // gcd(d1, d2) * d2
        merged = dict(self._factors)
        for m, s in other._factors.items():
            merged[m] = merged.get(m, 0) + s
        return CyclotomicProduct(lcm, merged)

    def __pow__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        return CyclotomicProduct(self._modulus,
                                 {m: s * k for m, s in self._factors.items()})

    def inverse(self):
        return self ** -1

    def __truediv__(self, other):
        if not isinstance(other, CyclotomicProduct):
            return NotImplemented
        return self * other.inverse()

    def with_modulus(self, new_modulus):
        """The same factor map regarded with a larger modulus; the new
        modulus must be a multiple of the old one."""
        if new_modulus % self._modulus:
            raise ValueError(
                f"{new_modulus} is not a multiple of modulus {self._modulus}")
        return CyclotomicProduct(new_modulus, self._factors)

    def __eq__(self, other):
        return (isinstance(other, CyclotomicProduct)
                and self._modulus == other._modulus
                and self._factors == other._factors)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self._modulus,
                               frozenset(self._factors.items())))
        return self._hash

    def format(self):
        """Factored text form, e.g. '(1-t^3)(1-t^9)^-1'."""
        if not self._factors:
            return "1"
        parts = []
        for m in sorted(self._factors):
            s = self._factors[m]
            base = "(1-t)" if m == 1 else f"(1-t^{m})"
            parts.append(base if s == 1 else f"{base}^{s}")
        return "".join(parts)

    def to_json(self):
        return {"d": self._modulus,
                "factors": {str(m): self._factors[m]
                            for m in sorted(self._factors)}}

    def __repr__(self):
        return f"CyclotomicProduct({self.format()!r}, d={self._modulus})"


class BurnsideElement:
    """Sparse integer combination of orbit classes over a scope subgroup;
    every orbit key must be a subgroup of the scope."""

    __slots__ = ("_scope", "_terms", "_hash")

    def __init__(self, scope, terms=()):
        if not isinstance(scope, SubgroupKey):
            raise OwnershipError("scope must be a subgroup key")
        items = terms.items() if hasattr(terms, "items") else terms
        clean = {}
        for key, coeff in items:
            coeff = int(coeff)
            if key.presentation != scope.presentation:
                raise OwnershipError("orbit key belongs to a different group")
            if not scope.contains(key):
                raise OwnershipError("orbit key is not inside the scope")
            if coeff:
                clean[key] = clean.get(key, 0) + coeff
        self._scope = scope
        self._terms = {k: v for k, v in clean.items() if v}
        self._hash = None

    @classmethod
    def _wrap(cls, scope, terms):
        """Trusted constructor: ``terms`` must be a dict of nonzero
        coefficients keyed by subgroups of the scope."""
        a = object.__new__(cls)
        a._scope = scope
        a._terms = terms
        a._hash = None
        return a

    @classmethod
    def orbit(cls, scope, key, coeff=1):
        return cls(scope, {key: coeff})

    @classmethod
    def unit(cls, scope):
        """The one-point set [S/S]."""
        return cls(scope, {scope: 1})

    @property
    def scope(self):
        return self._scope

    @property
    def terms(self):
        return dict(self._terms)

    def coefficient(self, key):
        return self._terms.get(key, 0)

    def sorted_terms(self):
        return sorted(self._terms.items(), key=lambda kv: kv[0].sort_key())

    def cardinality(self):
        """Total point count of the virtual set (the mark at the trivial
        subgroup)."""
        s = self._scope.order
        return sum(c * (s // k.order) for k, c in self._terms.items())

    def _require_scope(self, other):
        if self._scope != other._scope:
            raise OwnershipError("elements live over different scopes")

    def __add__(self, other):
        if not isinstance(other, BurnsideElement):
            return NotImplemented
        self._require_scope(other)
        merged = dict(self._terms)
        for k, v in other._terms.items():
            merged[k] = merged.get(k, 0) + v
        return BurnsideElement._wrap(self._scope, _nonzero(merged))

    def __sub__(self, other):
        if not isinstance(other, BurnsideElement):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return BurnsideElement._wrap(self._scope,
                                     {k: -v for k, v in self._terms.items()})

    def __mul__(self, other):
        if isinstance(other, int):
            return BurnsideElement._wrap(self._scope, {
                k: other * v for k, v in self._terms.items()} if other else {})
        if isinstance(other, BurnsideElement):
            return multiply(self, other)
        return NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other):
        return (isinstance(other, BurnsideElement)
                and self._scope == other._scope
                and self._terms == other._terms)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self._scope,
                               frozenset((k, v) for k, v in self._terms.items())))
        return self._hash

    def format(self):
        if not self._terms:
            return "0"
        parts = []
        for key, coeff in self.sorted_terms():
            orbit = f"[G/H(order {key.order})]"
            mag = abs(coeff)
            body = orbit if mag == 1 else f"{mag}*{orbit}"
            if not parts:
                parts.append(body if coeff > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if coeff > 0 else f"- {body}")
        return " ".join(parts)

    def to_json(self):
        return [{"subgroup": k.to_json(), "coeff": v}
                for k, v in self.sorted_terms()]

    def __repr__(self):
        return f"BurnsideElement({self.format()!r})"


def _nonzero(terms):
    return {k: v for k, v in terms.items() if v}


def multiply(a, b):
    """Ring product: bilinear extension of the cartesian product of orbit
    spaces.  For abelian groups [S/H]*[S/K] = [S:HK] * [S/(H n K)]."""
    if not isinstance(a, BurnsideElement) or not isinstance(b, BurnsideElement):
        raise OwnershipError("both operands must be Burnside elements")
    a._require_scope(b)
    s_order = a.scope.order
    out = {}
    for h, ch in a._terms.items():
        for k, ck in b._terms.items():
            meet = subgroup_meet(h, k)
            coeff = ch * ck * (s_order * meet.order) // (h.order * k.order)
            out[meet] = out.get(meet, 0) + coeff
    return BurnsideElement._wrap(a.scope, _nonzero(out))


def restrict(a, subgroup):
    """Restriction of the action to ``subgroup``: each orbit [S/H] becomes
    |S| |K n H| / (|H| |K|) copies of [K/(K n H)]."""
    if subgroup.presentation != a.scope.presentation:
        raise OwnershipError("subgroup belongs to a different group")
    if not a.scope.contains(subgroup):
        raise OwnershipError("restriction target is not inside the scope")
    s_order = a.scope.order
    k_order = subgroup.order
    out = {}
    for h, c in a._terms.items():
        kh = subgroup_meet(subgroup, h)
        coeff = c * (s_order * kh.order) // (h.order * k_order)
        out[kh] = out.get(kh, 0) + coeff
    return BurnsideElement._wrap(subgroup, _nonzero(out))


def mark(a, subgroup):
    """Number of ``subgroup``-fixed points of the virtual set: the linear
    extension of mark_K[S/H] = |S/H| when K <= H, else 0.  A ring
    homomorphism to the integers, defined for K inside the scope S."""
    if subgroup.presentation != a.scope.presentation:
        raise OwnershipError("subgroup belongs to a different group")
    if not a.scope.contains(subgroup):
        raise OwnershipError("mark subgroup is not inside the scope")
    s_order = a.scope.order
    total = 0
    for h, c in a._terms.items():
        if h.contains(subgroup):
            total += c * (s_order // h.order)
    return total


def saito_dual(a):
    """The duality transform to the character-group side: replaces each
    orbit class [G/H] by [G*/H~] with H~ the dual subgroup, keeping
    coefficients.  An isomorphism of abelian groups, defined on full-group
    elements."""
    if not a.scope.is_full():
        raise StructureError("the duality transform is defined over the full group")
    dual_scope = full_subgroup(a.scope.presentation.dual())
    return BurnsideElement(dual_scope,
                           {dual_subgroup(k): v for k, v in a.terms.items()})


def is_saito_dual(a, b):
    """Whether ``b == saito_dual(a)``, decided without building any dual
    subgroup for a bucket of at most MAX_PAIRED_BUCKET candidates.

    A term c*[G/H] of ``a`` must meet a term c*[G*/K] of ``b`` with
    |H|*|K| = d and K inside the annihilator H~.  The rows of
    d^2*(C*B_H)^-1 span the scaled lattice of H~ (``dual_subgroup``), so
    for the scaled bases B_H, B_K and the constraint C, K lies in H~
    exactly when B_K^T*C*B_H = 0 mod d^2, and the orders make it H~.  A
    larger bucket looks up H~ itself, so the check stays linear.  The
    transform is injective, so with as many terms on both sides every
    term of ``b`` is then matched."""
    if not a.scope.is_full():
        raise StructureError("the duality transform is defined over the full group")
    p = a.scope.presentation
    if (not isinstance(b, BurnsideElement)
            or b.scope != full_subgroup(p.dual())
            or len(a._terms) != len(b._terms)):
        return False
    d = p.order
    dd = d * d
    rows = p.constraint.rows
    candidates = {}
    for k, c in b._terms.items():
        candidates.setdefault((c, k.order), []).append(
            list(zip(*k.basis.rows)))
    for h, c in a._terms.items():
        bucket = candidates.get((c, d // h.order), ())
        if len(bucket) > MAX_PAIRED_BUCKET:
            if b._terms.get(dual_subgroup(h)) != c:
                return False
            continue
        image = [[sum(map(mul, row, col)) for row in rows]
                 for col in zip(*h.basis.rows)]
        if not any(all(sum(map(mul, u, v)) % dd == 0
                       for u in k_cols for v in image)
                   for k_cols in bucket):
            return False
    return True


def _coset_order(basis, vec):
    """Least r >= 1 with r*vec in the column lattice of the upper-triangular
    ``basis``: one bottom-up back-substitution that scales r (and the
    coordinates already solved) by the smallest factor making each new
    coordinate integral."""
    rows = basis.rows
    n = len(rows)
    r = 1
    x = [0] * n
    for i in range(n - 1, -1, -1):
        row = rows[i]
        acc = r * vec[i] - sum(row[j] * x[j] for j in range(i + 1, n))
        pivot = row[i]
        step = pivot // gcd(acc, pivot)
        if step > 1:
            r *= step
            acc *= step
            for j in range(i + 1, n):
                x[j] *= step
        x[i] = acc // pivot
    return r


def element_zeta(g, a):
    """Zeta function of the transformation by ``g`` on the virtual set.

    Each term c*[S/H] contributes (1 - t^r)^(c * |S/H| / r) where r is the
    order of the coset g + H in S/H; the modulus is the order of g.
    """
    if not isinstance(g, GroupElement):
        raise OwnershipError("transformation must be a group element")
    if not a.scope.contains_element(g):
        raise OwnershipError("element does not lie in the scope subgroup")
    vec = g.scaled()
    s_order = a.scope.order
    factors = {}
    for h, c in a.terms.items():
        r = _coset_order(h.basis, vec)
        orbit_count, rem = divmod(s_order // h.order, r)
        if rem:
            raise ArithmeticError("orbit size does not divide the coset count")
        factors[r] = factors.get(r, 0) + c * orbit_count
    return CyclotomicProduct(g.order, factors)


def burnside_from_cyclotomic(phi, presentation):
    """Inverse of ``element_zeta`` at a generator of a cyclic group: the
    factor (1 - t^m)^{s_m} maps to s_m copies of the orbit with m points."""
    if not isinstance(presentation, GroupPresentation):
        raise StructureError("target must be a group presentation")
    if not presentation.is_cyclic:
        raise StructureError(
            f"target group is not cyclic: invariant factors "
            f"{presentation.invariant_factors}")
    d = presentation.order
    if phi.modulus != d:
        raise StructureError(
            f"modulus {phi.modulus} does not equal the group order {d}")
    # The last Smith generator of a cyclic group has order d.
    generator = GroupElement._wrap(presentation, tuple(
        x % d for x in presentation._gens.column(presentation.rank - 1)))
    terms = {}
    for m, s in phi.factors.items():
        key = subgroup_generated_by(presentation, [m * generator])
        terms[key] = terms.get(key, 0) + s
    return BurnsideElement(full_subgroup(presentation), terms)
