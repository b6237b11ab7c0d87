"""Equivariant and classical monodromy zeta functions, the classical
duality transform on cyclotomic products, and the two duality verifiers.

The equivariant zeta function is computed combinatorially: a nonempty
variable subset I contributes (-1)^(|I|-1) * [G/G^I] exactly when the
number of monomials supported inside I equals |I| (equivalently, the
exponent matrix is block-triangular with an I-block after a simultaneous
permutation); G^I is the isotropy subgroup of the I-coordinate subtorus.
The fibre itself is never constructed -- only the Euler characteristics
of its torus strata enter, and those are exact determinants.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd

from .burnside import (BurnsideElement, CyclotomicProduct, element_zeta,
                       is_saito_dual, saito_dual)
from .errors import DegenerateError, NonCyclicError
from .groups import (full_subgroup, geometric_roots, isotropy_subgroup,
                     monodromy_element, symmetry_group)
from .linalg import determinant
from .polynomials import decompose


@dataclass(frozen=True)
class SubsetTerm:
    """Audit record for one contributing variable subset.

    ``indices`` are 0-based variable positions; ``torus_euler`` is the
    exact Euler characteristic of the fibre's stratum over that subtorus,
    (-1)^(|I|-1) times the determinant of the I-block of the exponent
    matrix.  ``coefficient`` is the orbit-space value (-1)^(|I|-1) that
    multiplies [G/G^I] in the zeta function.
    """

    indices: tuple
    coefficient: int
    isotropy: object
    torus_euler: int

    def to_json(self, variables=None):
        out = {
            "I": [i + 1 for i in self.indices],
            "coefficient": self.coefficient,
            "isotropy": self.isotropy.to_json(),
            "torusEuler": self.torus_euler,
        }
        if variables is not None:
            out["variables"] = [variables[i] for i in self.indices]
        return out


@dataclass(frozen=True)
class ZetaReport:
    """Equivariant, reduced, and classical zeta data of one polynomial."""

    polynomial: object
    group: object
    equivariant: BurnsideElement
    reduced: BurnsideElement
    classical: CyclotomicProduct
    subset_terms: tuple

    def to_json(self):
        return {
            "polynomial": self.polynomial.text(),
            "variables": list(self.polynomial.variables),
            "E": [list(r) for r in self.polynomial.exponents.rows],
            "group": {
                "order": self.group.order,
                "invariantFactors": list(self.group.invariant_factors),
                "structure": self.group.structure_name(),
            },
            "equivariant": self.equivariant.to_json(),
            "reduced": self.reduced.to_json(),
            "classical": self.classical.to_json(),
            "perSubsetTerms": [t.to_json(self.polynomial.variables)
                               for t in self.subset_terms],
        }


def equivariant_zeta(f, group=None):
    """Full zeta report of an invertible polynomial over its symmetry
    group (or a caller-supplied presentation of it)."""
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


def classical_zeta(f):
    """Classical monodromy zeta function as a cyclotomic product with
    modulus the reduced degree."""
    return equivariant_zeta(f).classical


def classical_saito_dual(phi):
    """The classical duality transform with respect to the modulus d:
    each factor (1 - t^m)^s becomes (1 - t^(d/m))^(-s).  An involution."""
    d = phi.modulus
    return CyclotomicProduct(d, {d // m: -s for m, s in phi.factors.items()})


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one duality check; ``witness`` carries the difference
    when the two sides disagree."""

    kind: str  # "theorem" | "corollary"
    lhs: object
    rhs: object
    equal: bool
    witness: object = None
    lhs_report: ZetaReport = None
    rhs_report: ZetaReport = None

    def to_json(self, include_reports=False):
        out = {
            "kind": self.kind,
            "lhs": self.lhs.to_json(),
            "rhs": self.rhs.to_json(),
            "equal": self.equal,
            "witness": self.witness,
        }
        if include_reports:
            if self.lhs_report is not None:
                out["lhsReport"] = self.lhs_report.to_json()
            if self.rhs_report is not None:
                out["rhsReport"] = self.rhs_report.to_json()
        return out


class DualPair:
    """The Berglund-Hubsch pair (f, f^T): the symmetry group G of f and its
    dual G^T (the group of f^T), the monodromy element of f, each side's
    zeta report, and the geometric roots of f.  Each field is computed on
    first use and then shared; each side's weight system is kept on ``f``
    and ``ft`` (``InvertiblePolynomial.weights``), where every library call
    reaches it."""

    def __init__(self, f):
        self.f = f

    @cached_property
    def ft(self):
        return self.f.transpose()

    @cached_property
    def group(self):
        return symmetry_group(self.f)

    @cached_property
    def group_t(self):
        return self.group.dual()

    @cached_property
    def monodromy(self):
        return monodromy_element(self.f, self.group)

    @cached_property
    def report(self):
        return equivariant_zeta(self.f, self.group)

    @cached_property
    def report_t(self):
        return equivariant_zeta(self.ft, self.group_t)

    @cached_property
    def roots(self):
        return geometric_roots(self.f, self.group)


def verify_zeta_duality(pair):
    """Check that the reduced equivariant zeta function of the transposed
    polynomial equals (-1)^n times the duality transform of the reduced
    equivariant zeta function of the polynomial itself.

    The check builds no dual subgroup: ``is_saito_dual`` tests each pair of
    terms by the annihilator pairing.  When it holds, the right side is
    the left side.  Only a failing check builds the transform, for the
    report and its witness."""
    rep, rep_t = pair.report, pair.report_t
    sign = -1 if pair.f.nvars % 2 else 1
    lhs = rhs = rep_t.reduced
    equal = is_saito_dual(rep.reduced, sign * lhs)
    witness = None
    if not equal:
        rhs = sign * saito_dual(rep.reduced)
        witness = {"difference": (lhs - rhs).to_json()}
    return VerificationReport("theorem", lhs, rhs, equal, witness,
                              lhs_report=rep_t, rhs_report=rep)


def generating_root_exists(report):
    """Whether c*g = h has a solution g generating the cyclic group G of
    the report, with c the gcd of the canonical weights and h the
    monodromy element.  In G = Z/d with h = t, such a g has
    gcd(t, d) = gcd(c*g, d) = gcd(c, d), and conversely; gcd(t, d) is
    d / ord(h), and ord(h) is the modulus of the classical zeta."""
    d = report.group.order
    c = report.polynomial.weights.gcd_factor
    return gcd(c, d) == d // report.classical.modulus


def generating_root_zeta(report):
    """Zeta function of a generating root on the reduced zeta
    sum c_H [G/H] of the report's cyclic group G of order d: a generator
    permutes G/H in one cycle of length |G/H|, so every generating root
    gives prod (1 - t^(d/|H|))^(c_H), with modulus d."""
    d = report.group.order
    return CyclotomicProduct(
        d, {d // h.order: c for h, c in report.reduced.terms.items()})


def verify_root_duality(pair):
    """Check the geometric-root statement: with d = det E, the reduced
    zeta function of a generating root of the transposed polynomial's
    monodromy is the classical dual (to the power (-1)^(n-1)) of the
    reduced zeta function of a generating root on the original side.
    Requires a cyclic symmetry group.

    No root is listed.  On each side, with c the gcd of the canonical
    weights and ord(h) the modulus of the classical zeta, a generating
    root exists exactly when gcd(c, d) == d // ord(h)
    (``generating_root_exists``), and its zeta function on the reduced
    zeta sum c_H [G/H] is prod (1 - t^(d/|H|))^(c_H)
    (``generating_root_zeta``).  Listing the roots would cost
    prod_j gcd(c, o_j) elements over the invariant factors o_j (see
    ``groups.root_count``)."""
    p = pair.group
    if not p.is_cyclic:
        raise NonCyclicError(
            "geometric roots require a cyclic symmetry group; invariant "
            f"factors are {p.invariant_factors}")
    rep, rep_t = pair.report, pair.report_t
    if not (generating_root_exists(rep) and generating_root_exists(rep_t)):
        raise NonCyclicError("no generating geometric roots exist")
    lhs = generating_root_zeta(rep_t)
    rhs = classical_saito_dual(generating_root_zeta(rep))
    if pair.f.nvars % 2 == 0:
        rhs = rhs.inverse()
    equal = lhs == rhs
    witness = None
    if not equal:
        witness = {"ratio": (lhs / rhs).to_json()}
    return VerificationReport("corollary", lhs, rhs, equal, witness,
                              lhs_report=rep_t, rhs_report=rep)


def milnor_number(f):
    """Milnor number of a non-degenerate polynomial by the weight formula
    prod (d - w_i) / w_i; raises a diagnostic for degenerate input."""
    if not decompose(f).non_degenerate:
        raise DegenerateError(
            "polynomial is not a sum of loop/chain blocks; no isolated "
            "singularity certificate")
    ws = f.weights
    d = ws.canonical_degree
    mu = Fraction(1)
    for w in ws.canonical_weights:
        if w == 0:
            raise DegenerateError("zero canonical weight; the singularity "
                                  "is not isolated")
        mu *= Fraction(d - w, w)
    if mu.denominator != 1 or mu < 0:
        raise DegenerateError(f"weight formula gives non-integral or "
                              f"negative value {mu}")
    return int(mu)
