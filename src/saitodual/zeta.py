"""Equivariant and classical monodromy zeta functions, the classical
duality transform on cyclotomic products, and the two duality verifiers.

The equivariant zeta function is computed combinatorially: a nonempty
variable subset I contributes (-1)^(|I|-1) * [G/G^I] exactly when the
number of monomials supported inside I equals |I| (equivalently, the
exponent matrix is block-triangular with an I-block after a simultaneous
permutation); G^I is the isotropy subgroup of the I-coordinate subtorus.
The fibre itself is never constructed -- only the Euler characteristics
of its torus strata enter, and those are exact determinants.

A direct (Thom-Sebastiani) sum f = f1 + ... + fk, read off as the finest
block-diagonal form of the exponent matrix in its given row and column
order, is assembled from its atoms by the product rule
(Ebeling-Gusein-Zade, arXiv:1105.1964): G = G1 x ... x Gk, a subset
I = I1 u ... u Ik contributes exactly when each part Ia does or is
empty, G^I = G1^I1 x ... x Gk^Ik, and the I-block determinant is the
product of the Ia-block determinants.  So reduced(f1 + f2) is
-reduced(f1) x reduced(f2), the external product [G1/H1] x [G2/H2] =
[G/(H1 x H2)].  An atom's record lists its contributing subsets, the
empty subset (the full group) included, with their block determinants,
isotropy bases, indices [Ga:Ha] and the order ra of the atom's monodromy
modulo Ha; a batch computes the record of each atom once
(``equivariant_zeta``'s ``atoms``).  The key of H1 x ... x Hk is
diag((d/d1)*B1, ..., (d/dk)*Bk) for d = d1*...*dk, already a column HNF,
and its order is d / ([G1:H1]*...*[Gk:Hk]).

The rest of the report composes the same way.  The monodromy of the sum
is h = (h1, ..., hk), so its order in G/(H1 x ... x Hk) is
r = lcm(r1, ..., rk), and the term contributes (1 - t^r)^(c*[G:H]/r) to
the classical zeta, whose modulus is the lcm of the atoms' monodromy
orders.  The canonical weights of the sum are those of its atoms scaled
to the common degree: d = d1*...*dk and w = ((d/d1)*w1, ..., (d/dk)*wk).
A matrix that is not block diagonal in its given order, such as that of
x1^2*x3 + x2^3 + x3^3, is one atom, whose record is the subset loop over
the polynomial's own presentation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import NamedTuple

from .burnside import (BurnsideElement, CyclotomicProduct, _coset_order,
                       is_saito_dual, saito_dual)
from .errors import DegenerateError, NonCyclicError
from .groups import (GroupPresentation, SubgroupKey, full_subgroup,
                     geometric_roots, isotropy_subgroup, monodromy_element,
                     symmetry_group)
from .linalg import IntMatrix, determinant
from .polynomials import (InvertiblePolynomial, WeightSystem,
                          canonical_weights, decompose, direct_sum_weights)


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


class AtomRecords(dict):
    """The atom records of one batch, keyed by exponent block (see
    ``equivariant_zeta``).  Every block of a sum is kept.  A single-block
    polynomial's record is kept only when it has fewer than
    ``keep_below`` variables: no polynomial of a batch whose largest one
    has n variables has a summand of n variables."""

    def __init__(self, keep_below=0):
        super().__init__()
        self.keep_below = keep_below


class AtomRecord(NamedTuple):
    """One exponent block's presentation, weight system and monodromy
    order, and its ``entries``: (I, det of the I-block, rows of the scaled
    isotropy basis, order r of the monodromy modulo the isotropy, index
    [G:G^I]) for the empty subset (the full group) and for each
    contributing subset I, by (size, indices)."""

    presentation: GroupPresentation
    weights: WeightSystem
    monodromy_order: int
    entries: tuple


def equivariant_zeta(f, group=None, atoms=None):
    """Full zeta report of an invertible polynomial over its symmetry
    group (or a caller-supplied presentation of it, whose constraint is
    the exponent matrix of ``f``).

    The report is the product of the records of the diagonal blocks
    (``AtomRecord``): each product of entries is one audit record, with
    the key of the product subgroup, and gives the classical factor
    (1 - t^r)^(sign*[G:H]/r) with r the lcm of the entries' orders and
    [G:H] the product of their indices.  The audit records are sorted by
    (size, indices).  A polynomial that is one block has its record
    computed over the given presentation, with no second Smith form.
    ``atoms`` is the ``AtomRecords`` of the batch; without one the call
    keeps its own.  A sum's weight system is composed from its blocks'
    and kept on ``f``."""
    p = group if group is not None else symmetry_group(f)
    if atoms is None:
        atoms = AtomRecords()
    e = f.exponents
    n, d = f.nvars, p.order
    blocks = _diagonal_blocks(e)
    if len(blocks) == 1:
        record = atoms.get(e)
        if record is None:
            record = _atom_record(e, p, f.weights)
            if n < atoms.keep_below:
                atoms[e] = record
        records = [record]
    else:
        records = [_summand_record(e.submatrix(range(start, stop),
                                               range(start, stop)), atoms)
                   for start, stop in blocks]
    if f._weights is None:
        f._weights = (records[0].weights if len(records) == 1 else
                      direct_sum_weights([r.weights for r in records]))
    # Every record starts with its empty subset, so the first product is
    # the empty subset of f, which is not a term.
    products = None
    for (start, stop), record in zip(blocks, records):
        entries = record.entries
        if stop - start < n:
            scale = d // record.presentation.order
            left, right = (0,) * start, (0,) * (n - stop)
            entries = [(tuple(start + i for i in indices), det,
                        tuple(left + tuple(scale * x for x in row) + right
                              for row in rows), r, index)
                       for indices, det, rows, r, index in entries]
        products = entries if products is None else [
            (indices + more, det * factor, rows + block_rows,
             lcm(r, block_r), index * block_index)
            for indices, det, rows, r, index in products
            for more, factor, block_rows, block_r, block_index in entries]
    audit = []
    factors = {}
    for indices, det, rows, r, index in products[1:]:
        sign = 1 if len(indices) % 2 else -1
        audit.append(SubsetTerm(
            indices, sign,
            SubgroupKey._wrap(p, IntMatrix._wrap(rows), d // index),
            sign * det))
        factors[r] = factors.get(r, 0) + sign * (index // r)
    audit.sort(key=lambda t: (len(t.indices), t.indices))
    terms = {}
    for t in audit:
        terms[t.isotropy] = terms.get(t.isotropy, 0) + t.coefficient
    scope = full_subgroup(p)
    equivariant = BurnsideElement._wrap(
        scope, {k: c for k, c in terms.items() if c})
    terms[scope] = terms.get(scope, 0) - 1
    reduced = BurnsideElement._wrap(
        scope, {k: c for k, c in terms.items() if c})
    classical = CyclotomicProduct(
        lcm(*(record.monodromy_order for record in records)), factors)
    return ZetaReport(f, p, equivariant, reduced, classical, tuple(audit))


def _diagonal_blocks(e):
    """(start, stop) of each block of the finest block-diagonal form of
    the invertible matrix ``e`` in its given row and column order: the
    matrix splits after position i when no nonzero entry of rows or
    columns 0..i reaches past i."""
    rows = e.rows
    n = len(rows)
    blocks = []
    start = reach = 0
    for i in range(n):
        reach = max(reach,
                    max(j for j in range(n) if rows[i][j]),
                    max(r for r in range(n) if rows[r][i]))
        if reach == i:
            blocks.append((start, i + 1))
            start = i + 1
    return blocks


def _summand_record(block, atoms):
    """The record of one block of a sum, from ``atoms`` or made and kept
    there.  A block whose transpose has a record takes its presentation
    from that record's ``dual()``, with no second Smith form."""
    record = atoms.get(block)
    if record is None:
        partner = atoms.get(block.transpose())
        q = (partner.presentation.dual() if partner is not None
             else GroupPresentation(block))
        record = atoms[block] = _atom_record(
            block, q, canonical_weights(InvertiblePolynomial(block)))
    return record


def _atom_record(e, q, weights):
    """The ``AtomRecord`` of the exponent block ``e`` over a presentation
    ``q`` of its group, whose order d is the canonical degree of
    ``weights``: the monodromy is the element w/d, its scaled vector the
    canonical weights w reduced mod d, and its order the reduced
    degree."""
    n = e.nrows
    d = q.order
    monodromy = tuple(w % d for w in weights.canonical_weights)
    support = [frozenset(j for j in range(n) if e.entry(i, j))
               for i in range(n)]
    entries = [((), 1, q.ambient_basis.rows, 1, 1)]
    for k in range(1, n + 1):
        for subset in itertools.combinations(range(n), k):
            sset = frozenset(subset)
            rows_in = [i for i in range(n) if support[i] <= sset]
            if len(rows_in) != k:
                continue
            iso = isotropy_subgroup(q, subset)
            entries.append((subset,
                            determinant(e.submatrix(rows_in, subset)),
                            iso.basis.rows, _coset_order(iso.basis, monodromy),
                            iso.index))
    return AtomRecord(q, weights, weights.reduced_degree, tuple(entries))


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
    reaches it.  ``atoms`` is the ``AtomRecords`` of the batch the pair
    belongs to; without one the pair keeps its own."""

    def __init__(self, f, atoms=None):
        self.f = f
        if atoms is not None:
            self.atoms = atoms

    @cached_property
    def atoms(self):
        """The atom records both zeta reports read (see
        ``equivariant_zeta``): a batch's, or this pair's own."""
        return AtomRecords()

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
        return equivariant_zeta(self.f, self.group, self.atoms)

    @cached_property
    def report_t(self):
        return equivariant_zeta(self.ft, self.group_t, self.atoms)

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
