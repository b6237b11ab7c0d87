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
(Ebeling-Gusein-Zade, arXiv:1105.1964; Sebastiani-Thom, Invent. Math. 13,
1971).  Three facts factor over the atoms, and each atom's record
(``AtomRecord``, computed once per batch: ``equivariant_zeta``'s
``atoms``) holds its share of each:

- The group: G = G1 x ... x Gk, of order d = d1*...*dk, with the
  invariant factors and ambient basis read off the atoms' presentations
  (``groups._direct_sum``); no Smith form of the whole matrix is run
  unless a caller needs generators or coordinates.
- The reduced zeta: a subset I = I1 u ... u Ik contributes exactly when
  each part Ia does or is empty, G^I = G1^I1 x ... x Gk^Ik, and the
  I-block determinant is the product of the Ia-block determinants.  So
  reduced(f) = -((-reduced(f1)) x ... x (-reduced(fk))), the external
  product [G1/H1] x [G2/H2] = [G/(H1 x H2)].  The key of H1 x ... x Hk is
  diag((d/d1)*B1, ..., (d/dk)*Bk), already a column HNF, and its order is
  d / ([G1:H1]*...*[Gk:Hk]).  The monodromy of the sum is
  h = (h1, ..., hk), so its order in G/(H1 x ... x Hk) is
  r = lcm(r1, ..., rk), and the term contributes (1 - t^r)^(c*[G:H]/r) to
  the classical zeta, whose modulus is the lcm of the atoms' monodromy
  orders.
- The duality: the pairing a^T*E*b is a sum over the blocks, so the dual
  of H1 x ... x Hk is H1~ x ... x Hk~, with the same scaling.  Each term
  of a sum carries its dual, and ``burnside.is_saito_dual`` looks it up.

The canonical weights of the sum are those of its atoms scaled to the
common degree: d = d1*...*dk and w = ((d/d1)*w1, ..., (d/dk)*wk).  A
matrix that is not block diagonal in its given order, such as that of
x1^2*x3 + x2^3 + x3^3, is one atom, whose record is the subset loop over
the polynomial's own presentation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, partial
from math import gcd, lcm

from .burnside import (BurnsideElement, CyclotomicProduct, _coset_order,
                       is_saito_dual, saito_dual)
from .errors import DegenerateError, NonCyclicError
from .groups import (GroupPresentation, SubgroupKey, _block_rows,
                     _direct_sum, dual_subgroup, full_subgroup,
                     geometric_roots, isotropy_subgroup, monodromy_element,
                     symmetry_group)
from .linalg import IntMatrix, determinant
from .polynomials import (InvertiblePolynomial, canonical_weights,
                          decompose, direct_sum_weights)


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
    """Equivariant, reduced, and classical zeta data of one polynomial.
    ``_audit`` builds the per-subset audit, ``subset_terms``, on first
    read: a passing batch check never reads it."""

    polynomial: object
    group: object
    equivariant: BurnsideElement
    reduced: BurnsideElement
    classical: CyclotomicProduct
    _audit: object = field(repr=False, compare=False)

    @cached_property
    def subset_terms(self):
        """One ``SubsetTerm`` per contributing subset, by (size,
        indices)."""
        return self._audit()

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


class AtomRecord:
    """One exponent block's presentation, weight system and monodromy
    order, and its ``entries``: (I, det of the I-block, rows of the scaled
    isotropy basis, order r of the monodromy modulo the isotropy, index
    [G:G^I]) for the empty subset (the full group) and for each
    contributing subset I, by (size, indices).

    ``merged`` sums the entries by isotropy subgroup: (rows, sum of
    (-1)^|I| over its entries, r, index), for the nonzero sums in order of
    first appearance.  As an element of the Burnside ring that sum is
    [G/G] - (equivariant zeta), that is minus the reduced zeta."""

    __slots__ = ("presentation", "weights", "monodromy_order", "entries",
                 "merged", "_duals")

    def __init__(self, presentation, weights, monodromy_order, entries):
        self.presentation = presentation
        self.weights = weights
        self.monodromy_order = monodromy_order
        self.entries = entries
        merged = {}
        for indices, _, rows, r, index in entries:
            c = merged[rows][0] if rows in merged else 0
            merged[rows] = (c + (-1) ** len(indices), r, index)
        self.merged = tuple((rows, c, r, index)
                            for rows, (c, r, index) in merged.items() if c)
        self._duals = None

    def duals(self):
        """The rows of the scaled basis of the dual H~ of each merged
        subgroup H, on the dual side of this block's presentation: one
        ``dual_subgroup`` each, the first time a term of a sum needs
        one (see ``_SumDuals``)."""
        if self._duals is None:
            q = self.presentation
            self._duals = tuple(
                dual_subgroup(SubgroupKey._wrap(
                    q, IntMatrix._wrap(rows), q.order // index)).basis.rows
                for rows, _, _, index in self.merged)
        return self._duals


def equivariant_zeta(f, group=None, atoms=None):
    """Full zeta report of an invertible polynomial over its symmetry
    group (or a caller-supplied presentation of it, whose constraint is
    the exponent matrix of ``f``).

    The reduced zeta is -(M_1 x ... x M_k), the external product of the
    ``merged`` maps M_a = -reduced_a of the diagonal blocks' records
    (``AtomRecord``): each product of one merged subgroup per block is
    one term, with the key of the product subgroup, coefficient minus the
    product of the blocks' coefficients, and classical factor
    (1 - t^r)^(coefficient*[G:H]/r) with r the lcm of the blocks' orders
    and [G:H] the product of their indices.  Distinct merged subgroups
    give distinct products, so no two terms meet.  The equivariant zeta
    is the reduced one plus [G/G], and the classical zeta gains (1 - t)
    for it.  A key of a sum of two or more blocks carries its dual H~,
    the product of the blocks' duals (``AtomRecord.duals``), built when
    ``burnside.is_saito_dual`` first looks it up (``_SumDuals``).

    A polynomial that is one block has its record computed over the
    given presentation, with no second Smith form.  Without ``group``, a
    sum's presentation is composed from its blocks' (see
    ``groups._direct_sum``).  ``atoms`` is the ``AtomRecords`` of the
    batch; without one the call keeps its own.  A sum's weight system is
    composed from its blocks' and kept on ``f``.  The per-subset audit
    (``ZetaReport.subset_terms``) is built only when read."""
    if atoms is None:
        atoms = AtomRecords()
    p = group if group is not None else _symmetry_group(f, atoms)
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
        records = [_summand_record(_block(e, start, stop), atoms)
                   for start, stop in blocks]
    if f._weights is None:
        f._weights = (records[0].weights if len(records) == 1 else
                      direct_sum_weights([r.weights for r in records]))
    # Each product records which merged subgroup of each block it took.
    products = [((), (), -1, 1, 1)]
    for (start, stop), record in zip(blocks, records):
        scale = d // record.presentation.order
        block = [(_block_rows(rows, scale, start, n - stop), (i,), c, r,
                  index)
                 for i, (rows, c, r, index) in enumerate(record.merged)]
        products = [(rows + more, combo + more_combo, c * bc, lcm(r, br),
                     index * bi)
                    for rows, combo, c, r, index in products
                    for more, more_combo, bc, br, bi in block]
    duals = _SumDuals(p, blocks, records) if len(records) > 1 else None
    wrap = SubgroupKey._wrap
    reduced = {}
    factors = {1: 1}
    for rows, combo, c, r, index in products:
        reduced[wrap(p, IntMatrix._wrap(rows), d // index,
                     None if duals is None
                     else partial(duals.key, combo, index))] = c
        factors[r] = factors.get(r, 0) + c * (index // r)
    scope = full_subgroup(p)
    equivariant = dict(reduced)
    c = equivariant.pop(scope, 0) + 1
    if c:
        equivariant[scope] = c
    classical = CyclotomicProduct(
        lcm(*(record.monodromy_order for record in records)), factors)
    return ZetaReport(f, p, BurnsideElement._wrap(scope, equivariant),
                      BurnsideElement._wrap(scope, reduced), classical,
                      partial(_subset_terms, p, blocks, records))


class _SumDuals:
    """The dual keys of the terms of one sum's report over ``p``, built
    when first asked for (by ``burnside.is_saito_dual``).  The pairing is
    a sum over the blocks, so the dual of the product of one merged
    subgroup H_a of each block is the product of their duals,
    diag((d/d_a)*B_a~) on the dual side, with each B_a~ from the block's
    ``AtomRecord.duals``."""

    __slots__ = ("_p", "_blocks", "_records", "_padded")

    def __init__(self, p, blocks, records):
        self._p = p
        self._blocks = blocks
        self._records = records
        self._padded = None

    def key(self, combo, index):
        """The dual of the term made of merged subgroup ``combo[a]`` of
        each block a, which has ``index`` elements."""
        q = self._p.dual()
        if self._padded is None:
            n, d = q.rank, q.order
            self._padded = [
                [_block_rows(rows, d // record.presentation.order, start,
                             n - stop) for rows in record.duals()]
                for (start, stop), record in zip(self._blocks,
                                                 self._records)]
        return SubgroupKey._wrap(q, IntMatrix._wrap(tuple(
            row for block, i in zip(self._padded, combo)
            for row in block[i])), index)


def _subset_terms(p, blocks, records):
    """The audit of a report over ``p``: the product of one entry of each
    block's record is one contributing subset I = I_1 u ... u I_k, with
    the product of their determinants and the key of the product of
    their isotropy subgroups.  The product of the empty subsets, the
    first, is not a term.  Sorted by (size, indices)."""
    n, d = p.rank, p.order
    products = None
    for (start, stop), record in zip(blocks, records):
        scale = d // record.presentation.order
        entries = [(tuple(start + i for i in indices), det,
                    _block_rows(rows, scale, start, n - stop), index)
                   for indices, det, rows, _, index in record.entries]
        products = entries if products is None else [
            (indices + more, det * factor, rows + block_rows,
             index * block_index)
            for indices, det, rows, index in products
            for more, factor, block_rows, block_index in entries]
    audit = []
    for indices, det, rows, index in products[1:]:
        sign = 1 if len(indices) % 2 else -1
        audit.append(SubsetTerm(
            indices, sign,
            SubgroupKey._wrap(p, IntMatrix._wrap(rows), d // index),
            sign * det))
    audit.sort(key=lambda t: (len(t.indices), t.indices))
    return tuple(audit)


def _block(e, start, stop):
    """The diagonal block of ``e`` on positions start..stop-1."""
    return IntMatrix._wrap(tuple(row[start:stop]
                                 for row in e.rows[start:stop]))


def _symmetry_group(f, atoms):
    """The symmetry group of ``f``: ``symmetry_group`` for one block, and
    for a sum the presentation composed from its blocks' records in
    ``atoms`` (``groups._direct_sum``)."""
    e = f.exponents
    blocks = _diagonal_blocks(e)
    if len(blocks) == 1:
        return symmetry_group(f)
    return _direct_sum(e, [_summand_record(_block(e, start, stop),
                                           atoms).presentation
                           for start, stop in blocks])


def _diagonal_blocks(e):
    """(start, stop) of each block of the finest block-diagonal form of
    the invertible matrix ``e`` in its given row and column order: the
    matrix splits after position i when no nonzero entry of rows or
    columns 0..i reaches past i."""
    rows = e.rows
    # reach[i]: the farthest position joined to i by a nonzero entry
    # (i, j) or (j, i) with j > i.
    reach = list(range(len(rows)))
    for i, row in enumerate(rows):
        for j, x in enumerate(row):
            if x:
                if j > reach[i]:
                    reach[i] = j
                elif i > reach[j]:
                    reach[j] = i
    blocks = []
    start = far = 0
    for i, r in enumerate(reach):
        far = max(far, r)
        if far == i:
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
        return _symmetry_group(self.f, self.atoms)

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

    The check builds no dual subgroup of the polynomial's group:
    ``is_saito_dual`` looks up the dual each term of a sum carries, and
    tests each pair of terms of a single block by the annihilator
    pairing.  When it holds, the right side is the left side.  Only a
    failing check builds the transform, for the report and its
    witness."""
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
