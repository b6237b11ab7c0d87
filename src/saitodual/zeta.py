"""Equivariant and classical monodromy zeta functions, the classical
duality transform on cyclotomic products, and the two duality verifiers.

The equivariant zeta function is computed combinatorially: a nonempty
variable subset I contributes (-1)^(|I|-1) * [G/G^I] exactly when the
monomials R supported inside I number |I|.  They vanish on the
complement J, so E is block-triangular with diagonal blocks E[R, I] and
E[R', J] (R' the other rows), and the isotropy subgroup G^I of the
I-coordinate subtorus is the group of E[R', J] placed at J, of index
|det E[R, I]| (``_atom_record``).  The fibre itself is never constructed
-- only the Euler characteristics of its torus strata enter, and those
are exact determinants.

A direct (Thom-Sebastiani) sum f = f1 + ... + fk, whose summands are the
connected components of the exponent matrix in any order of its
variables and monomials (``polynomials._blocks_of``), is assembled from
its atoms by the product rule (Ebeling-Gusein-Zade, arXiv:1105.1964;
Sebastiani-Thom, Invent. Math. 13, 1971).  Four facts factor over the
atoms, and each atom's record (``AtomRecord``, computed once per batch:
``equivariant_zeta``'s ``atoms``) holds its share of each:

- The group: G = G1 x ... x Gk, of order d = d1*...*dk, with the
  invariant factors and ambient basis read off the atoms' presentations
  (``groups._direct_sum``); no Smith form of the whole matrix is run
  unless a caller needs generators or coordinates.
- The reduced zeta: a subset I = I1 u ... u Ik contributes exactly when
  each part does or is empty, G^I = G1^I1 x ... x Gk^Ik, and the I-block
  determinant is the product of the Ia-blocks' up to sign.  So
  reduced(f) = -((-reduced(f1)) x ... x (-reduced(fk))), the external
  product [G1/H1] x [G2/H2] = [G/(H1 x H2)].  The key of H1 x ... x Hk
  has (d/da)*Ba at the variables of block a, and its order is
  d / ([G1:H1]*...*[Gk:Hk]).  The monodromy of the sum is
  h = (h1, ..., hk), so its order in G/(H1 x ... x Hk) is
  r = lcm(r1, ..., rk), and the term contributes (1 - t^r)^(c*[G:H]/r) to
  the classical zeta, whose modulus is the lcm of the atoms' monodromy
  orders.
- The duality: the pairing a^T*E*b is a sum over the blocks, so the dual
  of H1 x ... x Hk is H1~ x ... x Hk~, with the same scaling.  A report
  keeps only its blocks' records; the product form, one coefficient per
  choice of one merged subgroup of each block, the classical zeta and
  the subgroup keys are built when first read.  ``verify_zeta_duality``
  decides the duality block by block, with none of them: one table per
  pair of a block and its transpose maps each merged subgroup to the
  position of its dual (``AtomRecord.dual_map``), and the coefficients
  of each block must agree through it up to one factor, the factors'
  product being (-1)^n (``_dual_by_blocks``).  The table is read off
  the lemma of the duality proof: if I contributes for E through the
  rows R, the dual of G^I is the isotropy subgroup of E^T at the
  complement R', and R' contributes for E^T; the supports of the two
  bases confirm each entry (``groups._is_dual``).  A single block is
  the case k = 1.
- The root duality: G is cyclic exactly when each Ga is and the da are
  pairwise coprime, the gcd of the canonical weights is
  gcd((d/da)*ca) over the atoms' gcds ca, and the monodromy order is
  the lcm of theirs (``_sum_facts``).

So both checks of a pair read its blocks' records and nothing else
(``DualPair.records`` and ``records_t``): a passing check builds no
group of the sum, no dual group, no transposed polynomial and no zeta
report, and its ``VerificationReport`` builds the pair's reports when
first read.  Their records-level steps, ``_dual_by_blocks`` and
``_root_sides``, also decide a batch member given only its blocks'
records (``_records_verdict``), with no polynomial or pair built.

The canonical weights of the sum are those of its atoms scaled to the
common degree d = d1*...*dk, (d/da)*wa at the variables of block a, and
an atom's are read off the Smith form of its presentation
(``polynomials.smith_weights``).  So
x1^2*x3 + x2^3 + x3^3 is the sum of x1^2*x3 + x3^3 and x2^3.  A record
lists its block's contributing subsets (``_contributing_subsets``), which
the block keeps (``_subsets_of``); a transposed block reads its own off
its partner's, as the complements of theirs (``_complement_subsets``).
A report's entries are counted without listing them (``_closed_count``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import gcd, inf, lcm, prod

from .burnside import BurnsideElement, CyclotomicProduct, saito_dual
from .errors import DegenerateError, NonCyclicError
from .groups import (GroupPresentation, SubgroupKey, _block_rows,
                     _direct_sum, _is_dual, _stacked, full_subgroup,
                     monodromy_element, symmetry_group)
from .linalg import IntMatrix, determinant
from .polynomials import _Block, _blocks_of, decompose


# Most entries a zeta report is expanded to (``DualPair._entry_count``: one
# more than its per-subset terms, and at least as many as its reduced
# terms); above it the CLI reports only the count.  The sum of n squares
# has 2^n entries: `zeta --json` on 12 squares (4,096) writes 29.6 MB in
# 0.94 s at 211 MiB peak RSS, and on 13 (8,192) 68.7 MB in 2.0 s at
# 462 MiB, whole process (Python 3.11, one core of a shared 2-CPU
# x86-64 host).  Every polynomial of at most 12 variables stays below it.
MAX_REPORT_ENTRIES = 5_000


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

    The report keeps only ``_records``, the ``AtomRecord`` of each block
    of the polynomial (``_blocks_of``) in order: the reduced zeta is their
    external product, which a passing duality check never expands.  The
    product form (``_product``) is expanded on first read of any of its
    three parts: ``_terms`` maps each choice of one merged subgroup per
    block, a tuple of positions in the blocks' ``merged``, to its
    coefficient, then each term's index [G:H], the product of the
    blocks', in the order of ``_terms``, and ``classical`` is the
    classical zeta.  ``reduced``, ``equivariant`` and the per-subset audit
    ``subset_terms`` build their subgroup keys on first read."""

    polynomial: object
    group: object
    _records: tuple = field(repr=False, compare=False)

    @cached_property
    def _product(self):
        return _product_form(self._records)

    @property
    def _terms(self):
        return self._product[0]

    @property
    def classical(self):
        return self._product[2]

    @cached_property
    def reduced(self):
        """The key of the term that takes merged subgroup H_a of each
        block a is that of H_1 x ... x H_k, of order d / prod [G_a:H_a]:
        (d/d_a)*B_a at the variables of block a, an HNF as it stands
        (see ``groups._block_diagonal``)."""
        p = self.group
        n, d = p.rank, p.order
        blocks = [[_block_rows(rows, d // record.presentation.order,
                               block.cols, n)
                   for rows, _, _, _ in record.merged]
                  for record, block in zip(self._records,
                                           _blocks_of(self.polynomial))]
        wrap = SubgroupKey._wrap
        terms = {}
        for (combo, c), index in zip(self._terms.items(), self._product[1]):
            rows = ()
            for block, i in zip(blocks, combo):
                rows += block[i]
            terms[wrap(p, _stacked(rows), d // index)] = c
        return BurnsideElement._wrap(full_subgroup(p), terms)

    @cached_property
    def equivariant(self):
        """The reduced zeta plus [G/G]."""
        reduced = self.reduced
        scope = reduced.scope
        terms = reduced.terms
        c = terms.pop(scope, 0) + 1
        if c:
            terms[scope] = c
        return BurnsideElement._wrap(scope, terms)

    @cached_property
    def subset_terms(self):
        """One ``SubsetTerm`` per contributing subset, by (size,
        indices)."""
        return _subset_terms(self)

    def to_json(self):
        out = _report_head(self.polynomial, self.group)
        out.update({
            "equivariant": self.equivariant.to_json(),
            "reduced": self.reduced.to_json(),
            "classical": self.classical.to_json(),
            "perSubsetTerms": [t.to_json(self.polynomial.variables)
                               for t in self.subset_terms],
        })
        return out

    @staticmethod
    def _refused_json(f, p, count):
        """The JSON of the zeta report of ``f`` over ``p`` when its
        ``count`` entries exceed ``MAX_REPORT_ENTRIES`` and it is not
        built: the fields of ``to_json``, those of the report null, and
        ``entryCount``."""
        out = _report_head(f, p)
        out.update({"equivariant": None, "reduced": None, "classical": None,
                    "perSubsetTerms": None, "entryCount": count})
        return out


def _report_head(f, p):
    """The fields of the JSON of a zeta report of ``f`` over ``p`` that
    need no report: the polynomial and its group."""
    out = _polynomial_head(f)
    out["group"] = _group_head(p)
    return out


def _polynomial_head(f):
    """The fields of a JSON report that name the polynomial ``f``."""
    return {
        "polynomial": f.text(),
        "variables": list(f.variables),
        "E": [list(r) for r in f.exponents.rows],
    }


def _group_head(p):
    """The fields of a JSON report that name the group ``p``."""
    return {
        "order": p.order,
        "invariantFactors": list(p.invariant_factors),
        "structure": p.structure_name(),
    }


class AtomRecords(dict):
    """The atom records of one batch, keyed by exponent block (see
    ``equivariant_zeta``), the ``presentations`` of the complementary
    blocks they read (see ``_atom_record``), and the ``specs`` table of a
    batch over a corpus: (record, record_t, nvars) of each block spec, the
    records of the block and of its transpose (``_pair_records``) and its
    size (see ``enumeration.run_batch``).  Each is kept for a block of
    fewer than ``keep_below`` variables, and by default every one is.  A
    batch passes the size of its largest polynomial: no polynomial of it
    has a summand that large."""

    def __init__(self, keep_below=inf):
        super().__init__()
        self.keep_below = keep_below
        self.presentations = {}
        self.specs = {}


class AtomRecord:
    """One exponent block's presentation, weight system and monodromy
    order, and its ``entries``: (I, the rows R inside I, rows of the
    scaled isotropy basis, order r of the monodromy modulo the isotropy,
    index [G:G^I]) for the empty subset (the full group) and for each
    contributing subset I, by (size, indices).  det E[R, I] is left to the
    audit (``_subset_terms``).

    ``merged`` sums the entries by isotropy subgroup: (rows, sum of
    (-1)^|I| over its entries, r, index), for the nonzero sums in order of
    first appearance.  As an element of the Burnside ring that sum is
    [G/G] - (equivariant zeta), that is minus the reduced zeta.
    ``dual_map`` pairs the merged subgroups with those of the transposed
    block's record by the complement of each one's rows R."""

    __slots__ = ("presentation", "weights", "monodromy_order", "entries",
                 "merged", "_dual_map")

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
        self._dual_map = None

    def dual_map(self, partner):
        """For each merged subgroup H of this block, in order, the
        position of its dual H~ among the merged subgroups of
        ``partner``, the record of the transposed block, or None when the
        complement lemma names no dual there.

        The lemma (arXiv:1105.1964): for an entry (I, R), the dual of
        G^I is the transposed block's isotropy subgroup at the complement
        R' of R, whose entry the partner lists (``_complement_subsets``);
        the empty subset pairs with the full set.  So H, taken at its
        first entry, has as label the partner's merged subgroup of the
        entry at R' (``_labels``), accepted only when the supports of the
        two bases show it is H~ (``groups._is_dual``).  The merged
        subgroups of a block do not depend on the presentation its record
        was made over, so the map depends only on the block and is kept
        after the first call."""
        if self._dual_map is None:
            q = self.presentation
            merged_t = partner.merged
            dual_map = []
            for (rows, _, _, index), j in zip(self.merged,
                                              self._labels(partner)):
                if j is not None and not _is_dual(q, rows, index,
                                                  merged_t[j][0],
                                                  merged_t[j][3]):
                    j = None
                dual_map.append(j)
            self._dual_map = tuple(dual_map)
        return self._dual_map

    def _labels(self, partner):
        """For each merged subgroup, in order, the position among the
        merged subgroups of ``partner`` of the one at the complement R' of
        the rows R of its first entry, or None when R' has no nonzero
        merged sum there; unchecked (see ``dual_map``)."""
        full = range(self.presentation.rank)
        position = {rows: j for j, (rows, _, _, _)
                    in enumerate(partner.merged)}
        at = {subset: position.get(rows)
              for subset, _, rows, _, _ in partner.entries}
        first = {}
        for _, rows_in, rows, _, _ in self.entries:
            first.setdefault(rows, rows_in)
        return [at.get(tuple(i for i in full if i not in first[rows]))
                for rows, _, _, _ in self.merged]


def equivariant_zeta(f, group=None, atoms=None):
    """Full zeta report of an invertible polynomial over its symmetry
    group (or a caller-supplied presentation of it, whose constraint is
    the exponent matrix of ``f``).

    The reduced zeta is -(M_1 x ... x M_k), the external product of the
    ``merged`` maps M_a = -reduced_a of the blocks' records
    (``AtomRecord``).  The report keeps the records alone: the product
    form, the classical zeta and the subgroup keys wait for the first
    read (see ``ZetaReport`` and ``_product_form``).

    The records come from ``_block_records``: a polynomial that is one
    block has its record computed over the given presentation, with no
    second Smith form.  Without ``group``, a sum's presentation is
    composed from its blocks' (see ``groups._direct_sum``).  ``atoms`` is
    the ``AtomRecords`` of the batch; without one the call keeps its own.
    The blocks (``_blocks_of``) and, unless ``f`` has one, the weight
    system of the presentation are kept on ``f``."""
    if atoms is None:
        atoms = AtomRecords()
    p = group if group is not None else _symmetry_group(f, atoms)
    blocks = _blocks_of(f)
    if len(blocks) == 1:
        given = [p]
    elif p._parts:
        given = [part for part, _, _ in p._parts]
    else:
        given = [None] * len(blocks)
    records = _block_records(blocks, atoms, given)
    if f._weights is None:
        f._weights = p._weight_system()
    return ZetaReport(f, p, records)


def _product_form(records):
    """(terms, indices, classical zeta) of the report on the blocks'
    ``records``: each product of one merged subgroup per block is one
    term, with coefficient minus the product of the blocks' coefficients
    and classical factor (1 - t^r)^(coefficient*[G:H]/r), with r the lcm
    of the blocks' orders and [G:H] the product of their indices.
    Distinct merged subgroups give distinct products, so no two terms
    meet.  The equivariant zeta is the reduced one plus [G/G], and the
    classical zeta gains (1 - t) for it; its modulus is ``_modulus``."""
    products = [((), -1, 1, 1)]
    for record in records:
        products = [(combo + (i,), c * bc, lcm(r, br), index * bi)
                    for combo, c, r, index in products
                    for i, (_, bc, br, bi) in enumerate(record.merged)]
    terms = {}
    indices = []
    factors = {1: 1}
    for combo, c, r, index in products:
        terms[combo] = c
        indices.append(index)
        factors[r] = factors.get(r, 0) + c * (index // r)
    return terms, indices, CyclotomicProduct._wrap(_modulus(records), factors)


def _modulus(records):
    """The order of the monodromy of the sum of the blocks of
    ``records``: the lcm of theirs, the modulus of its classical zeta."""
    return lcm(*(record.monodromy_order for record in records))


def _subset_terms(report):
    """The audit of a ``ZetaReport``: the product of one entry of each
    block's record, at the block's positions, is one contributing subset
    I = I_1 + ... + I_k over the rows R_1 + ... + R_k, with the key of the
    product of their isotropy subgroups.  det E[R, I], R and I sorted, is
    the product of the blocks' det E_a[R_a, I_a], computed here, times the
    signs of the permutations that sort the two sums.  The product of the
    empty subsets is no term.  Sorted by (size, indices)."""
    p = report.group
    n, d = p.rank, p.order
    products = None
    for record, block in zip(report._records,
                             _blocks_of(report.polynomial)):
        scale = d // record.presentation.order
        e = block.matrix
        entries = [(tuple(block.cols[i] for i in indices),
                    tuple(block.rows[i] for i in rows_in),
                    determinant(e.submatrix(rows_in, indices))
                    if indices else 1,
                    _block_rows(rows, scale, block.cols, n), index)
                   for indices, rows_in, rows, _, index in record.entries]
        products = entries if products is None else [
            (indices + more, rows_in + more_in, det * factor,
             rows + block_rows, index * block_index)
            for indices, rows_in, det, rows, index in products
            for more, more_in, factor, block_rows, block_index in entries]
    audit = []
    for indices, rows_in, det, rows, index in products[1:]:
        sign = 1 if len(indices) % 2 else -1
        audit.append(SubsetTerm(
            tuple(sorted(indices)), sign,
            SubgroupKey._wrap(p, _stacked(rows), d // index),
            sign * _sign(indices) * _sign(rows_in) * det))
    audit.sort(key=lambda t: (len(t.indices), t.indices))
    return tuple(audit)


def _sign(seq):
    """The sign of the permutation that sorts ``seq``."""
    return -1 if sum(a > b for a, b in combinations(seq, 2)) % 2 else 1


def _symmetry_group(f, atoms):
    """The symmetry group of ``f``: ``symmetry_group`` for one block, and
    for a sum the presentation composed from its blocks'
    (``groups._direct_sum``), with no record made."""
    blocks = _blocks_of(f)
    if len(blocks) == 1:
        return symmetry_group(f)
    return _direct_sum(f.exponents, [
        (_block_presentation(block.matrix, atoms), block.cols, block.rows)
        for block in blocks])


def _block_presentation(e, atoms):
    """A presentation of the group of the block ``e``: that of its record
    in ``atoms``; otherwise the ``dual()`` of its transposed block's
    record's, with no second Smith form; otherwise its own."""
    record = atoms.get(e)
    if record is not None:
        return record.presentation
    partner = atoms.get(e.transpose())
    return (partner.presentation.dual() if partner is not None
            else GroupPresentation(e))


def _block_records(blocks, atoms, presentations):
    """The records of ``blocks``, from ``atoms`` or made and, for a block
    of fewer than ``atoms.keep_below`` variables, kept there, over the
    block's presentation in ``presentations``, or ``_block_presentation``
    where that is None.  The blocks take the records' equal matrices,
    which the batch keeps anyway."""
    records = []
    for block, q in zip(blocks, presentations):
        e = block.matrix
        record = atoms.get(e)
        if record is None:
            if q is None:
                q = _block_presentation(e, atoms)
            record = _atom_record(e, q, _subsets_of(block), atoms)
            if e.nrows < atoms.keep_below:
                atoms[e] = record
        records.append(record)
        block.matrix = record.presentation.constraint
    return tuple(records)


def _pair_records(e, atoms):
    """(record, record_t) of the block ``e``, on its own variables, and
    of its transpose, as a ``DualPair`` of a sum holding it reads them:
    from ``atoms`` or made (``_block_records``), the transpose's over the
    ``dual()`` of the block's presentation."""
    at = tuple(range(e.nrows))
    block = _Block(e, at, at)
    (record,) = _block_records((block,), atoms, (None,))
    (record_t,) = _block_records((block.transpose(),), atoms,
                                 (record.presentation.dual(),))
    return record, record_t


def _atom_record(e, q, subsets, atoms):
    """The ``AtomRecord`` of the exponent block ``e`` over a presentation
    ``q`` of its group, of order d, from its contributing ``subsets``: the
    weights are read off the Smith form of ``q``
    (``GroupPresentation._weight_system``), the monodromy is the element
    w/d, its scaled vector h the canonical weights w reduced mod d, and
    its order the reduced degree.

    G^I is read off the complementary block E[R', J] (module docstring):
    its scaled basis is d*e_i for i in I and (d/d_J)*A_J at J, for A_J
    the ambient basis of the presentation of E[R', J], of order d_J, that
    ``atoms`` keeps (one per distinct block).  At sorted positions that is
    already the column HNF, and [G:G^I] = d/d_J.  r*h lies in G^I when
    r*h_I = 0 and r*E[R', J]*h_J = 0 (mod d); as E*w = d*1, the first
    gives the second, so r = d/gcd(d, h_I)."""
    d = q.order
    n = e.nrows
    weights = q._weight_system()
    h = tuple(w % d for w in weights.canonical_weights)
    units = [tuple(d if k == i else 0 for k in range(n)) for i in range(n)]
    kept = atoms.presentations
    entries = [((), (), q.ambient_basis.rows, 1, 1)]
    for subset, rows_in in subsets:
        r = d // gcd(d, *(h[i] for i in subset))
        cols = [j for j in range(n) if j not in subset]
        if not cols:
            entries.append((subset, tuple(rows_in), tuple(units), r, d))
            continue
        rest = IntMatrix._wrap(tuple(
            tuple(row[j] for j in cols)
            for i, row in enumerate(e.rows) if i not in rows_in))
        c = kept.get(rest)
        if c is None:
            c = _block_presentation(rest, atoms)
            if len(cols) < atoms.keep_below:
                kept[rest] = c
        placed = iter(_block_rows(c.ambient_basis.rows, d // c.order, cols,
                                  n))
        rows = tuple(next(placed) if j in cols else units[j]
                     for j in range(n))
        entries.append((subset, tuple(rows_in), rows, r, d // c.order))
    return AtomRecord(q, weights, weights.reduced_degree, tuple(entries))


def _subsets_of(block):
    """The contributing subsets of a ``_Block``, listed on first use and
    kept on it; a transposed block takes its partner's complements."""
    if block.subsets is None:
        partner = block.partner
        block.subsets = (
            _contributing_subsets(block.matrix) if partner is None
            else _complement_subsets(_subsets_of(partner), block.matrix.nrows))
    return block.subsets


def _complement_subsets(subsets, n):
    """The contributing (I, R) of E^T from those of the n x n invertible E,
    ``subsets``, by (size, indices): (R', I') for each (I, R) with I short
    of every variable, R' and I' the complements, and the full set.  The
    columns I' of E vanish on the rows R, so as rows of E^T they lie
    inside R', and |I'| = |R'|; applied to E^T the map gives E's back."""
    full = tuple(range(n))
    pairs = [(full, list(full))]
    for subset, rows_in in subsets:
        if len(subset) < n:
            pairs.append((tuple(i for i in full if i not in rows_in),
                          [j for j in full if j not in subset]))
    pairs.sort(key=lambda pair: (len(pair[0]), pair[0]))
    return pairs


def _contributing_subsets(e):
    """(I, R) for each nonempty variable subset I that contributes to the
    zeta function of the invertible matrix ``e``, by (size, indices): the
    rows R whose support lies inside I number |I|.  R is sorted.

    det E != 0 gives a perfect matching of variables to rows inside the
    support: variable j to a row m(j) with a nonzero entry at j.  I
    contributes exactly when it is closed under j -> support of row
    m(j): a closed I has the |I| rows m(I) inside it, and no invertible
    matrix has more than |I| rows supported in |I| columns; conversely,
    if R has |I| rows, the columns off I meet only rows off R, so the
    matching puts m(I) = R.  The closed subsets are the unions of the
    closures of single variables (``_closure_masks``), so they are grown
    from the empty set one closure at a time, at a cost that follows their
    number and not 2^n."""
    n = e.nrows
    supports, closure = _closure_masks(e)
    closed = set()
    frontier = [0]
    while frontier:
        grown = []
        for mask in frontier:
            for c in closure:
                union = mask | c
                if union not in closed:
                    closed.add(union)
                    grown.append(union)
        frontier = grown
    keyed = []
    for mask in closed:
        subset = tuple(j for j in range(n) if mask >> j & 1)
        keyed.append((len(subset), subset,
                       [i for i, s in enumerate(supports) if not s & ~mask]))
    keyed.sort()
    return [(subset, rows_in) for _, subset, rows_in in keyed]


def _closure_masks(e):
    """Bit masks of the invertible ``e``: the support of each row, and the
    closure of each variable j, which holds j, under j -> support of row
    m(j) (Kuhn's matching m, then Warshall's transitive closure)."""
    n = e.nrows
    rows = e.rows
    owner = [None] * n  # owner[i]: the variable matched to row i
    for j in range(n):
        if rows[j][j] and owner[j] is None:
            # A free diagonal row is an augmenting path of length one.
            owner[j] = j
        else:
            _augment(rows, owner, j, set())
    supports = [sum(1 << k for k, x in enumerate(row) if x) for row in rows]
    closure = [0] * n
    for i, j in enumerate(owner):
        closure[j] = supports[i]
    for k in range(n):
        for j in range(n):
            if closure[j] >> k & 1:
                closure[j] |= closure[k]
    return supports, closure


def _closed_count(e):
    """One more than the contributing subsets of the invertible ``e``, the
    closed subsets with the empty one, counted without listing them.
    count(U) counts the S within the open variables U that hold
    closure(j) & U for each j in S: the product over the components of U
    under j ~ k for k in closure(j), and for a connected U and x in it,
    count(U - up(x)) + count(U - closure(x)), up(x) being the variables
    whose closure holds x.  Memoized on U, it has at most as many leaves
    as subsets, and about one per variable for stars and sums of
    squares.  The masks wait on an explicit stack, so no block is too
    long for the interpreter's recursion limit."""
    _, closure = _closure_masks(e)
    n = len(closure)
    up = [sum(1 << j for j, c in enumerate(closure) if c >> k & 1)
          for k in range(n)]
    counts = {0: 1}
    splits = {}  # U: (whether the parts multiply, the two parts)
    whole = (1 << n) - 1
    stack = [whole]
    while stack:
        u = stack[-1]
        if u in counts:
            stack.pop()
            continue
        if u not in splits:
            x = (u & -u).bit_length() - 1
            part = frontier = u & -u
            while frontier and part != u:  # the component of x
                j = (frontier & -frontier).bit_length() - 1
                frontier &= frontier - 1
                grown = (closure[j] | up[j]) & u & ~part
                part |= grown
                frontier |= grown
            splits[u] = ((True, part, u & ~part) if part != u
                         else (False, u & ~up[x], u & ~closure[x]))
        product, a, b = splits[u]
        if a in counts and b in counts:
            stack.pop()
            counts[u] = (counts[a] * counts[b] if product
                         else counts[a] + counts[b])
        else:
            stack += [v for v in (a, b) if v not in counts]
    return counts[whole]


def _augment(rows, owner, j, seen):
    """Kuhn's augmenting path from variable j in the bipartite graph of
    the nonzero entries of ``rows``: True when j is matched, owner[i]
    being the variable matched to row i; rows in ``seen`` are skipped."""
    for i, row in enumerate(rows):
        if row[j] and i not in seen:
            seen.add(i)
            if owner[i] is None or _augment(rows, owner, owner[i], seen):
                owner[i] = j
                return True
    return False


def classical_zeta(f):
    """Classical monodromy zeta function as a cyclotomic product with
    modulus the reduced degree."""
    return equivariant_zeta(f).classical


def classical_saito_dual(phi):
    """The classical duality transform with respect to the modulus d:
    each factor (1 - t^m)^s becomes (1 - t^(d/m))^(-s).  An involution."""
    d = phi.modulus
    return CyclotomicProduct._wrap(
        d, {d // m: -s for m, s in phi._factors.items()})


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one duality check; ``witness`` carries the difference
    when the two sides disagree.  Its zeta reports are those of the
    check's ``DualPair``: ``lhs_report`` that of the transposed side and
    ``rhs_report`` that of f, built when first read, as a passing check
    reads only the blocks' records.  A passing zeta-duality check keeps
    no sides of its own: both are the transposed side's reduced zeta,
    ``lhs_report.reduced``, built when first read."""

    kind: str  # "theorem" | "corollary"
    equal: bool
    witness: object = None
    _pair: object = field(default=None, repr=False, compare=False)
    _sides: tuple = field(default=None, repr=False, compare=False)

    @property
    def lhs_report(self):
        return None if self._pair is None else self._pair.report_t

    @property
    def rhs_report(self):
        return None if self._pair is None else self._pair.report

    @property
    def lhs(self):
        return (self.lhs_report.reduced if self._sides is None
                else self._sides[0])

    @property
    def rhs(self):
        return self.lhs if self._sides is None else self._sides[1]

    def to_json(self, include_reports=False):
        lhs = self.lhs.to_json()
        out = {
            "kind": self.kind,
            "lhs": lhs,
            # A passing zeta-duality check has one side: write it once.
            "rhs": lhs if self._sides is None else self.rhs.to_json(),
            "equal": self.equal,
            "witness": self.witness,
        }
        if include_reports and self._pair is not None:
            out["lhsReport"] = self.lhs_report.to_json()
            out["rhsReport"] = self.rhs_report.to_json()
        return out

    @staticmethod
    def _refused_json(count):
        """The JSON of a zeta-duality check that is not run because a
        side's report has ``count`` entries, more than
        ``MAX_REPORT_ENTRIES``: the fields of ``to_json``, null, and
        ``entryCount``."""
        return {"kind": "theorem", "lhs": None, "rhs": None, "equal": None,
                "witness": None, "entryCount": count}


class DualPair:
    """The Berglund-Hubsch pair (f, f^T): the ``AtomRecord`` of each block
    of f (``records``) and of each block's transpose (``records_t``), the
    symmetry group G of f and its dual G^T (the group of f^T), the
    monodromy element of f and each side's zeta report.  Each field is
    computed on first use and then shared.

    Both duality checks read only the records when they pass: neither
    composes G, dualizes it, transposes f or builds a zeta report
    (``verify_zeta_duality``, ``verify_root_duality``).  ``report`` and
    ``report_t`` are ``ZetaReport``s over the same records, for whatever
    reads them.  Each side's weight system and blocks (``_blocks_of``) are
    kept on ``f`` and ``ft``, where every library call reaches them:
    ``group`` and ``group_t`` fill in the weights of their side from their
    Smith forms (``GroupPresentation._weight_system``), and the blocks are
    split once per pair, ``ft`` taking those of ``f`` transposed, in the
    same order, that ``records_t`` read.  ``atoms`` is the
    ``AtomRecords`` of the batch the pair belongs to; without one the pair
    keeps its own."""

    def __init__(self, f, atoms=None):
        self.f = f
        if atoms is not None:
            self.atoms = atoms

    @cached_property
    def atoms(self):
        """The atom records both sides read (see ``_block_records``): a
        batch's, or this pair's own."""
        return AtomRecords()

    @cached_property
    def records(self):
        """The record of each block of ``f``, in order, from ``atoms`` or
        made: over ``group`` when ``f`` is one block, else over
        ``_block_presentation``, so no group of the sum is composed."""
        blocks = _blocks_of(self.f)
        return _block_records(blocks, self.atoms,
                              [self.group] if len(blocks) == 1
                              else [None] * len(blocks))

    @cached_property
    def records_t(self):
        """The record of each block's transpose, in the order of
        ``records``, from ``atoms`` or made over the ``dual()`` of its
        partner record's presentation, with no second Smith form."""
        return _block_records(self._blocks_t, self.atoms,
                              [record.presentation.dual()
                               for record in self.records])

    @cached_property
    def _facts(self):
        """``_sum_facts`` of ``records``: whether G is cyclic, and what
        the root duality reads on the side of ``f``."""
        return _sum_facts(self.records)

    @cached_property
    def _blocks_t(self):
        """The blocks of ``f`` transposed, in order: those of ``ft``."""
        return tuple(block.transpose() for block in _blocks_of(self.f))

    @cached_property
    def ft(self):
        t = self.f.transpose()
        t._blocks = self._blocks_t
        return t

    @cached_property
    def group(self):
        p = _symmetry_group(self.f, self.atoms)
        if self.f._weights is None:
            self.f._weights = p._weight_system()
        return p

    @cached_property
    def group_t(self):
        q = self.group.dual()
        if self.ft._weights is None:
            self.ft._weights = q._weight_system()
        return q

    @cached_property
    def monodromy(self):
        return monodromy_element(self.f, self.group)

    @cached_property
    def report(self):
        return ZetaReport(self.f, self.group, self.records)

    @cached_property
    def report_t(self):
        return ZetaReport(self.ft, self.group_t, self.records_t)

    def _entry_count(self):
        """The number of entries of the zeta report of ``f``, the empty
        subset included, and of ``ft``, which has as many
        (``_complement_subsets`` is a bijection): the product of its
        blocks' ``_closed_count``, with no subset listed and no record."""
        return prod(map(_closed_count,
                        (block.matrix for block in _blocks_of(self.f))))


def verify_zeta_duality(pair):
    """Check that the reduced equivariant zeta function of the transposed
    polynomial equals (-1)^n times the duality transform of the reduced
    equivariant zeta function of the polynomial itself.

    The check first decides on the pair's records, block by block
    (``_dual_by_blocks``): it builds no group of the sum, no transpose of
    the polynomial, no zeta report, no product form and no subgroup key,
    and a passing report builds the pair's zeta reports when first read.
    Otherwise both elements and the transform are built and compared, so
    a dual the blocks' maps miss costs time but never decides the
    verdict; a failing check keeps them for the report and its
    witness."""
    sign = -1 if pair.f.nvars % 2 else 1
    if not _dual_by_blocks(pair.records, pair.records_t, sign):
        lhs = pair.report_t.reduced
        rhs = sign * saito_dual(pair.report.reduced)
        if lhs != rhs:
            return VerificationReport("theorem", False,
                                      {"difference": (lhs - rhs).to_json()},
                                      pair, (lhs, rhs))
    return VerificationReport("theorem", True, _pair=pair)


def _dual_by_blocks(records, records_t, sign):
    """Whether the reduced zeta of the blocks of ``records_t``, those of
    the transposed polynomial, is ``sign`` times the transform of that of
    the blocks of ``records``, as the blocks show it; False says only
    that they do not.

    The transform takes the term of merged subgroups (H_1, ..., H_k),
    coefficient -c_1[H_1]*...*c_k[H_k], to that of their duals, and a
    block's ``dual_map`` names each dual among its partner's merged
    subgroups.  An accepted name is the exact dual, so a map with no None
    is injective, and onto when both blocks have as many merged
    subgroups.  The check holds for every term exactly when each block's
    ratio c_t[m(i)] / c[i] is one constant e_a and e_1*...*e_k = sign:
    fixing every block but one shows the ratio constant, as no merged
    coefficient is 0.  Both are tested in integers, across, at the cost
    of the blocks' merged subgroups, not of their products.  A block with
    no merged subgroup on either side (such as x, whose group is trivial)
    makes both sides 0."""
    if len(records) != len(records_t):
        return False
    pairs = list(zip(records, records_t))
    if any(not record.merged and not partner.merged
           for record, partner in pairs):
        return True
    lead = lead_t = 1
    for record, partner in pairs:
        dual_map = record.dual_map(partner)
        merged, merged_t = record.merged, partner.merged
        if len(merged) != len(merged_t) or None in dual_map:
            return False
        c, c_t = merged[0][1], merged_t[dual_map[0]][1]
        if any(merged_t[j][1] * c != c_t * term[1]
               for j, term in zip(dual_map, merged)):
            return False
        lead *= c
        lead_t *= c_t
    return lead_t == sign * lead


def _sum_facts(records):
    """(cyclic, d, c, modulus) of the sum of the blocks of ``records``,
    read off the records with no group composed.  Its group
    G = G_1 x ... x G_k is cyclic exactly when each G_a is and their
    orders d_a are pairwise coprime, lcm(d_a) = prod(d_a): the invariant
    factors of the blocks then merge into the one factor d
    (``groups._chain_factors``), and otherwise two of them share a prime.
    d = d_1*...*d_k is its order, c = gcd_a((d/d_a)*c_a) the gcd of its
    canonical weights, those of the blocks scaled as
    ``direct_sum_weights`` scales them, and the modulus the order of its
    monodromy (``_modulus``)."""
    orders = [record.presentation.order for record in records]
    d = prod(orders)
    cyclic = lcm(*orders) == d and all(record.presentation.is_cyclic
                                       for record in records)
    c = gcd(*(d // order * record.weights.gcd_factor
              for order, record in zip(orders, records)))
    return cyclic, d, c, _modulus(records)


def generating_root_exists(c, d, modulus):
    """Whether c*g = h has a solution g generating the cyclic group G of
    order ``d``, with ``c`` the gcd of the canonical weights and h the
    monodromy element, of order ``modulus``.  In G = Z/d with h = t, such
    a g has gcd(t, d) = gcd(c*g, d) = gcd(c, d), and conversely;
    gcd(t, d) is d / ord(h)."""
    return gcd(c, d) == d // modulus


def generating_root_zeta(records, d):
    """Zeta function of a generating root on the reduced zeta
    sum c_H [G/H] of the sum of the blocks of ``records``, whose group G
    is cyclic of order ``d``: a generator permutes G/H in one cycle of
    length |G/H|, so every generating root gives
    prod (1 - t^(d/|H|))^(c_H), with modulus d.  As a term's coefficient
    and index are products of its blocks' (``_product_form``), the
    exponents convolve the blocks' merged coefficients by index."""
    exponents = {1: -1}
    for record in records:
        product = {}
        for index, c in exponents.items():
            for _, bc, _, bi in record.merged:
                product[index * bi] = product.get(index * bi, 0) + c * bc
        exponents = product
    return CyclotomicProduct._wrap(d, exponents)


def verify_root_duality(pair):
    """Check the geometric-root statement: with d = det E, the reduced
    zeta function of a generating root of the transposed polynomial's
    monodromy is the classical dual (to the power (-1)^(n-1)) of the
    reduced zeta function of a generating root on the original side.
    Requires a cyclic symmetry group.

    No root is listed, and only the pair's records are read
    (``_root_sides``): a passing check builds no group of the sum, no
    transpose and no zeta report, and its report builds the pair's when
    first read.  Listing the roots would cost prod_j gcd(c, o_j) elements
    over the invariant factors o_j (see ``groups.root_count``)."""
    facts = pair._facts
    if not facts[0]:
        raise NonCyclicError(
            "geometric roots require a cyclic symmetry group; invariant "
            f"factors are {pair.group.invariant_factors}")
    sides = _root_sides(facts, pair.records, pair.records_t, pair.f.nvars)
    if sides is None:
        raise NonCyclicError("no generating geometric roots exist")
    lhs, rhs = sides
    equal = lhs == rhs
    witness = None
    if not equal:
        witness = {"ratio": (lhs / rhs).to_json()}
    return VerificationReport("corollary", equal, witness, pair, (lhs, rhs))


def _root_sides(facts, records, records_t, nvars):
    """(lhs, rhs) of the root duality of a polynomial on ``nvars``
    variables whose group is cyclic, from the records of its blocks,
    ``records``, with their ``_sum_facts`` ``facts``, and ``records_t``,
    those of their transposes; None when a side has no generating root.
    On each side, with c the gcd of the canonical weights and ord(h) the
    modulus of the classical zeta, a generating root exists exactly when
    gcd(c, d) == d // ord(h) (``generating_root_exists``), and its zeta
    function on the reduced zeta sum c_H [G/H] is
    prod (1 - t^(d/|H|))^(c_H) (``generating_root_zeta``).  lhs is that
    of the transposed side, and rhs the ``classical_saito_dual`` of that
    of the polynomial, inverted for even ``nvars``."""
    _, d, c, modulus = facts
    _, _, c_t, modulus_t = _sum_facts(records_t)
    if not (generating_root_exists(c, d, modulus)
            and generating_root_exists(c_t, d, modulus_t)):
        return None
    rhs = classical_saito_dual(generating_root_zeta(records, d))
    return (generating_root_zeta(records_t, d),
            rhs.inverse() if nvars % 2 == 0 else rhs)


def _records_verdict(records, records_t, nvars):
    """The verdicts of a polynomial on ``nvars`` variables as the records
    of its blocks, ``records``, and of their transposes, ``records_t``,
    decide them, with the records-level steps of ``verify_zeta_duality``
    (``_dual_by_blocks``) and ``verify_root_duality`` (``_root_sides``):
    (True, None) when the zeta duality holds and the group is not cyclic,
    (True, True) when the root duality holds too, and None when the
    records do not decide: a dual the blocks' maps miss, a failed check
    or no generating root, which the pair checks decide and report."""
    if not _dual_by_blocks(records, records_t, -1 if nvars % 2 else 1):
        return None
    facts = _sum_facts(records)
    if not facts[0]:
        return True, None
    sides = _root_sides(facts, records, records_t, nvars)
    if sides is None or sides[0] != sides[1]:
        return None
    return True, True


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
