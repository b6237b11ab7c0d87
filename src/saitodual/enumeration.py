"""Corpus generation and the batch duality-verification harness.

Generates every loop and chain block with exponents in [2, max_exp] on at
most max_vars variables and, optionally, every direct (Thom-Sebastiani) sum
of such blocks, then runs the two duality verifiers over the result.

The corpus has no duplicates by construction: a loop/chain decomposition
with exponents >= 2 is unique up to relabeling (Kreuzer-Skarke, "On the
classification of quasihomogeneous functions", CMP 1992), chains are
emitted head to tail, loops as their least rotation and sums as multisets
of blocks.  The corpus is ordered by (nvars, sorted atom signatures): by
total size, then by the sorted list of its blocks' ``(kind, exponents)``
specs.

It is addressed by rank, and no list of its members or of their block
combinations is made.  Its size is counted in closed form, with
k = max_exp - 1: chains on m variables number k^m, loops are necklaces,
(1/m) sum_{e | m} phi(e) k^(m/e) (Polya), and sums are the multisets of
specs, c_m of size m, counted by prod_m (1 - z^m)^(-c_m).  The one list
held is the spec table.  A corpus of more than ``MAX_CORPUS_SPECS`` specs
is refused (``CorpusBoundError``) before it is listed.  A ``Corpus`` builds
the member at a rank when read, by bisecting a table of cumulative counts
of multisets by first spec, one row per remaining size (``_Ranking``).
``--sample`` draws ranks and ``--limit`` keeps a prefix of them.
"""

from __future__ import annotations

import itertools
import random
from bisect import bisect_left, bisect_right
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import partial
from math import comb, gcd

from .errors import ResourceBoundError
from .linalg import IntMatrix, determinant
from .polynomials import InvertiblePolynomial, _Block
from .zeta import (AtomRecords, DualPair, _polynomial_head,
                   verify_root_duality, verify_zeta_duality)

# The most atom specs a corpus may have: its spec table and rank table are
# held in memory.  (6,9) has 351,208 specs and (8,6) 551,849; (7,8) has
# 1,102,268 and (7,9) 2,747,960.
MAX_CORPUS_SPECS = 1_000_000


class CorpusBoundError(ResourceBoundError):
    """A corpus has more than ``MAX_CORPUS_SPECS`` atom specs.  Carries the
    closed-form counts: ``specs`` and ``size``, its number of members."""

    def __init__(self, specs, size):
        super().__init__(f"{specs} atom specs exceed the corpus bound "
                         f"{MAX_CORPUS_SPECS}")
        self.specs = specs
        self.size = size


def chain_matrix(exponents):
    """Exponent matrix of x1^p1*x2 + x2^p2*x3 + ... + xm^pm."""
    ps = list(exponents)
    m = len(ps)
    rows = [[0] * m for _ in range(m)]
    for i, p in enumerate(ps):
        rows[i][i] = p
        if i + 1 < m:
            rows[i][i + 1] = 1
    return IntMatrix(rows)


def loop_matrix(exponents):
    """Exponent matrix of x1^p1*x2 + ... + xm^pm*x1 (m >= 2)."""
    ps = list(exponents)
    m = len(ps)
    if m < 2:
        raise ValueError("a loop needs at least two variables")
    rows = [[0] * m for _ in range(m)]
    for i, p in enumerate(ps):
        rows[i][i] = p
        rows[i][(i + 1) % m] = 1
    return IntMatrix(rows)


def _necklaces(length, values):
    """Tuples over ``values`` up to cyclic rotation, each as its least
    rotation, in lexicographic order; relabeling a loop's variables only
    rotates its exponents.  The FKM algorithm (Ruskey, Savage and Wang,
    J. Algorithms 13, 1992): each prenecklace is extended periodically
    from its last raised position i, and it is a necklace when its period
    i + 1 divides the length."""
    values = tuple(values)
    top = len(values) - 1
    a = [0] * length
    yield tuple(values[x] for x in a)
    while True:
        i = length - 1
        while i >= 0 and a[i] == top:
            i -= 1
        if i < 0:
            return
        a[i] += 1
        for j in range(i + 1, length):
            a[j] = a[j - i - 1]
        if length % (i + 1) == 0:
            yield tuple(values[x] for x in a)


def atom_specs(max_vars, max_exp, include_chains=True, include_loops=True):
    """All chain and loop blocks within the bounds, as (kind, exponents)."""
    exps = range(2, max_exp + 1)
    specs = []
    if include_chains:
        for m in range(1, max_vars + 1):
            specs.extend(("chain", ps)
                         for ps in itertools.product(exps, repeat=m))
    if include_loops:
        for m in range(2, max_vars + 1):
            specs.extend(("loop", ps) for ps in _necklaces(m, exps))
    return specs


def corpus_counts(max_vars, max_exp, include_sums=False, include_chains=True,
                  include_loops=True):
    """(number of atom specs, number of corpus members), in closed form,
    with k = max_exp - 1: on m variables there are k^m chains and
    (1/m) sum_{e | m} phi(e) k^(m/e) loops (m >= 2); with sums, the
    members on s variables are the coefficient of z^s in
    prod_m (1 - z^m)^(-c_m), c_m being the specs on m variables."""
    k = max_exp - 1
    counts = [0] * (max_vars + 1)
    for m in range(1, max_vars + 1):
        if include_chains:
            counts[m] += k ** m
        if include_loops and m >= 2:
            counts[m] += sum(
                sum(gcd(e, i) == 1 for i in range(e)) * k ** (m // e)
                for e in range(1, m + 1) if m % e == 0) // m
    if not include_sums:
        return sum(counts), sum(counts)
    series = [1] + [0] * max_vars
    for m, c in enumerate(counts):
        if c:
            # (1 - z^m)^(-c) = sum_t C(c + t - 1, t) z^(m t)
            series = [sum(series[s - m * t] * comb(c + t - 1, t)
                          for t in range(s // m + 1))
                      for s in range(max_vars + 1)]
    return sum(counts), sum(series) - 1  # less the empty multiset


class _Ranking:
    """The corpus order as a rank table over ``specs``, the spec table in
    spec order.  A member is a multiset of specs (one spec without sums),
    written as the non-decreasing list of its positions in ``specs``;
    members are ordered by total size, then lexicographically, the order
    of their sorted spec lists.

    Row s serves a remaining size s: ``first[s]``, the positions that can
    start it (those of size <= s, or of size s without sums), and
    ``cum[s]``, the running count over them of the multisets of total s
    whose least position is that one: C(s - size(j), j), with C(r, j) the
    number of multisets of total r of positions >= j.  ``starts[s]`` is
    the number of members of size at most s.  ``matrices`` holds the block
    matrices of the specs built so far and their determinants (see
    ``build_polynomial``)."""

    def __init__(self, specs, max_vars, include_sums):
        self.specs = specs
        self.matrices = {}
        self.sizes = sizes = [len(ps) for _, ps in specs]
        by_size = [[] for _ in range(max_vars + 1)]
        for j, m in enumerate(sizes):
            by_size[m].append(j)
        self.first = [None]
        self.cum = [None]
        for s in range(1, max_vars + 1):
            if not include_sums:
                first = by_size[s]
                cum = range(len(first) + 1)
            else:
                first = (range(len(specs)) if s == max_vars
                         else sorted(itertools.chain(*by_size[1:s + 1])))
                cum = [0, *itertools.accumulate(
                    1 if sizes[j] == s else self._count(s - sizes[j], j)
                    for j in first)]
            self.first.append(first)
            self.cum.append(cum)
        self.starts = [0, *itertools.accumulate(
            cum[-1] for cum in self.cum[1:])]

    def _count(self, r, j):
        """C(r, j) for r >= 1, read off row r."""
        cum = self.cum[r]
        return cum[-1] - cum[bisect_left(self.first[r], j)]

    def size_of(self, rank):
        """The number of variables of the member at ``rank``."""
        return bisect_right(self.starts, rank)

    def member(self, rank):
        """The specs of the member at ``rank``, in spec order: at each
        remaining size, the least position whose multisets reach past the
        rank left, counted from the last position taken."""
        s = self.size_of(rank)
        r = rank - self.starts[s - 1]
        low = 0
        picked = []
        while s:
            first, cum = self.first[s], self.cum[s]
            target = cum[bisect_left(first, low)] + r
            t = bisect_right(cum, target) - 1
            low = first[t]
            r = target - cum[t]
            picked.append(self.specs[low])
            s -= self.sizes[low]
        return picked


def _atom_order(spec):
    """The position of ``spec`` in ``atom_specs`` order, as a sort key."""
    kind, ps = spec
    return kind, len(ps), ps


class Corpus(Sequence):
    """The members of a corpus at ``ranks`` (ascending), in corpus order.
    Member i is built when read, from its blocks in ``atom_specs`` order;
    a slice is the corpus at the sliced ranks, with nothing built."""

    def __init__(self, ranking, ranks):
        self._ranking = ranking
        self.ranks = ranks

    def __len__(self):
        return len(self.ranks)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return Corpus(self._ranking, self.ranks[i])
        ranking = self._ranking
        return build_polynomial(sorted(ranking.member(self.ranks[i]),
                                       key=_atom_order), ranking.matrices)

    @property
    def nvars(self):
        """The most variables of any member: those of the last."""
        return self._ranking.size_of(self.ranks[-1]) if self.ranks else 0


def build_polynomial(specs, matrices=None):
    """Direct sum of the given blocks, on variables x1..xn, in that order.
    Its blocks (``polynomials._blocks_of``) are set as built, so none is
    searched for: each spec's at the next positions.  ``matrices`` maps
    each spec to its block matrix and that matrix's determinant, and takes
    those it lacks, so that the polynomials built with one map share each
    spec's matrix.  Nothing is validated or eliminated again: the blocks
    sit on the diagonal in order, so the determinant of the sum is the
    product of theirs."""
    if matrices is None:
        matrices = {}
    n = sum(len(ps) for _, ps in specs)
    rows = []
    blocks = []
    det = 1
    for kind, ps in specs:
        spec = kind, tuple(ps)
        built = matrices.get(spec)
        if built is None:
            b = (chain_matrix if kind == "chain" else loop_matrix)(ps)
            built = matrices[spec] = b, determinant(b)
        b, block_det = built
        det *= block_det
        at = tuple(range(len(rows), len(rows) + b.nrows))
        rows.extend((0,) * at[0] + row + (0,) * (n - 1 - at[-1])
                    for row in b.rows)
        blocks.append(_Block(b, at, at))
    f = InvertiblePolynomial._wrap(blocks[0].matrix if len(blocks) == 1
                                   else IntMatrix._wrap(tuple(rows)), det)
    f._blocks = tuple(blocks)
    return f


def canonical_matrix_key(e):
    """Canonical form of an exponent matrix under independent monomial
    reordering and variable relabeling: the lexicographically smallest
    sorted row tuple over all column permutations.

    It tries all n! permutations.  It is the independent check the tests
    use to show that generated corpora hold no two equivalent polynomials;
    ``generate_corpus`` does not call it.
    """
    n = e.ncols
    rows = e.rows
    best = None
    for perm in itertools.permutations(range(n)):
        candidate = tuple(sorted(tuple(row[j] for j in perm) for row in rows))
        if best is None or candidate < best:
            best = candidate
    return best


def generate_corpus(max_vars, max_exp, include_sums=False,
                    include_chains=True, include_loops=True, limit=None,
                    sample=None, seed=0):
    """Polynomial corpus ordered by (nvars, sorted atom signatures), as a
    ``Corpus`` of ranks: nothing is built until read.

    ``sample`` draws that many ranks pseudo-randomly (seeded, so
    reproducible: ``random.Random(seed).sample(range(N), sample)`` for a
    corpus of N) and keeps them in corpus order; ``limit`` then keeps a
    prefix.  Returns (corpus, truncated); ``truncated`` is True when
    ``limit`` cut the corpus short.  Raises ``CorpusBoundError`` above
    ``MAX_CORPUS_SPECS`` atom specs, counted before any is listed.
    """
    specs, size = corpus_counts(max_vars, max_exp, include_sums,
                                include_chains, include_loops)
    if specs > MAX_CORPUS_SPECS:
        raise CorpusBoundError(specs, size)
    ranking = _Ranking(
        sorted(atom_specs(max_vars, max_exp, include_chains, include_loops)),
        max_vars, include_sums)
    ranks = range(size)
    if sample is not None and sample < len(ranks):
        ranks = sorted(random.Random(seed).sample(ranks, sample))
    truncated = limit is not None and len(ranks) > limit
    if truncated:
        ranks = ranks[:limit]
    return Corpus(ranking, ranks), truncated


@dataclass
class PolynomialVerification:
    """Verification outcome for one polynomial."""

    polynomial: InvertiblePolynomial
    theorem: object
    corollary: object  # None when the group is not cyclic

    @property
    def corollary_checked(self):
        return self.corollary is not None


def verify_polynomial(f, atoms=None):
    """Run the zeta-duality check, and the root-duality check when the
    symmetry group is cyclic, on one shared DualPair; ``atoms`` is the
    batch's ``zeta.AtomRecords``."""
    pair = DualPair(f, atoms)
    theorem = verify_zeta_duality(pair)
    corollary = None
    if pair.group.is_cyclic:
        corollary = verify_root_duality(pair)
    return PolynomialVerification(f, theorem, corollary)


def _failure_entry(f, kind, report):
    out = _polynomial_head(f)
    out.update({"kind": kind,
                "report": report.to_json(include_reports=True)})
    return out


@dataclass
class BatchReport:
    """Aggregate result of a corpus run."""

    total: int = 0
    theorem_pass: int = 0
    theorem_fail: int = 0
    corollary_checked: int = 0
    corollary_pass: int = 0
    corollary_fail: int = 0
    failures: list = field(default_factory=list)
    truncated: bool = False
    records: list = None

    @property
    def ok(self):
        return self.theorem_fail == 0 and self.corollary_fail == 0

    def to_json(self):
        return {
            "total": self.total,
            "theoremPass": self.theorem_pass,
            "theoremFail": self.theorem_fail,
            "corollaryChecked": self.corollary_checked,
            "corollaryPass": self.corollary_pass,
            "corollaryFail": self.corollary_fail,
            "failures": self.failures,
            "truncated": self.truncated,
        }

    @staticmethod
    def _refused_json(specs, size):
        """The JSON of a batch that is not run because its corpus has
        ``specs`` atom specs, more than ``MAX_CORPUS_SPECS``: the fields
        of ``to_json``, null, with ``specCount`` and ``corpusSize``."""
        return {"total": None, "theoremPass": None, "theoremFail": None,
                "corollaryChecked": None, "corollaryPass": None,
                "corollaryFail": None, "failures": None, "truncated": None,
                "specCount": specs, "corpusSize": size}


def _verify_task(polynomials, keep_record, atoms, i):
    """Verify polynomial ``i``: (theorem equal, corollary equal or None
    when unchecked, failure entries, the record when ``keep_record``)."""
    f = polynomials[i]
    v = verify_polynomial(f, atoms)
    failures = []
    if not v.theorem.equal:
        failures.append(_failure_entry(f, "theorem", v.theorem))
    if v.corollary is not None and not v.corollary.equal:
        failures.append(_failure_entry(f, "corollary", v.corollary))
    return (v.theorem.equal,
            v.corollary.equal if v.corollary is not None else None,
            failures, v if keep_record else None)


# Positions a pool worker takes at a time.
_CHUNKSIZE = 8

# A pool worker's task, with that process's own atom cache; set by
# ``_start_worker`` in each worker, never in the calling process.
_worker_task = None


def _start_worker(polynomials, keep_below):
    global _worker_task
    _worker_task = partial(_verify_task, polynomials, False,
                           AtomRecords(keep_below))


def _pooled_task(i):
    return _worker_task(i)


def run_batch(polynomials, workers=1, keep_records=False, truncated=False):
    """Verify every polynomial of the sequence ``polynomials`` (a list or
    a ``Corpus``), in a pool when ``workers`` > 1; aggregation order
    follows the input order, so sorted input gives byte-stable reports.
    The pool has at most one process per chunk of ``_CHUNKSIZE``
    positions, and below two the call runs serially.  Both paths map
    over positions: each pool worker takes the sequence when it starts
    and reads (for a ``Corpus``, builds) its own members, and sends back
    no records.

    The polynomials share one ``zeta.AtomRecords``, made for this call:
    one per worker process in a pool.  It keeps the record of each block
    smaller than the largest polynomial, which may be a summand of a
    later one.  Nothing of it outlives the call."""
    if keep_records and workers > 1:
        raise ValueError("keep_records=True needs workers=1")
    report = BatchReport(total=len(polynomials), truncated=truncated,
                         records=[] if keep_records else None)
    keep_below = (polynomials.nvars if isinstance(polynomials, Corpus)
                  else max((f.nvars for f in polynomials), default=0))
    positions = range(len(polynomials))
    # A pool of more processes than chunks leaves the rest idle.
    workers = min(workers, -(-len(positions) // _CHUNKSIZE))
    if workers > 1:
        import multiprocessing

        with multiprocessing.Pool(workers, _start_worker,
                                  (polynomials, keep_below)) as pool:
            outcomes = pool.map(_pooled_task, positions,
                                chunksize=_CHUNKSIZE)
    else:
        outcomes = map(partial(_verify_task, polynomials, keep_records,
                               AtomRecords(keep_below)), positions)
    for theorem_equal, corollary_equal, failures, record in outcomes:
        report.theorem_pass += theorem_equal
        report.theorem_fail += not theorem_equal
        if corollary_equal is not None:
            report.corollary_checked += 1
            report.corollary_pass += corollary_equal
            report.corollary_fail += not corollary_equal
        report.failures.extend(failures)
        if keep_records:
            report.records.append(record)
    return report
