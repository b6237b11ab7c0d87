"""Corpus generation and the batch duality-verification harness.

Generates every loop and chain block with exponents in [2, max_exp] on at
most max_vars variables and, optionally, every direct (Thom-Sebastiani) sum
of such blocks, then runs the two duality verifiers over the result.

The corpus has no duplicates by construction: a loop/chain decomposition
with exponents >= 2 is unique up to relabeling (Kreuzer-Skarke, "On the
classification of quasihomogeneous functions", CMP 1992), chains are
emitted head to tail, loops as their least rotation and sums as multisets
of blocks.  The corpus is ordered by (nvars, sorted atom signatures);
``--sample`` and ``--limit`` select from that order before any polynomial
is built.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from functools import partial

from .linalg import IntMatrix
from .polynomials import InvertiblePolynomial
from .zeta import (AtomRecords, DualPair, _polynomial_head,
                   verify_root_duality, verify_zeta_duality)


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
    """Tuples over ``values`` up to cyclic rotation (canonical = minimal
    rotation); relabeling a loop's variables only rotates its exponents."""
    for tup in itertools.product(values, repeat=length):
        if all(tup <= tup[k:] + tup[:k] for k in range(1, length)):
            yield tup


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


def build_polynomial(specs):
    """Direct sum of the given blocks, on variables x1..xn."""
    blocks = [chain_matrix(ps) if kind == "chain" else loop_matrix(ps)
              for kind, ps in specs]
    n = sum(b.nrows for b in blocks)
    rows = [[0] * n for _ in range(n)]
    offset = 0
    for b in blocks:
        for i in range(b.nrows):
            for j in range(b.ncols):
                rows[offset + i][offset + j] = b.entry(i, j)
        offset += b.nrows
    return InvertiblePolynomial(IntMatrix(rows))


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
    """Polynomial corpus ordered by (nvars, sorted atom signatures).

    Works on block combinations and builds only the polynomials it
    returns, each from its blocks in ``atom_specs`` order.  ``sample``
    draws that many combinations pseudo-randomly (seeded, so reproducible)
    and keeps them in corpus order; ``limit`` then keeps a prefix.
    Returns (polynomials, truncated); ``truncated`` is True when ``limit``
    cut the list short.
    """
    specs = atom_specs(max_vars, max_exp, include_chains, include_loops)
    sizes = [len(ps) for _, ps in specs]
    combos = [(i,) for i in range(len(specs))]
    if include_sums:
        by_size = sorted(range(len(specs)), key=sizes.__getitem__)

        def extend(start, used, acc):
            for k in range(start, len(by_size)):
                i = by_size[k]
                if used + sizes[i] > max_vars:
                    break
                acc.append(i)
                if len(acc) >= 2:
                    combos.append(tuple(sorted(acc)))
                extend(k, used + sizes[i], acc)
                acc.pop()

        extend(0, 0, [])
    combos.sort(key=lambda c: (sum(sizes[i] for i in c),
                               sorted(specs[i] for i in c)))
    if sample is not None and sample < len(combos):
        picks = random.Random(seed).sample(range(len(combos)), sample)
        combos = [combos[i] for i in sorted(picks)]
    truncated = False
    if limit is not None and len(combos) > limit:
        combos = combos[:limit]
        truncated = True
    return ([build_polynomial([specs[i] for i in c]) for c in combos],
            truncated)


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


def _verify_task(keep_record, atoms, f):
    """Verify one polynomial: (theorem equal, corollary equal or None when
    unchecked, failure entries, the record when ``keep_record``)."""
    v = verify_polynomial(f, atoms)
    failures = []
    if not v.theorem.equal:
        failures.append(_failure_entry(f, "theorem", v.theorem))
    if v.corollary is not None and not v.corollary.equal:
        failures.append(_failure_entry(f, "corollary", v.corollary))
    return (v.theorem.equal,
            v.corollary.equal if v.corollary is not None else None,
            failures, v if keep_record else None)


# A pool worker's task, with that process's own atom cache; set by
# ``_start_worker`` in each worker, never in the calling process.
_worker_task = None


def _start_worker(keep_below):
    global _worker_task
    _worker_task = partial(_verify_task, False, AtomRecords(keep_below))


def _pooled_task(f):
    return _worker_task(f)


def run_batch(polynomials, workers=1, keep_records=False, truncated=False):
    """Verify every polynomial, in a pool when ``workers`` > 1; aggregation
    order follows the input order, so sorted input gives byte-stable
    reports.  Pool workers send back no records.

    The polynomials share one ``zeta.AtomRecords``, made for this call:
    one per worker process in a pool.  It keeps the record of each block
    smaller than the largest polynomial, which may be a summand of a
    later one.  Nothing of it outlives the call."""
    if keep_records and workers > 1:
        raise ValueError("keep_records=True needs workers=1")
    report = BatchReport(total=len(polynomials), truncated=truncated,
                         records=[] if keep_records else None)
    keep_below = max((f.nvars for f in polynomials), default=0)
    if workers > 1:
        import multiprocessing

        with multiprocessing.Pool(workers, _start_worker,
                                  (keep_below,)) as pool:
            outcomes = pool.map(_pooled_task, polynomials, chunksize=8)
    else:
        outcomes = map(partial(_verify_task, keep_records,
                               AtomRecords(keep_below)), polynomials)
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
