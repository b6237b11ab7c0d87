"""Shared fixtures: the acceptance corpus and its verification run."""

import time

import pytest
from hypothesis import assume, strategies as st

from saitodual import (InvertiblePolynomial, determinant, generate_corpus,
                       run_batch)

ACCEPTANCE_RESULTS = []


def record_acceptance(number, name, passed):
    ACCEPTANCE_RESULTS.append((number, name, passed))
    return passed


@pytest.fixture(scope="session")
def corpus_sample():
    """A small mixed corpus for unit-level property checks."""
    corpus, _ = generate_corpus(3, 4, include_sums=True)
    return corpus[::3]


@pytest.fixture(scope="session")
def corpus45():
    """The acceptance corpus: all blocks and sums with <= 4 variables and
    exponents <= 5; no two are equal up to variable permutation."""
    corpus, truncated = generate_corpus(4, 5, include_sums=True)
    assert not truncated
    return corpus


@pytest.fixture(scope="session")
def batch45(corpus45):
    """Full verification run over the acceptance corpus, with per-poly
    records retained and the wall time recorded."""
    start = time.monotonic()
    report = run_batch(corpus45, keep_records=True)
    report.elapsed = time.monotonic() - start
    return report


def distinct_groups(batch, max_order):
    """Both-side presentations of the corpus, deduplicated by constraint
    matrix, restricted to the given order bound."""
    seen = {}
    for v in batch.records:
        for p in (v.theorem.rhs_report.group, v.theorem.lhs_report.group):
            if p.order <= max_order and p.constraint not in seen:
                seen[p.constraint] = p
    return list(seen.values())


def permuted(f, rng):
    """``f`` with its monomials and its variables each in a random order,
    drawn from ``rng``: a sum's blocks come interleaved."""
    rows = list(f.exponents.rows)
    rng.shuffle(rows)
    cols = list(range(f.nvars))
    rng.shuffle(cols)
    return InvertiblePolynomial([[row[j] for j in cols] for row in rows])


@st.composite
def sparse_invertible(draw):
    """A nonsingular non-negative n x n matrix, n <= 7: a nonzero
    diagonal, sparse entries off it (often none below it, so that many
    subsets contribute), then rows and columns permuted, so the diagonal
    of the result is often zero."""
    n = draw(st.integers(1, 7))
    lower = draw(st.booleans())
    entries = st.sampled_from([0, 0, 0, 0, 1, 2])
    rows = [[draw(st.integers(1, 4)) if i == j
             else 0 if lower and j < i else draw(entries)
             for j in range(n)] for i in range(n)]
    rp = draw(st.permutations(range(n)))
    cp = draw(st.permutations(range(n)))
    rows = [[rows[i][j] for j in cp] for i in rp]
    assume(determinant(rows) != 0)
    return rows


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for number, name, passed in sorted(ACCEPTANCE_RESULTS):
        status = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"criterion {number} ({name}): {status}")
