"""Corpus generation: block matrices, the corpus against the old
build-key-dedup procedure, selection before building, determinism, batch
engine."""

import random
import time
from collections import Counter

import pytest

from saitodual import enumeration
from saitodual.enumeration import (atom_specs, build_polynomial,
                                   canonical_matrix_key, chain_matrix,
                                   generate_corpus, loop_matrix, run_batch)
from saitodual.linalg import IntMatrix, determinant
from saitodual.polynomials import decompose

from oracles import dedup_corpus


def matrices(corpus):
    """Multiset of exact exponent matrices (not up to permutation)."""
    return Counter(f.exponents.rows for f in corpus)


class TestBlockMatrices:
    def test_chain_matrix(self):
        assert chain_matrix([3, 3]) == IntMatrix([[3, 1], [0, 3]])
        assert chain_matrix([5]) == IntMatrix([[5]])

    def test_loop_matrix(self):
        assert loop_matrix([2, 2]) == IntMatrix([[2, 1], [1, 2]])
        assert loop_matrix([2, 3, 4]) == \
            IntMatrix([[2, 1, 0], [0, 3, 1], [1, 0, 4]])

    def test_determinants(self):
        # Chains multiply their exponents; loops add (-1)^(m+1).
        assert determinant(chain_matrix([2, 3, 4])) == 24
        assert determinant(loop_matrix([2, 3, 4])) == 25
        assert determinant(loop_matrix([2, 3])) == 5

    def test_blocks_round_trip_through_decompose(self):
        f = build_polynomial([("chain", (3, 2)), ("loop", (2, 4))])
        dec = decompose(f)
        assert dec.non_degenerate
        assert sorted(a.signature() for a in dec.atoms) == \
            [("chain", (3, 2)), ("loop", (2, 4))]


class TestAtomSpecs:
    def test_counts_at_acceptance_bounds(self):
        chains = atom_specs(4, 5, include_loops=False)
        assert len(chains) == 4 + 16 + 64 + 256
        loops = atom_specs(4, 5, include_chains=False)
        # Necklace counts over 4 symbols: 10 + 24 + 70.
        assert len(loops) == 104

    def test_loops_deduplicated_up_to_rotation(self):
        loops = {ps for kind, ps in atom_specs(3, 9, include_chains=False)
                 if len(ps) == 3}
        assert (2, 3, 4) in loops
        assert (3, 4, 2) not in loops
        assert (4, 2, 3) not in loops


class TestCanonicalKey:
    def test_invariant_under_permutations(self):
        rng = random.Random(5)
        f = build_polynomial([("chain", (3, 2)), ("loop", (2, 4))])
        e = f.exponents
        key = canonical_matrix_key(e)
        n = e.ncols
        for _ in range(20):
            rperm = list(range(n))
            cperm = list(range(n))
            rng.shuffle(rperm)
            rng.shuffle(cperm)
            shuffled = IntMatrix([[e.entry(i, j) for j in cperm]
                                  for i in rperm])
            assert canonical_matrix_key(shuffled) == key

    def test_separates_distinct_classes(self):
        a = canonical_matrix_key(chain_matrix([2, 3]))
        b = canonical_matrix_key(chain_matrix([3, 2]))
        c = canonical_matrix_key(loop_matrix([2, 3]))
        assert len({a, b, c}) == 3


class TestGenerateCorpus:
    def test_acceptance_scale_count(self):
        corpus, truncated = generate_corpus(4, 5, include_sums=True)
        assert not truncated
        assert len(corpus) == 1576
        assert len(corpus) >= 500

    def test_deterministic_order(self):
        a, _ = generate_corpus(3, 3, include_sums=True)
        b, _ = generate_corpus(3, 3, include_sums=True)
        assert [f.text() for f in a] == [f.text() for f in b]
        sizes = [f.nvars for f in a]
        assert sizes == sorted(sizes)

    def test_transpose_closed_up_to_permutation(self):
        corpus, _ = generate_corpus(3, 3, include_sums=True)
        keys = {canonical_matrix_key(f.exponents) for f in corpus}
        for f in corpus:
            assert canonical_matrix_key(f.transpose().exponents) in keys

    def test_dedup_covers_reversed_chains_only_once(self):
        corpus, _ = generate_corpus(2, 3, include_sums=False)
        texts = [f.text() for f in corpus]
        assert len(texts) == len(set(texts))
        # chain(2,3) and chain(3,2) are genuinely different classes.
        keys = {canonical_matrix_key(f.exponents) for f in corpus}
        assert canonical_matrix_key(chain_matrix([2, 3])) in keys
        assert canonical_matrix_key(chain_matrix([3, 2])) in keys

    def test_limit_and_sample(self):
        full, _ = generate_corpus(2, 3, include_sums=True)
        limited, truncated = generate_corpus(2, 3, include_sums=True, limit=5)
        assert truncated and len(limited) == 5
        assert [f.text() for f in limited] == [f.text() for f in full[:5]]
        sampled, truncated = generate_corpus(2, 3, include_sums=True,
                                             sample=4, seed=9)
        assert not truncated and len(sampled) == 4
        again, _ = generate_corpus(2, 3, include_sums=True, sample=4, seed=9)
        assert [f.text() for f in sampled] == [f.text() for f in again]


class TestAgainstDedupOracle:
    """``generate_corpus`` never keys or deduplicates; the old procedure
    (build all, key by ``canonical_matrix_key``, dedup, sort) is the oracle.
    """

    @pytest.mark.parametrize("max_vars, max_exp, chains, loops", [
        (3, 4, True, True),
        (4, 5, True, True),
        (5, 4, True, True),
        (4, 5, False, True),
        (4, 5, True, False),
    ])
    def test_same_matrices_and_no_duplicates(self, max_vars, max_exp,
                                             chains, loops):
        flags = dict(include_sums=True, include_chains=chains,
                     include_loops=loops)
        corpus, truncated = generate_corpus(max_vars, max_exp, **flags)
        expected, built = dedup_corpus(max_vars, max_exp, **flags)
        assert not truncated
        assert matrices(corpus) == matrices(expected)
        # Every polynomial the old procedure built had its own key, so its
        # dedup removed nothing.
        assert len(expected) == built == len(corpus)

    def test_order_is_nvars_then_sorted_signatures(self):
        corpus, _ = generate_corpus(3, 4, include_sums=True)
        keys = [(f.nvars,
                 tuple(sorted(a.signature() for a in decompose(f).atoms)))
                for f in corpus]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)


class TestSelectBeforeBuild:
    """``--sample`` and ``--limit`` pick block combinations; only the
    picked ones are built, and no canonical key is computed."""

    @pytest.fixture
    def builds(self, monkeypatch):
        calls = []
        real = enumeration.build_polynomial

        def counting(specs):
            calls.append(specs)
            return real(specs)

        def refuse(e):
            raise AssertionError("generate_corpus computed a canonical key")

        monkeypatch.setattr(enumeration, "build_polynomial", counting)
        monkeypatch.setattr(enumeration, "canonical_matrix_key", refuse)
        return calls

    def test_sample_builds_only_the_sample(self, builds):
        start = time.perf_counter()
        corpus, truncated = generate_corpus(5, 5, include_sums=True,
                                            sample=300, seed=7)
        elapsed = time.perf_counter() - start
        assert len(corpus) == 300 and not truncated
        assert len(builds) == 300
        # Building and keying all 9,260 members first takes about 8 s.
        assert elapsed < 1.0

    def test_limit_builds_only_the_prefix(self, builds):
        corpus, truncated = generate_corpus(5, 5, include_sums=True, limit=5)
        assert len(corpus) == 5 and truncated
        assert len(builds) == 5

    def test_full_corpus_builds_each_member_once(self, builds):
        corpus, _ = generate_corpus(4, 5, include_sums=True)
        assert len(corpus) == len(builds) == 1576


class TestRunBatch:
    def test_small_batch_counts(self):
        corpus, _ = generate_corpus(2, 3, include_sums=True)
        report = run_batch(corpus, keep_records=True)
        assert report.total == 12
        assert report.theorem_pass == 12
        assert report.theorem_fail == 0
        assert report.corollary_checked == 10
        assert report.corollary_fail == 0
        assert report.failures == []
        assert len(report.records) == 12
        assert report.ok

    def test_parallel_matches_serial(self):
        corpus, _ = generate_corpus(2, 4, include_sums=True)
        serial = run_batch(corpus)
        parallel = run_batch(corpus, workers=2)
        assert serial.to_json() == parallel.to_json()
        with pytest.raises(ValueError):
            run_batch(corpus, workers=2, keep_records=True)
