"""Corpus generation: block matrices, the corpus against the old
build-key-dedup procedure and the old list-and-sort, closed-form counts,
the spec bound, selection before building, determinism, batch engine."""

import copy
import itertools
import json
import multiprocessing
import random
import time
from collections import Counter

import pytest

from saitodual import enumeration, zeta
from saitodual.enumeration import (MAX_CORPUS_SPECS, Corpus,
                                   CorpusBoundError, _necklaces, atom_specs,
                                   build_polynomial, canonical_matrix_key,
                                   _failure_entry, chain_matrix,
                                   corpus_counts, generate_corpus,
                                   loop_matrix, run_batch,
                                   verify_polynomial)
from saitodual.linalg import IntMatrix, determinant
from saitodual.polynomials import (InvertiblePolynomial, _components,
                                   decompose)
from saitodual.burnside import CyclotomicProduct
from saitodual.zeta import (AtomRecords, DualPair, _records_verdict,
                            verify_root_duality, verify_zeta_duality)

from oracles import (brute_necklaces, dedup_corpus, list_combinations,
                     list_corpus)

# Every combination of --sums, --no-chains and --no-loops, as the keyword
# arguments of generate_corpus.
FLAGS = [dict(include_sums=sums, include_chains=chains, include_loops=loops)
         for sums, chains, loops in itertools.product([False, True],
                                                      repeat=3)]


def in_process_pool(monkeypatch):
    """Replace the process pool by one that runs its tasks in this
    process, so no process is started; returns the list of the process
    counts asked for."""
    asked = []

    class InProcessPool:
        def __init__(self, processes, initializer, initargs):
            asked.append(processes)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, task, positions, chunksize):
            return list(map(task, positions))

    monkeypatch.setattr(multiprocessing, "Pool", InProcessPool)
    monkeypatch.setattr(enumeration, "_worker_task", None)
    return asked


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

        def counting(specs, *matrices):
            calls.append(specs)
            return real(specs, *matrices)

        def refuse(e):
            raise AssertionError("generate_corpus computed a canonical key")

        monkeypatch.setattr(enumeration, "build_polynomial", counting)
        monkeypatch.setattr(enumeration, "canonical_matrix_key", refuse)
        return calls

    def test_sample_builds_only_the_sample(self, builds):
        start = time.perf_counter()
        corpus, truncated = generate_corpus(5, 5, include_sums=True,
                                            sample=300, seed=7)
        assert len(corpus) == 300 and not truncated
        assert builds == []
        members = list(corpus)
        elapsed = time.perf_counter() - start
        assert len(builds) == len(members) == 300
        # Building and keying all 9,260 members first takes about 8 s.
        assert elapsed < 1.0

    def test_limit_builds_only_the_prefix(self, builds):
        corpus, truncated = generate_corpus(5, 5, include_sums=True, limit=5)
        assert len(corpus) == 5 and truncated
        assert len(list(corpus)) == len(builds) == 5

    def test_full_corpus_builds_each_member_once(self, builds):
        corpus, _ = generate_corpus(4, 5, include_sums=True)
        assert builds == []
        assert len(list(corpus)) == len(builds) == 1576


class TestClosedFormCounts:
    """The spec and corpus counts come in closed form, with no list."""

    def test_necklaces_match_brute_force(self):
        for length in range(1, 7):
            for k in range(1, 9):
                values = range(2, 2 + k)
                assert list(_necklaces(length, values)) == \
                    list(brute_necklaces(length, values))

    def test_spec_counts_match_the_spec_table(self):
        # Every accepted bound, up to the largest spec table.
        for max_vars, max_exp in itertools.product(range(1, 9), range(2, 10)):
            for chains, loops in itertools.product([False, True], repeat=2):
                specs, _ = corpus_counts(max_vars, max_exp,
                                         include_chains=chains,
                                         include_loops=loops)
                if specs > MAX_CORPUS_SPECS:
                    continue
                assert specs == len(atom_specs(max_vars, max_exp, chains,
                                               loops))

    def test_corpus_counts_match_the_listing(self):
        # Every bound whose listing has at most 100,000 combinations,
        # under every combination of the flags.  The rank table counts
        # the same total.
        checked = 0
        for max_vars, max_exp in itertools.product(range(1, 9), range(2, 10)):
            if corpus_counts(max_vars, max_exp, include_sums=True)[1] > \
                    100_000:
                continue
            for flags in FLAGS:
                specs, size = corpus_counts(max_vars, max_exp, **flags)
                listed_specs, combos = list_combinations(max_vars, max_exp,
                                                         **flags)
                assert (specs, size) == (len(listed_specs), len(combos))
                corpus, _ = generate_corpus(max_vars, max_exp, **flags)
                assert corpus._ranking.starts[-1] == size
                checked += 1
        assert checked == 8 * 47

    def test_known_sizes(self):
        assert corpus_counts(5, 5, include_sums=True) == (1676, 9260)
        assert corpus_counts(6, 9, include_sums=True) == (351208, 2826384)
        assert corpus_counts(7, 9, include_sums=True) == (2747960, 31421016)


class TestAgainstListOracle:
    """``generate_corpus`` unranks what the old list-and-sort
    (``oracles.list_corpus``) listed, member by member."""

    @pytest.mark.parametrize("max_vars", range(1, 6))
    def test_every_small_bound(self, max_vars):
        for max_exp, flags in itertools.product(range(2, 6), FLAGS):
            corpus, truncated = generate_corpus(max_vars, max_exp, **flags)
            expected, _ = list_corpus(max_vars, max_exp, **flags)
            assert not truncated
            assert [f.exponents for f in corpus] == \
                [f.exponents for f in expected]

    @pytest.mark.parametrize("selection", [
        dict(sample=300, seed=3), dict(sample=300, seed=11, limit=40),
        dict(limit=0), dict(sample=0), dict(sample=0, limit=0),
        dict(sample=9260), dict(sample=10_000, limit=9259),
        dict(limit=9260), dict(limit=9261), dict(sample=1, seed=-4),
    ])
    def test_selection(self, selection):
        corpus, truncated = generate_corpus(5, 5, include_sums=True,
                                            **selection)
        expected, expected_truncated = list_corpus(5, 5, include_sums=True,
                                                   **selection)
        assert truncated == expected_truncated
        assert [f.exponents for f in corpus] == \
            [f.exponents for f in expected]

    @pytest.mark.parametrize("max_vars, flags", [
        (3, dict(include_chains=False, include_loops=False)),
        (1, dict(include_chains=False)),
        (1, dict(include_chains=False, include_sums=True)),
    ])
    def test_empty_corpus(self, max_vars, flags):
        for selection in ({}, dict(sample=3), dict(limit=2), dict(limit=0)):
            corpus, truncated = generate_corpus(max_vars, 4, **flags,
                                                **selection)
            assert len(corpus) == 0 and not truncated
            assert list(corpus) == [] and corpus.nvars == 0
        assert run_batch(corpus).to_json() == run_batch([]).to_json()

    def test_slices_are_corpora(self):
        corpus, _ = generate_corpus(4, 5, include_sums=True)
        part = corpus[100:200:7]
        assert isinstance(part, Corpus)
        assert [f.exponents for f in part] == \
            [corpus[i].exponents for i in range(100, 200, 7)]
        assert part.nvars == corpus[193].nvars
        with pytest.raises(IndexError):
            corpus[len(corpus)]


class TestPresetBlocks:
    """A built polynomial carries its blocks, with one shared matrix per
    spec, as ``_components`` would split them."""

    @pytest.mark.parametrize("max_vars, max_exp", [(4, 5), (5, 5)])
    def test_blocks_are_the_components(self, max_vars, max_exp):
        corpus, _ = generate_corpus(max_vars, max_exp, include_sums=True)
        shared = {}
        for f in corpus:
            preset = f._blocks
            assert [(b.matrix, b.rows, b.cols) for b in preset] == [
                (b.matrix, b.rows, b.cols)
                for b in _components(f.exponents)]
            for b in preset:
                assert shared.setdefault(b.matrix, b.matrix) is b.matrix
        assert len(shared) == corpus_counts(max_vars, max_exp)[0]

    @pytest.mark.parametrize("max_vars, max_exp", [(4, 5), (5, 5)])
    def test_built_sums_match_validated_polynomials(self, max_vars,
                                                    max_exp):
        # A member is built with no validation and no elimination: its
        # determinant is the product of its blocks', one per spec.
        corpus, _ = generate_corpus(max_vars, max_exp, include_sums=True)
        for f in corpus:
            g = InvertiblePolynomial(IntMatrix(f.exponents.rows))
            assert (f.exponents, f.det, f.variables) == (
                g.exponents, g.det, g.variables)


class TestCorpusBound:
    """A corpus of more than ``MAX_CORPUS_SPECS`` atom specs is refused
    from its closed-form counts, before any spec is listed."""

    @pytest.fixture
    def unlisted(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("an atom spec was listed")

        monkeypatch.setattr(enumeration, "atom_specs", refuse)

    @pytest.mark.parametrize("max_vars, specs, size", [
        (7, 2747960, 31421016), (8, 21622860, 343255152)])
    def test_refused_with_counts(self, unlisted, max_vars, specs, size):
        start = time.perf_counter()
        with pytest.raises(CorpusBoundError) as info:
            generate_corpus(max_vars, 9, include_sums=True, limit=1)
        assert time.perf_counter() - start < 0.1
        assert (info.value.specs, info.value.size) == (specs, size)

    def test_bound_is_inclusive(self, monkeypatch):
        specs, size = corpus_counts(3, 4, include_sums=True)
        monkeypatch.setattr(enumeration, "MAX_CORPUS_SPECS", specs)
        corpus, _ = generate_corpus(3, 4, include_sums=True)
        assert len(corpus) == size
        monkeypatch.setattr(enumeration, "MAX_CORPUS_SPECS", specs - 1)
        with pytest.raises(CorpusBoundError):
            generate_corpus(3, 4, include_sums=True)

    def test_largest_accepted_spec_table(self):
        corpus, truncated = generate_corpus(6, 9, include_sums=True, limit=1)
        assert truncated and len(corpus) == 1
        assert corpus[0].text() == "x1^2"


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

    @pytest.mark.parametrize("size, workers, processes", [
        (1, 64, None), (0, 2, None), (8, 2, None), (9, 2, 2), (17, 64, 3),
        (24, 2, 2)])
    def test_pool_has_one_process_per_chunk(self, monkeypatch, size,
                                            workers, processes):
        # The pool has at most one process per chunk of positions, and a
        # batch of one chunk or none runs serially.  The pool is replaced
        # by one that runs its tasks in this process, so no process is
        # started.
        asked = in_process_pool(monkeypatch)
        corpus, _ = generate_corpus(2, 4, include_sums=True)
        assert len(corpus) == 24
        members = corpus[:size]
        report = run_batch(members, workers=workers)
        assert asked == ([] if processes is None else [processes])
        assert report.to_json() == run_batch(members).to_json()
        assert report.total == size

    def test_failing_block_fails_every_member_that_holds_it(
            self, monkeypatch):
        # The batch's record of the chain x^2*y + y^3 (``records``), then
        # that of its transpose x^2 + x*y^3 (``records_t``), is a copy
        # with one merged coefficient negated, as one block's record is
        # perturbed in test_zeta's test_failing_check_reports_the_transform.
        # The batch reads it through its spec table, as the pair checks
        # read it through their records.  The zeta duality fails for
        # exactly the members with that block on either side, each
        # failure entry is the one their reports give when built before
        # either check (the cyclicity read off the whole group), and a
        # pool writes the same bytes.
        chain = chain_matrix((2, 3))
        corpus, _ = generate_corpus(3, 4, include_sums=True)
        for side in ("records", "records_t"):
            (record,) = getattr(DualPair(InvertiblePolynomial(chain)), side)
            block = chain if side == "records" else chain.transpose()
            perturbed = copy.copy(record)
            (rows, c, r, index), *rest = record.merged
            perturbed.merged = ((rows, -c, r, index), *rest)

            class Perturbed(AtomRecords):
                def __init__(self, keep_below, _block=block,
                             _record=perturbed):
                    super().__init__(keep_below)
                    self[_block] = _record

            monkeypatch.setattr(enumeration, "AtomRecords", Perturbed)
            holders = [f.text() for f in corpus
                       if block in {b.matrix
                                    for e in (f.exponents,
                                              f.exponents.transpose())
                                    for b in _components(e)}]
            serial = run_batch(corpus)
            assert serial.theorem_fail == len(holders) == 4
            assert [entry["polynomial"] for entry in serial.failures
                    if entry["kind"] == "theorem"] == holders
            atoms = Perturbed(corpus.nvars)
            expected = []
            for f in corpus:
                pair = DualPair(f, atoms)
                for rep in (pair.report, pair.report_t):
                    rep.to_json()
                checks = [("theorem", verify_zeta_duality(pair))]
                if pair.group.is_cyclic:
                    checks.append(("corollary", verify_root_duality(pair)))
                expected += [_failure_entry(f, kind, check)
                             for kind, check in checks if not check.equal]
            assert serial.failures == expected
            in_process_pool(monkeypatch)
            pooled = run_batch(corpus, workers=2)
            assert pooled.failures == expected
            assert (json.dumps(pooled.to_json())
                    == json.dumps(serial.to_json()))

    def test_pool_workers_build_their_own_members(self, monkeypatch):
        # Workers take the corpus when they start and are sent positions:
        # the calling process builds no member, and a list gives the
        # same report as the corpus it was read from.
        corpus, _ = generate_corpus(5, 5, include_sums=True, sample=60,
                                    seed=5)
        members = list(corpus)
        builds = []
        real = enumeration.build_polynomial
        monkeypatch.setattr(enumeration, "build_polynomial",
                            lambda *args: builds.append(args) or real(*args))
        pooled = run_batch(corpus, workers=2)
        assert builds == []
        serial = run_batch(members)
        assert json.dumps(pooled.to_json()) == json.dumps(serial.to_json())
        assert run_batch(members, workers=2).to_json() == serial.to_json()


class TestSpecTable:
    """``run_batch`` over a ``Corpus`` decides each member from its specs'
    records (``enumeration._spec_records``), with the records-level steps
    of both checks (``zeta._records_verdict``); it builds a member only
    when they do not decide it."""

    @pytest.fixture(params=["corpus45", "sample55"])
    def corpus(self, request, corpus45):
        if request.param == "corpus45":
            return corpus45
        corpus, _ = generate_corpus(5, 5, include_sums=True, sample=300,
                                    seed=13)
        return corpus

    def test_spec_verdicts_match_verify_polynomial(self, corpus,
                                                   monkeypatch):
        # The verdicts read off the spec table equal those of
        # ``verify_polynomial`` on each built member, whose records are
        # made by its own pairs (with an atom cache of their own, so the
        # two share no record); the batch gives the same bytes over the
        # corpus, over the list of its members and in a pool.
        atoms = AtomRecords(corpus.nvars)
        oracle_atoms = AtomRecords(corpus.nvars)
        cyclic = 0
        for i, f in enumerate(corpus):
            records, records_t, sizes = zip(*(
                enumeration._spec_records(atoms, spec,
                                      corpus._ranking.matrices)
                for spec in corpus._specs(i)))
            assert sum(sizes) == f.nvars
            v = verify_polynomial(f, oracle_atoms)
            expected = (v.theorem.equal, None if v.corollary is None
                        else v.corollary.equal)
            assert _records_verdict(records, records_t, f.nvars) == expected
            cyclic += v.corollary is not None
        assert 0 < cyclic < len(corpus)
        serial = json.dumps(run_batch(corpus).to_json())
        assert json.dumps(run_batch(list(corpus)).to_json()) == serial
        in_process_pool(monkeypatch)
        assert json.dumps(run_batch(corpus, workers=2).to_json()) == serial

    def test_failing_root_duality_falls_back_to_the_pair(self,
                                                          monkeypatch):
        # With the classical transform replaced by the identity, the root
        # duality fails for most cyclic members of the (3,4) sums corpus.
        # Their records do not decide them, so each is built and checked
        # by ``verify_polynomial``: the batch's entries are those its
        # pairs write, serially and pooled.
        monkeypatch.setattr(zeta, "classical_saito_dual", lambda phi: phi)
        corpus, _ = generate_corpus(3, 4, include_sums=True)
        serial = run_batch(corpus)
        atoms = AtomRecords()
        expected = []
        for f in corpus:
            v = verify_polynomial(f, atoms)
            assert v.theorem.equal
            if v.corollary is not None and not v.corollary.equal:
                expected.append(_failure_entry(f, "corollary", v.corollary))
        assert serial.theorem_fail == 0
        assert serial.corollary_fail == len(expected) > 0
        assert serial.corollary_pass > 0
        assert serial.failures == expected
        in_process_pool(monkeypatch)
        assert (json.dumps(run_batch(corpus, workers=2).to_json())
                == json.dumps(serial.to_json()))

    def test_passing_batch_builds_no_member(self, monkeypatch):
        # A passing batch over the (3,4) sums corpus builds no polynomial,
        # no pair and no validated cyclotomic product: the root duality's
        # products are built trusted.
        counts = Counter()
        real_build = enumeration.build_polynomial
        monkeypatch.setattr(
            enumeration, "build_polynomial",
            lambda *args: counts.update(["build"]) or real_build(*args))
        for cls, name in ((DualPair, "pair"), (CyclotomicProduct, "product")):
            init = cls.__init__
            monkeypatch.setattr(
                cls, "__init__",
                lambda self, *args, _init=init, _name=name:
                counts.update([_name]) or _init(self, *args))
        corpus, _ = generate_corpus(3, 4, include_sums=True)
        report = run_batch(corpus)
        assert report.ok and report.corollary_checked > 0
        assert counts == {}

    def test_spec_table_keeps_no_spec_of_the_largest_size(self, monkeypatch):
        # Like the atom records, the spec table keeps the specs smaller
        # than the batch's largest member: after a (4,5) batch, every
        # spec on at most 3 variables and none on 4, each with the
        # records the batch keeps for its block and its transpose, the
        # block being the corpus's matrix of that spec.
        made = []

        class Recorded(AtomRecords):
            def __init__(self, keep_below=0):
                super().__init__(keep_below)
                made.append(self)

        monkeypatch.setattr(enumeration, "AtomRecords", Recorded)
        corpus, _ = generate_corpus(4, 5, include_sums=True)
        assert run_batch(corpus).ok
        (atoms,) = made
        assert atoms.keep_below == 4
        assert set(atoms.specs) == {spec for spec in atom_specs(4, 5)
                                    if len(spec[1]) < 4}
        for spec, (record, record_t, nvars) in atoms.specs.items():
            e, _ = corpus._ranking.matrices[spec]
            assert nvars == len(spec[1])
            assert atoms[e] is record and atoms[e.transpose()] is record_t
