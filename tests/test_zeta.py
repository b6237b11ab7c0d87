"""Equivariant/classical zeta functions, duality verifiers, Milnor numbers."""

import contextlib
import copy
import dataclasses
import io
import itertools
import json
import time
from collections import Counter
from math import prod

import pytest
from hypothesis import example, given, settings

import saitodual
from saitodual.burnside import (BurnsideElement, CyclotomicProduct,
                                element_zeta, restrict, saito_dual)
from saitodual import enumeration
from saitodual.cli import main
from saitodual.enumeration import generate_corpus, run_batch
from saitodual.errors import DegenerateError, NonCyclicError
from saitodual.groups import (SubgroupKey, enumerate_subgroups,
                              full_subgroup, monodromy_element,
                              subgroup_generated_by, symmetry_group,
                              trivial_subgroup)
from saitodual.linalg import IntMatrix
from saitodual.polynomials import (InvertiblePolynomial, _blocks_of,
                                   _components, parse_polynomial)
from saitodual.zeta import (MAX_REPORT_ENTRIES, AtomRecords, DualPair,
                            _complement_subsets, _contributing_subsets,
                            _subsets_of,
                            classical_saito_dual, classical_zeta,
                            equivariant_zeta, milnor_number,
                            verify_root_duality, verify_zeta_duality)

from conftest import sparse_invertible
from oracles import direct_equivariant_zeta


class TestEquivariantZeta:
    def test_fermat(self):
        f = parse_polynomial("x^5")
        rep = equivariant_zeta(f)
        p = rep.group
        scope = full_subgroup(p)
        assert rep.equivariant == BurnsideElement.orbit(
            scope, trivial_subgroup(p))
        assert rep.reduced == rep.equivariant - BurnsideElement.unit(scope)

    def test_chain_example(self):
        f = parse_polynomial("x^3*y + y^3")
        rep = equivariant_zeta(f)
        subs = {s.order: s for s in enumerate_subgroups(rep.group)}
        scope = full_subgroup(rep.group)
        expected = BurnsideElement.orbit(scope, subs[3]) \
            - BurnsideElement.orbit(scope, subs[1])
        assert rep.equivariant == expected
        # Subsets: {2} contributes +, {1} nothing, {1,2} contributes -.
        contributions = {t.indices: t.coefficient for t in rep.subset_terms}
        assert contributions == {(1,): 1, (0, 1): -1}

    def test_interleaved_audit_signs_the_shuffles(self):
        # {"E": [[0, 3], [2, 0]]} is x2^3 + x1^2: two blocks whose
        # monomials come in the opposite order to their variables.  The
        # torus Euler characteristic of I = {x1, x2} is -det E = 6; the
        # product of the blocks' 2 and 3 without the sign of the shuffle
        # that merges their monomials would give -6.
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["zeta", '{"E": [[0,3],[2,0]]}', "--json"]) == 0
        terms = json.loads(out.getvalue())["result"]["perSubsetTerms"]
        assert terms == [
            {"I": [1], "coefficient": 1,
             "isotropy": {"basis": [6, 0, 0, 2], "order": 3},
             "torusEuler": 2, "variables": ["x1"]},
            {"I": [2], "coefficient": 1,
             "isotropy": {"basis": [3, 0, 0, 6], "order": 2},
             "torusEuler": 3, "variables": ["x2"]},
            {"I": [1, 2], "coefficient": -1,
             "isotropy": {"basis": [6, 0, 0, 6], "order": 1},
             "torusEuler": 6, "variables": ["x1", "x2"]},
        ]

    def test_z6_example(self):
        f = parse_polynomial("x^3 + x*y^2")
        rep = equivariant_zeta(f)
        subs = {s.order: s for s in enumerate_subgroups(rep.group)}
        scope = full_subgroup(rep.group)
        assert rep.equivariant == BurnsideElement.orbit(scope, subs[2]) \
            - BurnsideElement.orbit(scope, subs[1])

    def test_full_subset_term(self, corpus_sample):
        # The all-variables subset always contributes (-1)^(n-1) with
        # trivial isotropy.
        for f in corpus_sample:
            rep = equivariant_zeta(f)
            n = f.nvars
            full_term = next(t for t in rep.subset_terms
                             if len(t.indices) == n)
            assert full_term.coefficient == (1 if n % 2 else -1)
            assert full_term.isotropy.is_trivial()

    def test_isotropy_orders_match_block_determinants(self, corpus_sample):
        # |G^I| equals |det of the complementary block|.
        from saitodual.linalg import determinant
        for f in corpus_sample:
            e = f.exponents
            n = f.nvars
            rep = equivariant_zeta(f)
            for t in rep.subset_terms:
                if len(t.indices) == n:
                    assert t.isotropy.order == 1
                    continue
                inside = set(t.indices)
                rows_in = [i for i in range(n)
                           if all(e.entry(i, j) == 0
                                  for j in range(n) if j not in inside)]
                comp_rows = [i for i in range(n) if i not in rows_in]
                comp_cols = [j for j in range(n) if j not in inside]
                block = e.submatrix(comp_rows, comp_cols)
                assert t.isotropy.order == abs(determinant(block))


def subset_loop(e):
    """(I, rows inside I) for every nonempty subset I with as many rows
    supported inside it as it has variables: the loop over all 2^n
    subsets that ``_contributing_subsets`` replaced."""
    n = e.nrows
    support = [{j for j in range(n) if e.entry(i, j)} for i in range(n)]
    for k in range(1, n + 1):
        for subset in itertools.combinations(range(n), k):
            rows_in = [i for i in range(n) if support[i] <= set(subset)]
            if len(rows_in) == k:
                yield subset, rows_in


class TestContributingSubsets:
    @settings(max_examples=300, deadline=None)
    @given(sparse_invertible())
    # x1^2*x3 + x2^3 + x3^3, and rows given out of diagonal order.
    @example([[2, 0, 1], [0, 3, 0], [0, 0, 3]])
    @example([[0, 3, 0], [2, 0, 1], [0, 0, 3]])
    @example([[1, 1], [1, 2]])
    def test_matches_subset_loop(self, rows):
        e = IntMatrix(rows)
        assert _contributing_subsets(e) == list(subset_loop(e))

    @settings(max_examples=300, deadline=None)
    @given(sparse_invertible())
    @example([[2, 0, 0, 3], [0, 2, 0, 3], [0, 0, 0, 3], [0, 0, 2, 2]])
    @example([[1]])
    def test_transpose_takes_the_complements(self, rows):
        # The pairs of E^T are (R', I') for the pairs (I, R) of E short of
        # every variable, and the full set; a transposed block reads its
        # own off its partner's, with no listing of its own.
        e = IntMatrix(rows)
        n = e.nrows
        subsets = _contributing_subsets(e)
        expected = _contributing_subsets(e.transpose())
        assert _complement_subsets(subsets, n) == expected
        assert _complement_subsets(expected, n) == subsets
        blocks = _components(e)
        if len(blocks) == 1:
            assert _subsets_of(blocks[0].transpose()) == expected
            assert blocks[0].subsets == subsets

    def test_chain_lists_only_its_suffixes(self):
        # x1^2*x2 + ... + x21^2*x22 + x22^2: 22 entries, not a loop over
        # 2^22 subsets.
        n = 22
        f = parse_polynomial(" + ".join(
            [f"x{i}^2*x{i + 1}" for i in range(1, n)] + [f"x{n}^2"]))
        rep = equivariant_zeta(f)
        assert [t.indices for t in rep.subset_terms] == [
            tuple(range(n - k, n)) for k in range(1, n + 1)]


class TestClassicalZeta:
    def test_fermat(self):
        assert classical_zeta(parse_polynomial("x^3")) == \
            CyclotomicProduct(3, {3: 1})

    def test_chain(self):
        phi = classical_zeta(parse_polynomial("x^3*y + y^3"))
        assert phi == CyclotomicProduct(9, {3: 1, 9: -1})
        assert phi.format() == "(1-t^3)(1-t^9)^-1"

    def test_z6(self):
        phi = classical_zeta(parse_polynomial("x^3 + x*y^2"))
        assert phi == CyclotomicProduct(3, {3: -1})
        assert phi.format() == "(1-t^3)^-1"

    def test_two_paths_agree_via_restriction(self, corpus_sample):
        # Restricting the equivariant zeta to the subgroup generated by the
        # monodromy element and evaluating there gives the same answer.
        for f in corpus_sample[:15]:
            rep = equivariant_zeta(f)
            h = monodromy_element(f, rep.group)
            hk = subgroup_generated_by(rep.group, [h])
            assert element_zeta(h, restrict(rep.equivariant, hk)) == \
                rep.classical


class TestClassicalSaitoDual:
    def test_single_factor(self):
        phi = CyclotomicProduct(8, {8: 1})
        assert classical_saito_dual(phi) == CyclotomicProduct(8, {1: -1})

    def test_involution(self):
        phi = CyclotomicProduct(12, {1: -1, 2: 3, 12: -2})
        assert classical_saito_dual(classical_saito_dual(phi)) == phi

    def test_z6_hand_computation(self):
        phi = CyclotomicProduct(6, {3: 1, 6: -1, 1: -1})
        assert classical_saito_dual(phi) == \
            CyclotomicProduct(6, {2: -1, 1: 1, 6: 1})


class TestZetaDuality:
    def test_fermat_self_dual(self):
        report = verify_zeta_duality(DualPair(parse_polynomial("x^5")))
        assert report.kind == "theorem"
        assert report.equal
        assert report.witness is None

    def test_chain_example(self):
        f = parse_polynomial("x^3*y + y^3")
        report = verify_zeta_duality(DualPair(f))
        assert report.equal
        # lhs is the transposed-side reduced zeta: [G*/Z3] - [G*/e] - 1.
        orders = sorted((k.order, c) for k, c in report.lhs.terms.items())
        assert orders == [(1, -1), (3, 1), (9, -1)]

    def test_even_variable_count(self):
        pair = DualPair(parse_polynomial("x^3 + x*y^2"))
        assert verify_zeta_duality(pair).equal

    def test_sign_matters(self):
        # Forcing the wrong sign must break equality: the check is exact.
        f = parse_polynomial("x^5")
        rep = equivariant_zeta(f)
        rep_t = equivariant_zeta(f.transpose())
        assert rep_t.reduced != saito_dual(rep.reduced)
        assert rep_t.reduced == -1 * saito_dual(rep.reduced)

    @pytest.mark.parametrize("text", [
        "x^3*y + y^5*x + z^2",          # Z2 x Z14, odd n
        "x^3*y + y^5*x + z^2*w + w^3",  # Z2 x Z42, even n
        "x^3*y + y^3",                  # one block, Z9
    ])
    def test_failing_check_reports_the_transform(self, text, monkeypatch):
        # Three perturbations of one side's product form: the transposed
        # side rebuilt from a copy of one block's record with a
        # coefficient negated or a merged subgroup dropped, and the
        # direct side with one entry of a block's dual map dropped.  The
        # first two fail, and only then build the transform, for the
        # right side and the witness exactly as the materialized
        # comparison gives them.  The dropped dual misses on the product
        # forms, so the transform is built too, and decides: the check
        # passes, with the passing report's bytes.
        pair = DualPair(parse_polynomial(text))
        rep, rep_t = pair.report, pair.report_t
        sign = -1 if pair.f.nvars % 2 else 1
        passing = verify_zeta_duality(pair)
        assert passing.equal
        blocks_t = [block.matrix for block in _blocks_of(pair.ft)]
        last = len(blocks_t) - 1

        def rebuilt_t(merged):
            atoms = AtomRecords()
            atoms.update(zip(blocks_t, rep_t._records))
            record = atoms[blocks_t[last]] = copy.copy(rep_t._records[last])
            record.merged = merged(record.merged)
            return equivariant_zeta(pair.ft, pair.group_t, atoms)

        negated = rebuilt_t(lambda m: ((m[0][0], -m[0][1]) + m[0][2:],)
                            + m[1:])
        dropped = rebuilt_t(lambda m: m[:-1])
        record = copy.copy(rep._records[last])
        record._dual_map = record.dual_map(rep_t._records[last])[:-1] + (
            None,)
        unpaired = dataclasses.replace(
            rep, _records=rep._records[:last] + (record,))
        counts = count_calls(monkeypatch, "saito_dual")
        for side, side_t in ((rep, negated), (rep, dropped)):
            pair.report, pair.report_t = side, side_t
            report = verify_zeta_duality(pair)
            lhs = side_t.reduced
            transform = sign * saito_dual(side.reduced)
            assert not report.equal
            assert report.lhs == lhs and report.rhs == transform
            assert report.witness == {
                "difference": (lhs - transform).to_json()}
            expected = {"kind": "theorem", "lhs": lhs.to_json(),
                        "rhs": transform.to_json(), "equal": False,
                        "witness": report.witness,
                        "lhsReport": side_t.to_json(),
                        "rhsReport": side.to_json()}
            assert (json.dumps(report.to_json(include_reports=True))
                    == json.dumps(expected))
        pair.report, pair.report_t = unpaired, rep_t
        report = verify_zeta_duality(pair)
        assert report.equal and report.witness is None
        assert (json.dumps(report.to_json(include_reports=True))
                == json.dumps(passing.to_json(include_reports=True)))
        # Negating or dropping a term changes the transposed side; a
        # dropped dual leaves both sides as they were.
        assert negated.reduced != rep_t.reduced
        assert len(dropped.reduced.terms) < len(rep_t.reduced.terms)
        assert unpaired.reduced == rep.reduced
        assert counts == {"saito_dual": 3}

    def test_passing_check_reports_the_left_side(self):
        pair = DualPair(parse_polynomial("x^2*y + y^3*z + z^2*w + w^3"))
        report = verify_zeta_duality(pair)
        assert report.equal and report.witness is None
        assert report.rhs is report.lhs
        assert report.lhs == saito_dual(pair.report.reduced)


class TestRootDuality:
    def test_z6_example(self):
        pair = DualPair(parse_polynomial("x^3 + x*y^2"))
        report = verify_root_duality(pair)
        assert report.kind == "corollary"
        assert report.equal
        assert report.lhs == CyclotomicProduct(6, {2: 1, 6: -1, 1: -1})

    def test_fermat(self):
        report = verify_root_duality(DualPair(parse_polynomial("x^7")))
        assert report.equal

    def test_reduced_gcd_case_matches_monodromy_zeta(self):
        # With gcd factor 1 on both sides the root is the monodromy element
        # itself and the left side is its reduced zeta.
        f = parse_polynomial("x^3*y + y^3")
        report = verify_root_duality(DualPair(f))
        assert report.equal
        rep_t = equivariant_zeta(f.transpose())
        h_t = monodromy_element(f.transpose(), rep_t.group)
        assert report.lhs == element_zeta(h_t, rep_t.reduced)

    def test_non_cyclic_rejected(self):
        with pytest.raises(NonCyclicError) as info:
            verify_root_duality(DualPair(parse_polynomial("x^2 + y^2")))
        assert "2, 2" in str(info.value) or "(2, 2)" in str(info.value)


def complementary_blocks(polynomials):
    """The complementary blocks E[R', J] of the contributing subsets
    I short of every variable of each block of each polynomial and its
    transpose, J the variables off I and R' the rows off R: those whose
    presentations the records of one batch over ``polynomials`` read."""
    blocks = set()
    for f in polynomials:
        for g in (f.exponents, f.exponents.transpose()):
            for block in _components(g):
                e = block.matrix
                n = e.nrows
                for subset, rows_in in _contributing_subsets(e):
                    if len(subset) < n:
                        blocks.add(e.submatrix(
                            [i for i in range(n) if i not in rows_in],
                            [j for j in range(n) if j not in subset]))
    return blocks


def count_calls(monkeypatch, *names):
    """Count calls of the named package functions, wherever they are
    looked up from."""
    counts = dict.fromkeys(names, 0)
    modules = [saitodual.burnside, saitodual.cli, saitodual.enumeration,
               saitodual.groups, saitodual.polynomials, saitodual.zeta]
    for name in names:
        original = next(getattr(module, name) for module in modules
                        if hasattr(module, name))

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        for module in modules:
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    return counts


class TestDualPair:
    def test_fields_computed_on_first_use(self):
        f = parse_polynomial("x^2 + y^2")
        pair = DualPair(f)
        assert pair.group.order == 4
        # The group of a sum is composed from its atoms' records.
        assert {"atoms", "group"} == set(vars(pair)) - {"f"}
        assert pair.group_t is pair.group.dual()
        assert pair.group_t == symmetry_group(pair.ft)
        assert pair.ft.exponents == f.exponents.transpose()

    def test_batch_computes_each_fact_once(self, monkeypatch):
        corpus, _ = generate_corpus(3, 4, include_sums=True)
        # A sum's weights are composed from its atoms' records, and each
        # record reads its weights off the Smith form of its presentation,
        # so no side runs ``canonical_weights``.  A passing zeta-duality
        # check decides on the blocks, and the root duality of a cyclic
        # member convolves the blocks' indices: no product form is
        # expanded.
        singles = [f for f in corpus if len(_components(f.exponents)) == 1]
        symmetric = sum(f.exponents == f.exponents.transpose()
                        for f in singles)
        assert (len(corpus), len(singles), symmetric) == (117, 56, 9)
        counts = count_calls(monkeypatch, "equivariant_zeta",
                             "symmetry_group", "smith_normal_form",
                             "canonical_weights", "geometric_roots",
                             "element_zeta", "saito_dual", "_product_form")
        split = []
        monkeypatch.setattr(saitodual.polynomials, "_components",
                            lambda e, _split=_components:
                            split.append(e) or _split(e))
        report = run_batch(corpus)
        assert report.ok and report.corollary_checked > 0
        # A generated polynomial carries its blocks, so none is split.
        assert split == []
        # The root duality is checked in closed form: no root is listed.
        # Only a single block runs a Smith form; a sum's group is composed
        # from its blocks', which are the records of single blocks.
        assert counts == {"equivariant_zeta": 2 * len(corpus),
                          "symmetry_group": len(singles),
                          "smith_normal_form": len(singles),
                          "canonical_weights": 0,
                          "geometric_roots": 0,
                          "element_zeta": 0,
                          "saito_dual": 0,
                          "_product_form": 0}
        # Parsed input splits once per pair: f^T takes f's transposed.
        parsed = [InvertiblePolynomial(f.exponents) for f in corpus]
        assert run_batch(parsed).to_json() == report.to_json()
        assert len(split) == len(corpus)

    def test_batch_builds_no_dual_subgroup(self, monkeypatch):
        # A passing check applies no transform and builds no dual
        # subgroup and no key of any reduced zeta term: it reads one dual
        # map per pair of a block and its transpose.  So no atom
        # presentation builds a subgroup index.
        corpus, _ = generate_corpus(3, 4, include_sums=True)
        counts = count_calls(monkeypatch, "dual_subgroup", "saito_dual",
                             "equivariant_zeta")
        keys = []
        wrap = SubgroupKey._wrap.__func__
        monkeypatch.setattr(SubgroupKey, "_wrap", classmethod(
            lambda cls, *args: keys.append(args) or wrap(cls, *args)))
        report = run_batch(corpus, keep_records=True)
        assert report.ok and report.theorem_pass == len(corpus)
        assert counts == {"dual_subgroup": 0, "saito_dual": 0,
                          "equivariant_zeta": 2 * len(corpus)}
        assert keys == []
        presentations = {id(r.presentation): r.presentation
                         for v in report.records
                         for rep in (v.theorem.lhs_report,
                                     v.theorem.rhs_report)
                         for r in rep._records}
        assert len(presentations) == 103
        assert all(q._index is None for q in presentations.values())

    def test_batch_atom_cache_lives_for_one_call(self, monkeypatch):
        # Each batch builds its own atom records and keeps the
        # presentation of each distinct complementary block its records
        # read, once: a second batch in the same process keeps its own
        # copy of them all, and a pool gives the same report.  No record calls
        # isotropy_subgroup.
        made = []

        class Recorded(AtomRecords):
            def __init__(self, keep_below=0):
                super().__init__(keep_below)
                made.append(self)

        monkeypatch.setattr(enumeration, "AtomRecords", Recorded)
        corpus, _ = generate_corpus(3, 4, include_sums=True)
        counts = count_calls(monkeypatch, "isotropy_subgroup")
        blocks = complementary_blocks(corpus)
        assert len(blocks) == 21
        first = run_batch(corpus)
        second = run_batch(corpus)
        assert [set(atoms.presentations) for atoms in made] == [blocks] * 2
        assert made[0].presentations is not made[1].presentations
        assert counts == {"isotropy_subgroup": 0}
        pooled = run_batch(corpus, workers=2)
        assert enumeration._worker_task is None
        texts = {json.dumps(r.to_json()) for r in (first, second, pooled)}
        assert len(texts) == 1 and first.ok

    def test_batch_keeps_no_block_of_its_largest_size(self, monkeypatch):
        # A block the size of the batch's largest polynomial is never a
        # summand in it, so its record is not kept; every smaller
        # single-block polynomial's record is, on both sides.
        made = []

        class Recorded(AtomRecords):
            def __init__(self, keep_below=0):
                super().__init__(keep_below)
                made.append(self)

        monkeypatch.setattr(enumeration, "AtomRecords", Recorded)
        corpus, _ = generate_corpus(3, 4, include_sums=True)
        report = run_batch(corpus)
        (atoms,) = made
        assert atoms.keep_below == 3
        assert Counter(block.nrows for block in atoms) == {1: 3, 2: 24}
        small = {g.exponents for f in corpus if f.nvars < 3
                 and len(_components(f.exponents)) == 1
                 for g in (f, f.transpose())}
        assert small == set(atoms)
        pooled = run_batch(corpus, workers=2)
        assert json.dumps(pooled.to_json()) == json.dumps(report.to_json())

    def test_entry_count_is_read_off_the_records(self, monkeypatch):
        # One entry per contributing subset and one for the empty subset,
        # on both sides of the (3,4) sums corpus; every count is read off
        # the blocks' contributing subsets before any record or report is
        # built.
        corpus, _ = generate_corpus(3, 4, include_sums=True)
        unbuilt = 0
        for f in corpus:
            pair = DualPair(f)
            counts = [pair._entry_count(), pair._entry_count(True)]
            unbuilt += not pair.atoms and "report" not in vars(pair)
            assert counts == [len(rep.subset_terms) + 1
                              for rep in (pair.report, pair.report_t)]
            assert counts[1] >= len(pair.report_t.reduced.terms)
        assert unbuilt == len(corpus) == 117

    def test_wide_block_dual_map_builds_no_dual_subgroup(self,
                                                         monkeypatch):
        # The star x1^2 + x1*x2^2 + ... + x1*x9^2 is one block, neither a
        # loop nor a chain, whose transpose has up to 70 merged subgroups
        # of one order.  The dual map reads each dual off the complement
        # of its subgroup's rows and checks it with one pairing: no dual
        # subgroup is built, and the verdict is that of the built
        # transform.
        f = parse_polynomial(" + ".join(
            ["x1^2"] + [f"x1*x{i}^2" for i in range(2, 10)]))
        pair = DualPair(f)
        rep, rep_t = pair.report, pair.report_t
        (partner,) = rep_t._records
        sizes = Counter(index for _, _, _, index in partner.merged)
        assert max(sizes.values()) == 70
        counts = count_calls(monkeypatch, "dual_subgroup", "saito_dual")
        start = time.perf_counter()
        assert verify_zeta_duality(pair).equal
        assert time.perf_counter() - start < 5
        assert counts == {"dual_subgroup": 0, "saito_dual": 0}
        monkeypatch.undo()
        assert rep_t.reduced == -saito_dual(rep.reduced)

    def test_corpus_reports_are_below_the_report_bound(self, batch45):
        counts = [prod(len(r.entries) for r in rep._records)
                  for record in batch45.records
                  for rep in (record.theorem.rhs_report,
                              record.theorem.lhs_report)]
        assert (len(counts), max(counts)) == (3152, 16)
        assert max(counts) <= MAX_REPORT_ENTRIES

    def test_roots_command_computes_roots_once_per_side(self, monkeypatch):
        # `roots` lists the roots of f only, as the sorted vectors of
        # ``_root_vectors``; the transposed side enters the corollary
        # through its zeta report, whose record reads its weights off the
        # Smith form.  Only the parsed side runs ``canonical_weights``.
        counts = count_calls(monkeypatch, "_root_vectors",
                             "canonical_weights")
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(["roots", "x^3*y + y^3*z + z^3*x", "--json"])
        assert code == 0
        assert counts == {"_root_vectors": 1, "canonical_weights": 1}


class TestEdgeCaseInvertibles:
    # The duality needs only det != 0; degenerate and non-decomposable
    # polynomials must verify too.
    @pytest.mark.parametrize("text", [
        "x*y + x*y^2",        # unimodular: trivial symmetry group
        "x^2 + x*y",          # chain with a unit mid-exponent
        "x^2*y*z + y^2 + z^2",  # not a sum of loop/chain blocks
        "x^2*y + y",          # zero canonical weight
        "x + y^2",            # linear monomial
    ])
    def test_duality_holds(self, text):
        pair = DualPair(parse_polynomial(text))
        assert verify_zeta_duality(pair).equal
        if pair.group.is_cyclic:
            assert verify_root_duality(pair).equal


class TestMilnorNumber:
    @pytest.mark.parametrize("p", [2, 3, 7])
    def test_fermat(self, p):
        assert milnor_number(parse_polynomial(f"x^{p}")) == p - 1

    def test_examples(self):
        assert milnor_number(parse_polynomial("x^3*y + y^3")) == 7
        assert milnor_number(parse_polynomial("x^3 + x*y^2")) == 4

    def test_euler_characteristic_consistency(self, corpus_sample):
        for f in corpus_sample:
            mu = milnor_number(f)
            chi = classical_zeta(f).degree()
            sign = 1 if f.nvars % 2 else -1
            assert chi == 1 + sign * mu

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateError):
            milnor_number(parse_polynomial("x^2*y + y"))
        with pytest.raises(DegenerateError):
            milnor_number(parse_polynomial("x^2*y*z + y^2 + z^2"))


class TestReports:
    def test_zeta_report_serialization(self):
        rep = equivariant_zeta(parse_polynomial("x^3*y + y^3"))
        data = rep.to_json()
        assert data["polynomial"] == "x^3*y + y^3"
        assert data["classical"] == {"d": 9, "factors": {"3": 1, "9": -1}}
        assert data["group"]["order"] == 9
        assert all({"I", "coefficient", "isotropy", "torusEuler"}
                   <= set(t) for t in data["perSubsetTerms"])

    def test_verification_report_serialization(self):
        rep = verify_zeta_duality(DualPair(parse_polynomial("x^2")))
        data = rep.to_json(include_reports=True)
        assert data["kind"] == "theorem"
        assert data["equal"] is True
        assert "lhsReport" in data and "rhsReport" in data

    def test_element_json_flattens_each_key_once(self, monkeypatch):
        # The terms in ``sorted_terms`` order, each as its key's own JSON,
        # on both sides' equivariant and reduced zeta over the (3,4) sums
        # corpus.
        corpus, _ = generate_corpus(3, 4, include_sums=True)
        elements = [element for f in corpus
                    for rep in (equivariant_zeta(f),
                                equivariant_zeta(f.transpose()))
                    for element in (rep.equivariant, rep.reduced)]
        expected = [[{"subgroup": k.to_json(), "coeff": v}
                     for k, v in element.sorted_terms()]
                    for element in elements]
        flat = []
        original = IntMatrix.flat
        monkeypatch.setattr(IntMatrix, "flat",
                            lambda m: flat.append(m) or original(m))
        assert [element.to_json() for element in elements] == expected
        assert len(flat) == sum(len(element.terms) for element in elements)

    def test_passing_check_writes_its_side_once(self, monkeypatch):
        # Both keys of a passing check hold one list, built with one
        # flattening per term: the transform of the reduced zeta (n = 8
        # is even, so no sign).
        report = verify_zeta_duality(DualPair(parse_polynomial(
            " + ".join(f"x{i}^2" for i in range(1, 9)))))
        flat = []
        original = IntMatrix.flat
        monkeypatch.setattr(IntMatrix, "flat",
                            lambda m: flat.append(m) or original(m))
        data = report.to_json()
        assert data["equal"] is True and data["lhs"] is data["rhs"]
        assert len(flat) == len(data["lhs"]) == 256
        assert data["rhs"] == saito_dual(report.rhs_report.reduced).to_json()
