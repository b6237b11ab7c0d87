"""Command-line interface: commands, JSON envelopes, exit codes."""

import hashlib
import io
import json
import multiprocessing
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from saitodual import (PolynomialParseError, __version__, cli,
                       generate_corpus, milnor_number, parse_polynomial)
from saitodual.cli import MAX_WORKERS, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# sha256 of the canonical `result` payload of
# `enumerate --max-vars 2 --max-exp 3 --sums --json`.
SUMS_2_3_PIN = ("bba393ac0144f0c51c729c513c8b673b"
                "dbaa20469e474d3626cd8bef12499eb6")


def run_json(capsys, *argv):
    code, out, _ = run_cli(capsys, *argv)
    return code, json.loads(out)


class TestAnalyze:
    def test_text_output(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "x^3*y+y^3")
        assert code == 0
        assert "(2, 3; 9)" in out
        assert "chain(3,3)" in out
        assert "Z9" in out

    def test_smallest_case(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "x^2")
        assert code == 0
        assert "(1; 2)" in out
        assert "chain(2)" in out
        assert "Z2" in out

    def test_matrix_literal(self, capsys):
        code, data = run_json(capsys, "analyze",
                              '{"E": [[3, 0], [1, 2]]}', "--json")
        assert code == 0
        result = data["result"]
        assert result["weights"]["canonical"] == [2, 2]
        assert result["weights"]["degree"] == 6
        assert result["weights"]["gcd"] == 2

    def test_envelope(self, capsys):
        code, data = run_json(capsys, "analyze", "x^2", "--json")
        assert data["tool"] == "saitodual"
        assert data["version"] == __version__
        assert data["command"] == "analyze"
        assert data["input"] == "x^2"
        assert "result" in data

    def test_parse_error_exit_code_and_position(self, capsys):
        code, out, err = run_cli(capsys, "analyze", "x^2 + y^-1")
        assert code == 1
        assert "line 1" in err and "column" in err

    def test_shape_error(self, capsys):
        code, _, err = run_cli(capsys, "analyze", "x^2 + y^2 + x*y")
        assert code == 1
        assert "square" in err


class TestZeta:
    def test_text(self, capsys):
        code, out, _ = run_cli(capsys, "zeta", "x^3*y+y^3")
        assert code == 0
        assert "(1-t^3)(1-t^9)^-1" in out
        assert "I={y}" in out

    def test_json_shape(self, capsys):
        code, data = run_json(capsys, "zeta", "x^3+x*y^2", "--json")
        assert code == 0
        result = data["result"]
        assert result["classical"] == {"d": 3, "factors": {"3": -1}}
        assert result["group"]["order"] == 6
        assert [t["I"] for t in result["perSubsetTerms"]] == [[1], [1, 2]]


class TestDual:
    def test_pass(self, capsys):
        code, out, _ = run_cli(capsys, "dual", "x^3*y+y^3")
        assert code == 0
        assert "PASS" in out

    def test_json(self, capsys):
        code, data = run_json(capsys, "dual", "x^2", "--json")
        assert code == 0
        assert data["result"]["equal"] is True
        assert data["result"]["kind"] == "theorem"


class TestRoots:
    def test_cyclic_with_roots(self, capsys):
        code, out, _ = run_cli(capsys, "roots", "x^3+x*y^2")
        assert code == 0
        assert "root duality: PASS" in out

    def test_non_cyclic(self, capsys):
        code, out, _ = run_cli(capsys, "roots", "x^2+y^2")
        assert code == 0
        assert "none" in out

    def test_json(self, capsys):
        code, data = run_json(capsys, "roots", "x^3+x*y^2", "--json")
        assert code == 0
        result = data["result"]
        assert result["gcdFactor"] == 2
        assert len(result["roots"]) == 2
        assert result["corollary"]["equal"] is True
        assert "rootCount" not in result

    def test_non_cyclic_with_roots_rejected(self, capsys):
        # G = Z2 x Z42 has 4 solutions of c*g = h, but the corollary needs
        # a cyclic group.
        code, out, err = run_cli(capsys, "roots",
                                 "x^3*y + y^5*x + z^2*w + w^3")
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "cyclic" in err
        assert err.count("\n") == 1

    def test_count_only_above_bound(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "MAX_LISTED_ROOTS", 1)
        code, out, err = run_cli(capsys, "roots", "x^3+x*y^2", "--json")
        assert code == 4
        result = json.loads(out)["result"]
        assert result["roots"] is None and result["rootCount"] == 2
        assert result["corollary"]["equal"] is True
        assert err.startswith("note: 2 geometric roots") and \
            err.count("\n") == 1
        code, out, err = run_cli(capsys, "roots", "x^3+x*y^2")
        assert code == 4
        assert "roots:       2 (not listed)" in out
        assert "root duality: PASS" in out
        assert err.count("\n") == 1


class TestMatrixLiteral:
    """Each literal used to pass a non-integer or unchecked value through
    (exit 0 with a changed polynomial) or end in a traceback."""

    @pytest.mark.parametrize("literal, message", [
        ('{"E": [[2.5]]}', '"E" must be'),
        ('{"E": [[true]]}', '"E" must be'),
        ('{"E": [[NaN]]}', '"E" must be'),
        ('{"E": "ab"}', '"E" must be'),
        ('{"E": [[2]], "vars": [1]}', '"vars" must be'),
        ('{"E": [[2, 1], [1, 2]], "vars": 5}', '"vars" must be'),
        ('{"E": [[2]], "bogus": 1}', "unknown matrix literal key 'bogus'"),
        ('{"E": [[' + "9" * 5000 + ']]}', "invalid matrix literal"),
        ('{"E": ' + "[" * 100000, "invalid matrix literal"),
        ("x^" + "9" * 5000, "5000 digits is too long"),
        ("x^\u00b2", "unexpected character"),
    ], ids=["float", "bool", "nan", "string-matrix", "int-name",
            "int-vars", "unknown-key", "long-int-literal", "deep-nesting",
            "long-int-text", "superscript-digit"])
    def test_rejected_with_one_line(self, capsys, literal, message):
        with pytest.raises(PolynomialParseError):
            parse_polynomial(literal)
        code, out, err = run_cli(capsys, "zeta", literal)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and message in err
        assert err.count("\n") == 1

    def test_accepted_entries_are_exact(self, capsys):
        code, data = run_json(capsys, "analyze",
                              '{"E": [[3, 1], [0, 4]], "vars": ["u", "v"]}',
                              "--json")
        assert code == 0
        assert data["result"]["E"] == [[3, 1], [0, 4]]
        assert data["result"]["variables"] == ["u", "v"]


class TestEnumerate:
    def test_tiny_family(self, capsys):
        code, data = run_json(capsys, "enumerate", "--max-vars", "1",
                              "--max-exp", "3", "--json")
        assert code == 0
        result = data["result"]
        assert result["total"] == 2
        assert result["theoremFail"] == 0
        assert result["corollaryChecked"] == 2
        assert result["corollaryFail"] == 0

    def test_two_variable_family(self, capsys):
        code, data = run_json(capsys, "enumerate", "--max-vars", "2",
                              "--max-exp", "3", "--sums", "--json")
        assert code == 0
        result = data["result"]
        assert result["theoremFail"] == 0
        assert result["corollaryFail"] == 0
        assert result["failures"] == []
        assert result["total"] == 12

    def test_text_summary(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "--max-vars", "1",
                               "--max-exp", "2")
        assert code == 0
        assert "polynomials:" in out

    def test_byte_stable_json(self, capsys):
        _, out1, _ = run_cli(capsys, "enumerate", "--max-vars", "2",
                             "--max-exp", "3", "--json")
        _, out2, _ = run_cli(capsys, "enumerate", "--max-vars", "2",
                             "--max-exp", "3", "--json")
        assert out1 == out2

    def test_truncation_marker_and_exit(self, capsys):
        code, data = run_json(capsys, "enumerate", "--max-vars", "2",
                              "--max-exp", "3", "--limit", "3", "--json")
        assert code == 4
        assert data["result"]["truncated"] is True
        assert data["result"]["total"] == 3

    def test_bounds_validation(self, capsys):
        code, _, err = run_cli(capsys, "enumerate", "--max-vars", "9")
        assert code == 1
        assert "max-vars" in err
        code, _, err = run_cli(capsys, "enumerate", "--max-exp", "1")
        assert code == 1

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run_cli(capsys, "enumerate", "--max-vars", "1",
                               "--max-exp", "2", "--out", str(target))
        assert code == 0
        data = json.loads(target.read_text())
        assert data["result"]["total"] == 1

    def test_workers_match_serial(self, capsys):
        _, serial = run_json(capsys, "enumerate", "--max-vars", "2",
                             "--max-exp", "3", "--sums", "--json")
        _, parallel = run_json(capsys, "enumerate", "--max-vars", "2",
                               "--max-exp", "3", "--sums", "--workers", "2",
                               "--json")
        assert serial == parallel
        for data in (serial, parallel):
            text = json.dumps(data["result"], sort_keys=True,
                              separators=(",", ":"))
            assert hashlib.sha256(text.encode()).hexdigest() == SUMS_2_3_PIN

    def assert_input_error(self, capsys, flag, *argv):
        code, out, err = run_cli(capsys, "enumerate", "--max-vars", "2",
                                 "--max-exp", "3", *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and flag in err
        assert err.count("\n") == 1

    def test_negative_limit_rejected(self, capsys):
        self.assert_input_error(capsys, "--limit", "--limit", "-1")

    def test_negative_sample_rejected(self, capsys):
        self.assert_input_error(capsys, "--sample", "--sample", "-2")

    def test_nonpositive_workers_rejected(self, capsys):
        self.assert_input_error(capsys, "--workers", "--workers", "0")
        self.assert_input_error(capsys, "--workers", "--workers", "-3")

    def test_workers_ceiling_rejected_before_any_work(self, capsys,
                                                      monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("work started for a rejected --workers")

        monkeypatch.setattr(cli, "generate_corpus", refuse)
        monkeypatch.setattr(cli, "run_batch", refuse)
        monkeypatch.setattr(multiprocessing, "Pool", refuse)
        self.assert_input_error(capsys, "--workers", "--workers",
                                str(10 ** 6))
        self.assert_input_error(capsys, "--workers", "--workers",
                                str(MAX_WORKERS + 1))


def matrix_rows(corpus):
    return [f.exponents.rows for f in corpus]


class TestEnumerateArguments:
    """`enumerate` on random argument vectors.  --workers is drawn from
    values that either run serially or are rejected, so no process starts.
    """

    @settings(max_examples=150, deadline=None)
    @given(max_vars=st.integers(1, 3), max_exp=st.integers(2, 4),
           flags=st.sets(st.sampled_from(["--sums", "--no-chains",
                                          "--no-loops"])),
           limit=st.none() | st.integers(-3, 40),
           sample=st.none() | st.integers(-3, 40),
           seed=st.none() | st.integers(-3, 40),
           workers=st.sampled_from([None, 1, 0, -1, MAX_WORKERS + 1]))
    def test_exit_codes_and_selection(self, max_vars, max_exp, flags, limit,
                                      sample, seed, workers):
        argv = ["enumerate", "--max-vars", str(max_vars),
                "--max-exp", str(max_exp), *sorted(flags)]
        for flag, value in (("--limit", limit), ("--sample", sample),
                            ("--seed", seed), ("--workers", workers)):
            if value is not None:
                argv += [flag, str(value)]
        produced = []

        def recording(*args, **kwargs):
            produced.append(generate_corpus(*args, **kwargs))
            return produced[-1]

        def refuse(*args, **kwargs):
            raise AssertionError("a process pool was started")

        with mock.patch.object(cli, "generate_corpus", recording), \
                mock.patch.object(multiprocessing, "Pool", refuse), \
                redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            code = main(argv)
        if (limit is not None and limit < 0 or sample is not None and sample < 0
                or workers is not None and not 1 <= workers <= MAX_WORKERS):
            assert code == 1 and not produced
            return
        [(corpus, truncated)] = produced
        assert code == (4 if truncated else 0)
        opts = dict(include_sums="--sums" in flags,
                    include_chains="--no-chains" not in flags,
                    include_loops="--no-loops" not in flags)
        full = matrix_rows(generate_corpus(max_vars, max_exp, **opts)[0])
        position = {rows: i for i, rows in enumerate(full)}
        picked = [position[rows] for rows in matrix_rows(corpus)]
        # Distinct members of the full corpus, in corpus order.
        assert picked == sorted(set(picked))
        size = len(full) if sample is None else min(sample, len(full))
        assert truncated == (limit is not None and limit < size)
        assert len(corpus) == (size if limit is None else min(size, limit))
        # --limit keeps a prefix of what --sample (or nothing) selects.
        unlimited, _ = generate_corpus(max_vars, max_exp, **opts,
                                       sample=sample,
                                       seed=0 if seed is None else seed)
        assert matrix_rows(corpus) == matrix_rows(unlimited)[:len(corpus)]


class TestBigDeterminant:
    # The 4-chain and the 4-loop at p = 10007 have d = p^4 and p^4 - 1,
    # about 1.0e16: no step may search over the divisors of d.  The loop's
    # exponent matrix is not triangular, so its inverses take the HNF route.
    P = 10007

    def timed_json(self, capsys, *argv):
        start = time.perf_counter()
        code, data = run_json(capsys, *argv)
        return code, data["result"], time.perf_counter() - start

    CHAIN = "x^10007*y + y^10007*z + z^10007*w + w^10007"
    LOOP = "x^10007*y + y^10007*z + z^10007*w + w^10007*x"

    @pytest.mark.parametrize("text, order", [
        (CHAIN, P ** 4),
        (LOOP, P ** 4 - 1),
    ], ids=["chain", "loop"])
    def test_zeta_and_dual_finish_fast(self, capsys, text, order):
        code, zeta, zeta_s = self.timed_json(capsys, "zeta", text, "--json")
        assert code == 0 and zeta_s < 1.0
        assert zeta["group"]["order"] == order
        classical = zeta["classical"]
        degree = sum(int(m) * s for m, s in classical["factors"].items())
        mu = milnor_number(parse_polynomial(text))
        assert degree == 1 + (-1) ** (4 - 1) * mu
        code, dual, dual_s = self.timed_json(capsys, "dual", text, "--json")
        assert code == 0 and dual_s < 1.0
        assert dual["equal"] is True

    # The chain has one geometric root.  The loop has c = 1,002,001,340,300
    # of them, so `roots` reports only their count.
    @pytest.mark.parametrize("text, code", [(CHAIN, 0), (LOOP, 4)],
                             ids=["chain", "loop"])
    def test_roots_finish_fast(self, capsys, text, code):
        start = time.perf_counter()
        got = main(["roots", text, "--json"])
        elapsed = time.perf_counter() - start
        out, err = capsys.readouterr()
        assert got == code and elapsed < 1.0
        result = json.loads(out)["result"]
        assert result["corollary"]["equal"] is True
        if code:
            assert result["roots"] is None
            assert result["rootCount"] == result["gcdFactor"]
            assert err.count("\n") == 1
        else:
            assert len(result["roots"]) == 1 and err == ""

    def test_roots_listed_up_to_the_largest_bench_query(self, capsys):
        # The 3-loop at p = 131 (17,031 roots) is the largest `roots`
        # query of the bigdet workload over seeds 1-30.
        code, data = run_json(capsys, "roots",
                              "x^131*y + y^131*z + z^131*x", "--json")
        assert code == 0
        assert len(data["result"]["roots"]) == 17031
        assert data["result"]["corollary"]["equal"] is True


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "saitodual", "analyze", "x^2", "--json"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["result"]["group"]["order"] == 2

    def test_version_flag(self):
        proc = subprocess.run(
            [sys.executable, "-m", "saitodual", "--version"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert __version__ in proc.stdout
