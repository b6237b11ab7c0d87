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

from saitodual import (DualPair, PolynomialParseError, __version__, cli,
                       generate_corpus, milnor_number, parse_polynomial, zeta)
from saitodual.cli import MAX_WORKERS, main
from saitodual.enumeration import MAX_CORPUS_SPECS
from saitodual.errors import SaitoDualError
from saitodual.groups import GroupElement
from saitodual.zeta import MAX_REPORT_ENTRIES


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# sha256 of the canonical `result` payload of
# `enumerate --max-vars 2 --max-exp 3 --sums --json`.
SUMS_2_3_PIN = ("bba393ac0144f0c51c729c513c8b673b"
                "dbaa20469e474d3626cd8bef12499eb6")


# sha256 of the whole standard output of
# `enumerate --max-vars 5 --max-exp 5 --sums --sample 300 --seed 3 --json`.
SAMPLE_55_PIN = ("b7b4e6cf316a72f5bdb356fed7cccf21"
                 "29358332f41651b33d7e25bb69142587")


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

    def test_weights_do_not_depend_on_monomial_order(self, capsys):
        # det E is -6 in the first order and 6 in the second; the weights
        # are those of the polynomial, positive in both.
        lines, payloads = [], []
        for text in ("x*y^2 + x^3", "x^3 + x*y^2"):
            code, out, _ = run_cli(capsys, "analyze", text)
            assert code == 0
            lines.append(next(line for line in out.splitlines()
                              if line.startswith("weights:")))
            code, data = run_json(capsys, "analyze", text, "--json")
            assert code == 0
            payloads.append(data["result"]["weights"])
        assert lines == [
            "weights:     (2, 2; 6)   gcd 2   reduced (1, 1; 3)"] * 2
        assert payloads[0] == payloads[1]
        assert payloads[0]["canonical"] == [2, 2]
        assert payloads[0]["reduced"] == [1, 1]

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

    # sha256 of standard output, text and --json.  A passing check prints
    # its left side as the right side; these are the bytes the transform
    # itself prints there.
    PINNED = {
        "x^5": (
            "721eb4862176a589782884427da2a0fd8b70ca2d9c7e8105d3a0d7cf92027e3f",
            "294b293c2e871f0b20bf6ea6ee2edcf4948a7d1f1a845b943fc56cf9d8768b9e"),
        "x^3*y + y^3": (
            "1972ce1387e05ccf97745bcd194f57930bca2abf0536a2d2e399b8fc1a69abfd",
            "b801f9e86425c2c037213bc88feea1da5bc89a032a0a00576b57faaba60ee259"),
        "x^2*y + y^3*z + z^4*x": (
            "0392e9a8b09b593ed1c57a216beccb0dc92d5cccb96d2ba7bef7029e376cc543",
            "e14e53bafe3ea86350221fdf2de007fc98e3001fd2b9ba08b085ddee39b173a1"),
        "x^2*y + y^3*z + z^2*w + w^3": (
            "76b29e7f567d305e91ba8ea1b355594e12c486723c0d64956bda289e4b1fae13",
            "7013930fea8989f7a9c1401497329107c354a75084241aa35fb6c2a6f492f619"),
        "x^3*y + y^5*x + z^2": (
            "2889fb79234227bf70c9f349f5f8c320e7296b64cac8f168ab4723914bcc5472",
            "099c43147fb316ddd9f8cc489c8ec00a6afa4fcb721cbeaafd0164363d30a3d8"),
        "x^3*y + y^5*x + z^2*w + w^3": (
            "49c33e69e780bb43537c27e3fe83427790d224e2cec26c273632628aeea42c1e",
            "4620fc2e2375c352b2b4a85c11608a30fe25e7326d94d468b43d3a47cf7139d6"),
    }

    @pytest.mark.parametrize("text", PINNED)
    def test_output_pinned(self, capsys, text):
        for argv, sha in zip(([], ["--json"]), self.PINNED[text]):
            code, out, err = run_cli(capsys, "dual", text, *argv)
            assert (code, err) == (0, "")
            assert hashlib.sha256(out.encode()).hexdigest() == sha


def squares(n):
    return " + ".join(f"x{i}^2" for i in range(1, n + 1))


class TestReportBound:
    """`zeta` and `dual` read a report's entry count off its blocks'
    contributing subsets and, above ``MAX_REPORT_ENTRIES``, report only
    the count, with exit 4 and one `note:` line, before either report or
    any block's record is built."""

    @pytest.mark.parametrize("n", [14, 16])
    def test_refused_with_count(self, capsys, monkeypatch, n):
        built = []
        monkeypatch.setattr(zeta, "equivariant_zeta",
                            lambda *args: built.append(args))
        note = (f"note: {2 ** n} report entries exceed the report bound "
                f"{MAX_REPORT_ENTRIES}; only their count is reported\n")
        code, out, err = run_cli(capsys, "zeta", squares(n), "--json")
        result = json.loads(out)["result"]
        assert (code, err, result["entryCount"]) == (4, note, 2 ** n)
        assert result["group"]["order"] == 2 ** n
        assert all(result[k] is None for k in (
            "equivariant", "reduced", "classical", "perSubsetTerms"))
        code, out, err = run_cli(capsys, "dual", squares(n), "--json")
        result = json.loads(out)["result"]
        assert (code, err, result["entryCount"]) == (4, note, 2 ** n)
        assert result["equal"] is None and result["lhs"] is None
        for command in ("zeta", "dual"):
            code, out, err = run_cli(capsys, command, squares(n))
            assert (code, err) == (4, note)
            assert f"entries:     {2 ** n} (not listed)" in out
        assert built == []

    def test_wide_block_is_refused_with_no_isotropy(self, capsys,
                                                    monkeypatch):
        # x1^2*x14 + x2^2 + ... + x14^2 has 12,288 entries on each side,
        # 3 of its chain times 2 of each of 12 squares: both commands
        # count them with no atom record, so with no isotropy subgroup.
        calls = []
        monkeypatch.setattr(zeta, "_atom_record",
                            lambda *args: calls.append(args))
        text = " + ".join(["x1^2*x14"] + [f"x{i}^2" for i in range(2, 15)])
        for command in ("zeta", "dual"):
            code, out, _ = run_cli(capsys, command, text, "--json")
            assert code == 4
            assert json.loads(out)["result"]["entryCount"] == 12288
        assert calls == []

    def test_bound_is_inclusive(self, capsys, monkeypatch):
        # Three squares have 8 entries, four have 16.  A refused report
        # has the fields of a built one and its count.
        monkeypatch.setattr(cli, "MAX_REPORT_ENTRIES", 8)
        for command in ("zeta", "dual"):
            code, out, err = run_cli(capsys, command, squares(3), "--json")
            assert (code, err) == (0, "")
            built = json.loads(out)["result"]
            assert run_cli(capsys, command, squares(4))[0] == 4
            code, out, _ = run_cli(capsys, command, squares(4), "--json")
            refused = json.loads(out)["result"]
            assert code == 4
            assert set(refused) == set(built) | {"entryCount"}

    def test_subsets_are_listed_once_per_block(self, capsys, monkeypatch):
        # The entry count and the records of the star's one block and of
        # its transpose share one listing of its contributing subsets: the
        # transposed block takes their complements.
        calls = []
        real = zeta._contributing_subsets
        monkeypatch.setattr(zeta, "_contributing_subsets",
                            lambda e: calls.append(e) or real(e))
        star = " + ".join(["x1^2"] + [f"x1*x{i}^2" for i in range(2, 13)])
        code, out, _ = run_cli(capsys, "dual", star, "--json")
        assert code == 0 and json.loads(out)["result"]["equal"] is True
        assert len(calls) == 1

    def test_twelve_variables_are_admitted(self):
        # The 12-variable `dual` and `zeta` that CI runs: 4,096 entries
        # on each side; no polynomial of at most 12 variables has more.
        pair = DualPair(parse_polynomial(squares(12)))
        assert pair._entry_count() == pair._entry_count(True) == 2 ** 12
        assert 2 ** 12 <= MAX_REPORT_ENTRIES < 2 ** 13


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


class TestRootsPinned:
    # sha256 of `roots --json` stdout, taken before roots were listed
    # coordinate by coordinate and formatted one comprehension per vector:
    # 931 roots of the 3-loop at p = 31 and 4,640 of the 4-loop at p = 17.
    PINNED = {
        "x^31*y + y^31*z + z^31*x":
            "566483834de50363393a2f6ba2edfca1f631468d6d6906107bffe7b66b30d70f",
        "x^17*y + y^17*z + z^17*w + w^17*x":
            "b271816a308c8140ea62cce5d561c6b000a7a9e3e77422ac0257bbb6ba5cf861",
    }

    @pytest.mark.parametrize("text", PINNED)
    def test_json_output_pinned(self, capsys, text):
        code, out, err = run_cli(capsys, "roots", text, "--json")
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == self.PINNED[text]

    # sha256 of standard output, text and --json, taken while each root
    # was still built as an element and printed by ``str``: 813 roots of
    # the 3-loop at p = 29, 17,031 at p = 131, and the non-cyclic
    # Z2 x Z42 side with 4 roots, which exits 1 before listing any.
    PINNED_BOTH = {
        "x^29*y + y^29*z + z^29*x": (0, "", (
            "4c3b453d8fabeacf8b335a93de989635c61271fced328d6cf1b92f129f508e4c",
            "6ad017e1ae753dd86394496744b08843c36814e3773973fa30544cf50c4f0b32")),
        "x^131*y + y^131*z + z^131*x": (0, "", (
            "1e8ff92dd0d933b2f25224721ad547536cd7278942bea6c60ffcda9dac67c52b",
            "780ba48fc5f728f8b45385044186a4d29c0699f50e3e0be5b861f2761e550b37")),
        "x^3*y + y^5*x + z^2*w + w^3": (
            1, "error: geometric roots require a cyclic symmetry group; "
               "invariant factors are (1, 1, 2, 42)\n", (
                hashlib.sha256(b"").hexdigest(),
                hashlib.sha256(b"").hexdigest())),
    }

    @pytest.mark.parametrize("text", PINNED_BOTH)
    def test_text_and_json_output_pinned(self, capsys, text):
        code, err, shas = self.PINNED_BOTH[text]
        for argv, sha in zip(([], ["--json"]), shas):
            got = run_cli(capsys, "roots", text, *argv)
            assert (got[0], got[2]) == (code, err)
            assert hashlib.sha256(got[1].encode()).hexdigest() == sha

    def test_no_element_per_listed_root(self, capsys, monkeypatch):
        # The listing formats the roots' d-scaled vectors: the elements
        # built are the monodromy and the group's generators, whatever
        # the number of roots (813 here).
        wraps = []
        wrap = GroupElement._wrap.__func__
        monkeypatch.setattr(GroupElement, "_wrap", classmethod(
            lambda cls, *args: wraps.append(args) or wrap(cls, *args)))
        for argv in ([], ["--json"]):
            wraps.clear()
            code, _, _ = run_cli(capsys, "roots",
                                 "x^29*y + y^29*z + z^29*x", *argv)
            assert code == 0 and len(wraps) <= 5


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
        # Printed as "x^3^2 + y + z^3", which does not parse back.
        ('{"E": [[2, 0], [0, 3]], "vars": ["x^3", "y + z"]}',
         "\"vars\" entry 'x^3' is not a variable name"),
        ('{"E": [[2, 0], [0, 3]], "vars": ["x", ""]}',
         "\"vars\" entry '' is not a variable name"),
        ('{"E": [[2, 0], [0, 3]], "vars": ["x", "2y"]}',
         "\"vars\" entry '2y' is not a variable name"),
    ], ids=["float", "bool", "nan", "string-matrix", "int-name",
            "int-vars", "unknown-key", "long-int-literal", "deep-nesting",
            "long-int-text", "superscript-digit", "operator-in-name",
            "empty-name", "digit-first-name"])
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

    @pytest.mark.parametrize("where", ["missing-directory", "directory"])
    def test_unwritable_out_rejected_before_any_work(self, capsys, tmp_path,
                                                      where):
        target = (tmp_path / "missing" / "report.json"
                  if where == "missing-directory" else tmp_path)
        start = time.monotonic()
        code, out, err = run_cli(capsys, "enumerate", "--max-vars", "4",
                                 "--max-exp", "5", "--sums",
                                 "--out", str(target))
        assert time.monotonic() - start < 1
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(target) in err and "Traceback" not in err

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

    @pytest.mark.parametrize("max_vars, specs, size", [
        (7, 2747960, 31421016), (8, 21622860, 343255152)])
    def test_corpus_above_the_spec_bound_is_refused(self, capsys, tmp_path,
                                                    max_vars, specs, size):
        # The counts come in closed form; nothing is listed or verified.
        argv = ["enumerate", "--max-vars", str(max_vars), "--max-exp", "9",
                "--sums", "--limit", "1"]
        note = (f"note: {specs} atom specs exceed the corpus bound "
                f"{MAX_CORPUS_SPECS}; only the counts are reported\n")
        start = time.monotonic()
        code, out, err = run_cli(capsys, *argv, "--json")
        assert time.monotonic() - start < 0.5
        assert (code, err) == (4, note)
        refused = json.loads(out)["result"]
        assert (refused["specCount"], refused["corpusSize"]) == (specs, size)
        _, built = run_json(capsys, "enumerate", "--max-vars", "1",
                            "--max-exp", "2", "--json")
        assert set(refused) == set(built["result"]) | {"specCount",
                                                       "corpusSize"}
        assert refused["bounds"]["maxVars"] == max_vars
        assert all(refused[k] is None for k in built["result"]
                   if k != "bounds")
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (4, note)
        assert out == (f"polynomials:      {size} (not enumerated)\n"
                       f"atom specs:       {specs}\n")
        target = tmp_path / "refused.json"
        code, out, err = run_cli(capsys, *argv, "--out", str(target))
        assert (code, out, err) == (4, "", note)
        assert json.loads(target.read_text())["result"] == refused

    def test_sampled_sums_corpus_is_pinned(self, capsys):
        # The bytes CI pins, serial and with a pool whose workers build
        # their own members from the ranks they are sent.
        argv = ["enumerate", "--max-vars", "5", "--max-exp", "5", "--sums",
                "--sample", "300", "--seed", "3", "--json"]
        code, serial, _ = run_cli(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(serial.encode()).hexdigest() == SAMPLE_55_PIN
        assert run_cli(capsys, *argv, "--workers", "2") == (0, serial, "")

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


JUNK_TOKENS = ["+", "*", "^", "-", "(", ")", "2.5", "x^", "^3", "@", "7",
               "xy", "x1", "{", "}", "[", "]", ":", ",", "\u00b2", "\u00e9",
               "1e3", "  ", "\n"]
JUNK_VALUES = st.one_of(st.booleans(), st.none(), st.integers(-3, -1),
                        st.floats(allow_nan=True, allow_infinity=True),
                        st.text(max_size=3), st.just([1]))


def draw_exponents(draw, n):
    """An n x n matrix of exponents in [0, 40], off-diagonal entries mostly
    0, so that most draws are nonsingular."""
    off = st.one_of(st.just(0), st.just(0), st.integers(0, 40))
    return [[draw(st.integers(0, 40) if i == j else off) for j in range(n)]
            for i in range(n)]


@st.composite
def polynomial_texts(draw):
    """Monomials in at most 4 variables with exponents 0-40, joined by
    `+`, with up to two junk tokens inserted."""
    names = draw(st.lists(st.sampled_from("xyzw"), min_size=1, max_size=4,
                          unique=True))
    n = len(names)
    rows = draw_exponents(draw, n)
    count = draw(st.sampled_from([n, n, n, n - 1, n + 1]))
    monomials = []
    for exps in (rows + draw_exponents(draw, n))[:count]:
        factors = [name if e == 1 else f"{name}^{e}"
                   for name, e in zip(names, exps) if e]
        monomials.append("*".join(factors) or "1")
    pieces = " + ".join(monomials).split(" ")
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        pieces.insert(draw(st.integers(0, len(pieces))),
                      draw(st.sampled_from(JUNK_TOKENS)))
    return " ".join(pieces)


@st.composite
def matrix_literals(draw):
    """A JSON literal and its rows: a square matrix of exponents 0-40, with
    maybe a junk entry, a ragged row, variable names and an extra key."""
    n = draw(st.integers(1, 4))
    rows = draw_exponents(draw, n)
    mutation = draw(st.sampled_from(["none"] * 5 + ["entry", "ragged",
                                                    "extra-row"]))
    if mutation == "entry":
        row = draw(st.integers(0, n - 1))
        rows[row][draw(st.integers(0, n - 1))] = draw(JUNK_VALUES)
    elif mutation == "ragged":
        rows[draw(st.integers(0, n - 1))].append(draw(st.integers(0, 40)))
    elif mutation == "extra-row":
        rows.append([draw(st.integers(0, 40)) for _ in range(n)])
    obj = {"E": rows}
    names = draw(st.sampled_from(["none", "none", "valid", "junk"]))
    if names == "valid":
        obj["vars"] = draw(st.permutations(["x", "y", "z", "u1"]))[:n]
    elif names == "junk":
        obj["vars"] = draw(st.lists(
            st.sampled_from(["x", "y", "x^2", "", 3]),
            min_size=n - 1, max_size=n + 1))
    if draw(st.sampled_from([False] * 7 + [True])):
        obj[draw(st.sampled_from(["vars2", "e", "F"]))] = draw(JUNK_VALUES)
    return json.dumps(obj), rows


class TestMainFuzz:
    """`main()` on random polynomial text, matrix literals and extra
    arguments for the four polynomial commands."""

    @settings(max_examples=200, deadline=None)
    @given(command=st.sampled_from(["analyze", "zeta", "dual", "roots"]),
           source=st.one_of(polynomial_texts().map(lambda t: (t, None)),
                            matrix_literals()),
           as_json=st.booleans(),
           extra=st.lists(st.sampled_from(["--bogus", "-x", "--j", "extra",
                                           "--", "-", "--max-vars", "3",
                                           "--json"]), max_size=2),
           position=st.integers(0, 2))
    def test_exit_code_and_exact_literal(self, command, source, as_json,
                                         extra, position):
        text, rows = source
        args = [text] + (["--json"] if as_json else []) + extra
        args.insert(min(position, len(args)), args.pop(0))
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main([command, *args])
        assert code in (0, 1, 2, 3, 4)
        if code == 1:
            assert out.getvalue() == ""
            assert err.getvalue().startswith("error: ")
            assert err.getvalue().count("\n") == 1
        if rows is None:
            return
        try:
            f = parse_polynomial(text)
        except SaitoDualError:
            assert code == 1
            return
        assert f.exponents.rows == tuple(tuple(r) for r in rows)
        if command == "analyze" and code == 0 and "--json" in args:
            assert json.loads(out.getvalue())["result"]["E"] == rows


class TestBigDeterminant:
    # The 4-chain and the 4-loop at p = 10007 have d = p^4 and p^4 - 1,
    # about 1.0e16: no step may search over the divisors of d.  The loop's
    # exponent matrix is not triangular, so its inverses take the HNF route.
    # The 4-loop at p = 31622777 states the bound at d = p^4 - 1, about
    # 1.0e30: every command finishes in under 1 s (each takes milliseconds).
    P = 10007
    BIG_P = 31622777

    def timed_json(self, capsys, *argv):
        start = time.perf_counter()
        code, data = run_json(capsys, *argv)
        return code, data["result"], time.perf_counter() - start

    CHAIN = "x^10007*y + y^10007*z + z^10007*w + w^10007"
    LOOP = "x^10007*y + y^10007*z + z^10007*w + w^10007*x"
    BIG_LOOP = ("x^31622777*y + y^31622777*z + z^31622777*w"
                " + w^31622777*x")

    @pytest.mark.parametrize("text, order", [
        (CHAIN, P ** 4),
        (LOOP, P ** 4 - 1),
        (BIG_LOOP, BIG_P ** 4 - 1),
    ], ids=["chain", "loop", "loop-1e30"])
    def test_zeta_and_dual_finish_fast(self, capsys, text, order):
        code, analysis, analyze_s = self.timed_json(capsys, "analyze", text,
                                                    "--json")
        assert code == 0 and analyze_s < 1.0
        assert analysis["group"]["order"] == order
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
    @pytest.mark.parametrize("text, code", [
        (CHAIN, 0), (LOOP, 4), (BIG_LOOP, 4),
    ], ids=["chain", "loop", "loop-1e30"])
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
            assert err.startswith(f"note: {result['rootCount']} geometric")
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


class TestUsageErrors:
    @pytest.mark.parametrize("argv", [
        ["zeta"],
        ["zeta", "x^2", "--bogus"],
        ["roots", "x^2", "extra\nline"],
        ["enumerate", "--max-vars", "abc"],
        ["transpose", "x^2"],
        [],
    ], ids=["missing-polynomial", "unknown-flag", "line-break",
            "non-integer-flag", "unknown-command", "no-command"])
    def test_usage_error_exits_1_with_one_line(self, capsys, argv):
        # argparse alone exits 2, the code of a zeta-duality failure, and
        # prints a usage block.
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_help_returns_0(self, capsys):
        code, out, _ = run_cli(capsys, "roots", "--help")
        assert code == 0 and out.startswith("usage: saitodual roots")


class TestParserReuse:
    def test_one_parser_serves_every_call(self, capsys):
        argv = ["roots", "x^3+x*y^2", "--json"]
        first = run_cli(capsys, *argv)
        assert first[0] == 0 and first[2] == ""
        assert cli.build_parser.cache_info().misses == 1
        code, out, err = run_cli(capsys, "zeta", "x^2", "--bogus")
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert err.count("error:") == 1
        code, out, _ = run_cli(capsys, "--version")
        assert code == 0 and out == f"saitodual {__version__}\n"
        assert run_cli(capsys, *argv) == first
        assert cli.build_parser.cache_info().misses == 1


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

    @pytest.mark.parametrize("nvars, json_flag", [(8, ["--json"]), (10, [])])
    def test_closed_stdout_exits_1_without_traceback(self, nvars,
                                                     json_flag):
        # The reader takes one line and closes the pipe while the report
        # (897 kB of JSON, or 112 kB of text, more than a pipe holds) is
        # still being written.
        poly = " + ".join(f"x{i}^2" for i in range(1, nvars + 1))
        proc = subprocess.Popen(
            [sys.executable, "-m", "saitodual", "zeta", poly] + json_flag,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        assert proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 1
        assert err == b""
