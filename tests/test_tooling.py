"""The repository's tooling against the package it measures."""

import ast
import contextlib
import importlib
import io
import json
import re
import time
from pathlib import Path

from saitodual.cli import main

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
TRACER = BENCH / "tracer.py"
WORKLOADS = BENCH / "workloads.py"
README = ROOT / "README.md"


def traced_names():
    """The strings of the ``TRACED`` tuple in ``bench/tracer.py``, read from
    its source without importing it."""
    tree = ast.parse(TRACER.read_text())
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "TRACED"
                        for t in node.targets)):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/tracer.py defines no TRACED tuple")


def test_every_traced_name_is_a_package_callable():
    # `bench/run.py --trace 1` wraps each "module.function" of TRACED; a
    # name the package no longer defines breaks the traced run.
    names = traced_names()
    assert names
    missing = []
    for qualified in names:
        module_name, func_name = qualified.split(".")
        module = importlib.import_module(f"saitodual.{module_name}")
        if not callable(getattr(module, func_name, None)):
            missing.append(qualified)
    assert missing == []


def probe_argv():
    """``PROBE_ARGV`` of ``bench/workloads.py``, evaluated from its source
    with the module-level functions it calls, without importing it."""
    tree = ast.parse(WORKLOADS.read_text())
    assign = next(
        node for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "PROBE_ARGV"
                for t in node.targets))
    called = {n.func.id for n in ast.walk(assign)
              if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)}
    helpers = [node for node in tree.body
               if isinstance(node, ast.FunctionDef) and node.name in called]
    namespace = {}
    exec(compile(ast.Module(helpers + [assign], type_ignores=[]),
                 str(WORKLOADS), "exec"), namespace)
    return namespace["PROBE_ARGV"]


def test_bench_probe_is_refused_with_the_corollary():
    # `bench/run.py` accepts the probe as a one-line refusal (exit 1 or
    # 4); the root count is too large to list, but the corollary holds.
    argv = probe_argv()
    assert argv[0] == "roots"
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    elapsed = time.perf_counter() - start
    assert code == 4 and elapsed < 1.0
    assert err.getvalue().count("\n") == 1
    result = json.loads(out.getvalue())["result"]
    assert result["corollary"]["equal"] is True
    assert result["roots"] is None and result["rootCount"] > 10 ** 9


def test_readme_python_blocks_run():
    # Each ```python block of README.md is library API a reader copies;
    # it must run as written, in a namespace of its own.
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(),
                        re.M | re.S)
    assert blocks
    for i, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {i}", "exec"), {})
