"""The repository's tooling against the package it measures."""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


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
