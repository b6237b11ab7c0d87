#!/usr/bin/env python3
"""Check that the benchmark emits what BENCHMARK.json names.

    python3 bench/selfcheck.py

For each workload of BENCHMARK.json, and with tracing off and on, runs
one pass of ``run.py`` and checks the result line: exactly the keys
correct/attempted/failed/metrics, a passing gate, and every metric of
the mode present with its declared unit (end-to-end metrics also
nonzero).  Then copies BENCHMARK.json and the benchmark's own
directories into an empty directory and checks that the benchmark
refuses to run there.  Run from the root of the checkout; exits 1 if
any check fails.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def check_result(line, declared, end_to_end):
    result = json.loads(line)
    problems = []
    if set(result) != RESULT_KEYS:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append("correctness gate failed")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append("attempted is not a positive integer")
    metrics = result.get("metrics", {})
    if set(metrics) != set(declared):
        problems.append(f"metric names differ: missing "
                        f"{sorted(set(declared) - set(metrics))}, extra "
                        f"{sorted(set(metrics) - set(declared))}")
    for name, unit in declared.items():
        metric = metrics.get(name)
        if metric is None:
            continue
        value = metric.get("value")
        if metric.get("unit") != unit:
            problems.append(f"{name}: unit {metric.get('unit')!r}, "
                            f"declared {unit!r}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{name}: value {value!r} is not a number")
        elif end_to_end and value == 0:
            problems.append(f"{name}: end-to-end metric reads 0")
    return problems


def run(cwd, workload, trace):
    """One pass of ``workload`` (``--seconds 1``), seed 1."""
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed",
         "1", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=900, check=False)


def check_bare_directory(spec, workload):
    """The benchmark alone, without the package source, must fail."""
    bare = ROOT / ".bench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in spec["paths"]:
        shutil.copytree(ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(bare, workload, 0)
    shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return [f"bare directory: exit {proc.returncode}, "
                f"stdout {proc.stdout[-200:]!r}"]
    return []


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    modes = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
             1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    failures = 0
    for workload in names:
        for trace, declared in modes.items():
            proc = run(ROOT, workload, trace)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                problems = [f"exit {proc.returncode}: {proc.stderr[-300:]}"]
            else:
                problems = check_result(lines[-1], declared, trace == 0)
            status = "ok" if not problems else "; ".join(problems)
            print(f"{workload:17s} trace={trace} {len(declared):3d} "
                  f"metrics: {status}")
            failures += bool(problems)
    problems = check_bare_directory(spec, names[0])
    print(f"{'bare directory':17s} refuses to run: "
          f"{'ok' if not problems else '; '.join(problems)}")
    failures += bool(problems)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
