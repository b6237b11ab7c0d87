#!/usr/bin/env python3
"""Benchmark of saitodual: one workload per invocation.

    python3 bench/run.py --workload corpus45 --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/`` directory.  With ``--trace 0`` the run reports the end-to-end
metrics, with ``--trace 1`` the per-layer metrics of ``tracer.TRACED``
(the traced run alternates untraced and traced passes, so that it also
reports the tracing overhead).  Every output is checked; a wrong one
makes the run exit 1.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``README.md`` beside this file explains each metric.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import types
from pathlib import Path

from calibration import Speedometer
from tracer import TRACED, Tracer
from workloads import PROBE_ARGV, WORKLOADS, Stopwatch

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"
WORK = ROOT / ".bench_work"
PACKAGE = "saitodual"
MODULES = ("linalg", "polynomials", "groups", "burnside", "zeta",
           "enumeration", "cli")
SETUP_REPS = 7
PROBE_MEMORY_BYTES = 512 * 2 ** 20
PROBE_TIMEOUT_S = 60


class SetupError(Exception):
    """The checkout cannot be benchmarked (no package source)."""


def load_package():
    """Import saitodual afresh from the checkout, dropping any earlier
    import, and return its modules as one namespace."""
    for name in [n for n in sys.modules
                 if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    if str(SOURCE) not in sys.path:
        sys.path.insert(0, str(SOURCE))
    try:
        package = importlib.import_module(PACKAGE)
    except ImportError as exc:
        raise SetupError(f"cannot import {PACKAGE} from {SOURCE}: {exc}")
    origin = Path(package.__file__).resolve()
    if SOURCE.resolve() not in origin.parents:
        raise SetupError(f"{PACKAGE} was imported from {origin}, "
                         f"not from {SOURCE}")
    modules = {m: importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES}
    return types.SimpleNamespace(package=package, **modules)


def percentile(values, pct):
    """Nearest-rank percentile: the smallest value with at least ``pct``
    percent of the sample at or below it."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * pct / 100)) - 1]


def peak_rss_mb():
    """Peak resident set of this process or of any child it waited for
    (the `--workers 2` pool), in MiB."""
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kb, child_kb) / 1024


def machine_record():
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "platform": platform.platform(), "loadavg": os.getloadavg()}


def setup(workload, seed):
    """Import the package and build the inputs SETUP_REPS times; returns
    the last (modules, inputs) and the Stopwatch of each rep."""
    watches = []
    for _ in range(SETUP_REPS):
        with Stopwatch() as watch:
            sd = load_package()
            inputs = workload.build(sd, seed, WORK)
        watches.append(watch)
    return sd, inputs, watches


def timed_passes(workload, sd, inputs, seconds, meter, tracer=None,
                 serial_only=False):
    """Run passes until another one would overrun ``seconds`` (at least
    one); returns the list of passes, each a list of Calls."""
    passes = []
    begin = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.install()
        try:
            passes.append(workload.run_pass(sd, inputs, tracer, serial_only,
                                            meter.parallel))
        finally:
            if tracer is not None:
                tracer.uninstall()
        last = passes[-1][-1].watch.end - passes[-1][0].watch.start
        if time.perf_counter() - begin + last > seconds:
            return passes


def alternating_passes(workload, sd, inputs, seconds, meter, tracer):
    """Alternate untraced and traced serial passes for ``seconds`` (at
    least one of each); returns (untraced passes, traced passes)."""
    plain, traced = [], []
    begin = time.perf_counter()
    while True:
        plain += timed_passes(workload, sd, inputs, 0, meter,
                              serial_only=True)
        traced += timed_passes(workload, sd, inputs, 0, meter, tracer,
                               serial_only=True)
        spent = time.perf_counter() - begin
        if spent + spent / len(traced) > seconds:
            return plain, traced


def call_seconds(call, meter):
    return meter.normalize(call.watch, parallel=not call.serial)


def pass_seconds(calls, meter):
    return sum(call_seconds(c, meter) for c in calls)


def end_to_end(passes, setup_watches, rss_mb, meter):
    calls = [c for p in passes for c in p]
    serial = [c for c in calls if c.serial]
    latencies = [call_seconds(c, meter) for c in calls]
    serial_s = sum(call_seconds(c, meter) for c in serial)
    return {
        "setup_s": (statistics.median(meter.normalize(w)
                                      for w in setup_watches), "s"),
        "wall_s": (statistics.median(pass_seconds(p, meter) for p in passes),
                   "s"),
        "ops_per_s": (sum(c.ops for c in serial) / serial_s, "1/s"),
        "call_p50_s": (percentile(latencies, 50), "s"),
        "call_p90_s": (percentile(latencies, 90), "s"),
        "peak_rss_mb": (rss_mb, "MiB"),
    }


def per_layer(plain, traced, tracer, meter):
    """Per-layer metrics per traced pass, and the tracing overhead."""
    n = len(traced)
    plain_s = statistics.median(pass_seconds(p, meter) for p in plain)
    traced_s = [pass_seconds(p, meter) for p in traced]
    raw_s = sum(c.watch.end - c.watch.start for p in traced for c in p)
    speed = sum(traced_s) / raw_s  # raw seconds -> normalized seconds
    calls = [c for p in traced for c in p]
    metrics = {}
    for idx, name in enumerate(TRACED):
        metrics[f"{name}.calls"] = (tracer.calls[idx] / n, "count")
        metrics[f"{name}.self_s"] = (tracer.self_s[idx] * speed / n, "s")
    zeta_calls = tracer.calls[TRACED.index("zeta.equivariant_zeta")]
    needed = sum(c.zeta_needed for c in calls)
    metrics.update({
        "groups.geometric_roots.roots_returned":
            (tracer.roots_returned / n, "count"),
        "groups.geometric_roots.generating_ratio":
            (ratio(tracer.roots_generating, tracer.roots_returned), "ratio"),
        "groups.max_order": (tracer.max_order, "count"),
        "zeta.equivariant_zeta.useful_ratio":
            (ratio(needed, zeta_calls), "ratio"),
        "enumeration.dedup_hit_ratio":
            (ratio(tracer.keys_computed - tracer.keys_distinct,
                   tracer.keys_computed), "ratio"),
        "cli.output_bytes": (sum(c.output_bytes for c in calls) / n, "B"),
        "trace.overhead_ratio":
            (statistics.median(traced_s) / plain_s, "ratio"),
    })
    return metrics


def ratio(num, den):
    return num / den if den else 0.0


def run_probe():
    """Run the known `geometric_roots` defect in a child capped in memory
    and time.  Returns (outcome, acceptable): the defect reproduced, a
    correct answer and a clean refusal are acceptable, anything else is
    not."""
    def cap():
        resource.setrlimit(resource.RLIMIT_AS,
                           (PROBE_MEMORY_BYTES, PROBE_MEMORY_BYTES))

    code = ("import sys; from saitodual.cli import main; "
            f"sys.exit(main({PROBE_ARGV!r}))")
    env = dict(os.environ, PYTHONPATH=str(SOURCE))
    try:
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, cwd=ROOT,
                              timeout=PROBE_TIMEOUT_S, preexec_fn=cap)
    except subprocess.TimeoutExpired:
        return "defect: timed out", True
    if "MemoryError" in proc.stderr:
        return "defect: MemoryError", True
    if proc.returncode == 0:
        try:
            result = json.loads(proc.stdout)["result"]
            if result["roots"] and result["corollary"]["equal"] is True:
                return "fixed: roots returned, root duality holds", True
        except (ValueError, KeyError, TypeError):
            pass
        return "wrong output", False
    lines = proc.stderr.strip().splitlines()
    if proc.returncode in (1, 4) and len(lines) == 1:
        return f"refused: {lines[0]}", True
    return f"exit {proc.returncode}: {lines[-1] if lines else ''}", False


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "machine": machine_record()}
    workload = WORKLOADS[args.workload]
    WORK.mkdir(exist_ok=True)
    try:
        with Speedometer() as meter:
            sd, inputs, setup_watches = setup(workload, args.seed)
            workload.warm(sd, inputs, WORK, meter.parallel)
            if args.trace:
                tracer = Tracer(sd.package)
                plain, traced = alternating_passes(workload, sd, inputs,
                                                   args.seconds, meter, tracer)
                passes = plain + traced
            else:
                passes = timed_passes(workload, sd, inputs, args.seconds,
                                      meter)
                rss_mb = peak_rss_mb()
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.trace:
        metrics = per_layer(plain, traced, tracer, meter)
    else:
        metrics = end_to_end(passes, setup_watches, rss_mb, meter)

    calls = [c for p in passes for c in p]
    attempted = sum(c.ops for c in calls)
    failed = sum(c.failed for c in calls)
    correct = failed == 0
    if args.workload == "bigdet":
        outcome, acceptable = run_probe()
        if not acceptable:  # a wrong answer or an unexpected crash
            attempted += 1
            failed += 1
            correct = False
        record["known_defect_probe"] = {"argv": PROBE_ARGV,
                                        "outcome": outcome}
        if args.trace:
            metrics["groups.geometric_roots.probe_failed"] = (
                0 if outcome.startswith(("fixed", "refused")) else 1,
                "count")
    if args.trace:
        metrics.setdefault("groups.geometric_roots.probe_failed", (0, "count"))
        trace_path = WORK / f"trace-{args.workload}-{args.seed}.json.gz"
        tracer.write(trace_path)
        record["trace_file"] = str(trace_path.relative_to(ROOT))
        record["spans"] = tracer.span_count

    record.update({
        "passes": len(passes),
        "latency_samples": len(calls),
        "speed_factor": meter.mean_speed(),
        "serial_cpu_share": meter.cpu_share(
            [c.watch for c in calls if c.serial]),
        "failures": [c.note or "wrong output" for c in calls if c.failed][:5],
    })
    print(json.dumps(record))
    for name, (value, unit) in metrics.items():
        print(f"{name:45s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
