#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 bench/spread.py --workload bigdet

Runs ``run.py`` once per seed 1..SEEDS, for BENCHMARK.json's
run_seconds, and prints for each end-to-end metric its median, its
quartile spread as a share of the median
(``statistics.quantiles(values, n=4)``), and that spread's ratio to the
metric's bound in BENCHMARK.json.  A benchmark is steady when every
spread except that of ``setup_s`` stays below a third of its bound.  Run
from the root of the checkout.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = 10


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, (q3 - q1) / q2


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    values = {}
    for seed in range(1, SEEDS + 1):
        result = run_once(args.workload, seed, spec["run_seconds"])
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + " ".join(
            f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()),
            file=sys.stderr)
    summary = {}
    for metric in spec["end_to_end"]:
        name = metric["name"]
        median, share = spread(values[name])
        summary[name] = {"median": median, "spread": share,
                         "bound": metric["bound"],
                         "spread_over_bound": share / metric["bound"]}
        print(f"{name:14s} median {median:12.6g}  spread {share:7.4f}  "
              f"bound {metric['bound']:.2f}  spread/bound "
              f"{share / metric['bound']:5.2f}")
    print(json.dumps({"workload": args.workload, "seeds": SEEDS,
                      "values": values, "summary": summary}))


if __name__ == "__main__":
    main()
