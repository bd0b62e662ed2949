"""Steadiness check: run one workload N times in fresh processes.

    python3 perfbench/steady.py --workload NAME [--runs 10] [--seed0 1]
                                [--seconds 10] [--trace 0]

Each run gets its own seed (``seed0``, ``seed0 + 1``, ...).  For every
metric the command prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them), the quartile spread as
a share of the median, and the largest deviation of one run from the
median, next to the metric's bound from ``BENCHMARK.json``.  It also
checks that ``failed / attempted`` is the same in every run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed0", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    values: dict = {}
    shares = set()
    for i in range(args.runs):
        seed = args.seed0 + i
        proc = subprocess.run(
            [sys.executable, os.path.join(BENCH_DIR, "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"run {i} (seed {seed}) failed: {proc.stderr[-2000:]}")
            return 1
        result = json.loads(lines[-1])
        report = json.loads(lines[0])
        shares.add((result["failed"], result["attempted"]) if
                   result["failed"] else 0)
        print(f"seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']} "
              f"score={report.get('calibration_score', 0):.0f} "
              f"scale={report.get('scale', 0):.3f}", flush=True)
        if not result["correct"]:
            print(json.dumps(report.get("faults"))[:2000])
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        for name in ("raw_throughput_eps", "calibration_score"):
            if name in report:
                values.setdefault(f"({name})", []).append(report[name])
    print(f"\n{args.workload}: {args.runs} runs, seconds={args.seconds}, "
          f"trace={args.trace}")
    print(f"{'metric':34s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'iqr/med':>8s} {'maxdev':>8s} {'bound':>6s}")
    for name, series in values.items():
        median = statistics.median(series)
        q1, _, q3 = statistics.quantiles(series, n=4)
        spread = (q3 - q1) / median if median else 0.0
        maxdev = max(abs(v - median) for v in series) / median \
            if median else 0.0
        bound = bounds.get(name)
        flag = "" if bound is None or spread <= bound / 3 else \
            ("  > bound/3" if spread <= bound else "  > BOUND")
        print(f"{name:34s} {median:12.6g} {q1:12.6g} {q3:12.6g} "
              f"{spread:8.3%} {maxdev:8.3%} "
              f"{'' if bound is None else bound:>6}{flag}")
    if len(shares) > 1:
        print(f"failed/attempted differs between runs: {shares}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
