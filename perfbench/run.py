"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --fingerprints

A run prints a human-readable report, then as its last line one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``).  ``--fingerprints`` prints the input fingerprint lines the
README records.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import BenchError, import_program  # noqa: E402

#: Units of the end-to-end metrics.  The library workloads report those in
#: BENCHMARK.json; gateway-wal, which is not in BENCHMARK.json (see the
#: README), also reports its p99 and its ack and match latencies.
END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_eps": "edges/s",
    "cpu_us_per_edge": "us",
    "batch_latency_p50_ms": "ms",
    "batch_latency_p99_ms": "ms",
    "ack_latency_p50_ms": "ms",
    "ack_latency_p99_ms": "ms",
    "match_latency_p50_ms": "ms",
    "state_cells": "count",
    "peak_rss_mb": "MB",
}


def per_layer_unit(name: str) -> str:
    if name.endswith("_pct"):
        return "%"
    if name.endswith("ms"):
        # Boot-time layers are totals per restart, the rest per 1k edges.
        return "ms" if name.startswith(("persistence.", "wal.replay.")) \
            else "ms/1k_edges"
    if name.endswith(("_per_call", "_per_probe", "_per_edge", "_skew")):
        return "ratio"
    if name.endswith("bytes"):
        return "bytes"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--fingerprints", action="store_true")
    args = parser.parse_args(argv)
    try:
        import_program()
        import inputs
        if args.fingerprints:
            for workload in inputs.WORKLOADS:
                built = inputs.build(workload, 0)
                print(f"fingerprint {workload} {built.fingerprint}")
            return 0
        if args.workload not in inputs.WORKLOADS:
            raise BenchError(f"--workload must be one of "
                             f"{', '.join(inputs.WORKLOADS)}")
        if args.seconds <= 0:
            raise BenchError("--seconds must be positive")
        built = inputs.build(args.workload, args.seed, args.seconds)
        inputs.check_fingerprint(built)
        if args.workload == "gateway-wal":
            import gateway
            result = gateway.run(built, args.seconds, bool(args.trace))
        else:
            import library
            result = library.run(built, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    correct = not result["faults"]
    attempted = result["batches"] + result["matches_verified"]
    failed = result["failed_batches"]
    report = {k: v for k, v in result.items()
              if k not in ("end_to_end", "per_layer")}
    report.update(workload=args.workload, seed=args.seed,
                  fingerprint=built.fingerprint)
    print(json.dumps(report, default=str))
    for name, value in result["end_to_end"].items():
        print(f"  {name:24s} {value:14.6g} {END_TO_END_UNITS[name]}")
    if args.trace:
        from tracing import workload_layers
        layers = {name: result["per_layer"].get(name, 0)
                  for name in workload_layers(args.workload)}
        metrics = {name: {"value": value, "unit": per_layer_unit(name)}
                   for name, value in layers.items()}
        for name, value in layers.items():
            print(f"  {name:40s} {value:14.6g} {per_layer_unit(name)}")
    else:
        metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                   for name, value in result["end_to_end"].items()}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
