"""The library workloads: closed-loop ``Session.push_many`` rounds.

A run repeats whole *rounds* until ``--seconds`` have passed.  A round
times a group of session constructions (``setup_s``), builds a fresh
session, registers the query library and pushes the whole stream in
fixed-size batches, so every round does exactly the same work and returns
exactly the same matches; each round's matches are checked against the
independent enumeration.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import statistics
import time
from typing import Dict, List

from common import (
    Calibrator, Segments, percentile, proc_cpu_seconds, proc_peak_rss_mb,
    proc_rss_mb)
from tracing import Tracer, install_library_spans, layer_metrics
from verify import Verifier

#: ``setup_s`` is the median over rounds of one calibrated group of
#: SETUP_GROUP_SIZE back-to-back constructions per round (built and
#: discarded): one construction is too short to time steadily, and one
#: group per round spreads the samples over the whole run.
SETUP_GROUP_SIZE = 5


def _session(inputs):
    from repro import Session
    if inputs.workload == "netflow-sharded":
        return Session(window=inputs.window, sharding="process", shards=2,
                       transport="shm")
    return Session(window=inputs.window)


def _build(inputs):
    """One set-up: construction plus registration."""
    session = _session(inputs)
    for name, query in inputs.queries.items():
        session.register(name, query)
    return session


def _time_setup(inputs, segments: Segments) -> None:
    start = time.perf_counter()
    for _ in range(SETUP_GROUP_SIZE):
        _close(_build(inputs))
    segments.add("setup", (time.perf_counter() - start) / SETUP_GROUP_SIZE)
    segments.close()


def _close(session) -> None:
    close = getattr(session, "close", None)
    if close is not None:
        close()


def _workers() -> List[int]:
    return [child.pid for child in multiprocessing.active_children()]


def run(inputs, seconds: float, trace: bool) -> dict:
    """Run the workload; returns the result dict ``run.py`` prints."""
    verifier = Verifier(inputs.queries, inputs.edges, inputs.window)
    expected = verifier.enumerate()
    edges = inputs.edges
    batches = [edges[lo:lo + inputs.batch]
               for lo in range(0, len(edges), inputs.batch)]
    # The benchmark's own data (inputs, expected answer) is frozen out of
    # the collector, so GC pauses in timed regions scan only the program's
    # objects.
    gc.collect()
    gc.freeze()
    calibrator = Calibrator()
    segments = Segments(calibrator)

    tracer = Tracer() if trace else None
    traced = {"edges": 0, "push": 0.0, "raw": 0.0, "covered_ns": 0}
    untraced = {"edges": 0, "push": 0.0, "raw": 0.0}
    rss_base = proc_rss_mb(os.getpid())
    rss_growth = 0.0
    worker_peak = 0.0
    attempted = failed = 0
    verified = 0
    faults: List[dict] = []
    cells_per_round: List[float] = []
    # Scaled push and CPU seconds of each untraced round: the reported
    # throughput and CPU cost are medians over rounds, so one round that
    # met a burst of host contention does not move them.
    round_seconds: List[float] = []
    round_cpu: List[float] = []
    counters: Dict[str, float] = {}
    rounds = 0
    started = time.perf_counter()
    # At least one round, and in a traced run at least one traced round.
    while rounds < (2 if tracer else 1) \
            or time.perf_counter() - started < seconds:
        # Traced runs alternate traced and untraced rounds (from the
        # second round on) so the tracing overhead is measured in-run.
        tracing_round = tracer is not None and rounds % 2 == 1
        _time_setup(inputs, segments)
        if tracing_round:
            install_library_spans(tracer)
        session = _build(inputs)
        if tracing_round:
            covered_before = _self_ns(tracer)
        workers = _workers()
        worker_base = sum(proc_rss_mb(pid) for pid in workers)
        emitted = []
        cells = 0
        pushed_before = segments.total("push")
        raw_before = segments.total("push", scaled=False)
        cpu_before = segments.total("cpu")
        for batch in batches:
            cpu_workers = sum(proc_cpu_seconds(pid) for pid in workers)
            attempted += 1
            cpu = time.process_time()
            start = time.perf_counter()
            try:
                result = session.push_many(batch)
            except Exception as exc:        # counted, reported, not fatal
                failed += 1
                faults.append({"batch_error": repr(exc)})
                continue
            elapsed = time.perf_counter() - start
            cpu = time.process_time() - cpu + sum(
                proc_cpu_seconds(pid) for pid in workers) - cpu_workers
            segments.add("push", elapsed)
            segments.add("cpu", cpu)
            segments.add("batch_ms", elapsed * 1e3)
            emitted.extend(result)
            try:
                cells += session.space_cells()
            except Exception as exc:        # a broken session ends the round
                faults.append({"round_error": repr(exc)})
                break
            rss_growth = max(rss_growth,
                             proc_rss_mb(os.getpid()) - rss_base)
            segments.maybe_close()
        segments.close()
        cells_per_round.append(cells / len(batches))
        worker_peak = max(worker_peak, sum(proc_peak_rss_mb(pid)
                                           for pid in workers) - worker_base)
        side = traced if tracing_round else untraced
        side["edges"] += len(edges)
        side["push"] += segments.total("push") - pushed_before
        if not tracing_round:
            round_seconds.append(segments.total("push") - pushed_before)
            round_cpu.append(segments.total("cpu") - cpu_before)
        side["raw"] += segments.total("push", scaled=False) - raw_before
        if tracing_round:
            side["covered_ns"] += _self_ns(tracer) - covered_before
        try:
            if tracing_round or rounds == 0:
                counters = _session_counters(session)
            _close(session)
        except Exception as exc:
            faults.append({"round_error": repr(exc)})
        if tracing_round:
            tracer.remove()
        report = verifier.compare(
            (verifier.key_of_match(name, match) for name, match in emitted),
            expected)
        verified += report["emitted"]
        if not report["ok"]:
            faults.append(report)
        rounds += 1

    if len(set(cells_per_round)) != 1:
        faults.append({"state_cells_differ_between_rounds": cells_per_round})
    scale_total = segments.total("push") / segments.total("push",
                                                          scaled=False)
    edges_total = len(edges) * rounds
    # Shard round trips include fixed poll sleeps, so their latencies are
    # reported as measured, not scaled to reference speed.
    batch_ms = (segments.raw if inputs.workload == "netflow-sharded"
                else segments.scaled)["batch_ms"]
    result = {
        "rounds": rounds,
        "edges": edges_total,
        "batches": attempted,
        "failed_batches": failed,
        "matches_verified": verified,
        "matches_per_round": sum(expected.values()),
        "faults": faults,
        "calibration_score": calibrator.median_score(),
        "scale": scale_total,
        "raw_throughput_eps": edges_total / segments.total("push",
                                                           scaled=False),
        "end_to_end": {
            "setup_s": statistics.median(segments.scaled["setup"]),
            "throughput_eps": len(edges) / statistics.median(round_seconds),
            "cpu_us_per_edge": statistics.median(round_cpu) / len(edges)
            * 1e6,
            "batch_latency_p50_ms": percentile(batch_ms, 50),
            "state_cells": cells_per_round[0],
            "peak_rss_mb": rss_growth + worker_peak,
        },
        # Reported, not gated: its spread between runs reached 29% (README).
        "batch_latency_p99_ms": percentile(batch_ms, 99),
        "samples": {"batches": len(batch_ms),
                    "setups": len(segments.scaled["setup"])},
    }
    if tracer is not None:
        result["per_layer"] = _per_layer(tracer, traced, untraced,
                                         scale_total, counters)
    return result


def _self_ns(tracer: Tracer) -> int:
    return sum(record["self_ns"] for record in tracer.totals().values())


def _session_counters(session) -> dict:
    """Program-side counters of one finished round."""
    stats = session.session_stats()
    engine = {"join_operations": 0, "index_probes": 0, "scan_fallbacks": 0}
    for per_query in session.stats().values():
        for key in engine:
            engine[key] += per_query.get(key, 0)
    out = {"edges_pushed": stats["edges_pushed"],
           "routed_pushes": stats["routed_pushes"],
           "skipped_matchers": stats["skipped_matchers"], **engine}
    busy = [shard["busy_seconds"] for shard in stats.get("per_shard", ())]
    if busy:
        out["shard_busy_s"] = sum(busy)
        out["shard_skew"] = max(busy) / (sum(busy) / len(busy)) \
            if sum(busy) else 1.0
    return out


def _per_layer(tracer: Tracer, traced: dict, untraced: dict, scale: float,
               counters: dict) -> Dict[str, float]:
    """Layer metrics of the traced rounds, the time no span covers, and
    the tracing overhead (untraced over traced throughput, both at
    reference speed, from the alternating rounds of this run)."""
    spans = tracer.totals()
    out = layer_metrics(spans, (tracer.gc_collections, tracer.gc_pause_ns),
                        traced["edges"], scale, counters)
    out["trace.uncovered_ms"] = (traced["raw"] * 1e9
                                 - traced["covered_ns"]) / 1e6 \
        * scale * 1e3 / max(1, traced["edges"])
    traced_eps = traced["edges"] / traced["push"] if traced["push"] else 0.0
    untraced_eps = untraced["edges"] / untraced["push"] \
        if untraced["push"] else 0.0
    out["trace.overhead_pct"] = (untraced_eps / traced_eps - 1.0) * 100 \
        if traced_eps else 0.0
    return out
