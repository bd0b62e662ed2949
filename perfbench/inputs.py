"""Workload inputs: a fixed base stream and query library per workload,
relabelled per ``--seed``.

Each workload's *base* inputs come from ``repro.datasets`` at a pinned
generator seed and are fingerprinted; the README records the fingerprints
and every run checks them, so a change to the generators cannot silently
change a workload.  ``--seed`` then draws a random renaming of the stream's
vertices (IP addresses).  Query vertices are unbound variables, so the
renamed stream has exactly the same matches under the renaming: every seed
exercises the program on different values while the work per run stays
comparable, which is what lets runs with different seeds be compared.
"""

from __future__ import annotations

import hashlib
import os
import random
import re
from dataclasses import dataclass, field
from typing import Dict, List

from common import BENCH_DIR, BenchError

LIBRARY_WORKLOADS = ("netflow-routed", "netflow-wildcard", "netflow-sharded")
WORKLOADS = LIBRARY_WORKLOADS + ("gateway-wal",)

# netflow-routed / netflow-sharded / gateway-wal: the routing perf suite's
# stream, relabelled to "<dst-port>/<protocol>" strings so prefix rules can
# test it.
ROUTED_SEED = 7
ROUTED_EDGES = 24000
ROUTED_IPS = 150
ROUTED_EXTRA_PORTS = 200
ROUTED_PORT_ALPHA = 0.8
ROUTED_WINDOW_UNITS = 2000.0
ROUTED_EXACT_QUERIES = 16
ROUTED_COLD_RULES = 24
ROUTED_RARE_RULES = 4
ROUTED_CHAIN_RULES = 2
ROUTED_BATCH = 64
#: Smaller batches through the shards, so a run still times >= 1,000 of them.
SHARDED_BATCH = 32

# netflow-wildcard: the indexing perf suite's stream and query shape.
WILDCARD_SEED = 42
WILDCARD_EDGES = 12000
WILDCARD_IPS = 120
WILDCARD_WINDOW_UNITS = 300.0
WILDCARD_K = 4
WILDCARD_BATCH = 32

# gateway-wal: checkpointed prefix, journaled tail, then the open loop.
GATEWAY_CHECKPOINT_AT = 6000
GATEWAY_WAL_TAIL = 3000
GATEWAY_RATE_EPS = 1000
GATEWAY_FRAME_EDGES = 10
#: Closed-loop edges sent after the open loop (``throughput_eps``).
GATEWAY_BURST_EDGES = 3000
#: Stream length the fingerprint covers (the live part at 10 s).
GATEWAY_FINGERPRINT_EDGES = (GATEWAY_CHECKPOINT_AT + GATEWAY_WAL_TAIL
                             + GATEWAY_RATE_EPS * 10 + GATEWAY_BURST_EDGES)


@dataclass
class Inputs:
    """One run's generated inputs."""

    workload: str
    edges: List = field(repr=False)
    queries: Dict = field(repr=False)
    window: float
    batch: int
    fingerprint: str
    seed: int


def _relabel(edges, seed: int, workload: str):
    from repro import StreamEdge
    rng = random.Random(f"{workload}:{seed}")
    vertices = sorted({v for e in edges for v in (e.src, e.dst)})
    codes = rng.sample(range(1 << 24), len(vertices))
    rename = {v: f"10.{c >> 16}.{(c >> 8) & 255}.{c & 255}"
              for v, c in zip(vertices, codes)}
    return [StreamEdge(rename[e.src], rename[e.dst], src_label=e.src_label,
                       dst_label=e.dst_label, timestamp=e.timestamp,
                       label=e.label) for e in edges]


def _routed_stream(num_edges: int):
    from repro.datasets import generate_netflow_stream
    from repro.graph.ops import relabel_stream
    raw = generate_netflow_stream(
        num_edges, seed=ROUTED_SEED, num_ips=ROUTED_IPS,
        extra_ports=ROUTED_EXTRA_PORTS, port_alpha=ROUTED_PORT_ALPHA)
    return relabel_stream(raw, edge_label=lambda lbl: f"{lbl[1]}/{lbl[2]}")


def _rule(label, chained=None):
    from repro import QueryGraph
    query = QueryGraph()
    query.add_vertex("a", "IP")
    query.add_vertex("b", "IP")
    if chained is None:
        query.add_edge("r1", "a", "b", label)
    else:
        query.add_edge("r1", "a", "b", chained)
        query.add_edge("r2", "b", "a", label)
        query.add_timing_constraint("r1", "r2")
    return query


def _routed_library(stream) -> Dict:
    """16 exact-label 4-edge patterns (full timing order, as in the routing
    perf suite) plus a tail of prefix rules: cold prefixes no label carries,
    rare ports, and "any flow a->b, then a rare-port reply b->a" pairs."""
    from repro import ANY, Prefix
    from repro.datasets.query_gen import generate_query_set, window_slice
    population = window_slice(stream, 300)
    variants = generate_query_set(population, sizes=[4],
                                  per_size=ROUTED_EXACT_QUERIES,
                                  rng=random.Random(3))
    library = {f"q{i:02d}": query for i, query
               in enumerate(variants[0::5][:ROUTED_EXACT_QUERIES])}
    labels = [edge.label for edge in stream]
    counts: Dict[str, int] = {}
    for label in labels:
        port = label.split("/")[0] + "/"
        counts[port] = counts.get(port, 0) + 1
    by_rarity = sorted(counts, key=lambda port: (counts[port], port))
    cold = [str(n) for n in range(100, 1000)
            if not any(label.startswith(str(n)) for label in counts)]
    step = max(1, len(cold) // ROUTED_COLD_RULES)
    for i, prefix in enumerate(cold[::step][:ROUTED_COLD_RULES]):
        library[f"cold{i:02d}"] = _rule(Prefix(prefix))
    for i, port in enumerate(by_rarity[20:20 + ROUTED_RARE_RULES]):
        library[f"rare{i}"] = _rule(Prefix(port))
    for i, port in enumerate(by_rarity[:ROUTED_CHAIN_RULES]):
        library[f"reply{i}"] = _rule(Prefix(port), chained=ANY)
    if len(library) != (ROUTED_EXACT_QUERIES + ROUTED_COLD_RULES
                        + ROUTED_RARE_RULES + ROUTED_CHAIN_RULES):
        raise BenchError(f"routed library has {len(library)} queries")
    return library


def _wildcard_library(stream) -> Dict:
    """The five timing-order variants of one 5-edge walk whose greedy
    decomposition has k=4 TC-subqueries, source ports wildcarded."""
    from repro import ANY
    from repro.core.decomposition import greedy_decomposition
    from repro.core.tc import tc_subqueries
    from repro.datasets.query_gen import (
        build_query, random_walk_edges, window_slice)
    population = window_slice(stream, 300)
    rng = random.Random(WILDCARD_SEED)

    def generalize(label):
        return (ANY, label[1], label[2])

    for _ in range(500):
        walk = random_walk_edges(population, 5, rng, max_tries=10)
        if walk is None:
            continue
        main = build_query(walk, timing="random", rng=rng,
                           generalize_label=generalize)
        if len(greedy_decomposition(main, tc_subqueries(main))) == WILDCARD_K:
            break
    else:
        raise BenchError("no k=4 walk found for the wildcard library")
    library = {"k4": main}
    library["full"] = build_query(walk, timing="full",
                                  generalize_label=generalize)
    library["empty"] = build_query(walk, timing="empty",
                                   generalize_label=generalize)
    for i in range(2):
        library[f"random{i}"] = build_query(
            walk, timing="random", rng=rng, generalize_label=generalize)
    return library


def fingerprint(edges, queries: Dict, window: float, batch: int) -> str:
    """Stable hash of a stream, a query library and the window/batch."""
    digest = hashlib.sha256()
    for e in edges:
        digest.update(f"{e.src}|{e.dst}|{e.src_label}|{e.dst_label}|"
                      f"{e.timestamp!r}|{e.label!r}\n".encode())
    for name in sorted(queries):
        query = queries[name]
        digest.update(f"Q {name}\n".encode())
        for v in sorted(query.vertices(), key=lambda v: str(v.vertex_id)):
            digest.update(f"V {v.vertex_id}|{v.label!r}\n".encode())
        for e in sorted(query.edges(), key=lambda e: str(e.edge_id)):
            digest.update(f"E {e.edge_id}|{e.src}|{e.dst}|{e.label!r}|"
                          f"{sorted(map(str, query.timing.successors(e.edge_id)))}"
                          "\n".encode())
    digest.update(f"W {window!r} B {batch}\n".encode())
    return digest.hexdigest()[:16]


def recorded_fingerprints() -> Dict[str, str]:
    """``workload -> fingerprint`` as recorded in the README."""
    path = os.path.join(BENCH_DIR, "README.md")
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    return dict(re.findall(r"^fingerprint ([a-z-]+) ([0-9a-f]{16})$", text,
                           re.MULTILINE))


def build(workload: str, seed: int, seconds: float = 10.0) -> Inputs:
    """Generate one run's inputs (base inputs renamed by ``seed``)."""
    from repro.datasets import generate_netflow_stream
    if workload == "netflow-wildcard":
        stream = generate_netflow_stream(WILDCARD_EDGES, seed=WILDCARD_SEED,
                                         num_ips=WILDCARD_IPS)
        queries = _wildcard_library(stream)
        window = stream.window_units_to_duration(WILDCARD_WINDOW_UNITS)
        base, batch = list(stream), WILDCARD_BATCH
        hashed = base
    elif workload in LIBRARY_WORKLOADS:
        stream = _routed_stream(ROUTED_EDGES)
        queries = _routed_library(stream)
        window = stream.window_units_to_duration(ROUTED_WINDOW_UNITS)
        base = list(stream)
        batch = SHARDED_BATCH if workload == "netflow-sharded" \
            else ROUTED_BATCH
        hashed = base
    elif workload == "gateway-wal":
        live = int(round(GATEWAY_RATE_EPS * seconds / GATEWAY_FRAME_EDGES)
                   ) * GATEWAY_FRAME_EDGES
        length = (GATEWAY_CHECKPOINT_AT + GATEWAY_WAL_TAIL + live
                  + GATEWAY_BURST_EDGES)
        total = max(length, GATEWAY_FINGERPRINT_EDGES)
        library_stream = _routed_stream(ROUTED_EDGES)
        queries = _routed_library(library_stream)
        window = library_stream.window_units_to_duration(ROUTED_WINDOW_UNITS)
        base = list(_routed_stream(total))
        hashed = base[:GATEWAY_FINGERPRINT_EDGES]
        base = base[:length]
        batch = GATEWAY_FRAME_EDGES
    else:
        raise BenchError(f"unknown workload {workload!r}; "
                         f"choose from {', '.join(WORKLOADS)}")
    return Inputs(workload=workload, edges=_relabel(base, seed, workload),
                  queries=queries, window=window, batch=batch,
                  fingerprint=fingerprint(hashed, queries, window, batch),
                  seed=seed)


def check_fingerprint(inputs: Inputs) -> None:
    """Fail unless the base inputs hash to the README's recorded value."""
    recorded = recorded_fingerprints().get(inputs.workload)
    if recorded != inputs.fingerprint:
        raise BenchError(
            f"{inputs.workload}: input fingerprint {inputs.fingerprint} "
            f"differs from the README's {recorded}; the generators changed "
            "(rebuild with `python3 perfbench/run.py --fingerprints` only "
            "if the change is intended)")
