"""Per-layer spans recorded from outside the program.

:class:`Tracer` replaces public functions of the program's layers with
wrappers that time each call.  A span's *self* time is its duration minus
the time of spans that ran inside it on the same thread, so self times of
nested layers add up to the outermost span without double counting.
Spans are kept per thread in memory (no locking on the hot path) and
merged when read.
"""

from __future__ import annotations

import gc
import threading
from time import perf_counter_ns
from typing import Callable, Dict, List, Optional


class _Record:
    __slots__ = ("calls", "total_ns", "child_ns", "items")

    def __init__(self) -> None:
        self.calls = 0
        self.total_ns = 0
        self.child_ns = 0
        self.items = 0


class Tracer:
    """Installs and removes span wrappers; aggregates their records."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._tables: List[Dict[str, _Record]] = []
        self._lock = threading.Lock()
        self._patched: List = []
        #: Wrappers stay installed but record nothing while false.
        self.enabled = True
        self.gc_collections = 0
        self.gc_pause_ns = 0
        self._gc_started: Optional[int] = None

    def _state(self):
        local = self._local
        try:
            return local.stack, local.table
        except AttributeError:
            local.stack = []
            local.table = {}
            with self._lock:
                self._tables.append(local.table)
            return local.stack, local.table

    def wrap(self, owner, attr: str, span: str,
             items: Optional[Callable] = None) -> None:
        """Time ``owner.attr`` as ``span``; ``items(result)`` (optional)
        adds a per-call count such as hits or candidates."""
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        state = self._state
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return original(*args, **kwargs)
            stack, table = state()
            stack.append(0)
            start = perf_counter_ns()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = perf_counter_ns() - start
                child = stack.pop()
                if stack:
                    stack[-1] += elapsed
                record = table.get(span)
                if record is None:
                    record = table[span] = _Record()
                record.calls += 1
                record.total_ns += elapsed
                record.child_ns += child
            if items is not None:
                record.items += items(result)
            return result

        traced.__wrapped__ = original
        setattr(owner, attr, traced)
        self._patched.append((owner, attr, original))

    def wrap_generator(self, owner, attr: str, span: str) -> None:
        """Time a generator function over its whole iteration, counting
        the items it yields."""
        original = owner.__dict__[attr]
        state = self._state

        def traced(*args, **kwargs):
            iterator = original(*args, **kwargs)
            while True:
                stack, table = state()
                stack.append(0)
                start = perf_counter_ns()
                try:
                    item = next(iterator)
                except StopIteration:
                    item = StopIteration
                finally:
                    elapsed = perf_counter_ns() - start
                    child = stack.pop()
                    if stack:
                        stack[-1] += elapsed
                    record = table.get(span)
                    if record is None:
                        record = table[span] = _Record()
                    record.total_ns += elapsed
                    record.child_ns += child
                if item is StopIteration:
                    record.calls += 1
                    return
                record.items += 1
                yield item

        setattr(owner, attr, traced)
        self._patched.append((owner, attr, original))

    def _on_gc(self, phase: str, info: dict) -> None:
        if not self.enabled:
            self._gc_started = None
        elif phase == "start":
            self._gc_started = perf_counter_ns()
        elif self._gc_started is not None:
            self.gc_collections += 1
            self.gc_pause_ns += perf_counter_ns() - self._gc_started
            self._gc_started = None

    def start_gc(self) -> None:
        gc.callbacks.append(self._on_gc)

    def remove(self) -> None:
        """Restore every wrapped function (newest first)."""
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    def totals(self) -> Dict[str, dict]:
        """``span -> {calls, total_ns, self_ns, items}`` over all threads."""
        merged: Dict[str, dict] = {}
        with self._lock:
            tables = list(self._tables)
        for table in tables:
            for span, record in list(table.items()):
                out = merged.setdefault(span, {"calls": 0, "total_ns": 0,
                                               "self_ns": 0, "items": 0})
                out["calls"] += record.calls
                out["total_ns"] += record.total_ns
                out["self_ns"] += record.total_ns - record.child_ns
                out["items"] += record.items
        return merged


#: Per-layer metrics in report order: the library layers (any workload),
#: the service layers (gateway-wal only; 0 elsewhere), then the time no
#: span covers and the tracing overhead.
SERVICE_METRICS = (
    "codec.decode.self_ms", "wal.append.ms", "wal.sync.ms", "wal.fsyncs",
    "wal.bytes", "queues.put_wait.ms", "queues.get_wait.ms",
    "queues.depth_max", "gateway.worker.busy_ms", "sinks.write.ms",
    "persistence.load_session.ms", "wal.replay.ms", "wal.replay.edges")
TRACE_METRICS = ("trace.uncovered_ms", "trace.overhead_pct")
#: Reported only by netflow-sharded.
SHARDING_METRICS = (
    "sharding.facade.self_ms", "transport.encode.self_ms",
    "transport.ring_wait_ms", "transport.pipe_fallbacks",
    "sharding.shard_busy_ms", "sharding.shard_skew")


def workload_layers(workload: str) -> tuple:
    """The per-layer metrics a workload's traced run reports."""
    return tuple(name for name in per_layer_names()
                 if (name not in SERVICE_METRICS
                     or workload == "gateway-wal")
                 and (name not in SHARDING_METRICS
                      or workload == "netflow-sharded"))


def per_layer_names() -> tuple:
    return tuple(layer_metrics({}, (0, 0), 1, 1.0, {})) \
        + SERVICE_METRICS + TRACE_METRICS


def layer_metrics(spans: Dict[str, dict], gc_counts: tuple, edges: int,
                  scale: float, counters: dict) -> Dict[str, float]:
    """The library-layer metrics from span totals: self times in ms per
    1k edges at reference speed, call counts and per-call ratios, plus
    engine/session counters (``counters``) from the program's stats."""
    per_k = 1e3 / max(1, edges)

    def ms(span: str, key: str = "self_ns") -> float:
        return spans.get(span, {}).get(key, 0) / 1e6 * scale * per_k

    def field(span: str, key: str) -> int:
        return spans.get(span, {}).get(key, 0)

    def ratio(span: str) -> float:
        calls = field(span, "calls")
        return field(span, "items") / calls if calls else 0.0

    pushed = max(1, counters.get("edges_pushed", 1))
    return {
        "api.push_many.self_ms": ms("api.push_many"),
        "api.register.ms": ms("api.register", "total_ns"),
        "api.routed_per_edge": counters.get("routed_pushes", 0) / pushed,
        "api.skipped_matchers": counters.get("skipped_matchers", 0),
        "labeltrie.match.calls": field("labeltrie.match", "calls"),
        "labeltrie.match.self_ms": ms("labeltrie.match"),
        "labeltrie.match.hits_per_call": ratio("labeltrie.match"),
        "graph.window.calls": field("graph.window", "calls"),
        "graph.window.self_ms": ms("graph.window"),
        "graph.window.expired": field("graph.window", "items"),
        "engine.expire.calls": field("engine.expire", "calls"),
        "engine.expire.self_ms": ms("engine.expire"),
        "engine.expire.cells_removed": field("engine.expire", "items"),
        "engine.insert.calls": field("engine.insert", "calls"),
        "engine.insert.self_ms": ms("engine.insert"),
        "engine.join_operations": counters.get("join_operations", 0),
        "engine.index_probes": counters.get("index_probes", 0),
        "engine.scan_fallbacks": counters.get("scan_fallbacks", 0),
        "query.matching_edge_ids.calls": field("query.matching_edge_ids",
                                               "calls"),
        "query.matching_edge_ids.self_ms": ms("query.matching_edge_ids"),
        "query.matching_edge_ids.hits_per_call": ratio(
            "query.matching_edge_ids"),
        "index.probe.calls": field("index.probe", "calls"),
        "index.probe.self_ms": ms("index.probe"),
        "index.probe.candidates_per_probe": ratio("index.probe"),
        "matches.build.calls": field("matches.build", "calls"),
        "matches.build.self_ms": ms("matches.build"),
        "stores.insert.self_ms": ms("stores.insert"),
        "stores.delete_edge.self_ms": ms("stores.delete_edge"),
        "runtime.gc.collections": gc_counts[0],
        "runtime.gc.pause_ms": gc_counts[1] / 1e6 * scale * per_k,
        "sharding.facade.self_ms": ms("sharding.facade"),
        "transport.encode.self_ms": ms("transport.encode"),
        "transport.ring_wait_ms": ms("transport.ring_wait", "total_ns"),
        "transport.pipe_fallbacks": field("transport.encode", "items"),
        "sharding.shard_busy_ms": counters.get("shard_busy_s", 0.0) * 1e6
        * scale / pushed,
        "sharding.shard_skew": counters.get("shard_skew", 0.0),
    }


def _length(result) -> int:
    return len(result)


def _int(result) -> int:
    return int(result or 0)


def install_library_spans(tracer: Tracer) -> None:
    """Spans for the in-process library layers (session, routing, window,
    engine, index, matches, stores, sharding facade and transport)."""
    from repro.api import Session
    from repro.concurrency import sharding, transport
    from repro.core import index, labeltrie, matches, mstree, query, stores
    from repro.core.engine import TimingMatcher
    from repro.graph.shared_window import SharedSlidingWindow

    tracer.wrap(Session, "push_many", "api.push_many")
    tracer.wrap(Session, "register", "api.register")
    tracer.wrap(sharding.ShardedSession, "push_many", "sharding.facade")
    tracer.wrap(labeltrie.PredicateRouter, "match", "labeltrie.match",
                _length)
    tracer.wrap(SharedSlidingWindow, "push", "graph.window", _length)
    tracer.wrap(SharedSlidingWindow, "advance", "graph.window", _length)
    tracer.wrap(TimingMatcher, "insert_edge", "engine.insert")
    tracer.wrap(TimingMatcher, "delete_edge", "engine.expire", _int)
    tracer.wrap(query.QueryGraph, "matching_edge_ids",
                "query.matching_edge_ids", _length)
    tracer.wrap(index.LevelIndex, "probe", "index.probe", _length)
    tracer.wrap(matches.Match, "__init__", "matches.build")
    for store in (stores.IndependentTCStore, stores.GlobalIndependentStore,
                  mstree.MSTreeTCStore, mstree.GlobalMSTreeStore):
        tracer.wrap(store, "insert", "stores.insert")
        tracer.wrap(store, "delete_edge", "stores.delete_edge")
    tracer.wrap(transport.FacadeChannel, "encode_batch", "transport.encode",
                lambda frame: 1 if frame is None else 0)
    tracer.wrap(sharding._ProcessHandle, "ring_send", "transport.ring_wait")
    tracer.wrap(sharding._ProcessHandle, "ring_recv", "transport.ring_wait")
    tracer.start_gc()


def install_service_spans(tracer: Tracer) -> None:
    """Spans for the service layers, installed in the ``repro serve``
    process by ``serve_traced.py``."""
    from repro.api import Session
    from repro.service import codec, gateway, queues, wal
    from repro import persistence, sinks

    tracer.wrap(codec, "edge_from_json", "codec.decode")
    gateway.edge_from_json = codec.edge_from_json
    tracer.wrap(wal.WriteAheadLog, "append", "wal.append")
    tracer.wrap(wal.WriteAheadLog, "sync", "wal.sync")
    tracer.wrap_generator(wal.WriteAheadLog, "replay", "wal.replay")
    tracer.wrap(queues.BoundedEdgeQueue, "put", "queues.put_wait")
    tracer.wrap(queues.BoundedEdgeQueue, "put_many", "queues.put_wait")
    tracer.wrap(queues.BoundedEdgeQueue, "get_batch", "queues.get_wait")
    tracer.wrap(Session, "ingest", "gateway.worker")
    tracer.wrap(sinks.RotatingJSONLSink, "__call__", "sinks.write")
    tracer.wrap(persistence, "load_session_meta", "persistence.load_session")
    gateway.load_session_meta = persistence.load_session_meta
    tracer.start_gc()
