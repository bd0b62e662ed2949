"""The ``gateway-wal`` workload: ``repro serve`` driven over WebSockets.

One run:

1. *Prepare* (untimed): an in-process gateway with the same config ingests
   the checkpointed prefix, writes a checkpoint, journals the WAL tail and
   is aborted, as if killed.
2. *Set up* (``setup_s``): ``repro serve`` is restarted from a copy of that
   state several times; each restart is timed from process start to the
   listening banner (boot, checkpoint restore, WAL-tail replay), and must
   replay exactly the prepared tail.  The last restart stays up.
3. *Open loop*: one WebSocket connection sends a frame of edges every
   ``frame / rate`` seconds whatever the server does; a second one
   subscribes to the match stream.  Latencies run from each frame's due
   time.
4. *Closed loop* (``throughput_eps``): a fixed number of frames, each sent
   when the previous one is acked, until the tenant has applied them all.
5. Graceful shutdown; the final checkpoint is restored in-process for
   ``state_cells`` and the committed match log is verified, as is the
   stream the subscriber received.
"""

from __future__ import annotations

import base64
import http.client
import json
import os
import random
import selectors
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional

from common import (
    BENCH_DIR, SRC, WORK_DIR, BenchError, Calibrator, percentile,
    proc_cpu_seconds, proc_peak_rss_mb)
from inputs import (
    GATEWAY_BURST_EDGES, GATEWAY_CHECKPOINT_AT, GATEWAY_FRAME_EDGES,
    GATEWAY_RATE_EPS, GATEWAY_WAL_TAIL)
from tracing import layer_metrics
from verify import Verifier

#: Timed restarts per run (``setup_s`` is their median).
RESTARTS = 3
PREFIX_FRAME_EDGES = 200
TENANT = "main"
#: Spans that mostly wait (idle queue, fsync, backpressure) rather than
#: compute; left out when comparing span time with server CPU time.
WAIT_SPANS = ("queues.get_wait", "queues.put_wait", "wal.sync")


# --------------------------------------------------------------------- #
# A minimal RFC 6455 client
# --------------------------------------------------------------------- #
def _frame(payload: bytes, rng: random.Random) -> bytes:
    mask = bytes(rng.getrandbits(8) for _ in range(4))
    head = b"\x81"
    if len(payload) < 126:
        head += bytes([0x80 | len(payload)])
    elif len(payload) < 1 << 16:
        head += bytes([0x80 | 126]) + len(payload).to_bytes(2, "big")
    else:
        head += bytes([0x80 | 127]) + len(payload).to_bytes(8, "big")
    return head + mask + bytes(b ^ mask[i % 4] for i, b in enumerate(payload))


def _connect(port: int, path: str) -> socket.socket:
    sock = socket.create_connection(("127.0.0.1", port), timeout=30)
    key = base64.b64encode(os.urandom(16)).decode()
    sock.sendall((f"GET {path} HTTP/1.1\r\nHost: localhost\r\n"
                  "Upgrade: websocket\r\nConnection: Upgrade\r\n"
                  f"Sec-WebSocket-Key: {key}\r\n"
                  "Sec-WebSocket-Version: 13\r\n\r\n").encode())
    reply = b""
    while b"\r\n\r\n" not in reply:
        chunk = sock.recv(1)
        if not chunk:
            raise BenchError(f"WebSocket handshake on {path} closed early")
        reply += chunk
    if b" 101 " not in reply.split(b"\r\n", 1)[0]:
        raise BenchError(f"WebSocket handshake refused: {reply[:100]!r}")
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


class _Reader(threading.Thread):
    """Reads both connections: ack frames and match-stream frames, each
    stamped with its arrival time."""

    def __init__(self, ingest: socket.socket, stream: socket.socket) -> None:
        super().__init__(daemon=True)
        self.socks = {ingest: "ack", stream: "match"}
        self.buffers = {ingest: b"", stream: b""}
        self.acks: List = []
        self.matches: List = []
        self.ack_event = threading.Event()
        self.stop = False
        self.error: Optional[BaseException] = None

    def run(self) -> None:
        selector = selectors.DefaultSelector()
        for sock in self.socks:
            sock.setblocking(False)
            selector.register(sock, selectors.EVENT_READ)
        try:
            while not self.stop:
                for key, _ in selector.select(0.05):
                    sock = key.fileobj
                    try:
                        chunk = sock.recv(1 << 16)
                    except BlockingIOError:
                        continue
                    now = time.perf_counter()
                    if not chunk:
                        selector.unregister(sock)
                        continue
                    self._parse(sock, self.buffers[sock] + chunk, now)
        except BaseException as exc:      # surfaced by the main thread
            self.error = exc
        finally:
            selector.close()

    def _parse(self, sock, data: bytes, now: float) -> None:
        while len(data) >= 2:
            length = data[1] & 0x7F
            offset = 2
            if length == 126:
                if len(data) < 4:
                    break
                length, offset = int.from_bytes(data[2:4], "big"), 4
            elif length == 127:
                if len(data) < 10:
                    break
                length, offset = int.from_bytes(data[2:10], "big"), 10
            if len(data) < offset + length:
                break
            opcode = data[0] & 0x0F
            payload = data[offset:offset + length]
            data = data[offset + length:]
            if opcode != 0x1:
                continue
            if self.socks[sock] == "ack":
                self.acks.append((now, json.loads(payload)))
                self.ack_event.set()
            else:
                self.matches.append((now, json.loads(payload)))
        self.buffers[sock] = data


def _get(port: int, path: str) -> dict:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.request("GET", path)
        return json.loads(conn.getresponse().read())
    finally:
        conn.close()


def _stats(port: int) -> dict:
    return _get(port, "/stats")["tenants"][TENANT]


# --------------------------------------------------------------------- #
# Configuration and prepared state
# --------------------------------------------------------------------- #
def _write_config(path: str, inputs) -> None:
    from repro.io.dsl import format_query
    lines = ["[server]", 'host = "127.0.0.1"', "port = 0",
             'state_dir = "state"', "checkpoint_interval = 0.0", "",
             "[[tenant]]", f'name = "{TENANT}"',
             f"window = {inputs.window!r}", "queue_capacity = 20000",
             'backpressure = "block"', "batch_size = 256", "",
             "[tenant.wal]", "enabled = true", ""]
    for name, query in inputs.queries.items():
        lines += ["[[tenant.query]]", f'name = "{name}"',
                  f"text = '''\n{format_query(query)}'''", ""]
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines))


def _records(edges) -> List[dict]:
    from repro.service.codec import edge_to_json
    return [edge_to_json(edge) for edge in edges]


def _prepare(config_path: str, state_dir: str, records: List[dict]) -> None:
    """Checkpoint after the prefix, journal the tail, then abort."""
    import dataclasses

    from repro.service import ServiceGateway, load_config
    config = dataclasses.replace(load_config(config_path),
                                 state_dir=state_dir)
    gateway = ServiceGateway(config)
    try:
        tenant = gateway.tenant(TENANT)
        prefix = records[:GATEWAY_CHECKPOINT_AT]
        for i in range(0, len(prefix), PREFIX_FRAME_EDGES):
            tenant.ingest_json(prefix[i:i + PREFIX_FRAME_EDGES],
                               request_id=f"p{i}")
        if not gateway.wait_idle(timeout=120.0):
            raise BenchError("prepared gateway never drained the prefix")
        tenant.checkpoint()
        tail = records[GATEWAY_CHECKPOINT_AT:
                       GATEWAY_CHECKPOINT_AT + GATEWAY_WAL_TAIL]
        for i in range(0, len(tail), GATEWAY_FRAME_EDGES):
            tenant.ingest_json(tail[i:i + GATEWAY_FRAME_EDGES],
                               request_id=f"t{i}")
    finally:
        gateway.abort()


class _Server:
    """One ``repro serve`` process (optionally under the traced launcher)."""

    def __init__(self, config_path: str, state_dir: str, log_path: str,
                 spans_path: Optional[str]) -> None:
        if spans_path is None:
            cmd = [sys.executable, "-m", "repro", "serve"]
        else:
            cmd = [sys.executable, os.path.join(BENCH_DIR, "serve_traced.py"),
                   spans_path]
        cmd += ["--config", config_path, "--state-dir", state_dir]
        env = dict(os.environ, PYTHONPATH=SRC)
        self.log = open(log_path, "w", encoding="utf-8")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                                     stderr=self.log, text=True, env=env)
        self.port = None
        deadline = time.monotonic() + 120
        while self.port is None:
            line = self.proc.stdout.readline()
            if not line or time.monotonic() > deadline:
                self.kill()
                raise BenchError(f"repro serve did not start; see {log_path}")
            if "listening on http://" in line:
                self.port = int(line.split("http://", 1)[1].split()[0]
                                .rsplit(":", 1)[1])
        self.ready = time.perf_counter()

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait(timeout=30)
        self.log.close()

    def stop(self) -> None:
        """Graceful shutdown (drain, final checkpoint)."""
        self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.communicate(timeout=120)
        except subprocess.TimeoutExpired:
            self.kill()
            raise BenchError("repro serve did not shut down within 120 s")
        self.log.close()
        if self.proc.returncode != 0:
            raise BenchError(f"repro serve exited {self.proc.returncode}")


# --------------------------------------------------------------------- #
# The run
# --------------------------------------------------------------------- #
def run(inputs, seconds: float, trace: bool) -> dict:
    verifier = Verifier(inputs.queries, inputs.edges, inputs.window)
    live_start = GATEWAY_CHECKPOINT_AT + GATEWAY_WAL_TAIL
    expected_all = verifier.enumerate()
    expected_live = verifier.enumerate(start=live_start)
    records = _records(inputs.edges)
    rng = random.Random(inputs.seed)
    frame = GATEWAY_FRAME_EDGES
    burst_at = len(records) - GATEWAY_BURST_EDGES

    def encode(part, tag):
        return [_frame(json.dumps({"edges": part[i:i + frame],
                                   "request_id": f"{tag}{i}"}).encode(), rng)
                for i in range(0, len(part), frame)]

    frames = encode(records[live_start:burst_at], "l")
    burst = encode(records[burst_at:], "b")
    work = os.path.join(WORK_DIR, f"gateway-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        return _run(inputs, trace, verifier, expected_all, expected_live,
                    records, frames, burst, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(inputs, trace, verifier, expected_all, expected_live, records,
         frames, burst, work) -> dict:
    config_path = os.path.join(work, "server.toml")
    _write_config(config_path, inputs)
    prepared = os.path.join(work, "prepared")
    _prepare(config_path, prepared,
             records[:GATEWAY_CHECKPOINT_AT + GATEWAY_WAL_TAIL])
    calibrator = Calibrator()
    faults: List = []
    setups: List[float] = []
    server = None
    spans_path = os.path.join(work, "spans.json") if trace else None
    for k in range(RESTARTS):
        state = os.path.join(work, f"state{k}")
        shutil.copytree(prepared, state)
        before = calibrator.sample()
        last = k == RESTARTS - 1
        server = _Server(config_path, state, os.path.join(work, f"log{k}"),
                         spans_path if last else None)
        after = calibrator.sample()
        setups.append((server.ready - server.started)
                      * calibrator.factor(before, after))
        stats = _stats(server.port)
        if stats["wal"]["replayed_edges"] != GATEWAY_WAL_TAIL \
                or not stats["restored"]:
            faults.append({"replayed_edges": stats["wal"]["replayed_edges"],
                           "expected": GATEWAY_WAL_TAIL,
                           "restored": stats["restored"]})
        if not last:
            server.kill()
    try:
        result = _drive(server, trace, frames, burst, calibrator, records,
                        faults)
        peak_rss = proc_peak_rss_mb(server.proc.pid)
    except BaseException:
        server.kill()
        raise
    server.stop()
    state = os.path.join(work, f"state{RESTARTS - 1}")
    result["end_to_end"]["setup_s"] = statistics.median(setups)
    result["end_to_end"]["peak_rss_mb"] = peak_rss
    result["end_to_end"]["state_cells"] = _restored_cells(state)
    log_keys = _match_log(state, verifier, faults)
    stream_keys = []
    for _, record in result.pop("stream"):
        try:
            stream_keys.append(verifier.key_of_record(record))
        except (ValueError, KeyError) as exc:
            faults.append({"bad_stream_record": repr(exc)})
    for label, keys, expected in (("match_log", log_keys, expected_all),
                                  ("stream", stream_keys, expected_live)):
        report = verifier.compare(keys, expected)
        result["matches_verified"] += report["emitted"]
        if not report["ok"]:
            faults.append({label: report})
    result["faults"] = faults + result["faults"]
    result["samples"]["setups"] = len(setups)
    if trace:
        with open(spans_path, encoding="utf-8") as handle:
            spans = json.load(handle)
        result["per_layer"] = _per_layer(spans, result.pop("trace_info"))
    return result


def _drive(server, trace, frames, burst, calibrator, records,
           faults) -> dict:
    port = server.port
    pid = server.proc.pid
    stream = _connect(port, f"/tenants/{TENANT}/stream")
    deadline = time.monotonic() + 30
    while _stats(port)["subscribers"] < 1:
        if time.monotonic() > deadline:
            raise BenchError("match-stream subscription never registered")
        time.sleep(0.01)
    ingest = _connect(port, f"/tenants/{TENANT}/ingest")
    reader = _Reader(ingest, stream)
    reader.start()
    interval = GATEWAY_FRAME_EDGES / GATEWAY_RATE_EPS
    sent: List[float] = []
    due: List[float] = []
    scores: List[float] = [calibrator.sample()]
    half = len(frames) // 2
    cpu_marks = {}
    try:
        if trace:
            os.kill(pid, signal.SIGUSR2)            # spans off: baseline
        cpu_marks["start"] = proc_cpu_seconds(pid)
        t0 = time.perf_counter() + 0.05
        for i, data in enumerate(frames):
            if trace and i == half:
                cpu_marks["half"] = proc_cpu_seconds(pid)
                os.kill(pid, signal.SIGUSR1)        # spans on
            target = t0 + i * interval
            now = time.perf_counter()
            # A calibration sample (five ~1 ms kernels) fits in a gap
            # between frames; it is never taken when a frame is due.
            if calibrator.due() and target - now > 0.008:
                scores.append(calibrator.sample())
                now = time.perf_counter()
            if target > now:
                time.sleep(target - now)
            due.append(target)
            sent.append(time.perf_counter())
            ingest.sendall(data)
        _wait(lambda: len(reader.acks) >= len(frames), reader,
              "acks of the open loop")
        _wait_applied(port)
        cpu_marks["end"] = proc_cpu_seconds(pid)
        scores.append(calibrator.sample())

        # Closed loop: next frame once the previous one is acked.
        scores_burst = [calibrator.sample()]
        start = time.perf_counter()
        for data in burst:
            reader.ack_event.clear()
            expected_acks = len(reader.acks) + 1
            ingest.sendall(data)
            _wait(lambda: len(reader.acks) >= expected_acks, reader,
                  "a closed-loop ack")
        _wait_applied(port, poll=0.002)
        burst_seconds = time.perf_counter() - start
        scores_burst.append(calibrator.sample())
        final_stats = _stats(port)
    finally:
        reader.stop = True
        reader.join(timeout=10)
        for sock in (ingest, stream):
            sock.close()
    acks = reader.acks
    for _, ack in acks:
        if ack.get("accepted") != GATEWAY_FRAME_EDGES or \
                ack.get("durable") is not True:
            faults.append({"bad_ack": ack})
            break
    live_edges = len(frames) * GATEWAY_FRAME_EDGES
    scale = statistics.median(scores) / 1000.0
    ack_ms = [(acks[i][0] - due[i]) * 1e3 for i in range(len(frames))]
    batch_ms = [(acks[i][0] - sent[i]) * 1e3 for i in range(len(frames))]
    lateness_ms = [(sent[i] - due[i]) * 1e3 for i in range(len(frames))]
    live_start = GATEWAY_CHECKPOINT_AT + GATEWAY_WAL_TAIL
    match_ms = []
    for moment, record in reader.matches:
        last = max(_position(records, data["timestamp"])
                   for data in record["edges"].values())
        if last < live_start + live_edges:
            frame_no = (last - live_start) // GATEWAY_FRAME_EDGES
            match_ms.append((moment - due[frame_no]) * 1e3)
    burst_edges = GATEWAY_BURST_EDGES
    burst_scale = statistics.mean(scores_burst) / 1000.0
    cpu = cpu_marks["end"] - cpu_marks["start"]
    result = {
        "frames_acked": len(acks),
        "batches": len(acks),
        "failed_batches": len(frames) + len(burst) - len(acks),
        "matches_verified": 0,
        "faults": [],
        "calibration_score": statistics.median(scores),
        "scale": scale,
        "raw_throughput_eps": burst_edges / burst_seconds,
        "offered_rate_eps": GATEWAY_RATE_EPS,
        "generator_late_ms_p50": percentile(lateness_ms, 50),
        "generator_late_ms_max": max(lateness_ms),
        "queue_high_water": final_stats["queue"]["high_water"],
        "wal_fsyncs": final_stats["wal"]["fsyncs"],
        "stream": reader.matches,
        "end_to_end": {
            "setup_s": 0.0,
            "throughput_eps": burst_edges / burst_seconds * burst_scale,
            "cpu_us_per_edge": cpu * scale / live_edges * 1e6,
            "batch_latency_p50_ms": percentile(batch_ms, 50),
            "batch_latency_p99_ms": percentile(batch_ms, 99),
            "ack_latency_p50_ms": percentile(ack_ms, 50),
            "ack_latency_p99_ms": percentile(ack_ms, 99),
            "match_latency_p50_ms": percentile(match_ms or [0.0], 50),
            "state_cells": 0.0,
            "peak_rss_mb": 0.0,
        },
        "samples": {"frames": len(ack_ms), "matches": len(match_ms)},
    }
    if trace:
        result["trace_info"] = {
            "scale": scale,
            "cpu_untraced": cpu_marks["half"] - cpu_marks["start"],
            "cpu_traced": cpu_marks["end"] - cpu_marks["half"],
            "edges_untraced": half * GATEWAY_FRAME_EDGES,
            "edges_traced": (len(frames) - half) * GATEWAY_FRAME_EDGES
            + burst_edges,
            "open_traced_edges": (len(frames) - half) * GATEWAY_FRAME_EDGES,
            "stats": final_stats,
        }
    return result


def _position(records, stamp: float) -> int:
    """Stream position of the edge with timestamp ``stamp`` (timestamps
    strictly increase)."""
    lo, hi = 0, len(records)
    while lo < hi:
        mid = (lo + hi) // 2
        if records[mid]["timestamp"] < stamp:
            lo = mid + 1
        else:
            hi = mid
    return lo


def _wait(condition, reader: _Reader, what: str, timeout: float = 60.0):
    deadline = time.monotonic() + timeout
    while not condition():
        if reader.error is not None:
            raise BenchError(f"reader failed: {reader.error!r}")
        if time.monotonic() > deadline:
            raise BenchError(f"timed out waiting for {what}")
        reader.ack_event.wait(0.01)
        reader.ack_event.clear()


def _wait_applied(port: int, poll: float = 0.01) -> None:
    deadline = time.monotonic() + 60
    while True:
        stats = _stats(port)
        if stats["queue"]["depth"] == 0 and \
                stats["wal"]["applied_lsn"] >= stats["wal"]["appended_lsn"]:
            return
        if time.monotonic() > deadline:
            raise BenchError("tenant never applied its journal")
        time.sleep(poll)


def _restored_cells(state: str) -> float:
    from repro.persistence import load_session_meta
    session, _ = load_session_meta(os.path.join(state, TENANT,
                                                "checkpoint.pkl"))
    try:
        return float(session.space_cells())
    finally:
        close = getattr(session, "close", None)
        if close is not None:
            close()


def _match_log(state: str, verifier: Verifier, faults: List) -> List:
    keys = []
    directory = os.path.join(state, TENANT, "matches")
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".jsonl"):
            continue
        with open(os.path.join(directory, name), encoding="utf-8") as fh:
            for line in fh:
                try:
                    keys.append(verifier.key_of_record(json.loads(line)))
                except (ValueError, KeyError) as exc:
                    faults.append({"bad_log_record": repr(exc)})
    return keys


def _per_layer(spans: dict, info: dict) -> Dict[str, float]:
    """Layer metrics of the traced half of the open loop plus the closed
    loop (per 1k edges at reference speed), boot-time restore and replay
    (ms per restart), and the tracing overhead: server CPU per edge in
    the traced half over the untraced half."""
    boot, final = spans["boot"], spans["final"]
    live = {name: {key: value - boot.get(name, {}).get(key, 0)
                   for key, value in record.items()}
            for name, record in final.items()}
    gc_live = (spans["gc"][0] - spans["boot_gc"][0],
               spans["gc"][1] - spans["boot_gc"][1])
    scale, edges = info["scale"], info["edges_traced"]
    stats = info["stats"]
    out = layer_metrics(live, gc_live, edges, scale, {})
    per_k = 1e3 / edges

    def ms(span: str, key: str, table=live, norm: float = per_k) -> float:
        return table.get(span, {}).get(key, 0) / 1e6 * scale * norm

    out.update({
        "codec.decode.self_ms": ms("codec.decode", "self_ns"),
        "wal.append.ms": ms("wal.append", "total_ns"),
        "wal.sync.ms": ms("wal.sync", "total_ns"),
        "wal.fsyncs": stats["wal"]["fsyncs"],
        "wal.bytes": stats["wal"]["bytes_written"],
        "queues.put_wait.ms": ms("queues.put_wait", "total_ns"),
        "queues.get_wait.ms": ms("queues.get_wait", "total_ns"),
        "queues.depth_max": stats["queue"]["high_water"],
        "gateway.worker.busy_ms": ms("gateway.worker", "total_ns"),
        "sinks.write.ms": ms("sinks.write", "total_ns"),
        "persistence.load_session.ms": ms("persistence.load_session",
                                          "total_ns", boot, 1.0),
        "wal.replay.ms": ms("wal.replay", "total_ns", boot, 1.0),
        "wal.replay.edges": stats["wal"]["replayed_edges"],
    })
    untraced = info["cpu_untraced"] / info["edges_untraced"]
    traced = info["cpu_traced"] / info["open_traced_edges"]
    out["trace.overhead_pct"] = (traced / untraced - 1.0) * 100 \
        if untraced else 0.0
    busy = sum(record["self_ns"] for name, record in live.items()
               if name not in WAIT_SPANS)
    out["trace.uncovered_ms"] = max(
        0.0, traced * 1e6 - busy / 1e6 * per_k) * scale
    return out
