"""Shared plumbing: locating the program, the calibration kernel, statistics
and process-resource readers.

Nothing here imports ``repro``; :func:`import_program` does that, and only
from the checkout's own ``src/`` directory.
"""

from __future__ import annotations

import math
import os
import statistics
import sys
import time
from typing import Dict, List, Sequence

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
#: Working space for state directories and traced-run output; listed in
#: the repository's ``.gitignore``.
WORK_DIR = os.path.join(ROOT, ".bench_work")


class BenchError(RuntimeError):
    """A run that cannot produce a result (missing program, bad input)."""


def import_program():
    """Import ``repro`` from ``<checkout>/src`` and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise BenchError(f"program source not found under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import repro
    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        raise BenchError(f"imported repro from {repro.__file__}, not {SRC}")
    return repro


# --------------------------------------------------------------------- #
# Calibration
# --------------------------------------------------------------------- #

#: Kernel score (kernel runs per second) that defines "reference speed":
#: about this host's typical score (see README).  A run on a host that is
#: momentarily half as fast scores about half of it, and its timings are
#: scaled down by the same share.
REFERENCE_SCORE = 1000.0


class _Slot:
    __slots__ = ("key", "hits", "nxt")

    def __init__(self, key, nxt) -> None:
        self.key = key
        self.hits = 0
        self.nxt = nxt


def kernel() -> int:
    """A fixed pure-Python workload with the program's operation mix:
    tuple-keyed dict probes, attribute access on slotted objects, list
    appends, small allocations and calls."""
    table: Dict = {}
    chain = None
    acc = 0
    for i in range(1200):
        key = (i & 127, i % 7)
        slot = table.get(key)
        if slot is None:
            slot = table[key] = _Slot(key, chain)
            chain = slot
        slot.hits += 1
        acc += slot.hits ^ len(table)
    bucket: List = []
    while chain is not None:
        bucket.append(chain.key)
        chain = chain.nxt
    return acc + len(bucket)


class Calibrator:
    """Interleaved speed samples and the scale factor they imply.

    :meth:`sample` runs the kernel (best of five, so a preemption inside
    one repetition does not read as a slow host) and returns its score.
    The timed region is cut into segments, one per sample; a segment's
    timings are scaled by ``score / REFERENCE_SCORE`` using the mean of the
    samples that bracket it, so a host running at half speed has its
    timings halved back to reference speed.
    """

    def __init__(self, spacing_s: float = 0.1) -> None:
        self.spacing_s = spacing_s
        self.scores: List[float] = []
        self._last_at = 0.0

    def sample(self) -> float:
        best = float("inf")
        for _ in range(5):
            start = time.perf_counter()
            kernel()
            best = min(best, time.perf_counter() - start)
        score = 1.0 / best
        self.scores.append(score)
        self._last_at = time.perf_counter()
        return score

    def due(self) -> bool:
        return time.perf_counter() - self._last_at >= self.spacing_s

    def factor(self, before: float, after: float) -> float:
        """Scale for a segment bracketed by scores ``before``/``after``."""
        return (before + after) / 2.0 / REFERENCE_SCORE

    def median_score(self) -> float:
        return statistics.median(self.scores) if self.scores else 0.0


class Segments:
    """Raw measurements grouped by calibration segment, scaled on close.

    Callers :meth:`add` raw samples (latencies, durations) while the
    segment is open; :meth:`close` applies the bracketing factor.
    """

    def __init__(self, calibrator: Calibrator) -> None:
        self.cal = calibrator
        self._before = calibrator.sample()
        self._open: Dict[str, List[float]] = {}
        self.scaled: Dict[str, List[float]] = {}
        self.raw: Dict[str, List[float]] = {}

    def add(self, name: str, value: float) -> None:
        self._open.setdefault(name, []).append(value)

    def maybe_close(self) -> None:
        if self.cal.due():
            self.close()

    def close(self) -> None:
        after = self.cal.sample()
        scale = self.cal.factor(self._before, after)
        for name, values in self._open.items():
            self.raw.setdefault(name, []).extend(values)
            self.scaled.setdefault(name, []).extend(v * scale for v in values)
        self._open = {}
        self._before = after

    def total(self, name: str, *, scaled: bool = True) -> float:
        return sum((self.scaled if scaled else self.raw).get(name, ()))


# --------------------------------------------------------------------- #
# Statistics
# --------------------------------------------------------------------- #
def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty sample."""
    ordered = sorted(values)
    rank = min(len(ordered), max(1, math.ceil(q / 100.0 * len(ordered))))
    return ordered[rank - 1]


# --------------------------------------------------------------------- #
# Process resources (read-only /proc access)
# --------------------------------------------------------------------- #
_TICKS = os.sysconf("SC_CLK_TCK")
_PAGE = os.sysconf("SC_PAGE_SIZE")


def proc_cpu_seconds(pid: int) -> float:
    """User + system CPU seconds of one process (0 if it is gone)."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
    except OSError:
        return 0.0
    return (int(fields[11]) + int(fields[12])) / _TICKS


def proc_rss_mb(pid: int) -> float:
    """Current resident set of one process in MB."""
    try:
        with open(f"/proc/{pid}/statm", encoding="ascii") as handle:
            return int(handle.read().split()[1]) * _PAGE / 1e6
    except OSError:
        return 0.0


def proc_peak_rss_mb(pid: int) -> float:
    """Peak resident set (VmHWM) of one process in MB."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024 / 1e6
    except OSError:
        pass
    return 0.0
