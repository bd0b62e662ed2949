"""Launch ``repro serve`` with the benchmark's spans installed.

    python3 perfbench/serve_traced.py SPANS.json [repro serve options]

The spans wrap the library and service layers in this process, then the
``repro serve`` entry point runs as usual.  ``SIGUSR2`` snapshots the
spans recorded so far (boot: restore and WAL replay) and pauses
recording; ``SIGUSR1`` resumes it.  On exit the snapshot and the final
totals are written to ``SPANS.json``.
"""

from __future__ import annotations

import json
import os
import signal
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import import_program  # noqa: E402


def main() -> int:
    out_path, serve_args = sys.argv[1], sys.argv[2:]
    import_program()
    from tracing import Tracer, install_library_spans, install_service_spans
    tracer = Tracer()
    install_library_spans(tracer)
    install_service_spans(tracer)
    snapshot = {}

    def pause(signum, frame):
        snapshot["boot"] = tracer.totals()
        snapshot["boot_gc"] = [tracer.gc_collections, tracer.gc_pause_ns]
        tracer.enabled = False

    def resume(signum, frame):
        tracer.enabled = True

    signal.signal(signal.SIGUSR2, pause)
    signal.signal(signal.SIGUSR1, resume)
    from repro.cli import main as repro_main
    code = repro_main(["serve"] + serve_args)
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump({"boot": snapshot.get("boot", {}),
                   "boot_gc": snapshot.get("boot_gc", [0, 0]),
                   "final": tracer.totals(),
                   "gc": [tracer.gc_collections, tracer.gc_pause_ns]},
                  handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
