"""The server process of one benchmark run.

    python bench/server.py <repro serve flags>

Runs ``repro serve`` with the given flags. On SIGTERM it exits at once
with ``os._exit``, skipping the server's own shutdown, which is not part
of any measurement. With ``BENCH_TRACE_OUT=<file>`` in the environment
it first wraps the server-side layers and, on SIGTERM, writes their
spans and the storage engine's stats to that file. ``BENCH_SERVER_CPU``
pins it to one CPU.
"""

from __future__ import annotations

import os
import signal
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

from bench import adapter, trace  # noqa: E402


def main(argv: list[str]) -> int:
    cpu = os.environ.get("BENCH_SERVER_CPU")
    if cpu:  # before any thread starts, so every server thread inherits it
        os.sched_setaffinity(0, {int(cpu)})
    out = os.environ.get("BENCH_TRACE_OUT")
    tracer = None
    if out:
        tracer = trace.Tracer()
        tracer.install(adapter.server_layers())

    def stop(signum, frame):
        if tracer is not None:
            tracer.dump(out, storage=adapter.storage_stats())
        sys.stdout.flush()
        os._exit(0)

    signal.signal(signal.SIGTERM, stop)
    return adapter.serve(argv)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
