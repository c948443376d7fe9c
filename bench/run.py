"""Run the served-journey benchmark, or compare two of its results.

    python3 bench/run.py [--workload NAME] [--seed N] [--seconds S]
                         [--trace 0|1] [--out FILE]
    python3 bench/run.py compare BASE.json NEW.json

A run boots ``bench/server.py`` (``repro serve``) per set-up, drives it
over TCP from this process, checks every output and prints each metric
with its unit; the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``. ``--trace 0`` reports
the end-to-end metrics of ``BENCHMARK.json``; ``--trace 1`` its
per-layer metrics, from a run whose first third is untraced (the
baseline for ``trace.overhead``) and whose rest is traced. Without
``--workload`` every workload runs and metric names gain a
``<workload>.`` prefix. The exit code is non-zero when a check fails.

``compare`` applies each end-to-end metric's bound to two ``--out``
files and exits non-zero on a regression; it refuses results whose
crypto tiers differ.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_DIR = os.path.join(ROOT, ".bench_run")
SETUPS = 3  # set-ups per run; setup_s is their median


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def git_revision() -> str:
    """The checkout's commit, read from ``.git`` when there is one."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs")) as handle:
            for line in handle:
                if line.strip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> dict:
    from bench import adapter, metrics, trace, workloads

    workload = workloads.WORKLOADS[name]()

    def boot(run_seconds, trace_out=None):
        rng = random.Random(seed)  # every set-up makes the same inputs
        server = workloads.ServerProcess(workload.flags, trace_out)
        try:
            state = workload.setup(server.address, rng, run_seconds)
        except BaseException:
            server.stop()
            raise
        return server, state, rng

    def measure(server, state, rng, run_seconds, tracer=None):
        try:
            return workload.run(state, run_seconds, rng, tracer, server)
        finally:
            workload.close(state)
            server.stop()

    result: dict = {}
    if not traced:
        setups, server, state = [], None, None
        for _ in range(SETUPS):
            if server is not None:
                workload.close(state)
                server.stop()
            began = time.perf_counter()
            server, state, rng = boot(seconds)
            took = time.perf_counter() - began
            gauge = statistics.fmean(workloads.probe() for _ in range(80))
            setups.append((took, gauge / metrics.REFERENCE_PROBE_S))
        out = measure(server, state, rng, seconds)
        result["metrics"], measured = metrics.end_to_end(workload, out, setups)
        result["details"] = {**measured, **metrics.details(out)}
        attempted, failed, errors = out.attempted, out.failed, out.errors
        missing: list = []
    else:
        baseline = measure(*boot(seconds / 3), seconds / 3)
        os.makedirs(os.path.join(RUN_DIR, "trace"), exist_ok=True)
        server_file = os.path.join(RUN_DIR, "trace", name + ".server.json")
        server, state, rng = boot(seconds * 2 / 3, server_file)
        tracer = trace.Tracer()
        rebound = tracer.install(adapter.client_layers())
        since = time.perf_counter()
        out = measure(server, state, rng, seconds * 2 / 3, tracer)
        tracer.dump(os.path.join(RUN_DIR, "trace", name + ".client.json"),
                    rebound=rebound)
        with open(server_file) as handle:
            server_dump = json.load(handle)
        result["metrics"], missing = metrics.per_layer(
            name, workload, out, baseline, tracer, server_dump, since)
        missing += [layer for layer in metrics.LAYERS[:-1] if not rebound.get(layer)]
        result["details"] = metrics.details(out)
        attempted = baseline.attempted + out.attempted
        failed = baseline.failed + out.failed
        errors = baseline.errors + out.errors
    result.update(
        correct=failed == 0 and not missing,
        attempted=attempted,
        failed=failed,
        errors=errors + ["layer %s recorded no call" % layer for layer in missing],
    )
    return result


def run(args) -> int:
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) > 1:
        # Client and server each get a CPU of their own, as on two hosts;
        # sharing them let thread placement move latency between runs.
        os.sched_setaffinity(0, cpus[:1])
        os.environ["BENCH_SERVER_CPU"] = str(cpus[-1])
    os.environ.setdefault("REPRO_ACCEL_CACHE", os.path.join(RUN_DIR, "accel"))
    try:
        from bench import adapter, workloads
    except ImportError as exc:
        print("error: cannot import the program under test: %s" % exc, file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    if any(name not in workloads.WORKLOADS for name in names):
        print("error: unknown workload %r" % args.workload, file=sys.stderr)
        return 2
    declared = load_spec()["per_layer" if args.trace else "end_to_end"]
    stamp = {"tier": adapter.crypto_tier(), "python": platform.python_version(),
             "nproc": os.cpu_count(), "revision": git_revision(), "seed": args.seed,
             "seconds": args.seconds, "trace": args.trace}
    results = {}
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        values = result["metrics"]
        result["metrics"] = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                             for m in declared}
        results[name] = result
        for key, entry in result["metrics"].items():
            print("%s %s = %.6g %s" % (name, key, entry["value"], entry["unit"]))
        for key, value in result["details"].items():
            print("%s detail %s = %.6g" % (name, key, value))
        for error in result["errors"]:
            print("%s check failed: %s" % (name, error))
    if args.out:
        with open(args.out, "w") as handle:
            json.dump({"stamp": stamp, "workloads": results}, handle, indent=1)
    prefix = len(names) > 1
    summary = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {("%s.%s" % (name, key) if prefix else key): entry
                    for name, r in results.items() for key, entry in r["metrics"].items()},
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def compare_files(paths: list[str]) -> int:
    from bench import metrics

    if len(paths) != 2:
        print("usage: run.py compare BASE.json NEW.json", file=sys.stderr)
        return 2
    loaded = []
    for path in paths:
        with open(path) as handle:
            loaded.append(json.load(handle))
    try:
        lines, ok = metrics.compare(loaded[0], loaded[1], load_spec())
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    print("\n".join(lines))
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]
    if argv[:1] == ["compare"]:
        return compare_files(argv[1:])
    parser = argparse.ArgumentParser(prog="bench", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default=None)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=load_spec()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="also write the full results here")
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    raise SystemExit(main())
