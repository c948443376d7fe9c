"""Metrics from measured loops and traces, and the comparison of results.

End-to-end metrics are the same five on every workload, so each run
reports each of them:

* ``latency_ms.p50`` / ``.p90`` — for a journey workload, each group's
  percentile weighted by the group's share of the mix (a pooled
  percentile of a multi-modal mix would jump between modes); for a
  storm, the request percentile.
* ``throughput_per_s`` — correct journeys or requests per second.
* ``server_rss_mb`` — the server's peak RSS after a fixed amount of
  served work, so a faster program that serves more in the same time
  does not read as a memory regression.
* ``setup_s`` — the median of the run's set-ups.

Times are in reference-CPU units: each is divided by the slowdown the
CPU gauge (``workloads.probe``) measured around it, relative to
``REFERENCE_PROBE_S``. The details keep the values as measured.
"""

from __future__ import annotations

import bisect
import statistics
from collections import defaultdict, deque

from bench import trace

KINDS = ("c1.share", "c1.access", "c2.share", "c2.access", "deny", "explain")
LAYERS = ("client.wire", "client.codec", "role", "policy", "hash", "cipher",
          "shamir", "ec", "pairing", "unattributed")
SERVER_VERBS = ("display", "verify", "explain", "get_post", "store",
                "dh.put", "dh.get", "dh.delete")
DH_VERBS = ("dh.put", "dh.get", "dh.delete")

# The layers that must record calls on the workload built to stress them.
REQUIRED = {
    "mix-small": ("client.wire", "client.codec", "role", "policy", "hash",
                  "cipher", "shamir", "ec", "pairing", "engine.dispatch"),
    "photo-32k": ("cipher", "hash", "client.wire", "engine.dispatch"),
    "sp-storm": ("engine.dispatch", "cluster", "store"),
    "store-churn": ("engine.dispatch", "cluster", "store"),
}


def group(construction: int, nested: bool, kind: str) -> str:
    """A journey group: one kind on one puzzle shape, e.g. ``c1.flat.share``.
    Journeys in a group cost about the same, so its percentiles are
    steady where a mix of shapes would be multi-modal."""
    return "c%d.%s.%s" % (construction, "nested" if nested else "flat", kind)


def kind_of(label: str) -> str:
    """The journey kind a group belongs to: ``c1.flat.share`` is a
    ``c1.share``, ``c2.nested.deny`` a ``deny``."""
    construction, _, kind = label.split(".")
    return kind if kind in ("deny", "explain") else construction + "." + kind


# ``workloads.probe`` per iteration on the reference box, CPU not slowed.
REFERENCE_PROBE_S = 52e-9
GAUGE_WINDOW_S = 0.5  # probes within this of a sample gauge its CPU speed


def percentile(values, q: float) -> float:
    """The ``q``-th percentile, interpolating between order statistics."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    pos = (len(ordered) - 1) * q / 100.0
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def weighted(samples: dict, weights: dict, stat) -> float:
    """``stat`` of each kind's samples, averaged with the mix weights."""
    present = [k for k in weights if samples.get(k)]
    total = sum(weights[k] for k in present)
    if not total:
        return 0.0
    return sum(weights[k] * stat(samples[k]) for k in present) / total


def scaled(out) -> dict:
    """Each sample in reference-CPU seconds: divided by the CPU slowdown
    the probes taken within ``GAUGE_WINDOW_S`` of its end measured."""
    times = [t for t, _ in out.gauge]
    sums = [0.0]
    for _, seconds in out.gauge:
        sums.append(sums[-1] + seconds)

    def slowdown(at: float) -> float:
        low = bisect.bisect_left(times, at - GAUGE_WINDOW_S)
        high = bisect.bisect_right(times, at + GAUGE_WINDOW_S)
        if high == low:  # no probe that close: take the nearest
            low = max(0, min(low, len(times) - 1))
            high = low + 1
        return (sums[high] - sums[low]) / (high - low) / REFERENCE_PROBE_S

    return {label: [v / slowdown(at) for v, at in zip(values, out.stamps[label])]
            for label, values in out.samples.items()}


def end_to_end(workload, out, setups: list[float]) -> tuple[dict, dict]:
    """The end-to-end metrics on the reference CPU, and as measured.

    ``setups`` holds ``(seconds, slowdown)`` per set-up. An open loop's
    throughput is its offered rate, so only a closed loop's is scaled.
    """
    def at(samples, q):
        return 1000.0 * weighted(samples, workload.weights, lambda v: percentile(v, q))

    throughput = (out.attempted - out.failed) / max(out.elapsed, 1e-9)
    slowdown = statistics.fmean(s for _, s in out.gauge) / REFERENCE_PROBE_S
    reference = scaled(out)
    metrics = {
        "setup_s": statistics.median(s / factor for s, factor in setups),
        "latency_ms.p50": at(reference, 50),
        "latency_ms.p90": at(reference, 90),
        "throughput_per_s": throughput * (1.0 if workload.open_loop else slowdown),
        "server_rss_mb": out.server_hwm_mb,
    }
    measured = {
        "measured.setup_s": statistics.median(s for s, _ in setups),
        "measured.latency_ms.p50": at(out.samples, 50),
        "measured.latency_ms.p90": at(out.samples, 90),
        "measured.throughput_per_s": throughput,
        "cpu.slowdown": slowdown,
    }
    return metrics, measured


def details(out) -> dict:
    """Per-kind percentiles with sample counts, for the report."""
    found = {"failed_ratio": out.failed / max(1, out.attempted)}
    pooled = defaultdict(list)
    for label, values in out.samples.items():
        pooled[label] = values
        if label.count(".") == 2:  # a journey group: pool by kind and verb
            for key in {kind_of(label), label.rpartition(".")[2]}:
                pooled[key] += values
    for label, values in sorted(pooled.items()):
        for q in (50, 90, 95, 99):
            found["%s_ms.p%d" % (label, q)] = 1000.0 * percentile(values, q)
        found["%s.n" % label] = len(values)
    if out.late:
        found["loadgen.late_ms.p99"] = 1000.0 * percentile(out.late, 99)
    return found


def _wire_queue(client_rtts, server_roots) -> float:
    """Median of (client round trip - server dispatch), pairing each
    request with its dispatch by frame checksum in arrival order."""
    dispatched = defaultdict(deque)
    for span in sorted(server_roots, key=lambda s: s[1]):
        dispatched[span[4][1]].append(span[2] - span[1])
    gaps = [rtt - dispatched[crc].popleft()
            for crc, rtt in client_rtts if dispatched[crc]]
    return 1000.0 * percentile(gaps, 50)


def per_layer(name, workload, traced, untraced, tracer, server_dump, since) -> tuple[dict, list]:
    """The traced run's per-layer metrics, and the required layers that
    recorded no call."""
    journeys = trace.summarise(tracer.threads, "journey", since=since)
    server = trace.summarise(server_dump["threads"], "engine.dispatch",
                             key=lambda tag: tag[0], since=since)
    found: dict = {}
    for layer in LAYERS:
        for kind in KINDS:
            group = journeys.get(kind, trace.Group())
            found["%s.self_ms.%s" % (layer, kind)] = group.per_root(
                group.self_s, layer, 1000.0)
    for kind in KINDS:
        group = journeys.get(kind, trace.Group())
        found["hash.bytes.%s" % kind] = group.per_root(group.amount, "hash")
        found["cipher.bytes.%s" % kind] = group.per_root(group.amount, "cipher")
        found["ec.mults.%s" % kind] = group.per_root(group.calls, "ec")
        found["pairing.final_exps.%s" % kind] = (
            traced.final_exps.get(kind, 0) / max(1, len(group.durations)))
        found["client.wire.frames.%s" % kind] = group.per_root(group.calls, "client.wire")
        found["client.wire.bytes.%s" % kind] = group.per_root(group.amount, "client.wire")
    for verb in SERVER_VERBS:
        durations = server[verb].durations if verb in server else []
        found["engine.dispatch_ms.p50.%s" % verb] = 1000.0 * percentile(durations, 50)
    for verb in DH_VERBS:
        group = server.get(verb, trace.Group())
        found["cluster.self_ms.%s" % verb] = group.per_root(group.self_s, "cluster", 1000.0)
        found["store.self_ms.%s" % verb] = group.per_root(group.self_s, "store", 1000.0)

    roots = list(trace.spans_of(server_dump["threads"], "engine.dispatch", since))
    rtts = traced.wire or [
        (span[4][1], span[2] - span[1])
        for span in trace.spans_of(tracer.threads, "client.wire", since)]
    found["serve.wire_queue_ms.p50"] = _wire_queue(rtts, roots)
    stats = server_dump.get("storage") or {}
    found["store.bytes_per_live_blob"] = (
        stats.get("physical_bytes", 0) / max(1, stats.get("objects", 0)))
    found["store.segments"] = stats.get("segments", 0)
    found["store.tombstones"] = stats.get("tombstones", 0)
    found["server.cpu_ms_per_request"] = 1000.0 * traced.server_cpu_s / max(1, len(roots))
    found["client.cpu_ms_per_op"] = 1000.0 * traced.client_cpu_s / max(1, traced.attempted)
    found["loadgen.late_ms.p99"] = 1000.0 * percentile(traced.late, 99)
    mean = statistics.fmean
    found["trace.overhead"] = (
        weighted(scaled(traced), workload.weights, mean)
        / max(weighted(scaled(untraced), workload.weights, mean), 1e-12))

    calls: dict = defaultdict(int)
    for groups in (journeys, server):
        for group in groups.values():
            for layer, n in group.calls.items():
                calls[layer] += n
    calls["engine.dispatch"] = sum(len(group.durations) for group in server.values())
    missing = [layer for layer in REQUIRED[name] if not calls.get(layer)]
    return found, missing


def compare(base: dict, new: dict, spec: dict) -> tuple[list[str], bool]:
    """Apply each end-to-end metric's bound to two result files.

    Returns report lines and whether ``new`` stays within every bound.
    Raises ``ValueError`` when the results ran on different crypto tiers.
    """
    if base["stamp"]["tier"] != new["stamp"]["tier"]:
        raise ValueError("refusing to compare: crypto tier %r vs %r"
                         % (base["stamp"]["tier"], new["stamp"]["tier"]))
    lines, ok = [], True
    for name in sorted(set(base["workloads"]) & set(new["workloads"])):
        before = base["workloads"][name]["metrics"]
        after = new["workloads"][name]["metrics"]
        for metric in spec["end_to_end"]:
            key = metric["name"]
            if key not in before or key not in after:
                continue
            a, b = before[key]["value"], after[key]["value"]
            change = (b - a) / a if a else 0.0
            worse = change if metric["better"] == "lower" else -change
            verdict = "ok"
            if worse > metric["bound"]:
                verdict, ok = "REGRESSION", False
            lines.append("%-12s %-18s %12.4f -> %12.4f %s  %+6.1f%%  %s" % (
                name, key, a, b, metric["unit"], 100.0 * change, verdict))
    return lines, ok
