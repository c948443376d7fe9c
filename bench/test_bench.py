"""Tests of the benchmark itself: ``pytest bench/``."""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
os.environ.setdefault("REPRO_ACCEL_CACHE", os.path.join(ROOT, ".bench_run", "accel"))

from bench import metrics, run, trace  # noqa: E402

SPEC = run.load_spec()


def _bench(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "bench", *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace_flag", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_prints_every_declared_metric(workload, trace_flag):
    done = _bench("--workload", workload, "--seed", "3", "--seconds", "2",
                  "--trace", trace_flag)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace_flag == "1" else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        line = "%s %s = " % (workload, metric["name"])
        assert any(text.startswith(line) and text.endswith(" " + metric["unit"])
                   for text in done.stdout.splitlines()), line


def test_corrupted_reply_counts_as_failed():
    from bench import adapter, workloads

    storm = workloads.SpStorm()
    server = workloads.ServerProcess(storm.flags)
    try:
        rng = random.Random(5)
        state = storm.setup(server.address, rng, 0.5)
        conn, schedule = state[:2]
        replies = 0
        recv = conn.recv

        def corrupting_recv():
            nonlocal replies
            frame = recv()
            replies += 1
            if replies == 10:  # flip one body byte of the tenth reply
                frame = frame[:-1] + bytes([frame[-1] ^ 0xFF])
            return frame

        conn.recv = corrupting_recv
        out = storm.run(state, 0.5, rng, None, server)
        storm.close(state)
    finally:
        server.stop()
    assert out.attempted > 10
    assert out.failed == 1
    assert "Mismatch" in out.errors[0]
    with pytest.raises(adapter.Mismatch):
        adapter.check_reply(schedule[0][1], b"not a frame")


def test_self_times_subtract_covered_child_time():
    spans = [
        ["journey", 0.0, 10.0, -1, "c1.share"],
        ["hash", 1.0, 4.0, 0, 100],
        ["hash", 2.0, 3.0, 1, 50],  # nested in the same layer
        ["cipher", 5.0, 9.0, 0, [64, 7]],
        ["hash", 6.0, 8.0, 3, 10],
        ["journey", 20.0, 22.0, -1, "deny"],
        ["client.wire", 20.5, 21.5, 5, [300, 9]],
        ["hash", 30.0, 31.0, -1, 1],  # under no journey: ignored
    ]
    assert trace.self_times(spans) == [3.0, 2.0, 1.0, 2.0, 2.0, 1.0, 1.0, 1.0]
    groups = trace.summarise([spans], "journey")
    share = groups["c1.share"]
    assert share.durations == [10.0]
    assert dict(share.self_s) == {"unattributed": 3.0, "hash": 5.0, "cipher": 2.0}
    assert sum(share.self_s.values()) == 10.0
    assert share.calls["hash"] == 3
    assert share.amount == {"hash": 160, "cipher": 64}
    deny = groups["deny"]
    assert deny.per_root(deny.self_s, "client.wire", 1000.0) == 1000.0
    assert deny.amount["client.wire"] == 300
    assert set(trace.summarise([spans], "journey", since=15.0)) == {"deny"}


def _result(tier: str, latency: float, rss: float) -> dict:
    values = {"latency_ms.p50": latency, "latency_ms.p90": 2 * latency,
              "throughput_per_s": 100.0, "server_rss_mb": rss, "setup_s": 1.0}
    return {"stamp": {"tier": tier},
            "workloads": {"mix-small": {"metrics": {
                name: {"value": value, "unit": "x"} for name, value in values.items()}}}}


def test_compare_applies_each_bound_and_refuses_mixed_tiers(tmp_path):
    paths = {}
    for name, result in {
        "base": _result("compiled", 10.0, 40.0),
        "within": _result("compiled", 10.5, 40.0),
        "slower": _result("compiled", 13.0, 40.0),
        "pure": _result("pure", 10.0, 40.0),
    }.items():
        paths[name] = str(tmp_path / (name + ".json"))
        with open(paths[name], "w") as handle:
            json.dump(result, handle)
    assert _bench("compare", paths["base"], paths["within"]).returncode == 0
    slower = _bench("compare", paths["base"], paths["slower"])
    assert slower.returncode == 1
    assert "REGRESSION" in slower.stdout and "latency_ms.p50" in slower.stdout
    mixed = _bench("compare", paths["base"], paths["pure"])
    assert mixed.returncode == 2 and "tier" in mixed.stderr
    lines, ok = metrics.compare(_result("compiled", 10.0, 40.0),
                                _result("compiled", 10.0, 30.0), SPEC)
    assert ok and len(lines) == len(SPEC["end_to_end"])
