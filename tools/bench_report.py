#!/usr/bin/env python3
"""Measure the hot-path crypto pass and write a machine-readable report.

Times each optimized primitive against the naive composition it
replaces — multi-pairing vs per-pair products, GT multi-exponentiation
vs folded ``gt_exp``, Montgomery batch inversion vs per-element
``modinv``, and fused vs recursive CP-ABE decryption at the
paper-relevant threshold k=5 — and records the operation counters that
pin the structural claim (2k+1 final exponentiations collapse to 1).

It also runs the self-healing availability scenario (one node of a
3-node R=3 cluster down, every read served through the degraded
fallback) and records served/failed/stale-risk counts next to the
crypto numbers, plus a closed-loop throughput run against a real TCP
smart server — serial (one request in flight) vs pipelined (eight
client threads sharing one connection) — recording requests/second and
the server-observed in-flight high-water mark.

Usage (from the repo root)::

    PYTHONPATH=src python tools/bench_report.py [output.json]
    PYTHONPATH=src python tools/bench_report.py out.json --compare BENCH_PR9.json
    PYTHONPATH=src python tools/bench_report.py out.json --sections crypto_tier

It also measures the policy plane: share and access latency for both
constructions under the flat depth-1 threshold versus the nested
depth-3 scope/escrow policy, compiled from the same ``PuzzlePolicy``.

The storage section loads 1k near-identical CP-ABE uploads into both
blob-store engines and records bytes/blob for each, the compression
ratio the segment engine's groupcompress pass achieves, and how long
``reopen()`` takes to rebuild the index after a power-loss crash.

The ``crypto_tier`` section times every accelerated primitive under the
pure tier and (when the GMP kernel builds) the compiled tier — the
measured shape of the acceleration layer described in
``docs/PERFORMANCE.md``.

``--compare PREV.json`` turns the tool into a trajectory gate: every
``speedup`` / ``compression_ratio`` / ``availability`` field in the
prior report is a floor, and the run fails (exit 1) if the fresh report
regresses any of them by more than ``--tolerance`` (default 20%).
``--sections`` restricts the run to a comma-separated subset — CI uses
it to gate the crypto sections without paying for the full report.

The default output is ``BENCH_PR10.json`` in the current directory.
Wall-clock numbers vary per machine; the checked-in file documents one
reference run, while the ``speedup``/op-count/availability fields are
the quantities CI asserts on (see ``benchmarks/test_hotpath_speedup.py``
and ``benchmarks/test_degraded_reads.py``).
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import statistics
import sys
import time

from repro.abe import CPABE, AccessTree
from repro.crypto.numbers import batch_modinv, modinv
from repro.crypto.pairing import Pairing
from repro.crypto.params import SMALL

K = 5
ROUNDS = 5
MIN_ROUND_S = 0.02


def _timed(fn, rounds: int = ROUNDS) -> float:
    fn()  # warm caches outside the timed region
    start = time.perf_counter()
    for _ in range(rounds):
        fn()
    return (time.perf_counter() - start) / rounds


def _paired(naive, fast, rounds: int = ROUNDS) -> tuple[float, float]:
    """Median seconds per call of two implementations of one operation.

    The sides are timed in alternating rounds, each going first in every
    other round, so a load burst on a shared host lands on both sides
    instead of moving their ratio. A round repeats a fast call until it
    lasts ``MIN_ROUND_S``, so timer jitter does not decide a
    microsecond-scale side, and, as in :mod:`timeit`, the cyclic garbage
    collector is off while timing, so a collection does not land on
    whichever side happens to trigger it.
    """
    sides = []
    for fn in (naive, fast):
        start = time.perf_counter()
        fn()  # warm caches outside the timed region; size the round
        once = max(time.perf_counter() - start, 1e-9)
        sides.append((fn, max(1, int(MIN_ROUND_S / once)), []))
    collecting = gc.isenabled()
    gc.disable()
    try:
        for i in range(rounds):
            for fn, calls, times in sides if i % 2 == 0 else sides[::-1]:
                start = time.perf_counter()
                for _ in range(calls):
                    fn()
                times.append((time.perf_counter() - start) / calls)
    finally:
        if collecting:
            gc.enable()
    return statistics.median(sides[0][2]), statistics.median(sides[1][2])


def bench_pair_product(pairing: Pairing, rng: random.Random) -> dict:
    base = SMALL.random_g0()
    pairs = [
        (base * rng.randrange(1, SMALL.r), base * rng.randrange(1, SMALL.r))
        for _ in range(2 * K + 1)
    ]

    def naive():
        value = pairing.pair(*pairs[0])
        for p, q in pairs[1:]:
            value = value * pairing.pair(p, q)
        return value

    naive_s, fused_s = _paired(naive, lambda: pairing.pair_product(pairs))
    return {
        "pairs": len(pairs),
        "naive_ms": naive_s * 1e3,
        "fused_ms": fused_s * 1e3,
        "speedup": naive_s / fused_s,
    }


def bench_gt_multi_exp(pairing: Pairing, rng: random.Random) -> dict:
    base = SMALL.random_g0()
    bases = [
        pairing.pair(base * rng.randrange(1, SMALL.r), base) for _ in range(8)
    ]
    exponents = [rng.randrange(1, SMALL.r) for _ in bases]

    def naive():
        value = bases[0] ** exponents[0]
        for b, e in zip(bases[1:], exponents[1:]):
            value = value * b ** e
        return value

    naive_s, fused_s = _paired(naive, lambda: pairing.gt_multi_exp(bases, exponents))
    return {
        "terms": len(bases),
        "naive_ms": naive_s * 1e3,
        "fused_ms": fused_s * 1e3,
        "speedup": naive_s / fused_s,
    }


def bench_batch_modinv(rng: random.Random) -> dict:
    m = SMALL.q
    values = [rng.randrange(1, m) for _ in range(64)]
    naive_s, batched_s = _paired(
        lambda: [modinv(v, m) for v in values], lambda: batch_modinv(values, m)
    )
    return {
        "values": len(values),
        "naive_ms": naive_s * 1e3,
        "batched_ms": batched_s * 1e3,
        "speedup": naive_s / batched_s,
    }


def bench_decrypt() -> dict:
    attributes = ["ctx-%d" % i for i in range(K)]
    tree = AccessTree.k_of_n(K, attributes)
    abe = CPABE(SMALL)
    pk, mk = abe.setup()
    message = abe._random_gt()
    ct = abe.encrypt_element(pk, message, tree)
    sk = abe.keygen(pk, mk, set(attributes))

    naive_s, fused_s = _paired(
        lambda: abe.decrypt_element(pk, sk, ct, fused=False),
        lambda: abe.decrypt_element(pk, sk, ct),
    )

    abe.pairing.reset_op_counts()
    abe.decrypt_element(pk, sk, ct, fused=False)
    naive_ops = dict(abe.pairing.op_counts)
    abe.pairing.reset_op_counts()
    abe.decrypt_element(pk, sk, ct)
    fused_ops = dict(abe.pairing.op_counts)

    return {
        "k": K,
        "naive_ms": naive_s * 1e3,
        "fused_ms": fused_s * 1e3,
        "speedup": naive_s / fused_s,
        "naive_final_exps": naive_ops["final_exps"],
        "fused_final_exps": fused_ops["final_exps"],
        "fused_miller_states": fused_ops["miller_states"],
    }


def bench_degraded_reads() -> dict:
    """The self-healing acceptance scenario, in report form: one node of
    a 3-node R=3 cluster down; strict quorum reads starve while degraded
    fallback keeps availability at 100% with a nonzero stale-risk count."""
    from benchmarks.test_degraded_reads import _populated_cluster, _read_all
    from repro.osn.resilience import ResilientStorageClient, RetryPolicy

    clock, cluster, payloads = _populated_cluster()
    cluster.crash("dhc-n0")
    strict = ResilientStorageClient(
        cluster, retry=RetryPolicy(max_attempts=2, clock=clock)
    )
    _, strict_failed = _read_all(strict, payloads)

    clock, cluster, payloads = _populated_cluster()
    cluster.crash("dhc-n0")
    degraded = ResilientStorageClient(
        cluster,
        retry=RetryPolicy(max_attempts=2, clock=clock),
        degraded_reads=True,
    )
    served, failed = _read_all(degraded, payloads)
    return {
        "objects": len(payloads),
        "strict_failed": strict_failed,
        "degraded_served": served,
        "degraded_failed": failed,
        "stale_risk_reads": cluster.degraded_read_count,
        "availability": served / len(payloads),
    }


def bench_policy_depth() -> dict:
    """Share/access cost as the policy tree deepens (the PR 8 plane).

    Depth 1 is the paper's flat threshold (``2 of (ctx_a..ctx_c)``);
    depth 3 nests a scope gate and an escrow OR around it. Both compile
    through the same ``PuzzlePolicy`` IR into both constructions; the
    delta between the rows is the price of the share-of-shares recursion
    (C1) and the bigger access tree (C2), share-side and access-side.
    """
    from repro.core.construction1 import PuzzleServiceC1, ReceiverC1, SharerC1
    from repro.core.construction2 import PuzzleServiceC2, ReceiverC2, SharerC2
    from repro.core.context import Context
    from repro.osn.storage import StorageHost
    from repro.policy import PuzzlePolicy
    from repro.sim.figures import _full_display_rng

    answers = {
        "scope:group/trip": "trip-roster-secret",
        "ctx_a": "alpha-answer",
        "ctx_b": "beta-answer",
        "ctx_c": "gamma-answer",
        "attr:escrow": "escrow-credential",
    }
    cases = {
        "depth1": (
            "2 of (ctx_a, ctx_b, ctx_c)",
            {"ctx_a", "ctx_b"},
        ),
        "depth3": (
            "scope:group/trip and"
            " (2 of (ctx_a, ctx_b, ctx_c) or attr:escrow)",
            {"scope:group/trip", "ctx_a", "ctx_b"},
        ),
    }
    obj = b"policy depth benchmark object"
    context = Context.from_mapping(answers)
    report: dict = {}
    for name, (text, known) in cases.items():
        policy = PuzzlePolicy.from_text(text)
        sharer_context = Context.from_mapping(
            {q: answers[q] for q in policy.questions}
        )
        knowledge = Context.from_mapping({q: answers[q] for q in known})
        row = {"questions": len(policy.questions), "depth": policy.depth()}

        storage = StorageHost()
        sharer1 = SharerC1("alice", storage)
        service1 = PuzzleServiceC1()
        row["c1_share_ms"] = (
            _timed(lambda: sharer1.upload_policy(obj, sharer_context, policy))
            * 1e3
        )
        puzzle = sharer1.upload_policy(obj, sharer_context, policy)
        puzzle_id = service1.store_puzzle(puzzle)
        # Display every question: a random subset could hide one the
        # receiver knows and deny the access being timed.
        displayed = service1.display_puzzle(
            puzzle_id, rng=_full_display_rng(puzzle.n, puzzle.k)
        )
        receiver1 = ReceiverC1("bob", storage)

        def c1_access():
            submitted = receiver1.answer_puzzle(displayed, knowledge)
            release = service1.verify(submitted)
            return receiver1.recover_object_secret(
                release, displayed, knowledge
            )

        row["c1_access_ms"] = _timed(c1_access) * 1e3

        sharer2 = SharerC2("alice", storage, SMALL)
        service2 = PuzzleServiceC2()
        row["c2_share_ms"] = (
            _timed(
                lambda: sharer2.upload_policy(obj, sharer_context, policy),
                rounds=3,
            )
            * 1e3
        )
        record, _ = sharer2.upload_policy(obj, sharer_context, policy)
        puzzle_id = service2.store_upload(record)
        displayed2 = service2.display_puzzle(puzzle_id)
        receiver2 = ReceiverC2("bob", storage, SMALL)

        def c2_access():
            submitted = receiver2.answer_puzzle(displayed2, knowledge)
            grant = service2.verify(submitted)
            return receiver2.access(grant, knowledge)

        row["c2_access_ms"] = _timed(c2_access, rounds=3) * 1e3
        report[name] = row

    for construction in ("c1", "c2"):
        for op in ("share", "access"):
            key = "%s_%s_ms" % (construction, op)
            report["%s_depth3_over_depth1_%s" % (construction, op)] = (
                report["depth3"][key] / report["depth1"][key]
            )
    return report


def bench_storage_engine() -> dict:
    """Bytes/blob for near-identical CP-ABE uploads, both engines.

    Loads one sharer's hybrid ciphertexts into the dict engine (the
    serialized baseline) and the segment engine (groupcompress + sealed
    zlib blocks), then power-cycles the segment store to time index
    recovery. The ``compression_ratio`` field is the quantity the
    ``benchmarks/test_storage_engine.py`` regression floor asserts on.
    """
    from benchmarks.test_storage_engine import SEGMENT_TARGET, generate_blobs
    from repro.store import DictBlobStore, SegmentBlobStore, VersionedBlob

    count = 1000
    blobs = generate_blobs(count)

    dict_store = DictBlobStore()
    segment_store = SegmentBlobStore(segment_target_bytes=SEGMENT_TARGET)
    for store in (dict_store, segment_store):
        for i, ciphertext in enumerate(blobs):
            store.put("obj-%04d" % i, VersionedBlob(i + 1, ciphertext))
    segment_store.flush()

    dict_bytes = dict_store.stats().physical_bytes
    segment_bytes = segment_store.stats().physical_bytes

    segment_store.crash_volatile()
    start = time.perf_counter()
    recovered = segment_store.reopen()
    recovery_s = time.perf_counter() - start

    return {
        "blobs": count,
        "blob_bytes": len(blobs[0]),
        "dict_bytes_per_blob": dict_bytes / count,
        "segment_bytes_per_blob": segment_bytes / count,
        "compression_ratio": dict_bytes / segment_bytes,
        "segments": segment_store.stats().segments,
        "recovery_ms": recovery_s * 1e3,
        "recovered": recovered,
    }


def bench_serve_throughput() -> dict:
    """Closed-loop load against a TCP smart server on localhost.

    The serial loop holds one request in flight (latency-bound); the
    pipelined loop shares the same single connection between eight
    closed-loop client threads, so up to eight requests ride the wire
    at once. The gap between the two is what the smart server's
    pipelining buys; ``max_in_flight_seen`` proves the overlap was real.
    """
    import threading

    from repro.apps.platform import SocialPuzzlePlatform
    from repro.crypto.params import get_params
    from repro.serve import RemoteProtocolClient, TcpSmartServer, TcpTransport

    requests, clients, payload = 240, 8, b"x" * 512
    platform = SocialPuzzlePlatform(params=get_params("small"))
    with TcpSmartServer(platform.engine, max_in_flight=16, workers=8) as server:
        host, port = server.address
        with RemoteProtocolClient(TcpTransport(host, port)) as client:
            client.storage_put(b"warm the connection")

            start = time.perf_counter()
            for _ in range(requests):
                client.storage_put(payload)
            serial_s = time.perf_counter() - start

            def closed_loop() -> None:
                for _ in range(requests // clients):
                    client.storage_put(payload)

            threads = [
                threading.Thread(target=closed_loop) for _ in range(clients)
            ]
            start = time.perf_counter()
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            pipelined_s = time.perf_counter() - start
        observed = server.metrics.as_dict()
    return {
        "requests": requests,
        "client_threads": clients,
        "payload_bytes": len(payload),
        "serial_rps": requests / serial_s,
        "pipelined_rps": requests / pipelined_s,
        "speedup": serial_s / pipelined_s,
        "max_in_flight_seen": observed["max_in_flight_seen"],
        "server_frames_in": observed["frames_in"],
    }


def bench_crypto_tiers() -> dict:
    """Per-primitive timings across acceleration tiers (the PR 10 plane).

    Each hot primitive runs on the same seeded inputs under the pure
    tier and, when the GMP kernel probes, the compiled tier; ``speedup``
    is compiled-over-pure (1.0 when only the pure tier is available).
    """
    from repro.crypto import accel
    from repro.crypto.accel import CompiledBackendUnavailable

    prior = accel.active().requested
    tiers = ["pure"]
    try:
        accel._probe_compiled()
        tiers.append("compiled")
    except CompiledBackendUnavailable:
        pass

    rng = random.Random(10)
    base = SMALL.random_g0()
    pairs = [
        (base * rng.randrange(1, SMALL.r), base * rng.randrange(1, SMALL.r))
        for _ in range(2 * K + 1)
    ]
    inv_values = [rng.randrange(1, SMALL.q) for _ in range(64)]
    gt_exponent = rng.randrange(1, SMALL.r)
    me_exponents = [rng.randrange(1, SMALL.r) for _ in range(8)]

    attributes = ["ctx-%d" % i for i in range(K)]
    tree = AccessTree.k_of_n(K, attributes)
    abe = CPABE(SMALL)
    pk, mk = abe.setup()
    ct = abe.encrypt_element(pk, abe._random_gt(), tree)
    sk = abe.keygen(pk, mk, set(attributes))

    primitives: dict[str, dict] = {}
    try:
        for tier in tiers:
            accel.set_tier(tier)
            pairing = Pairing(SMALL)
            gt = pairing.pair(*pairs[0])
            me_bases = [pairing.pair(p, q) for p, q in pairs[:8]]
            rows = {
                "pair_product_11": lambda: pairing.pair_product(pairs),
                "gt_exp": lambda: pairing.gt_exp(gt, gt_exponent),
                "gt_multi_exp_8": lambda: pairing.gt_multi_exp(
                    me_bases, me_exponents
                ),
                "batch_modinv_64": lambda: batch_modinv(inv_values, SMALL.q),
                "cpabe_decrypt_k5_fused": lambda: abe.decrypt_element(
                    pk, sk, ct
                ),
            }
            for name, fn in rows.items():
                primitives.setdefault(name, {})["%s_ms" % tier] = (
                    _timed(fn) * 1e3
                )
        for row in primitives.values():
            row["speedup"] = (
                row["pure_ms"] / row["compiled_ms"]
                if "compiled_ms" in row
                else 1.0
            )
    finally:
        accel.set_tier(prior)

    return {
        "tiers": tiers,
        "active_default": accel.describe()["tier"],
        "primitives": primitives,
    }


SECTIONS = {
    "pair_product": None,
    "gt_multi_exp": None,
    "batch_modinv": None,
    "cpabe_decrypt_k5": bench_decrypt,
    "crypto_tier": bench_crypto_tiers,
    "degraded_reads": bench_degraded_reads,
    "serve_throughput": bench_serve_throughput,
    "policy_depth": bench_policy_depth,
    "storage_engine": bench_storage_engine,
}

# Prior-report fields treated as regression floors by --compare.
FLOOR_FIELDS = ("speedup", "compression_ratio", "availability")


def _collect_floors(node: object, path: tuple = ()) -> dict:
    floors: dict = {}
    if isinstance(node, dict):
        for key, value in node.items():
            if key in FLOOR_FIELDS and isinstance(value, (int, float)):
                floors[path + (key,)] = float(value)
            else:
                floors.update(_collect_floors(value, path + (key,)))
    return floors


def compare_reports(
    current: dict, prior: dict, tolerance: float
) -> tuple[list, list]:
    """Every floor field in ``prior`` must be held to within ``tolerance``.

    Returns ``(failures, skipped)`` where failures are
    ``(path, prior, current)`` triples and skipped are prior floors whose
    section is absent from the current report (e.g. under --sections).
    """
    failures, skipped = [], []
    for path, floor in sorted(_collect_floors(prior).items()):
        node: object = current
        for key in path:
            if not isinstance(node, dict) or key not in node:
                node = None
                break
            node = node[key]
        if not isinstance(node, (int, float)):
            skipped.append(path)
            continue
        if node < floor * (1.0 - tolerance):
            failures.append((path, floor, float(node)))
    return failures, skipped


def _print_summary(report: dict) -> None:
    for section, values in report.items():
        if not isinstance(values, dict):
            continue
        if section == "crypto_tier":
            for name, row in values["primitives"].items():
                print("  %-22s %5.2fx compiled/pure" % (name, row["speedup"]))
        elif "speedup" in values:
            print("  %-22s %5.2fx" % (section, values["speedup"]))
        elif "availability" in values:
            print(
                "  %-22s %5.0f%% available, %d stale-risk"
                % (
                    section,
                    100 * values["availability"],
                    values["stale_risk_reads"],
                )
            )
        elif section == "storage_engine":
            print(
                "  %-22s %5.2fx fewer bytes/blob, %.1fms recovery"
                % (section, values["compression_ratio"], values["recovery_ms"])
            )
        elif section == "policy_depth":
            print(
                "  %-22s depth-3/depth-1 access: c1 %.2fx, c2 %.2fx"
                % (
                    section,
                    values["c1_depth3_over_depth1_access"],
                    values["c2_depth3_over_depth1_access"],
                )
            )


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        description="Benchmark the hot paths and write a JSON report."
    )
    parser.add_argument("output", nargs="?", default="BENCH_PR10.json")
    parser.add_argument(
        "--compare",
        metavar="PREV.json",
        help="fail if any floor field in PREV.json regresses",
    )
    parser.add_argument(
        "--sections",
        help="comma-separated subset of sections to run (default: all)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.2,
        help="allowed fractional regression per floor (default 0.2)",
    )
    args = parser.parse_args(argv[1:])

    selected = list(SECTIONS)
    if args.sections:
        selected = [name.strip() for name in args.sections.split(",")]
        unknown = [name for name in selected if name not in SECTIONS]
        if unknown:
            parser.error(
                "unknown sections %r (choose from %s)"
                % (unknown, ", ".join(SECTIONS))
            )

    rng = random.Random(5)
    pairing = Pairing(SMALL)
    report: dict = {
        "params": {"r_bits": SMALL.r.bit_length(), "q_bits": SMALL.q.bit_length()},
        "rounds": ROUNDS,
    }
    for name in selected:
        if name == "pair_product":
            report[name] = bench_pair_product(pairing, rng)
        elif name == "gt_multi_exp":
            report[name] = bench_gt_multi_exp(pairing, rng)
        elif name == "batch_modinv":
            report[name] = bench_batch_modinv(rng)
        else:
            report[name] = SECTIONS[name]()

    with open(args.output, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print("wrote %s" % args.output)
    _print_summary(report)

    if args.compare:
        with open(args.compare) as fh:
            prior = json.load(fh)
        failures, skipped = compare_reports(report, prior, args.tolerance)
        for path in skipped:
            print("compare: skipped %s (not in this run)" % ".".join(path))
        for path, floor, now in failures:
            print(
                "REGRESSION %s: %.3f -> %.3f (floor %.3f)"
                % (
                    ".".join(path),
                    floor,
                    now,
                    floor * (1.0 - args.tolerance),
                )
            )
        if failures:
            return 1
        print(
            "compare: held %d floor(s) from %s within %.0f%%"
            % (
                len(_collect_floors(prior)) - len(skipped),
                args.compare,
                100 * args.tolerance,
            )
        )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
