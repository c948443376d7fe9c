"""Ablation A1: how the threshold k (not just N) scales cost.

The paper fixes k = 1 throughout its evaluation. This ablation varies k
at fixed N = 10 and separates where each construction pays for a higher
threshold:

* Construction 1 — the sharer's polynomial degree and the receiver's
  Lagrange interpolation grow with k, but both are field arithmetic:
  the cost is expected to be nearly flat.
* Construction 2 — decryption pairs two group elements per satisfied
  leaf, so receiver cost grows roughly linearly in k.
"""

from __future__ import annotations

import random
import time

import pytest

from repro.core.construction1 import PuzzleServiceC1, ReceiverC1, SharerC1
from repro.core.construction2 import PuzzleServiceC2, ReceiverC2, SharerC2
from repro.osn.storage import StorageHost
from repro.osn.workload import PaperWorkload
from repro.policy.model import PuzzlePolicy

N = 10
K_VALUES = [1, 2, 4, 6, 8, 10]


def _c1_flow(k, context, message):
    storage = StorageHost()
    sharer = SharerC1("s", storage)
    service = PuzzleServiceC1()
    policy = PuzzlePolicy.from_k_of_n(k, context.questions[:N])
    puzzle_id = service.store_puzzle(sharer.upload_policy(message, context, policy))
    receiver = ReceiverC1("r", storage)
    # Deterministic full display so every k succeeds.
    seed = next(s for s in range(10_000) if random.Random(s).randint(k, N) == N)
    displayed = service.display_puzzle(puzzle_id, rng=random.Random(seed))
    answers = receiver.answer_puzzle(displayed, context)
    release = service.verify(answers)
    return receiver.access(release, displayed, context)


def _c2_flow(k, context, message, params):
    storage = StorageHost()
    sharer = SharerC2("s", storage, params)
    service = PuzzleServiceC2()
    policy = PuzzlePolicy.from_k_of_n(k, context.questions[:N])
    record, _ = sharer.upload_policy(message, context, policy)
    puzzle_id = service.store_upload(record)
    receiver = ReceiverC2("r", storage, params)
    displayed = service.display_puzzle(puzzle_id)
    grant = service.verify(receiver.answer_puzzle(displayed, context))
    return receiver.access(grant, context)


def test_threshold_scaling_report(default_params):
    """Print per-k end-to-end latency for both constructions and assert
    the expected scaling split."""
    workload = PaperWorkload(seed=1)
    context = workload.context(N)
    message = workload.message()

    print("\n=== Ablation A1 — end-to-end latency vs threshold k (N = 10) ===")
    print(f"{'k':>3} {'C1 (ms)':>10} {'C2 (ms)':>10}")
    c1_times, c2_times = [], []
    for k in K_VALUES:
        start = time.perf_counter()
        assert _c1_flow(k, context, message) == message
        c1_times.append((time.perf_counter() - start) * 1e3)

        start = time.perf_counter()
        if k == 1:
            # CP-ABE supports k=1 over N=10 leaves (1-of-10 gate).
            pass
        assert _c2_flow(k, context, message, default_params) == message
        c2_times.append((time.perf_counter() - start) * 1e3)
        print(f"{k:>3} {c1_times[-1]:>10.1f} {c2_times[-1]:>10.1f}")

    # C2's cost rises markedly with k (2 pairings per satisfied leaf).
    assert c2_times[-1] > 1.5 * c2_times[0]
    # C1 stays cheap across the sweep (field arithmetic only).
    assert max(c1_times) < 500
    # C2 costs more than C1 at every threshold.
    assert all(c2 > c1 for c1, c2 in zip(c1_times, c2_times))


@pytest.mark.parametrize("k", K_VALUES)
def test_bench_c1_threshold(benchmark, k):
    workload = PaperWorkload(seed=k)
    context = workload.context(N)
    message = workload.message()
    result = benchmark.pedantic(
        lambda: _c1_flow(k, context, message), rounds=3, iterations=1
    )
    assert result == message


@pytest.mark.parametrize("k", K_VALUES)
def test_bench_c2_threshold(benchmark, k, default_params):
    workload = PaperWorkload(seed=k)
    context = workload.context(N)
    message = workload.message()
    result = benchmark.pedantic(
        lambda: _c2_flow(k, context, message, default_params), rounds=3, iterations=1
    )
    assert result == message
