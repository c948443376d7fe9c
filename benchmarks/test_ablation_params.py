"""Ablation A2: pairing parameter size vs Construction 2 latency.

The paper inherits PBC's type-A defaults (|r| = 160, |q| = 512) from the
cpabe toolkit. This ablation sweeps our three presets to show how the
security parameter drives CP-ABE cost — the knob a deployment would tune.
"""

from __future__ import annotations

import time

import pytest

from repro.core.construction2 import PuzzleServiceC2, ReceiverC2, SharerC2
from repro.crypto.params import DEFAULT, SMALL, TOY
from repro.osn.storage import StorageHost
from repro.osn.workload import PaperWorkload
from repro.policy.model import PuzzlePolicy

PRESETS = [TOY, SMALL, DEFAULT]
N, K = 5, 2


def _flow(params, context, message):
    storage = StorageHost()
    sharer = SharerC2("s", storage, params)
    service = PuzzleServiceC2()
    policy = PuzzlePolicy.from_k_of_n(K, context.questions[:N])
    record, ct_bytes = sharer.upload_policy(message, context, policy)
    puzzle_id = service.store_upload(record)
    receiver = ReceiverC2("r", storage, params)
    displayed = service.display_puzzle(puzzle_id)
    grant = service.verify(receiver.answer_puzzle(displayed, context))
    return receiver.access(grant, context), len(ct_bytes)


def test_param_scaling_report():
    """Print latency and ciphertext size per preset; assert monotone
    growth with the security parameter."""
    workload = PaperWorkload(seed=2)
    context = workload.context(N)
    message = workload.message()

    print("\n=== Ablation A2 — C2 latency vs pairing parameters (N=5, k=2) ===")
    print(f"{'preset':>18} {'|r|':>5} {'|q|':>5} {'e2e (ms)':>10} {'CT bytes':>10}")
    times, sizes = [], []
    for params in PRESETS:
        start = time.perf_counter()
        plaintext, ct_size = _flow(params, context, message)
        elapsed = (time.perf_counter() - start) * 1e3
        assert plaintext == message
        times.append(elapsed)
        sizes.append(ct_size)
        print(
            f"{params.name:>18} {params.r.bit_length():>5} "
            f"{params.q.bit_length():>5} {elapsed:>10.1f} {ct_size:>10}"
        )

    assert times[0] < times[1] < times[2]
    assert sizes[0] < sizes[1] < sizes[2]


@pytest.mark.parametrize("params", PRESETS, ids=lambda p: p.name)
def test_bench_c2_by_params(benchmark, params):
    workload = PaperWorkload(seed=3)
    context = workload.context(N)
    message = workload.message()
    result = benchmark.pedantic(
        lambda: _flow(params, context, message)[0], rounds=3, iterations=1
    )
    assert result == message
