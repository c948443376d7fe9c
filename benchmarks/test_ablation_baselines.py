"""Ablation A5: social puzzles vs the baselines the paper argues against.

Compares end-to-end share+access latency of Construction 1, Construction
2, the trivial all-context scheme (the strawman of section I) and a
static ACL (native OSN sharing) — plus the *qualitative* axes a latency
table cannot show, asserted as code: flexibility (threshold vs all-or-
nothing) and surveillance resistance (audit trail).
"""

from __future__ import annotations

import random
import time

import pytest

from repro.core.baseline import StaticAclScheme, TrivialContextScheme
from repro.core.construction1 import PuzzleServiceC1, ReceiverC1, SharerC1
from repro.core.construction2 import PuzzleServiceC2, ReceiverC2, SharerC2
from repro.core.errors import AccessDeniedError
from repro.crypto.params import DEFAULT
from repro.osn.provider import ServiceProvider
from repro.osn.storage import StorageHost
from repro.osn.workload import PaperWorkload
from repro.policy.model import PuzzlePolicy

N, K = 4, 2


def _c1_roundtrip(context, message):
    storage = StorageHost()
    sharer = SharerC1("s", storage)
    service = PuzzleServiceC1()
    policy = PuzzlePolicy.from_k_of_n(K, context.questions[:N])
    puzzle_id = service.store_puzzle(sharer.upload_policy(message, context, policy))
    receiver = ReceiverC1("r", storage)
    seed = next(s for s in range(10_000) if random.Random(s).randint(K, N) == N)
    displayed = service.display_puzzle(puzzle_id, rng=random.Random(seed))
    release = service.verify(receiver.answer_puzzle(displayed, context))
    return receiver.access(release, displayed, context)


def _c2_roundtrip(context, message):
    storage = StorageHost()
    sharer = SharerC2("s", storage, DEFAULT)
    service = PuzzleServiceC2()
    policy = PuzzlePolicy.from_k_of_n(K, context.questions[:N])
    record, _ = sharer.upload_policy(message, context, policy)
    puzzle_id = service.store_upload(record)
    receiver = ReceiverC2("r", storage, DEFAULT)
    displayed = service.display_puzzle(puzzle_id)
    grant = service.verify(receiver.answer_puzzle(displayed, context))
    return receiver.access(grant, context)


def _trivial_roundtrip(context, message):
    scheme = TrivialContextScheme(StorageHost())
    url = scheme.share(message, context)
    return scheme.access(url, context)


def _acl_roundtrip(message):
    provider = ServiceProvider()
    alice = provider.register_user("alice")
    bob = provider.register_user("bob")
    provider.befriend(alice, bob)
    scheme = StaticAclScheme(provider)
    post_id = scheme.share(alice, message, [bob])
    return scheme.access(bob, post_id)


def test_baseline_comparison_report():
    workload = PaperWorkload(seed=7)
    context = workload.context(N)
    message = workload.message()

    rows = []
    for label, fn in [
        ("construction 1", lambda: _c1_roundtrip(context, message)),
        ("construction 2", lambda: _c2_roundtrip(context, message)),
        ("trivial scheme", lambda: _trivial_roundtrip(context, message)),
        ("static ACL", lambda: _acl_roundtrip(message)),
    ]:
        start = time.perf_counter()
        assert fn() == message
        rows.append((label, (time.perf_counter() - start) * 1e3))

    print("\n=== Ablation A5 — end-to-end latency vs baselines (N=4, k=2) ===")
    print(f"{'scheme':>16} {'e2e (ms)':>10} {'threshold?':>11} {'surv.-resist?':>14}")
    flags = {
        "construction 1": ("yes", "yes"),
        "construction 2": ("yes", "yes"),
        "trivial scheme": ("no (all)", "yes"),
        "static ACL": ("no (ACL)", "NO"),
    }
    for label, ms in rows:
        threshold, resist = flags[label]
        print(f"{label:>16} {ms:>10.1f} {threshold:>11} {resist:>14}")

    by_label = dict(rows)
    # The crypto-free ACL is fastest; the trivial scheme beats C1 slightly
    # (no share machinery); C2 pays for pairings.
    assert by_label["static ACL"] < by_label["construction 1"]
    assert by_label["construction 2"] > by_label["construction 1"]


def test_trivial_scheme_is_inflexible():
    """What the latency table hides: partial knowledge fails under the
    trivial scheme but succeeds under a threshold puzzle."""
    workload = PaperWorkload(seed=8)
    context = workload.context(N)
    message = workload.message()

    trivial = TrivialContextScheme(StorageHost())
    url = trivial.share(message, context)
    with pytest.raises(AccessDeniedError):
        trivial.access(url, context.take(3))

    assert _c1_roundtrip(context, message) == message  # threshold k=2 of 4


def test_static_acl_has_no_surveillance_resistance():
    provider = ServiceProvider()
    alice = provider.register_user("alice")
    bob = provider.register_user("bob")
    provider.befriend(alice, bob)
    StaticAclScheme(provider).share(alice, b"visible-to-sp-plaintext", [bob])
    assert provider.audit.saw(b"visible-to-sp-plaintext")


@pytest.mark.parametrize(
    "scheme", ["c1", "c2", "trivial", "acl"]
)
def test_bench_baselines(benchmark, scheme):
    workload = PaperWorkload(seed=9)
    context = workload.context(N)
    message = workload.message()
    flows = {
        "c1": lambda: _c1_roundtrip(context, message),
        "c2": lambda: _c2_roundtrip(context, message),
        "trivial": lambda: _trivial_roundtrip(context, message),
        "acl": lambda: _acl_roundtrip(message),
    }
    result = benchmark.pedantic(flows[scheme], rounds=3, iterations=1)
    assert result == message
