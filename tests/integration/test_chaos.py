"""Chaos harness: seeded fault sweeps over end-to-end journeys.

Runs hundreds of share/solve journeys on :class:`SocialPuzzlePlatform`
with every substrate misbehaving at once — storage put/get faults and
lost writes, provider publish/read faults, puzzle-service store/verify
faults and stale display reads — and asserts the dependability
invariants the resilience layer promises:

1. every journey ends in clean success or a typed ``SocialPuzzleError``
   (no untyped exceptions, ever);
2. no orphaned blobs and no half-published SP state: after every share
   attempt, blob count == post count == puzzle count == number of
   successful shares;
3. the SP and DH audit trails never see a plaintext object or a context
   answer, even mid-fault;
4. with fault rates < 1 and retries, every journey eventually succeeds;
5. observability is total and leak-free: every journey — including every
   failed attempt — leaves a *closed* span tree (no dangling spans), and
   no serialized trace or event contains a shared object or a context
   answer.

All backoff runs on the simulated clock, so the whole sweep finishes in
seconds of wall time while covering minutes of simulated waiting.
"""

from __future__ import annotations

import random

import pytest

from repro.apps.platform import SocialPuzzlePlatform
from repro.core.errors import SocialPuzzleError
from repro.crypto.params import TOY
from repro.obs import Observability
from repro.osn.faults import (
    FlakyPuzzleService,
    FlakyServiceProvider,
    FlakyStorageHost,
)
from repro.osn.resilience import CircuitBreaker, RetryPolicy
from repro.sim.metrics import ResilienceMetrics
from repro.sim.timing import SimClock

# Mixed fault-rate operating points. Each journey must survive all of
# them; the zero row is the control.
FAULT_CONFIGS = [
    dict(put=0.0, get=0.0, lost=0.0, post=0.0, read=0.0, store=0.0, vfy=0.0, stale=0.0),
    dict(put=0.2, get=0.2, lost=0.1, post=0.2, read=0.1, store=0.2, vfy=0.2, stale=0.2),
    dict(put=0.4, get=0.3, lost=0.2, post=0.3, read=0.2, store=0.3, vfy=0.3, stale=0.3),
    dict(put=0.15, get=0.15, lost=0.5, post=0.1, read=0.1, store=0.1, vfy=0.1, stale=0.5),
    dict(put=0.5, get=0.4, lost=0.3, post=0.4, read=0.2, store=0.4, vfy=0.4, stale=0.0),
]
C1_JOURNEYS_PER_CONFIG = 40  # 5 x 40 = 200 C1 journeys
C2_JOURNEYS_PER_CONFIG = 6  # CP-ABE is pricier; 2 configs below
MAX_JOURNEY_ATTEMPTS = 30


def _build_world(config: dict, seed: int, with_breaker: bool = False):
    clock = SimClock()
    obs = Observability(clock=clock)
    metrics = ResilienceMetrics(registry=obs.registry)
    storage = FlakyStorageHost(
        put_failure_rate=config["put"],
        get_failure_rate=config["get"],
        lost_write_rate=config["lost"],
        seed=seed,
    )
    provider = FlakyServiceProvider(
        post_failure_rate=config["post"],
        read_failure_rate=config["read"],
        seed=seed + 1,
    )
    retry = RetryPolicy(max_attempts=8, clock=clock, metrics=metrics, seed=seed + 2)
    breaker = None
    if with_breaker:
        breaker = CircuitBreaker(
            failure_threshold=8, reset_timeout_s=2.0, clock=clock, metrics=metrics,
            name="dh-breaker",
        )
    platform = SocialPuzzlePlatform(
        params=TOY,
        storage=storage,
        provider=provider,
        retry_policy=retry,
        circuit_breaker=breaker,
        observability=obs,
    )
    for app in (platform.app_c1, platform.app_c2):
        app.service = FlakyPuzzleService(
            app.service,
            store_failure_rate=config["store"],
            verify_failure_rate=config["vfy"],
            stale_display_rate=config["stale"],
            seed=seed + 3,
        )
    return platform, storage, provider, clock, metrics, obs


def _assert_consistent(storage, provider, service, published: int) -> None:
    """Invariant 2: success count fully determines all published state."""
    assert storage.object_count() == published, "orphaned or missing blob"
    assert len(provider._posts) == published, "half-published post"
    assert service.puzzle_count() == published, "dangling puzzle registration"


def _run_journeys(platform, storage, provider, clock, construction, journeys, seed):
    """Returns the objects shared, one per completed journey."""
    alice = platform.join("sharer-%d" % seed)
    bob = platform.join("reader-%d" % seed)
    platform.befriend(alice, bob)
    app = platform.app_c1 if construction == 1 else platform.app_c2
    context = platform_context()
    published = 0
    objects = []

    for journey in range(journeys):
        obj = ("chaos secret #%d/%d" % (seed, journey)).encode()

        # -- share: clean success or typed failure, never partial state --
        share = None
        for _ in range(MAX_JOURNEY_ATTEMPTS):
            try:
                share = platform.share(
                    alice, obj, context, k=2, construction=construction
                )
            except SocialPuzzleError:
                _assert_consistent(storage, provider, app.service, published)
                clock.advance(5.0)  # let breaker cooldowns elapse
                continue
            except BaseException as exc:  # pragma: no cover - invariant 1
                pytest.fail("untyped exception from share: %r" % exc)
            published += 1
            _assert_consistent(storage, provider, app.service, published)
            break
        assert share is not None, "share never succeeded despite fault rate < 1"

        # -- solve: same contract, eventual success ----------------------
        result = None
        for attempt in range(MAX_JOURNEY_ATTEMPTS):
            try:
                result = platform.solve(
                    bob,
                    share,
                    context,
                    construction=construction,
                    rng=random.Random(seed * 1000 + journey * 31 + attempt)
                    if construction == 1
                    else None,
                )
            except SocialPuzzleError:
                clock.advance(5.0)
                continue
            except BaseException as exc:  # pragma: no cover - invariant 1
                pytest.fail("untyped exception from solve: %r" % exc)
            break
        assert result is not None, "solve never succeeded despite fault rate < 1"
        assert result.plaintext == obj
        objects.append(obj)

    return objects


def platform_context():
    from repro.core.context import Context

    return Context.from_mapping(
        {
            "Where was the reunion held?": "Ljubljana",
            "Who burned the casserole?": "Maximilien",
            "What game ran past midnight?": "Carcassonne",
            "Which ferry did we miss?": "Pelikaan",
        }
    )


def _assert_observability_hygiene(obs, objects) -> None:
    """Invariant 5: every retained trace is closed root-to-leaf, and no
    span attribute or event field leaked an object or a context answer."""
    secrets = list(objects)
    secrets += [pair.answer_bytes() for pair in platform_context().pairs]
    obs.assert_trace_hygiene(*secrets)
    assert len(obs.tracer.finished) > 0, "journeys ran but produced no traces"
    for root in obs.tracer.finished:
        root.assert_complete()


def _assert_surveillance_resistance(storage, provider, objects) -> None:
    """Invariant 3: no plaintext object or answer in any audit trail."""
    for obj in objects:
        storage.audit.assert_never_saw(obj, "shared object")
        provider.audit.assert_never_saw(obj, "shared object")
    for pair in platform_context().pairs:
        answer = pair.answer_bytes()
        storage.audit.assert_never_saw(answer, "context answer")
        provider.audit.assert_never_saw(answer, "context answer")


class TestChaosC1:
    @pytest.mark.parametrize("config_index", range(len(FAULT_CONFIGS)))
    def test_journeys_survive_mixed_fault_rates(self, config_index):
        config = FAULT_CONFIGS[config_index]
        platform, storage, provider, clock, metrics, obs = _build_world(
            config, seed=100 + config_index
        )
        objects = _run_journeys(
            platform,
            storage,
            provider,
            clock,
            construction=1,
            journeys=C1_JOURNEYS_PER_CONFIG,
            seed=100 + config_index,
        )
        assert len(objects) == C1_JOURNEYS_PER_CONFIG
        _assert_surveillance_resistance(storage, provider, objects)
        _assert_observability_hygiene(obs, objects)
        if any(rate > 0 for rate in config.values()):
            assert metrics.retry_count() > 0, "faults injected but never retried"

    def test_breaker_cycles_under_sustained_faults(self):
        config = FAULT_CONFIGS[4]
        platform, storage, provider, clock, metrics, obs = _build_world(
            config, seed=500, with_breaker=True
        )
        objects = _run_journeys(
            platform, storage, provider, clock,
            construction=1, journeys=15, seed=500,
        )
        assert len(objects) == 15
        _assert_observability_hygiene(obs, objects)
        # The breaker must have actually cycled: tripped open at least
        # once, and recovered (half-open) so journeys kept succeeding.
        assert metrics.transition_count("open") >= 1
        assert metrics.transition_count("half-open") >= 1

    def test_chaos_sweep_advanced_simulated_time_only(self):
        config = FAULT_CONFIGS[2]
        platform, storage, provider, clock, metrics, _obs = _build_world(
            config, seed=900
        )
        _run_journeys(
            platform, storage, provider, clock,
            construction=1, journeys=5, seed=900,
        )
        # Retry backoff accumulated on the simulated clock.
        assert clock.slept_s > 0
        assert metrics.backoff_s == pytest.approx(clock.slept_s)


class TestChaosC2:
    @pytest.mark.parametrize("config_index", [1, 2])
    def test_journeys_survive_mixed_fault_rates(self, config_index):
        config = FAULT_CONFIGS[config_index]
        platform, storage, provider, clock, metrics, obs = _build_world(
            config, seed=700 + config_index
        )
        objects = _run_journeys(
            platform,
            storage,
            provider,
            clock,
            construction=2,
            journeys=C2_JOURNEYS_PER_CONFIG,
            seed=700 + config_index,
        )
        assert len(objects) == C2_JOURNEYS_PER_CONFIG
        _assert_surveillance_resistance(storage, provider, objects)
        _assert_observability_hygiene(obs, objects)
        assert metrics.retry_count() > 0


class TestChaosScale:
    def test_total_journey_count_meets_the_bar(self):
        """The acceptance criterion: the sweep above covers >= 200 seeded
        journeys at mixed fault rates."""
        total = (
            len(FAULT_CONFIGS) * C1_JOURNEYS_PER_CONFIG
            + 2 * C2_JOURNEYS_PER_CONFIG
            + 10  # breaker sweep
            + 5  # sim-time sweep
        )
        assert total >= 200
