"""Tests for fault injection and client behaviour under substrate faults."""

from __future__ import annotations

import pytest

from repro.core.construction1 import PuzzleServiceC1, ReceiverC1, SharerC1
from repro.core.errors import (
    SocialPuzzleError,
    TamperDetectedError,
    TransientNetworkError,
    TransientProviderError,
    TransientServiceError,
)
from repro.osn.faults import (
    FlakyPuzzleService,
    FlakyServiceProvider,
    FlakyStorageHost,
    LossyNetworkLink,
    TransientStorageError,
)
from repro.osn.storage import StorageError, StorageHost
from tests.conftest import k_of_n


class TestFlakyStorageHost:
    def test_healthy_by_default(self):
        dh = FlakyStorageHost()
        url = dh.put(b"data")
        assert dh.get(url) == b"data"
        assert dh.faults_injected == 0

    def test_put_failures_injected(self):
        dh = FlakyStorageHost(put_failure_rate=1.0)
        with pytest.raises(TransientStorageError):
            dh.put(b"data")
        assert dh.faults_injected == 1

    def test_get_failures_injected(self):
        dh = FlakyStorageHost(get_failure_rate=1.0)
        healthy = FlakyStorageHost()
        stored = healthy.put(b"data")
        with pytest.raises(TransientStorageError):
            dh.get(stored)

    def test_transient_errors_are_retryable_and_storage_typed(self):
        """The fault taxonomy: retryable by the resilience layer, still a
        StorageError for storage-layer callers."""
        assert issubclass(TransientStorageError, StorageError)
        assert issubclass(TransientStorageError, TransientServiceError)
        assert issubclass(TransientStorageError, SocialPuzzleError)

    def test_lost_writes(self):
        dh = FlakyStorageHost(lost_write_rate=1.0)
        url = dh.put(b"data")
        with pytest.raises(StorageError):
            dh.get(url)

    def test_partial_rates_deterministic(self):
        a = FlakyStorageHost(put_failure_rate=0.5, seed=42)
        b = FlakyStorageHost(put_failure_rate=0.5, seed=42)
        outcomes_a, outcomes_b = [], []
        for outcomes, dh in ((outcomes_a, a), (outcomes_b, b)):
            for _ in range(20):
                try:
                    dh.put(b"x")
                    outcomes.append(True)
                except TransientStorageError:
                    outcomes.append(False)
        assert outcomes_a == outcomes_b
        assert True in outcomes_a and False in outcomes_a

    def test_bad_rates_rejected(self):
        with pytest.raises(ValueError):
            FlakyStorageHost(put_failure_rate=1.5)


class TestProtocolUnderFaults:
    def test_sharer_surfaces_put_failure(self, party_context, secret_object):
        dh = FlakyStorageHost(put_failure_rate=1.0)
        sharer = SharerC1("s", dh)
        with pytest.raises(TransientStorageError):
            sharer.upload_policy(
                secret_object, party_context, k_of_n(2, party_context, 4)
            )

    def test_sharer_retry_succeeds_when_fault_clears(
        self, party_context, secret_object
    ):
        # seed chosen so the first put fails and the second succeeds
        dh = FlakyStorageHost(put_failure_rate=0.5, seed=1)
        sharer = SharerC1("s", dh)
        puzzle = None
        attempts = 0
        while puzzle is None and attempts < 10:
            attempts += 1
            try:
                puzzle = sharer.upload_policy(
                    secret_object, party_context, k_of_n(2, party_context, 4)
                )
            except TransientStorageError:
                continue
        assert puzzle is not None
        assert dh.faults_injected >= 1

    def test_lost_write_detected_at_access_time(
        self, party_context, secret_object
    ):
        """A silently dropped write surfaces when the receiver fetches —
        as a missing object, never as wrong plaintext."""
        import random

        dh = FlakyStorageHost(lost_write_rate=1.0)
        sharer = SharerC1("s", dh)
        service = PuzzleServiceC1()
        puzzle = sharer.upload_policy(
            secret_object, party_context, k_of_n(2, party_context, 4)
        )
        puzzle_id = service.store_puzzle(puzzle)
        receiver = ReceiverC1("r", dh)
        displayed = service.display_puzzle(puzzle_id, rng=random.Random(0))
        release = service.verify(receiver.answer_puzzle(displayed, party_context))
        with pytest.raises((StorageError, TamperDetectedError, SocialPuzzleError)):
            receiver.access(release, displayed, party_context)


class TestFlakyServiceProvider:
    def test_healthy_by_default(self):
        sp = FlakyServiceProvider()
        alice = sp.register_user("alice")
        post = sp.post(alice, "hello", audience="public")
        assert sp.get_post(alice, post.post_id) == post
        assert sp.faults_injected == 0

    def test_post_failures_injected_before_storing(self):
        sp = FlakyServiceProvider(post_failure_rate=1.0)
        alice = sp.register_user("alice")
        with pytest.raises(TransientProviderError):
            sp.post(alice, "hello", audience="public")
        assert sp.faults_injected == 1
        assert sp.feed(alice) == []  # nothing half-published

    def test_read_failures_injected(self):
        sp = FlakyServiceProvider(read_failure_rate=1.0)
        alice = sp.register_user("alice")
        # posting is healthy; reading back is not
        post = super(FlakyServiceProvider, sp).post(alice, "x", audience="public")
        with pytest.raises(TransientProviderError):
            sp.get_post(alice, post.post_id)

    def test_seeded_and_bounded(self):
        with pytest.raises(ValueError):
            FlakyServiceProvider(post_failure_rate=2.0)
        a = FlakyServiceProvider(post_failure_rate=0.5, seed=9)
        b = FlakyServiceProvider(post_failure_rate=0.5, seed=9)
        ua, ub = a.register_user("u"), b.register_user("u")
        outcomes = []
        for sp, user in ((a, ua), (b, ub)):
            row = []
            for _ in range(20):
                try:
                    sp.post(user, "p", audience="public")
                    row.append(True)
                except TransientProviderError:
                    row.append(False)
            outcomes.append(row)
        assert outcomes[0] == outcomes[1]
        assert True in outcomes[0] and False in outcomes[0]


class TestFlakyPuzzleService:
    def _stored(self, party_context, secret_object, **fault_kwargs):
        storage = StorageHost()
        sharer = SharerC1("s", storage)
        service = FlakyPuzzleService(PuzzleServiceC1(), **fault_kwargs)
        puzzle = sharer.upload_policy(
            secret_object, party_context, k_of_n(2, party_context, 4)
        )
        return storage, service, puzzle

    def test_store_failure_does_not_register(self, party_context, secret_object):
        _, service, puzzle = self._stored(
            party_context, secret_object, store_failure_rate=1.0
        )
        with pytest.raises(TransientProviderError):
            service.store_puzzle(puzzle)
        assert service.puzzle_count() == 0  # injected before any mutation

    def test_verify_failure_injected(self, party_context, secret_object):
        import random

        storage, service, puzzle = self._stored(
            party_context, secret_object, verify_failure_rate=1.0
        )
        puzzle_id = service.store_puzzle(puzzle)
        receiver = ReceiverC1("r", storage)
        displayed = service.display_puzzle(puzzle_id, rng=random.Random(0))
        answers = receiver.answer_puzzle(displayed, party_context)
        with pytest.raises(TransientProviderError):
            service.verify(answers)

    def test_stale_display_serves_cached_response(self, party_context, secret_object):
        import random

        _, service, puzzle = self._stored(
            party_context, secret_object, stale_display_rate=1.0
        )
        puzzle_id = service.store_puzzle(puzzle)
        first = service.display_puzzle(puzzle_id, rng=random.Random(1))
        second = service.display_puzzle(puzzle_id, rng=random.Random(2))
        assert second is first  # the cached (stale) response came back
        assert service.faults_injected == 1

    def test_forwards_everything_else(self, party_context, secret_object):
        _, service, puzzle = self._stored(party_context, secret_object)
        puzzle_id = service.store_puzzle(puzzle)
        assert service.puzzle_count() == 1
        assert service.remove(puzzle_id) is True
        assert service.wrapped.puzzle_count() == 0


class TestLossyNetworkLink:
    def _link(self, drop_rate, seed=0):
        return LossyNetworkLink(
            name="lossy",
            rtt_s=0.01,
            uplink_bps=1e6,
            downlink_bps=1e6,
            drop_rate=drop_rate,
            timeout_s=2.5,
            seed=seed,
        )

    def test_no_drops_at_zero_rate(self):
        link = self._link(0.0)
        assert link.upload(1000, "req") > 0
        assert link.drops == 0

    def test_drops_charge_timeout_and_raise(self):
        link = self._link(1.0)
        with pytest.raises(TransientNetworkError):
            link.upload(1000, "req")
        assert link.drops == 1
        assert link.log[-1].delay_s == 2.5
        with pytest.raises(TransientNetworkError):
            link.download(1000, "resp")
        assert link.drops == 2

    def test_seeded_drop_pattern(self):
        a, b = self._link(0.4, seed=11), self._link(0.4, seed=11)
        pattern = []
        for link in (a, b):
            row = []
            for _ in range(25):
                try:
                    link.upload(100)
                    row.append(True)
                except TransientNetworkError:
                    row.append(False)
            pattern.append(row)
        assert pattern[0] == pattern[1]
        assert True in pattern[0] and False in pattern[0]

    def test_bad_rate_rejected(self):
        with pytest.raises(ValueError):
            self._link(1.5)
