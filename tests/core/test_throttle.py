"""Tests for online-guessing throttling."""

from __future__ import annotations

import itertools
import random
import sys
import threading

import pytest

from repro.core.construction1 import (
    PuzzleAnswers,
    PuzzleServiceC1,
    ReceiverC1,
    SharerC1,
)
from repro.core.context import Context, QAPair
from repro.core.errors import AccessDeniedError, UnknownPuzzleError
from repro.core.throttle import ThrottledError
from repro.osn.storage import StorageHost
from tests.conftest import k_of_n

DEADLINE_S = 20.0

@pytest.fixture()
def world(party_context, secret_object):
    storage = StorageHost()
    sharer = SharerC1("s", storage)
    service = PuzzleServiceC1(max_failures=3)
    puzzle_id = service.store_puzzle(
        sharer.upload_policy(secret_object, party_context, k_of_n(2, party_context, 4))
    )
    receiver = ReceiverC1("r", storage)
    return storage, service, puzzle_id, receiver


def _attempt(service, receiver, puzzle_id, knowledge, requester, seed=0):
    displayed = service.display_puzzle(puzzle_id, rng=random.Random(seed))
    answers = receiver.answer_puzzle(displayed, knowledge)
    return service.verify(answers, requester=requester), displayed


class TestThrottling:
    def test_lockout_after_max_failures(self, world, party_context):
        _, service, puzzle_id, receiver = world
        wrong = Context(
            QAPair(p.question, "wrong-" + p.answer) for p in party_context
        )
        for _ in range(3):
            with pytest.raises(AccessDeniedError):
                _attempt(service, receiver, puzzle_id, wrong, "mallory")
        with pytest.raises(ThrottledError):
            _attempt(service, receiver, puzzle_id, wrong, "mallory")
        assert service.throttle.is_locked(puzzle_id, "mallory")

    def test_lockout_blocks_even_correct_answers(self, world, party_context):
        """Once locked, the budget is spent — knowing the answers later
        does not help (until the sharer unlocks)."""
        _, service, puzzle_id, receiver = world
        wrong = Context(
            QAPair(p.question, "nope " + p.answer) for p in party_context
        )
        for _ in range(3):
            with pytest.raises(AccessDeniedError):
                _attempt(service, receiver, puzzle_id, wrong, "mallory")
        with pytest.raises(ThrottledError):
            _attempt(service, receiver, puzzle_id, party_context, "mallory")

    def test_success_resets_counter(self, world, party_context):
        _, service, puzzle_id, receiver = world
        wrong = Context(
            QAPair(p.question, "oops " + p.answer) for p in party_context
        )
        for _ in range(2):
            with pytest.raises(AccessDeniedError):
                _attempt(service, receiver, puzzle_id, wrong, "bob")
        assert service.throttle.failures_for(puzzle_id, "bob") == 2
        _attempt(service, receiver, puzzle_id, party_context, "bob")
        assert service.throttle.failures_for(puzzle_id, "bob") == 0

    def test_budgets_are_per_requester(self, world, party_context):
        _, service, puzzle_id, receiver = world
        wrong = Context(
            QAPair(p.question, "bad " + p.answer) for p in party_context
        )
        for _ in range(3):
            with pytest.raises(AccessDeniedError):
                _attempt(service, receiver, puzzle_id, wrong, "mallory")
        # Bob is unaffected by mallory's lockout.
        release, displayed = _attempt(
            service, receiver, puzzle_id, party_context, "bob"
        )
        assert release.url

    def test_budgets_are_per_puzzle(self, world, party_context, secret_object):
        storage, service, puzzle_id, receiver = world
        sharer = SharerC1("s2", storage)
        other_id = service.store_puzzle(
            sharer.upload_policy(
                secret_object, party_context, k_of_n(2, party_context, 4)
            )
        )
        wrong = Context(
            QAPair(p.question, "bad " + p.answer) for p in party_context
        )
        for _ in range(3):
            with pytest.raises(AccessDeniedError):
                _attempt(service, receiver, puzzle_id, wrong, "mallory")
        # Same requester, different puzzle: fresh budget.
        with pytest.raises(AccessDeniedError):
            _attempt(service, receiver, other_id, wrong, "mallory")

    def test_unlock(self, world, party_context):
        _, service, puzzle_id, receiver = world
        wrong = Context(
            QAPair(p.question, "bad " + p.answer) for p in party_context
        )
        for _ in range(3):
            with pytest.raises(AccessDeniedError):
                _attempt(service, receiver, puzzle_id, wrong, "mallory")
        service.throttle.unlock(puzzle_id, "mallory")
        assert not service.throttle.is_locked(puzzle_id, "mallory")
        release, _ = _attempt(service, receiver, puzzle_id, party_context, "mallory")
        assert release.url

    def test_bad_config(self):
        with pytest.raises(ValueError):
            PuzzleServiceC1(max_failures=0)


class TestOnlineBruteForceDefeated:
    def test_vocabulary_attack_exhausts_budget(self, secret_object):
        """An online guesser with a small per-question vocabulary would
        eventually hit the right combination — throttling stops it after
        max_failures tries."""
        context = Context.from_mapping(
            {"q1": "zeta", "q2": "omicron"}  # tiny 'memorable' answers
        )
        storage = StorageHost()
        sharer = SharerC1("s", storage)
        service = PuzzleServiceC1(max_failures=4)
        puzzle = sharer.upload_policy(secret_object, context, k_of_n(2, context))
        puzzle_id = service.store_puzzle(puzzle)
        receiver = ReceiverC1("attacker", storage)

        vocabulary = ["alpha", "beta", "gamma", "zeta", "omicron", "sigma"]
        attempts = 0
        cracked = False
        for guess1, guess2 in itertools.product(vocabulary, repeat=2):
            guess = Context.from_mapping({"q1": guess1, "q2": guess2})
            attempts += 1
            try:
                _attempt(service, receiver, puzzle_id, guess, "attacker", seed=1)
                cracked = True
                break
            except AccessDeniedError:
                continue
            except ThrottledError:
                break
        assert not cracked
        assert attempts <= 5  # 4 failures + the throttled attempt


class TestThrottledC2:
    @pytest.fixture()
    def c2_world(self, party_context, secret_object):
        from repro.core.construction2 import PuzzleServiceC2, ReceiverC2, SharerC2
        from repro.crypto.params import TOY

        storage = StorageHost()
        sharer = SharerC2("s", storage, TOY)
        service = PuzzleServiceC2(max_failures=3)
        record, _ = sharer.upload_policy(
            secret_object, party_context, k_of_n(2, party_context)
        )
        puzzle_id = service.store_upload(record)
        receiver = ReceiverC2("r", storage, TOY)
        return service, puzzle_id, receiver

    def _attempt_c2(self, service, receiver, puzzle_id, knowledge, requester):
        displayed = service.display_puzzle(puzzle_id)
        answers = receiver.answer_puzzle(displayed, knowledge)
        return service.verify(answers, requester=requester)

    def test_c2_responder_locked_out(self, c2_world, party_context):
        service, puzzle_id, receiver = c2_world
        wrong = Context(
            QAPair(p.question, "wrong-" + p.answer) for p in party_context
        )
        for _ in range(3):
            with pytest.raises(AccessDeniedError):
                self._attempt_c2(service, receiver, puzzle_id, wrong, "mallory")
        with pytest.raises(ThrottledError):
            self._attempt_c2(service, receiver, puzzle_id, wrong, "mallory")
        assert service.throttle.is_locked(puzzle_id, "mallory")

    def test_c2_success_resets_and_budgets_are_per_requester(
        self, c2_world, party_context
    ):
        service, puzzle_id, receiver = c2_world
        wrong = Context(
            QAPair(p.question, "nope-" + p.answer) for p in party_context
        )
        for _ in range(2):
            with pytest.raises(AccessDeniedError):
                self._attempt_c2(service, receiver, puzzle_id, wrong, "bob")
        grant = self._attempt_c2(service, receiver, puzzle_id, party_context, "bob")
        assert grant.url
        assert service.throttle.failures_for(puzzle_id, "bob") == 0

    def test_both_constructions_share_the_lockout_logic(self):
        from repro.core.construction2 import PuzzleServiceC2
        from repro.core.throttle import GuessThrottle

        c1 = PuzzleServiceC1(max_failures=2)
        c2 = PuzzleServiceC2(max_failures=2)
        assert isinstance(c1.throttle, GuessThrottle)
        assert isinstance(c2.throttle, GuessThrottle)
        assert c1.throttle.max_failures == c2.throttle.max_failures == 2


class TestGuessThrottle:
    def test_budget_lifecycle(self):
        from repro.core.throttle import GuessThrottle

        throttle = GuessThrottle(max_failures=2)
        throttle.check(1, "eve")
        throttle.record_failure(1, "eve")
        assert throttle.failures_for(1, "eve") == 1
        throttle.record_failure(1, "eve")
        assert throttle.is_locked(1, "eve")
        with pytest.raises(ThrottledError):
            throttle.check(1, "eve")
        throttle.unlock(1, "eve")
        throttle.check(1, "eve")

    def test_success_resets(self):
        from repro.core.throttle import GuessThrottle

        throttle = GuessThrottle(max_failures=3)
        throttle.record_failure(7, "u")
        throttle.record_success(7, "u")
        assert throttle.failures_for(7, "u") == 0

    def test_bad_config(self):
        from repro.core.throttle import GuessThrottle

        with pytest.raises(ValueError):
            GuessThrottle(max_failures=0)

    def test_read_paths_allocate_no_state(self):
        """Probing many requesters must not grow the budget table; only a
        failure creates state, and lockout/reset behave as before."""
        from repro.core.throttle import GuessThrottle

        throttle = GuessThrottle(max_failures=2)
        for i in range(1000):
            name = "probe-%d" % i
            throttle.check(3, name)
            assert throttle.failures_for(3, name) == 0
            assert not throttle.is_locked(3, name)
            throttle.record_success(3, name)
        assert throttle._budgets == {}

        throttle.record_failure(3, "eve")
        throttle.record_failure(3, "eve")
        assert throttle.is_locked(3, "eve")
        with pytest.raises(ThrottledError):
            throttle.check(3, "eve")
        throttle.record_success(3, "eve")  # resets the count, not the lock
        assert throttle.failures_for(3, "eve") == 0
        assert throttle.is_locked(3, "eve")
        throttle.unlock(3, "eve")
        throttle.check(3, "eve")
        assert throttle._budgets == {}


class _GatedService(PuzzleServiceC1):
    """Holds every answer check at a barrier shared with the test."""

    def __init__(self, barrier: threading.Barrier, **kwargs):
        super().__init__(**kwargs)
        self.barrier = barrier
        self.checked = 0
        self._checked_lock = threading.Lock()

    def _gate(self) -> None:
        with self._checked_lock:
            self.checked += 1
        self.barrier.wait(timeout=DEADLINE_S)

    def _matched_questions(self, answers):
        self._gate()
        return super()._matched_questions(answers)


class TestConcurrentGuesses:
    @pytest.mark.parametrize("verb", ["verify", "explain"])
    def test_budget_bounds_guesses_in_flight(
        self, verb, party_context, secret_object
    ):
        """Eight simultaneous wrong guesses by one requester against a
        budget of three: exactly three reach the answer check, the rest
        are throttled before any answer is examined.

        Every guess meets at one barrier — admitted ones inside the
        answer check, throttled ones after their rejection — so no guess
        is settled before all eight have been admitted or turned away.
        """
        barrier = threading.Barrier(8)
        storage = StorageHost()
        service = _GatedService(barrier, max_failures=3)
        puzzle_id = service.store_puzzle(
            SharerC1("s", storage).upload_policy(
                secret_object, party_context, k_of_n(2, party_context, 4)
            )
        )
        wrong = Context(
            QAPair(p.question, "wrong-" + p.answer) for p in party_context
        )
        displayed = service.display_puzzle(puzzle_id, rng=random.Random(0))
        answers = ReceiverC1("r", storage).answer_puzzle(displayed, wrong)
        outcomes: list[str] = []

        def guess() -> None:
            try:
                result = getattr(service, verb)(answers, requester="mallory")
            except AccessDeniedError:
                outcomes.append("denied")
            except ThrottledError:
                outcomes.append("throttled")
                barrier.wait(timeout=DEADLINE_S)
            else:
                outcomes.append("denied" if not result.granted else "granted")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=guess) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=DEADLINE_S)
                assert not thread.is_alive(), "a guess never returned"
        finally:
            sys.setswitchinterval(interval)
        assert service.checked == 3
        assert sorted(outcomes) == ["denied"] * 3 + ["throttled"] * 5
        assert service.throttle.is_locked(puzzle_id, "mallory")
        assert service.throttle.failures_for(puzzle_id, "mallory") == 3

    def test_non_deny_errors_return_the_reserved_unit(self):
        """An attempt that fails for a reason other than a deny (here an
        unknown puzzle) is neither charged nor left holding budget."""
        service = PuzzleServiceC1(max_failures=1)
        unknown = PuzzleAnswers(puzzle_id=99, digests={})
        for _ in range(3):
            with pytest.raises(UnknownPuzzleError):
                service.verify(unknown, requester="eve")
        assert service.throttle._budgets == {}
