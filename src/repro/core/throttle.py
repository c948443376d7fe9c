"""Online-guessing throttling for the SP-side verifiers.

The offline dictionary attack of :mod:`repro.analysis.security` needs the
puzzle (and K_Z); an *online* guesser needs only the displayed questions —
it can submit candidate answers to Verify until the threshold clears. The
paper's semi-honest SP model doesn't address this, but any deployment
must: a :class:`~repro.core.service.PuzzleService` built with
``max_failures`` locks a requester out of a puzzle after a bounded number
of failed verifications, turning the attack cost from "vocabulary size"
into "max_failures".

The lockout policy lives in :class:`GuessThrottle`: per-(puzzle,
requester) failed-attempt budgets, reset on success, with
sharer-initiated forgiveness. Both constructions' services run Verify
and Explain under the same throttle; they differ only in what "verify"
means.

This interacts with the entropy auditor: a puzzle whose k weakest answers
total ~20 bits is hopeless against an offline adversary (the SP itself)
but fine against outside users when the SP throttles — which is exactly
the trust distinction of the paper's section IV model.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

from repro.core.errors import AccessDeniedError, SocialPuzzleError
from repro.obs.runtime import count, emit_event

__all__ = ["ThrottledError", "GuessThrottle"]


class ThrottledError(SocialPuzzleError):
    """The requester exhausted their failed-attempt budget for a puzzle."""


@dataclass
class _Budget:
    failures: int = 0
    in_flight: int = 0
    locked: bool = False


_UNTOUCHED = _Budget()  # what a pair with no recorded failure reads as


class _Attempt:
    granted: bool | None = None  # None: ended neither granted nor denied


class GuessThrottle:
    """Per-(puzzle, requester) failed-verification budgets.

    ``max_failures`` — failed Verify calls allowed per (requester, puzzle)
    before lockout. A successful verification resets the count (a friend
    who mistyped once isn't punished). Requests without a requester name
    share the anonymous budget — an anonymous-access deployment would key
    on a session or network identifier instead.
    """

    def __init__(self, max_failures: int = 5):
        if max_failures < 1:
            raise ValueError("max_failures must be >= 1")
        self.max_failures = max_failures
        self._budgets: dict[tuple[int, str], _Budget] = {}
        # Budgets are read-modify-write state shared by every dispatch
        # thread; admission and settlement must not interleave.
        self._lock = threading.Lock()

    def _peek(self, puzzle_id: int, requester: str) -> _Budget:
        """The pair's budget without allocating one: only a failure or an
        attempt in flight creates state, so probes and grants leave
        ``_budgets`` alone."""
        return self._budgets.get((puzzle_id, requester), _UNTOUCHED)

    def check(self, puzzle_id: int, requester: str) -> None:
        """Gate a verification attempt; raises once locked out."""
        if self._peek(puzzle_id, requester).locked:
            raise ThrottledError(
                "requester %r is locked out of puzzle %d after %d failures"
                % (requester, puzzle_id, self.max_failures)
            )

    @contextmanager
    def attempt(self, puzzle_id: int, requester: str) -> Iterator[_Attempt]:
        """Admit one guess against the pair's budget, then settle it.

        Admission reserves one unit of budget under the lock, so at most
        ``max_failures`` attempts per pair are failing or in flight at
        once: concurrent guesses cannot all pass the check before any of
        them is charged. The body marks ``granted`` on the yielded
        attempt; an :class:`AccessDeniedError` escaping it counts as a
        deny. On exit the unit is charged (deny), the count reset
        (grant), or the unit returned uncharged (any other exception).
        """
        key = (puzzle_id, requester)
        with self._lock:
            self.check(puzzle_id, requester)
            budget = self._budgets.get(key)
            if budget is None:
                budget = self._budgets[key] = _Budget()
            elif budget.failures + budget.in_flight >= self.max_failures:
                raise ThrottledError(
                    "requester %r already has %d guesses failing or in "
                    "flight on puzzle %d" % (requester, self.max_failures, puzzle_id)
                )
            budget.in_flight += 1
        attempt = _Attempt()
        try:
            yield attempt
        except AccessDeniedError:
            attempt.granted = False
            raise
        finally:
            # Settle before returning the reservation, so no admission
            # sees this attempt as neither in flight nor charged.
            if attempt.granted is False:
                self.record_failure(puzzle_id, requester)
            elif attempt.granted:
                self.record_success(puzzle_id, requester)
            with self._lock:
                budget.in_flight -= 1
                idle = not (budget.failures or budget.in_flight or budget.locked)
                # unlock() may have dropped this budget mid-attempt.
                if idle and self._budgets.get(key) is budget:
                    del self._budgets[key]

    def record_failure(self, puzzle_id: int, requester: str) -> None:
        """Charge one failed verification against the requester's budget.

        Locks the (puzzle, requester) pair once ``max_failures`` is
        reached; the lockout is observable as a ``throttle.lockout``
        event (the requester name is redacted by the event log — it is
        personal data, not an operational label).
        """
        with self._lock:
            budget = self._budgets.setdefault((puzzle_id, requester), _Budget())
            budget.failures += 1
            count("core.throttle.failures")
            if budget.failures >= self.max_failures:
                budget.locked = True
                count("core.throttle.lockouts")
                emit_event(
                    "throttle.lockout",
                    puzzle_id=puzzle_id,
                    requester=requester,
                    failures=budget.failures,
                )

    def record_success(self, puzzle_id: int, requester: str) -> None:
        """Reset the failure count — a verified friend isn't punished for
        an earlier typo. Does not clear an existing lockout."""
        with self._lock:
            budget = self._budgets.get((puzzle_id, requester))
            if budget is not None:
                budget.failures = 0

    def failures_for(self, puzzle_id: int, requester: str = "") -> int:
        """Current failed-attempt count for the (puzzle, requester) pair."""
        return self._peek(puzzle_id, requester).failures

    def is_locked(self, puzzle_id: int, requester: str = "") -> bool:
        """Whether the pair has exhausted its budget and is locked out."""
        return self._peek(puzzle_id, requester).locked

    def unlock(self, puzzle_id: int, requester: str = "") -> None:
        """Sharer-initiated forgiveness (e.g. after rotating the puzzle)."""
        with self._lock:
            self._budgets.pop((puzzle_id, requester), None)
