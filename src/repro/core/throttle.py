"""Online-guessing throttling for the SP-side verifiers.

The offline dictionary attack of :mod:`repro.analysis.security` needs the
puzzle (and K_Z); an *online* guesser needs only the displayed questions —
it can submit candidate answers to Verify until the threshold clears. The
paper's semi-honest SP model doesn't address this, but any deployment
must: the throttled services lock a requester out of a puzzle after a
bounded number of failed verifications, turning the attack cost from
"vocabulary size" into "max_failures".

Both constructions share the same lockout policy, extracted into
:class:`GuessThrottle`: per-(puzzle, requester) failed-attempt budgets,
reset on success, with sharer-initiated forgiveness. Construction 1 and 2
verifiers differ only in what "verify" means.

This interacts with the entropy auditor: a puzzle whose k weakest answers
total ~20 bits is hopeless against an offline adversary (the SP itself)
but fine against outside users when the SP throttles — which is exactly
the trust distinction of the paper's section IV model.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.construction1 import PuzzleAnswers, PuzzleServiceC1, ShareRelease
from repro.core.construction2 import AccessGrantC2, PuzzleAnswersC2, PuzzleServiceC2
from repro.core.errors import AccessDeniedError, SocialPuzzleError
from repro.obs.runtime import count, emit_event

__all__ = [
    "ThrottledError",
    "GuessThrottle",
    "ThrottledPuzzleServiceC1",
    "ThrottledPuzzleServiceC2",
]


class ThrottledError(SocialPuzzleError):
    """The requester exhausted their failed-attempt budget for a puzzle."""


@dataclass
class _Budget:
    failures: int = 0
    locked: bool = False


_UNTOUCHED = _Budget()  # what a pair with no recorded failure reads as


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

    def _peek(self, puzzle_id: int, requester: str) -> _Budget:
        """The pair's budget without allocating one: only a failure
        creates state, so probes and grants leave ``_budgets`` alone."""
        return self._budgets.get((puzzle_id, requester), _UNTOUCHED)

    def check(self, puzzle_id: int, requester: str) -> None:
        """Gate a verification attempt; raises once locked out."""
        if self._peek(puzzle_id, requester).locked:
            raise ThrottledError(
                "requester %r is locked out of puzzle %d after %d failures"
                % (requester, puzzle_id, self.max_failures)
            )

    def record_failure(self, puzzle_id: int, requester: str) -> None:
        """Charge one failed verification against the requester's budget.

        Locks the (puzzle, requester) pair once ``max_failures`` is
        reached; the lockout is observable as a ``throttle.lockout``
        event (the requester name is redacted by the event log — it is
        personal data, not an operational label).
        """
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
        self._budgets.pop((puzzle_id, requester), None)


class _ThrottleMixin:
    """Shared glue: delegate budget bookkeeping to a GuessThrottle."""

    throttle: GuessThrottle

    @property
    def max_failures(self) -> int:
        return self.throttle.max_failures

    def failures_for(self, puzzle_id: int, requester: str = "") -> int:
        return self.throttle.failures_for(puzzle_id, requester)

    def is_locked(self, puzzle_id: int, requester: str = "") -> bool:
        return self.throttle.is_locked(puzzle_id, requester)

    def unlock(self, puzzle_id: int, requester: str = "") -> None:
        self.throttle.unlock(puzzle_id, requester)


class ThrottledPuzzleServiceC1(_ThrottleMixin, PuzzleServiceC1):
    """A PuzzleServiceC1 that bounds failed verifications per requester."""

    def __init__(self, max_failures: int = 5, **kwargs):
        super().__init__(**kwargs)
        self.throttle = GuessThrottle(max_failures)

    def verify(self, answers: PuzzleAnswers, requester: str = "") -> ShareRelease:
        """Gate, verify, and account: raises :class:`ThrottledError` once
        the requester is locked out, charges a failure on
        :class:`~repro.core.errors.AccessDeniedError`, resets on success."""
        self.throttle.check(answers.puzzle_id, requester)
        try:
            release = super().verify(answers)
        except AccessDeniedError:
            self.throttle.record_failure(answers.puzzle_id, requester)
            raise
        self.throttle.record_success(answers.puzzle_id, requester)
        return release

    def explain(self, answers: PuzzleAnswers, requester: str = ""):
        """Explain shares the verify budget: a denied explanation is an
        answer-probing attempt and charges a failure, so Explain cannot
        be used as an unthrottled guessing oracle."""
        self.throttle.check(answers.puzzle_id, requester)
        explanation = super().explain(answers)
        if explanation.granted:
            self.throttle.record_success(answers.puzzle_id, requester)
        else:
            self.throttle.record_failure(answers.puzzle_id, requester)
        return explanation


class ThrottledPuzzleServiceC2(_ThrottleMixin, PuzzleServiceC2):
    """A PuzzleServiceC2 that bounds failed verifications per requester."""

    def __init__(self, max_failures: int = 5, **kwargs):
        super().__init__(**kwargs)
        self.throttle = GuessThrottle(max_failures)

    def verify(self, answers: PuzzleAnswersC2, requester: str = "") -> AccessGrantC2:
        """Same lockout contract as the C1 verifier, returning the C2
        access grant (URL + master key + public key) on success."""
        self.throttle.check(answers.puzzle_id, requester)
        try:
            grant = super().verify(answers)
        except AccessDeniedError:
            self.throttle.record_failure(answers.puzzle_id, requester)
            raise
        self.throttle.record_success(answers.puzzle_id, requester)
        return grant

    def explain(self, answers: PuzzleAnswersC2, requester: str = ""):
        """Same explain/verify shared budget as the C1 service."""
        self.throttle.check(answers.puzzle_id, requester)
        explanation = super().explain(answers)
        if explanation.granted:
            self.throttle.record_success(answers.puzzle_id, requester)
        else:
            self.throttle.record_failure(answers.puzzle_id, requester)
        return explanation
