"""The SP side of a social puzzle, written once for both constructions.

In the paper the SP is one semi-honest party running the same lifecycle
for either construction (sections IV, V-A, V-B): store the puzzle,
display its questions, check the hashed answers, and release only when
they satisfy the policy. :class:`PuzzleService` owns the parts that do
not depend on the construction; each construction service adds only what
differs.
"""

from __future__ import annotations

import threading

from repro.core.errors import AccessDeniedError, UnknownPuzzleError
from repro.core.throttle import GuessThrottle
from repro.osn.storage import AuditTrail
from repro.policy.explain import Explanation, explain_tree
from repro.policy.model import PuzzlePolicy

__all__ = ["PuzzleService"]


class PuzzleService:
    """The SP-side service both constructions share: the registry, the
    policy texts echoed by Explain, the two-phase retract saga, and
    Verify/Explain under the optional guess budget.

    A registration (a Z_O or a C2 upload record) names its own policy
    over questions, ``registration.policy()``; the service derives it
    once, when the registration is installed. A construction service
    defines how a puzzle is stored and displayed plus two hooks:
    ``_matched_questions(answers)`` (the questions whose hashed answer
    matches) and ``_grant(answers, matched)`` (the construction's reply
    once the policy holds). The release rule itself is :meth:`_release`,
    written once.

    ``max_failures`` turns on the online-guessing budget: Verify and
    Explain then run under a :class:`~repro.core.throttle.GuessThrottle`,
    readable as :attr:`throttle`, which locks a requester out of a puzzle
    after that many denied attempts. With ``None``, :attr:`throttle` is
    ``None`` and no budget applies.
    """

    construction: int  # 1 or 2, set by each construction service

    def __init__(
        self, audit: AuditTrail | None = None, max_failures: int | None = None
    ):
        self.audit = audit if audit is not None else AuditTrail()
        self.throttle = (
            GuessThrottle(max_failures) if max_failures is not None else None
        )
        # puzzle id -> (registration, its question-level policy)
        self._registrations: dict[int, tuple[object, PuzzlePolicy]] = {}
        self._retracting: dict[int, tuple[object, PuzzlePolicy]] = {}
        self._policy_texts: dict[int, str] = {}
        self._serial = 0
        # Guards identifier allocation only: concurrent store calls (the
        # smart server dispatches in worker threads) must never mint the
        # same id. Reads and single-key dict updates stay lock-free under
        # the GIL.
        self._serial_lock = threading.Lock()

    # -- the registry ------------------------------------------------------------

    def _allocate_id(self) -> int:
        with self._serial_lock:
            self._serial += 1
            return self._serial

    def _install(self, puzzle_id: int, registration) -> None:
        """Serve ``registration`` under ``puzzle_id``. Its question-level
        policy is derived here, once: Verify decides on it and Explain
        traces it."""
        self._registrations[puzzle_id] = (registration, registration.policy())

    def _entry(self, puzzle_id: int) -> tuple[object, PuzzlePolicy]:
        try:
            return self._registrations[puzzle_id]
        except KeyError:
            raise UnknownPuzzleError(puzzle_id) from None

    def _lookup(self, puzzle_id: int):
        """The live registration (a Z_O or a C2 upload record)."""
        return self._entry(puzzle_id)[0]

    def _policy(self, puzzle_id: int) -> PuzzlePolicy:
        """The live registration's question-level policy."""
        return self._entry(puzzle_id)[1]

    def puzzle_count(self) -> int:
        return len(self._registrations)

    def remove(self, puzzle_id: int) -> bool:
        """Unregister a puzzle (sharer retraction or publish rollback);
        returns whether anything was removed. Identifiers are never
        reused, so a rolled-back registration leaves no trace."""
        prepared = self._retracting.pop(puzzle_id, None) is not None
        self._policy_texts.pop(puzzle_id, None)
        return self._registrations.pop(puzzle_id, None) is not None or prepared

    # -- the policy plane --------------------------------------------------------

    def attach_policy(self, puzzle_id: int, policy_text: str) -> None:
        """Record the sharer's canonical policy expression for a stored
        puzzle (the SharePolicy verb). Question-level only — the text
        must never contain answers, and the SP uses it purely to echo a
        faithful rendering in explain replies."""
        self._lookup(puzzle_id)  # raises UnknownPuzzleError
        self._policy_texts[puzzle_id] = policy_text

    def policy_text(self, puzzle_id: int) -> str | None:
        """The attached policy expression, if the sharer registered one."""
        return self._policy_texts.get(puzzle_id)

    # -- Verify and Explain, under the guess budget ------------------------------

    def verify(self, answers, requester: str = ""):
        """Verify(u, h_1..h_r): release iff the hashed answers satisfy the
        puzzle policy, else raise :class:`AccessDeniedError` with no
        partial information (the paper: "SP does not send anything"):
        every denial of every puzzle carries the same text.

        With a guess budget, a locked-out or over-budget requester gets
        :class:`~repro.core.throttle.ThrottledError` before any answer is
        checked, a deny is charged, and a grant resets the count.
        """
        if self.throttle is None:
            return self._release(answers)
        with self.throttle.attempt(answers.puzzle_id, requester) as attempt:
            release = self._release(answers)
            attempt.granted = True
        return release

    def explain(self, answers, requester: str = "") -> Explanation:
        """The audit-grade derivation for one verification attempt.

        Evaluates the question-level tree over the *matched* leaves and
        traces every gate — grant and deny alike (no exception on deny:
        the whole point is explaining the failure). Only questions and
        gate arithmetic enter the trace; never a hash, answer or share.

        Explain shares the Verify budget: a denied explanation is an
        answer-probing attempt and is charged, so Explain cannot be used
        as an unthrottled guessing oracle.
        """
        if self.throttle is None:
            return self._explain(answers)
        with self.throttle.attempt(answers.puzzle_id, requester) as attempt:
            explanation = self._explain(answers)
            attempt.granted = explanation.granted
        return explanation

    def _release(self, answers):
        """The release rule of both constructions: match the hashed
        answers once, decide on the registration's question-level policy,
        and only then ask the construction for its reply."""
        matched = self._matched_questions(answers)
        self.audit.record(answers.to_bytes())
        if not self._policy(answers.puzzle_id).satisfied_by(matched):
            # One text for every denial: no count tells a guesser how
            # many of its answers were right.
            raise AccessDeniedError("the answers do not satisfy the puzzle policy")
        return self._grant(answers, matched)

    def _explain(self, answers) -> Explanation:
        matched = self._matched_questions(answers)
        return explain_tree(
            self._policy(answers.puzzle_id).tree,
            matched,
            construction=self.construction,
            puzzle_id=answers.puzzle_id,
            policy_text=self._policy_texts.get(answers.puzzle_id),
        )

    # -- the two-phase retract saga ----------------------------------------------

    def prepare_retract(self, puzzle_id: int) -> str:
        """Saga phase 1: move the registration into the retracting set —
        display/verify stop serving it immediately — and return its
        URL_O so the DH plane can delete the blob. Idempotent: re-
        preparing an already-prepared puzzle returns the same URL.
        Unknown ids raise :class:`UnknownPuzzleError`."""
        if puzzle_id in self._retracting:
            return self._retracting[puzzle_id][0].url
        entry = self._entry(puzzle_id)
        self._retracting[puzzle_id] = entry
        del self._registrations[puzzle_id]
        return entry[0].url

    def commit_retract(self, puzzle_id: int) -> bool:
        """Saga phase 2: discard the prepared registration for good;
        returns whether a prepared retract existed (idempotent)."""
        committed = self._retracting.pop(puzzle_id, None) is not None
        if committed:
            self._policy_texts.pop(puzzle_id, None)
        return committed

    def abort_retract(self, puzzle_id: int) -> bool:
        """Saga rollback: restore a prepared registration, exactly as it
        was before the prepare; returns whether one was pending."""
        entry = self._retracting.pop(puzzle_id, None)
        if entry is None:
            return False
        self._registrations[puzzle_id] = entry
        return True

    def pending_retracts(self) -> list[int]:
        """Prepared-but-uncommitted retracts (recovery introspection)."""
        return sorted(self._retracting)
