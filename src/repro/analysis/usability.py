"""Simulated usability study (paper section VIII, "Usability Aspects").

The paper plans an on-campus user study following ISO 9241-11, which
frames usability as **effectiveness** (can users complete the task?),
**efficiency** (at what cost in time?) and **satisfaction**. No such
study can run inside a reproduction, so this module builds the closest
synthetic equivalent: a population of simulated participants with
class-dependent answer recall (attendee / invitee-who-missed / stranger),
typo rates, and per-question answering time, run against the *real*
Construction 1 protocol.

The output is the table such a study would report: per audience class,
task success rate, mean completion time (modelled protocol delay plus
typing time), and a satisfaction proxy (success within the first
``max_attempts`` tries). Sharers can use it to pick thresholds: raising k
trades stranger exclusion against attendee failure rate.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.core.construction1 import PuzzleServiceC1, ReceiverC1, SharerC1
from repro.core.context import Context, QAPair
from repro.core.errors import AccessDeniedError
from repro.osn.storage import StorageHost
from repro.policy.model import PuzzlePolicy

__all__ = [
    "ParticipantClass",
    "StudyConfig",
    "ClassResult",
    "UserStudyReport",
    "simulate_user_study",
]

SECONDS_PER_ANSWER = 8.0  # typing + thinking time per displayed question


@dataclass(frozen=True)
class ParticipantClass:
    """One audience class of the paper's system model."""

    name: str
    recall_probability: float  # chance of knowing each answer
    typo_probability: float  # chance a known answer is mistyped beyond repair

    def __post_init__(self) -> None:
        if not 0 <= self.recall_probability <= 1:
            raise ValueError("recall_probability must be in [0, 1]")
        if not 0 <= self.typo_probability <= 1:
            raise ValueError("typo_probability must be in [0, 1]")


ATTENDEE = ParticipantClass("attendee", recall_probability=0.95, typo_probability=0.03)
INVITEE = ParticipantClass("invitee-missed", recall_probability=0.45, typo_probability=0.05)
STRANGER = ParticipantClass("stranger", recall_probability=0.02, typo_probability=0.05)


@dataclass(frozen=True)
class StudyConfig:
    """Study parameters."""

    participants_per_class: int = 30
    num_questions: int = 5
    threshold: int = 2
    max_attempts: int = 2
    seed: int = 0

    def __post_init__(self) -> None:
        if self.participants_per_class < 1:
            raise ValueError("need at least one participant per class")
        if not 0 < self.threshold <= self.num_questions:
            raise ValueError("threshold out of range")
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")


@dataclass(frozen=True)
class ClassResult:
    """ISO 9241-11 axes for one audience class."""

    participant_class: str
    participants: int
    success_rate: float  # effectiveness
    mean_time_s: float  # efficiency (successful tasks only; nan-free: 0 if none)
    first_try_rate: float  # satisfaction proxy
    mean_attempts: float


@dataclass(frozen=True)
class UserStudyReport:
    results: tuple[ClassResult, ...]

    def by_class(self, name: str) -> ClassResult:
        for result in self.results:
            if result.participant_class == name:
                return result
        raise KeyError(name)


def _participant_knowledge(
    context: Context, participant: ParticipantClass, rng: random.Random
) -> Context | None:
    """What this participant would type, with recall and typo noise."""
    pairs = []
    for pair in context.pairs:
        if rng.random() >= participant.recall_probability:
            continue
        if rng.random() < participant.typo_probability:
            pairs.append(QAPair(pair.question, pair.answer + "x"))  # hopeless typo
        else:
            pairs.append(pair)
    return Context(pairs) if pairs else None


def simulate_user_study(
    config: StudyConfig = StudyConfig(),
    classes: tuple[ParticipantClass, ...] = (ATTENDEE, INVITEE, STRANGER),
) -> UserStudyReport:
    """Run the synthetic study against the real Construction 1 stack."""
    rng = random.Random(config.seed)

    context = Context(
        QAPair(
            "study question %d: what happened at the event?" % i,
            "ground truth answer %d %d" % (config.seed, i),
        )
        for i in range(config.num_questions)
    )
    storage = StorageHost()
    sharer = SharerC1("study-sharer", storage)
    service = PuzzleServiceC1()
    obj = b"study payload"
    policy = PuzzlePolicy.from_k_of_n(config.threshold, context.questions)
    puzzle_id = service.store_puzzle(sharer.upload_policy(obj, context, policy))

    results = []
    for participant_class in classes:
        successes = 0
        first_try = 0
        total_time = 0.0
        total_attempts = 0
        for index in range(config.participants_per_class):
            receiver = ReceiverC1(
                "participant-%s-%d" % (participant_class.name, index), storage
            )
            knowledge = _participant_knowledge(context, participant_class, rng)
            solved = False
            attempts_used = 0
            elapsed = 0.0
            for attempt in range(config.max_attempts):
                attempts_used += 1
                displayed = service.display_puzzle(
                    puzzle_id, rng=random.Random(rng.randrange(2**31))
                )
                elapsed += SECONDS_PER_ANSWER * len(displayed.questions)
                if knowledge is None:
                    continue
                answers = receiver.answer_puzzle(displayed, knowledge)
                try:
                    release = service.verify(answers)
                    plaintext = receiver.access(release, displayed, knowledge)
                except AccessDeniedError:
                    continue
                if plaintext == obj:
                    solved = True
                    break
            total_attempts += attempts_used
            if solved:
                successes += 1
                total_time += elapsed
                if attempts_used == 1:
                    first_try += 1
        participants = config.participants_per_class
        results.append(
            ClassResult(
                participant_class=participant_class.name,
                participants=participants,
                success_rate=successes / participants,
                mean_time_s=(total_time / successes) if successes else 0.0,
                first_try_rate=first_try / participants,
                mean_attempts=total_attempts / participants,
            )
        )
    return UserStudyReport(results=tuple(results))
