"""The standard section VI attack battery, packaged for reuse.

:func:`run_standard_scenarios` stages every attack from
:mod:`repro.analysis.security` against a fresh world and returns the
outcomes; :func:`format_outcomes` renders the table. Used by the
``python -m repro attacks`` CLI command, the ``surveillance_audit``
example, and the regression tests that pin expected outcomes.
"""

from __future__ import annotations

from repro.analysis.security import (
    AttackOutcome,
    collusion_attack_c1,
    dh_object_tampering_c1,
    malicious_sp_feedback_collusion_c1,
    semi_honest_sp_attack_c1,
    sp_dictionary_attack_c1,
    sp_url_tampering_c1,
)
from repro.core.construction1 import C1_FIELD_PRIME, PuzzleServiceC1, SharerC1
from repro.core.context import Context, QAPair
from repro.crypto.bls import BlsScheme
from repro.crypto.params import SMALL
from repro.osn.storage import StorageHost
from repro.policy.model import PuzzlePolicy

__all__ = ["run_standard_scenarios", "format_outcomes"]


def _two_of_all(context: Context) -> PuzzlePolicy:
    return PuzzlePolicy.from_k_of_n(2, context.questions)


def _fresh_world():
    context = Context.from_mapping(
        {
            "Where was the retreat?": "Big Bend",
            "Who won the chili cook-off?": "Yolanda",
            "What broke on day two?": "The projector",
            "Which trail did we hike?": "Window Loop",
        }
    )
    obj = b"retreat retrospective notes"
    storage = StorageHost()
    sharer = SharerC1("organizer", storage)
    service = PuzzleServiceC1()
    puzzle = sharer.upload_policy(obj, context, _two_of_all(context))
    puzzle_id = service.store_puzzle(puzzle)
    return context, obj, storage, service, puzzle, puzzle_id


def run_standard_scenarios() -> list[AttackOutcome]:
    """Stage the full battery; each scenario gets an untouched world where
    isolation matters (tampering scenarios mutate state)."""
    outcomes: list[AttackOutcome] = []

    context, obj, storage, service, puzzle, puzzle_id = _fresh_world()
    outcomes.append(
        semi_honest_sp_attack_c1(puzzle, storage, None, C1_FIELD_PRIME, obj)
    )
    outcomes.append(
        semi_honest_sp_attack_c1(puzzle, storage, context, C1_FIELD_PRIME, obj)
    )

    vocabulary = {p.question: ["decoy one", p.answer, "decoy two"] for p in context}
    outcomes.append(
        sp_dictionary_attack_c1(puzzle, storage, vocabulary, C1_FIELD_PRIME, obj)
    )

    outcomes.append(
        collusion_attack_c1(
            service, puzzle_id, storage,
            [context.take(1), context.take(1)], context, obj,
        )
    )
    outcomes.append(
        collusion_attack_c1(
            service, puzzle_id, storage,
            [context.subset([context.questions[0]]),
             context.subset([context.questions[1]])],
            context, obj,
        )
    )

    colluders = [
        Context([context.pairs[0], QAPair(context.questions[2], "wrong")]),
        Context([context.pairs[1], QAPair(context.questions[3], "wrong")]),
    ]
    outcomes.append(
        malicious_sp_feedback_collusion_c1(
            puzzle, storage, colluders, C1_FIELD_PRIME, obj
        )
    )

    context, obj, storage, _, puzzle, _ = _fresh_world()
    outcomes.append(sp_url_tampering_c1(puzzle, storage, context, bls=None))

    storage = StorageHost()
    bls = BlsScheme(SMALL)
    sharer = SharerC1("organizer", storage, bls=bls)
    signed_puzzle = sharer.upload_policy(obj, context, _two_of_all(context))
    outcomes.append(sp_url_tampering_c1(signed_puzzle, storage, context, bls=bls))

    context, obj, storage, service, puzzle, puzzle_id = _fresh_world()
    outcomes.append(
        dh_object_tampering_c1(service, puzzle, puzzle_id, storage, context, obj)
    )
    return outcomes


def format_outcomes(outcomes: list[AttackOutcome]) -> str:
    width = max(len(o.name) for o in outcomes)
    lines = [
        f"{'attack scenario':<{width}}  outcome     detail",
        "-" * (width + 60),
    ]
    for outcome in outcomes:
        verdict = "SUCCEEDED" if outcome.succeeded else "failed   "
        lines.append(f"{outcome.name:<{width}}  {verdict}  {outcome.detail}")
    return "\n".join(lines)
