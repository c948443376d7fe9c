#!/usr/bin/env python3
"""Picture-based social puzzles — the paper's planned usability feature.

Instead of typing "Lake Tahoe", the receiver *clicks the photo* of the
place. Each question shows one correct image among decoys; the selected
image's content digest becomes the textual answer, so the whole thing
rides on Construction 1 unchanged — the SP still sees only keyed hashes.

The example also shows the strength auditor flagging a puzzle whose
candidate sets are too small (a 1-in-5 click is ~2.3 bits; you need
several questions or bigger grids).

Run:  python examples/picture_puzzle.py
"""

from __future__ import annotations

import random

from repro.core.construction1 import PuzzleServiceC1, ReceiverC1, SharerC1
from repro.core.errors import AccessDeniedError
from repro.core.picture import ImageRef, PicturePuzzleBuilder
from repro.osn.storage import StorageHost
from repro.policy.model import PuzzlePolicy


def fake_photo(label: str, seed: int) -> ImageRef:
    """Stand-in for a JPEG: deterministic pseudo-random content."""
    rng = random.Random(seed)
    return ImageRef(label=label, content=bytes(rng.randrange(256) for _ in range(256)))


def main() -> None:
    builder = PicturePuzzleBuilder(min_candidates=5)

    venue = fake_photo("the lakehouse deck", 1)
    cake = fake_photo("hibiscus chiffon cake", 2)
    boat = fake_photo("the crimson rowboat", 3)
    questions = [
        builder.make_question(
            "Which photo shows where the party was held?",
            venue,
            [fake_photo("decoy venue %d" % i, 10 + i) for i in range(4)],
            shuffle_seed=7,
        ),
        builder.make_question(
            "Which cake did Marguerite bring?",
            cake,
            [fake_photo("decoy cake %d" % i, 20 + i) for i in range(4)],
            shuffle_seed=8,
        ),
        builder.make_question(
            "Which boat did we take out at midnight?",
            boat,
            [fake_photo("decoy boat %d" % i, 30 + i) for i in range(4)],
            shuffle_seed=9,
        ),
    ]

    report = builder.audit(questions, k=2)
    print("strength audit: attack cost ~%.1f bits (%s)" % (
        report.attack_cost_bits, "ok" if report.acceptable else "TOO WEAK"
    ))

    context = builder.build_context(questions)
    storage = StorageHost()
    sharer = SharerC1("alice", storage)
    service = PuzzleServiceC1()
    album = b"<the midnight rowing album>"
    policy = PuzzlePolicy.from_k_of_n(2, context.questions)
    puzzle_id = service.store_puzzle(sharer.upload_policy(album, context, policy))
    print("shared picture puzzle #%d (3 questions, k=2)" % puzzle_id)

    # Bob was there: he clicks the right venue and cake photos.
    bob = ReceiverC1("bob", storage)
    clicks = {
        questions[0].question: questions[0].correct_index,
        questions[1].question: questions[1].correct_index,
    }
    knowledge = PicturePuzzleBuilder.knowledge_from_selections(questions, clicks)
    seed = next(s for s in range(10_000) if random.Random(s).randint(2, 3) == 3)
    displayed = service.display_puzzle(puzzle_id, rng=random.Random(seed))
    release = service.verify(bob.answer_puzzle(displayed, knowledge))
    print("bob clicked 2 correct photos and got:", bob.access(release, displayed, knowledge))

    # Carol guesses: wrong clicks everywhere.
    carol = ReceiverC1("carol", storage)
    wrong_clicks = {
        q.question: (q.correct_index + 2) % len(q.candidates) for q in questions
    }
    guess = PicturePuzzleBuilder.knowledge_from_selections(questions, wrong_clicks)
    try:
        service.verify(carol.answer_puzzle(displayed, guess))
    except AccessDeniedError as exc:
        print("carol's guesses were rejected:", exc)


if __name__ == "__main__":
    main()
