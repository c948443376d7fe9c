"""Tests for picture-based puzzles."""

from __future__ import annotations

import random

import pytest

from repro.core.construction1 import PuzzleServiceC1, ReceiverC1, SharerC1
from repro.core.errors import AccessDeniedError, PuzzleParameterError
from repro.core.picture import (
    ImageRef,
    PicturePuzzleBuilder,
    PictureQuestion,
    image_answer_token,
)
from repro.osn.storage import StorageHost
from tests.conftest import k_of_n


def make_image(label: str, seed: int) -> ImageRef:
    rng = random.Random(seed)
    return ImageRef(label=label, content=bytes(rng.randrange(256) for _ in range(64)))


@pytest.fixture()
def builder():
    return PicturePuzzleBuilder(min_candidates=4)


@pytest.fixture()
def questions(builder):
    out = []
    for i in range(3):
        correct = make_image("correct-%d" % i, seed=100 + i)
        decoys = [make_image("decoy-%d-%d" % (i, j), seed=10 * i + j) for j in range(4)]
        out.append(
            builder.make_question(
                "Which photo shows moment %d?" % i, correct, decoys, shuffle_seed=i
            )
        )
    return out


class TestTokens:
    def test_token_deterministic(self):
        img = make_image("x", 1)
        assert img.token() == image_answer_token(img.content)

    def test_distinct_content_distinct_tokens(self):
        assert make_image("a", 1).token() != make_image("b", 2).token()

    def test_empty_image_rejected(self):
        with pytest.raises(PuzzleParameterError):
            image_answer_token(b"")


class TestQuestionConstruction:
    def test_correct_inserted_among_decoys(self, questions):
        for question in questions:
            assert len(question.candidates) == 5
            assert question.correct in question.candidates
            assert question.candidates[question.correct_index] is question.correct

    def test_shuffle_seed_varies_position(self, builder):
        correct = make_image("c", 1)
        decoys = [make_image("d%d" % j, 50 + j) for j in range(4)]
        positions = {
            builder.make_question("q?", correct, decoys, shuffle_seed=s).correct_index
            for s in range(30)
        }
        assert len(positions) > 1

    def test_too_few_candidates_rejected(self, builder):
        correct = make_image("c", 1)
        with pytest.raises(PuzzleParameterError):
            builder.make_question("q?", correct, [make_image("d", 2)])

    def test_duplicate_candidates_rejected(self):
        img = make_image("same", 1)
        with pytest.raises(PuzzleParameterError):
            PictureQuestion("q?", (img, img, img, img), 0)

    def test_min_candidates_validation(self):
        with pytest.raises(PuzzleParameterError):
            PicturePuzzleBuilder(min_candidates=1)


class TestContextBridge:
    def test_context_answers_are_tokens(self, builder, questions):
        context = builder.build_context(questions)
        for question, pair in zip(questions, context.pairs):
            assert pair.answer == question.correct.token()

    def test_empty_rejected(self, builder):
        with pytest.raises(PuzzleParameterError):
            builder.build_context([])

    def test_knowledge_from_selections(self, builder, questions):
        selections = {q.question: q.correct_index for q in questions}
        knowledge = PicturePuzzleBuilder.knowledge_from_selections(
            questions, selections
        )
        context = builder.build_context(questions)
        assert knowledge == context

    def test_wrong_selection_differs(self, builder, questions):
        q = questions[0]
        wrong_index = (q.correct_index + 1) % len(q.candidates)
        knowledge = PicturePuzzleBuilder.knowledge_from_selections(
            [q], {q.question: wrong_index}
        )
        assert knowledge.pairs[0].answer != q.correct.token()

    def test_no_selection_rejected(self, questions):
        with pytest.raises(PuzzleParameterError):
            PicturePuzzleBuilder.knowledge_from_selections(questions, {})


class TestAudit:
    def test_audit_counts_candidates(self, builder, questions):
        report = builder.audit(questions, k=2)
        # 5 candidates -> log2(5) ~ 2.32 bits per question.
        for answer in report.answers:
            assert answer.entropy_bits == pytest.approx(2.3219, abs=1e-3)
        assert report.acceptable

    def test_audit_flags_binary_choice(self, builder):
        correct = make_image("c", 1)
        decoy = make_image("d", 2)
        question = PictureQuestion("coin flip?", (correct, decoy), 0)
        report = builder.audit([question], k=1)
        assert not report.acceptable


class TestEndToEnd:
    def test_picture_puzzle_through_construction1(
        self, builder, questions, secret_object
    ):
        context = builder.build_context(questions)
        storage = StorageHost()
        sharer = SharerC1("s", storage)
        service = PuzzleServiceC1()
        puzzle_id = service.store_puzzle(
            sharer.upload_policy(secret_object, context, k_of_n(2, context, 3))
        )
        receiver = ReceiverC1("r", storage)

        # Receiver clicks the right images for the first two questions.
        selections = {q.question: q.correct_index for q in questions[:2]}
        knowledge = PicturePuzzleBuilder.knowledge_from_selections(
            questions, selections
        )
        seed = next(
            s for s in range(10_000) if random.Random(s).randint(2, 3) == 3
        )
        displayed = service.display_puzzle(puzzle_id, rng=random.Random(seed))
        release = service.verify(receiver.answer_puzzle(displayed, knowledge))
        assert receiver.access(release, displayed, knowledge) == secret_object

    def test_wrong_clicks_denied(self, builder, questions, secret_object):
        context = builder.build_context(questions)
        storage = StorageHost()
        sharer = SharerC1("s", storage)
        service = PuzzleServiceC1()
        puzzle_id = service.store_puzzle(
            sharer.upload_policy(secret_object, context, k_of_n(2, context, 3))
        )
        receiver = ReceiverC1("r", storage)
        selections = {
            q.question: (q.correct_index + 1) % len(q.candidates) for q in questions
        }
        knowledge = PicturePuzzleBuilder.knowledge_from_selections(
            questions, selections
        )
        displayed = service.display_puzzle(puzzle_id, rng=random.Random(0))
        with pytest.raises(AccessDeniedError):
            service.verify(receiver.answer_puzzle(displayed, knowledge))
