"""Tests for client-side context recommendation."""

from __future__ import annotations

import pytest

from repro.core.errors import PuzzleParameterError
from repro.core.recommend import ContextRecommender
from tests.conftest import k_of_n


@pytest.fixture()
def recommender():
    return ContextRecommender(seed=1)


class TestSuggestQuestions:
    def test_kinds_listed(self):
        kinds = ContextRecommender.event_kinds()
        assert {"party", "trip", "meeting", "wedding"} <= set(kinds)

    def test_questions_ranked_by_domain(self, recommender):
        candidates = recommender.suggest_questions("party")
        sizes = [c.domain_size for c in candidates]
        assert sizes == sorted(sizes, reverse=True)

    def test_count_limits(self, recommender):
        assert len(recommender.suggest_questions("trip", count=2)) == 2

    def test_unknown_kind(self, recommender):
        with pytest.raises(PuzzleParameterError):
            recommender.suggest_questions("apocalypse")

    def test_bad_count(self, recommender):
        with pytest.raises(PuzzleParameterError):
            recommender.suggest_questions("trip", count=0)


class TestScoreAnswer:
    def test_weak_vs_strong(self, recommender):
        assert recommender.score_answer("yes") < recommender.score_answer(
            "the hidden waterfall behind kilometer marker twelve"
        )


class TestBuildContext:
    def _answers(self, recommender, kind, texts):
        questions = [c.question for c in recommender.suggest_questions(kind)]
        return dict(zip(questions, texts))

    def test_builds_strong_context(self, recommender):
        answers = self._answers(
            recommender,
            "trip",
            [
                "the old funicular to the monastery",
                "bicycles from the one-armed mechanic",
                "grilled octopus with smoked paprika",
                "ingrid lost the rental car keys",
                "our guide was called benedetto",
            ],
        )
        context = recommender.build_context("trip", answers, k=2)
        assert len(context) == 5

    def test_weak_answers_dropped(self, recommender):
        answers = self._answers(
            recommender,
            "party",
            [
                "yes",  # weak -> dropped
                "marguerite baked a hibiscus chiffon cake",
                "the projector caught fire during the toast",
            ],
        )
        context = recommender.build_context("party", answers, k=2)
        assert len(context) == 2
        assert all("yes" != pair.answer for pair in context)

    def test_threshold_unreachable_raises(self, recommender):
        answers = self._answers(recommender, "party", ["yes", "no", "red"])
        with pytest.raises(PuzzleParameterError):
            recommender.build_context("party", answers, k=2)

    def test_foreign_question_rejected(self, recommender):
        with pytest.raises(PuzzleParameterError):
            recommender.build_context(
                "party", {"What is your password?": "hunter2hunter2"}, k=1
            )

    def test_built_context_passes_full_pipeline(self, recommender, secret_object):
        """A recommended context must work end to end."""
        import random

        from repro.core.construction1 import PuzzleServiceC1, ReceiverC1, SharerC1
        from repro.osn.storage import StorageHost

        answers = self._answers(
            recommender,
            "wedding",
            [
                "an acoustic cover of la vie en rose",
                "fatima caught it one-handed",
                "the best man forgot the rings in the taxi",
                "lamb tagine with apricots",
                "the rooftop of the old observatory",
            ],
        )
        context = recommender.build_context("wedding", answers, k=2)
        storage = StorageHost()
        sharer = SharerC1("s", storage)
        service = PuzzleServiceC1()
        puzzle_id = service.store_puzzle(
            sharer.upload_policy(secret_object, context, k_of_n(2, context))
        )
        receiver = ReceiverC1("r", storage)
        displayed = service.display_puzzle(puzzle_id, rng=random.Random(0))
        release = service.verify(receiver.answer_puzzle(displayed, context))
        assert receiver.access(release, displayed, context) == secret_object
