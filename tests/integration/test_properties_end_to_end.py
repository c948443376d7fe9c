"""End-to-end property tests: the access-control invariant itself.

The defining property of a social puzzle (paper section IV): a member of
the sharer's network obtains O **iff** they can correctly answer at least
k of the displayed questions. These tests drive the full Construction 1
stack with randomized contexts, thresholds, display subsets and partial /
corrupted knowledge, checking both directions of the iff.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.construction1 import PuzzleServiceC1, ReceiverC1, SharerC1
from repro.core.context import Context, QAPair
from repro.core.errors import AccessDeniedError
from repro.osn.storage import StorageHost
from tests.conftest import k_of_n


def _build(num_questions: int, k: int, seed: int):
    context = Context(
        QAPair(
            "prop question %d?" % i,
            "property answer %d %d" % (seed, i),
        )
        for i in range(num_questions)
    )
    storage = StorageHost()
    sharer = SharerC1("prop-sharer", storage)
    service = PuzzleServiceC1()
    obj = b"property object %d" % seed
    puzzle = sharer.upload_policy(obj, context, k_of_n(k, context, num_questions))
    puzzle_id = service.store_puzzle(puzzle)
    receiver = ReceiverC1("prop-receiver", storage)
    return context, storage, service, puzzle_id, receiver, obj


class TestAccessIff:
    @settings(max_examples=20, deadline=None)
    @given(st.data())
    def test_access_iff_k_known_displayed(self, data):
        n = data.draw(st.integers(2, 6), label="n")
        k = data.draw(st.integers(1, n), label="k")
        seed = data.draw(st.integers(0, 10_000), label="seed")
        known_count = data.draw(st.integers(0, n), label="known")
        corrupted = data.draw(st.integers(0, known_count), label="corrupted")

        context, _, service, puzzle_id, receiver, obj = _build(n, k, seed)

        # The receiver knows `known_count` questions, of which `corrupted`
        # have wrong answers.
        rng = random.Random(seed)
        known_questions = rng.sample(context.questions, known_count)
        pairs = []
        for index, question in enumerate(known_questions):
            answer = context.answer_for(question)
            if index < corrupted:
                answer = "definitely wrong " + answer
            pairs.append(QAPair(question, answer))
        knowledge = Context(pairs) if pairs else None

        displayed = service.display_puzzle(puzzle_id, rng=random.Random(seed + 1))
        if knowledge is None:
            correct_displayed = 0
            answers_digests = {}
        else:
            answers = receiver.answer_puzzle(displayed, knowledge)
            answers_digests = answers.digests
            correct_displayed = sum(
                1
                for question in displayed.questions
                if knowledge.knows(question)
                and knowledge.answer_for(question) == context.answer_for(question)
            )

        from repro.core.construction1 import PuzzleAnswers

        try:
            release = service.verify(
                PuzzleAnswers(puzzle_id=puzzle_id, digests=answers_digests)
            )
            granted = True
        except AccessDeniedError:
            granted = False

        # The iff, both directions:
        assert granted == (correct_displayed >= k)

        if granted:
            plaintext = receiver.access(release, displayed, knowledge)
            assert plaintext == obj

    @settings(max_examples=10, deadline=None)
    @given(st.integers(2, 5), st.integers(0, 10_000))
    def test_full_knowledge_always_succeeds(self, n, seed):
        k = max(1, n - 1)
        context, _, service, puzzle_id, receiver, obj = _build(n, k, seed)
        displayed = service.display_puzzle(puzzle_id, rng=random.Random(seed))
        release = service.verify(receiver.answer_puzzle(displayed, context))
        assert receiver.access(release, displayed, context) == obj

    @settings(max_examples=10, deadline=None)
    @given(st.integers(2, 5), st.integers(0, 10_000))
    def test_zero_knowledge_always_fails(self, n, seed):
        context, _, service, puzzle_id, receiver, obj = _build(n, 1, seed)
        stranger = Context.from_mapping({"unrelated?": "unrelated"})
        displayed = service.display_puzzle(puzzle_id, rng=random.Random(seed))
        answers = receiver.answer_puzzle(displayed, stranger)
        with pytest.raises(AccessDeniedError):
            service.verify(answers)
