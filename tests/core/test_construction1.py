"""Tests for Construction 1 (Shamir-based social puzzles)."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.abe.access_tree import AccessTree
from repro.core.construction1 import PuzzleServiceC1, ReceiverC1, SharerC1
from repro.core.context import Context, QAPair
from repro.core.errors import (
    AccessDeniedError,
    PuzzleParameterError,
    TamperDetectedError,
    UnknownPuzzleError,
)
from repro.crypto.bls import BlsScheme
from repro.crypto.params import TOY
from repro.osn.storage import StorageHost
from repro.policy.model import PuzzlePolicy
from tests.conftest import k_of_n


@pytest.fixture()
def setup(party_context, secret_object):
    storage = StorageHost()
    sharer = SharerC1("sharer-user", storage)
    service = PuzzleServiceC1()
    puzzle = sharer.upload_policy(
        secret_object, party_context, k_of_n(2, party_context, 4)
    )
    puzzle_id = service.store_puzzle(puzzle)
    receiver = ReceiverC1("receiver-user", storage)
    return storage, service, puzzle, puzzle_id, receiver


def run_flow(service, receiver, puzzle_id, knowledge, seed=0):
    displayed = service.display_puzzle(puzzle_id, rng=random.Random(seed))
    answers = receiver.answer_puzzle(displayed, knowledge)
    release = service.verify(answers)
    return receiver.access(release, displayed, knowledge)


class TestUpload:
    def test_puzzle_structure(self, setup, party_context):
        _, _, puzzle, _, _ = setup
        assert puzzle.n == 4
        assert puzzle.k == 2
        assert set(puzzle.questions) == set(party_context.questions)
        assert puzzle.sharer_name == "sharer-user"

    def test_object_stored_encrypted(self, setup, secret_object):
        storage, _, puzzle, _, _ = setup
        stored = storage.get(puzzle.url)
        assert secret_object not in stored

    def test_share_points_unique(self, setup):
        _, _, puzzle, _, _ = setup
        xs = [entry.share_x for entry in puzzle.entries]
        assert len(set(xs)) == len(xs)

    def test_n_less_than_context(self, party_context, secret_object):
        sharer = SharerC1("s", StorageHost())
        puzzle = sharer.upload_policy(
            secret_object, party_context, k_of_n(1, party_context, 2)
        )
        assert puzzle.n == 2

    def test_bad_parameters(self, party_context, secret_object):
        sharer = SharerC1("s", StorageHost())
        with pytest.raises(PuzzleParameterError):
            sharer.upload_policy(
                secret_object, party_context, k_of_n(0, party_context, 2)
            )
        with pytest.raises(PuzzleParameterError):
            sharer.upload_policy(
                secret_object, party_context, k_of_n(3, party_context, 2)
            )
        unanswerable = PuzzlePolicy.from_k_of_n(
            2, party_context.questions + ["Who sang?"]
        )
        with pytest.raises(PuzzleParameterError):
            sharer.upload_policy(secret_object, party_context, unanswerable)

    @pytest.mark.parametrize("nested", [False, True], ids=["flat", "nested"])
    def test_caller_supplied_secret_is_m_o(self, nested, party_context, secret_object):
        q = party_context.questions
        policy = (
            PuzzlePolicy(AccessTree.all_of([q[0], AccessTree.threshold(1, q[1:])]))
            if nested
            else k_of_n(2, party_context)
        )
        storage = StorageHost()
        service = PuzzleServiceC1()
        puzzle = SharerC1("s", storage).upload_policy(
            secret_object, party_context, policy, secret=1234
        )
        puzzle_id = service.store_puzzle(puzzle)
        receiver = ReceiverC1("r", storage)
        displayed = service.display_puzzle(puzzle_id, rng=random.Random(0))
        release = service.verify(receiver.answer_puzzle(displayed, party_context))
        assert receiver.recover_object_secret(release, displayed, party_context) == 1234
        assert receiver.access(release, displayed, party_context) == secret_object

    def test_fresh_secrets_per_upload(self, party_context, secret_object):
        storage = StorageHost()
        sharer = SharerC1("s", storage)
        a = sharer.upload_policy(
            secret_object, party_context, k_of_n(2, party_context, 4)
        )
        b = sharer.upload_policy(
            secret_object, party_context, k_of_n(2, party_context, 4)
        )
        assert a.puzzle_key != b.puzzle_key
        assert storage.get(a.url) != storage.get(b.url)


class TestDisplayPuzzle:
    def test_question_count_in_range(self, setup):
        _, service, puzzle, puzzle_id, _ = setup
        for seed in range(20):
            displayed = service.display_puzzle(puzzle_id, rng=random.Random(seed))
            assert puzzle.k <= len(displayed.questions) <= puzzle.n
            assert set(displayed.questions) <= set(puzzle.questions)
            assert len(set(displayed.questions)) == len(displayed.questions)

    def test_randomization_covers_range(self, setup):
        _, service, puzzle, puzzle_id, _ = setup
        sizes = {
            len(service.display_puzzle(puzzle_id, rng=random.Random(s)).questions)
            for s in range(60)
        }
        assert sizes == set(range(puzzle.k, puzzle.n + 1))

    def test_includes_puzzle_key_and_k(self, setup):
        _, service, puzzle, puzzle_id, _ = setup
        displayed = service.display_puzzle(puzzle_id)
        assert displayed.puzzle_key == puzzle.puzzle_key
        assert displayed.k == puzzle.k

    def test_unknown_puzzle(self, setup):
        _, service, _, _, _ = setup
        with pytest.raises(UnknownPuzzleError):
            service.display_puzzle(999)


class TestEndToEnd:
    def test_full_knowledge(self, setup, party_context, secret_object):
        _, service, _, puzzle_id, receiver = setup
        assert run_flow(service, receiver, puzzle_id, party_context) == secret_object

    def test_exactly_threshold_knowledge(self, setup, party_context, secret_object):
        _, service, _, puzzle_id, receiver = setup
        # Find a seed where the displayed questions include >= 2 of the
        # receiver's known first two answers.
        knowledge = party_context.take(2)
        for seed in range(50):
            displayed = service.display_puzzle(puzzle_id, rng=random.Random(seed))
            known_displayed = [q for q in displayed.questions if knowledge.knows(q)]
            if len(known_displayed) >= 2:
                answers = receiver.answer_puzzle(displayed, knowledge)
                release = service.verify(answers)
                assert receiver.access(release, displayed, knowledge) == secret_object
                return
        pytest.fail("no display subset covered the receiver's knowledge")

    def test_below_threshold_denied(self, setup, party_context):
        _, service, _, puzzle_id, receiver = setup
        knowledge = party_context.take(1)
        displayed = service.display_puzzle(puzzle_id, rng=random.Random(0))
        answers = receiver.answer_puzzle(displayed, knowledge)
        with pytest.raises(AccessDeniedError):
            service.verify(answers)

    def test_wrong_answers_denied(self, setup, party_context):
        _, service, _, puzzle_id, receiver = setup
        wrong = Context(
            QAPair(pair.question, "wrong-" + pair.answer) for pair in party_context
        )
        displayed = service.display_puzzle(puzzle_id, rng=random.Random(0))
        answers = receiver.answer_puzzle(displayed, wrong)
        with pytest.raises(AccessDeniedError):
            service.verify(answers)

    def test_mixed_right_and_wrong_answers(self, setup, party_context, secret_object):
        """Two right + two wrong answers still clears k=2."""
        _, service, _, puzzle_id, receiver = setup
        pairs = list(party_context.pairs)
        mixed = Context(
            [pairs[0], pairs[1],
             QAPair(pairs[2].question, "nope"), QAPair(pairs[3].question, "wrong")]
        )
        # Seed 0 displays all/most questions; retry to find one displaying both known.
        for seed in range(50):
            displayed = service.display_puzzle(puzzle_id, rng=random.Random(seed))
            if pairs[0].question in displayed.questions and pairs[1].question in displayed.questions:
                answers = receiver.answer_puzzle(displayed, mixed)
                release = service.verify(answers)
                assert receiver.access(release, displayed, mixed) == secret_object
                return
        pytest.fail("no suitable display subset found")

    def test_answers_case_insensitive(self, setup, party_context, secret_object):
        _, service, _, puzzle_id, receiver = setup
        shouty = Context(
            QAPair(p.question, p.answer.upper() + "  ") for p in party_context
        )
        assert run_flow(service, receiver, puzzle_id, shouty) == secret_object

    @settings(max_examples=10)
    @given(k=st.integers(1, 5), extra=st.integers(0, 3), seed=st.integers(0, 100))
    def test_random_thresholds(self, k, extra, seed):
        n = k + extra
        rng = random.Random(seed)
        context = Context(
            QAPair("question %d?" % i, "secret answer %d %d" % (seed, i))
            for i in range(n)
        )
        storage = StorageHost()
        sharer = SharerC1("s", storage)
        service = PuzzleServiceC1()
        obj = b"payload-%d" % seed
        puzzle = sharer.upload_policy(obj, context, k_of_n(k, context, n))
        puzzle_id = service.store_puzzle(puzzle)
        receiver = ReceiverC1("r", storage)
        # Full knowledge always succeeds regardless of the displayed subset.
        displayed = service.display_puzzle(puzzle_id, rng=rng)
        answers = receiver.answer_puzzle(displayed, context)
        release = service.verify(answers)
        assert receiver.access(release, displayed, context) == obj


class TestSurveillanceResistance:
    def test_sp_and_dh_never_see_secrets(self, party_context, secret_object):
        storage = StorageHost()
        sharer = SharerC1("sharer-user", storage)
        service = PuzzleServiceC1()
        puzzle = sharer.upload_policy(
            secret_object, party_context, k_of_n(2, party_context, 4)
        )
        puzzle_id = service.store_puzzle(puzzle)
        receiver = ReceiverC1("receiver-user", storage)
        run_flow(service, receiver, puzzle_id, party_context)

        for pair in party_context:
            needle = pair.answer_bytes()
            service.audit.assert_never_saw(needle, "answer")
            storage.audit.assert_never_saw(needle, "answer")
        service.audit.assert_never_saw(secret_object, "object")
        storage.audit.assert_never_saw(secret_object, "object")

    def test_sp_sees_questions_but_not_answers(self, setup, party_context):
        _, service, _, _, _ = setup
        assert service.audit.saw(party_context.questions[0].encode())


class TestVerifyService:
    def test_release_only_correct_entries(self, setup, party_context):
        _, service, puzzle, puzzle_id, receiver = setup
        displayed = service.display_puzzle(puzzle_id, rng=random.Random(1))
        answers = receiver.answer_puzzle(displayed, party_context)
        release = service.verify(answers)
        released_questions = {s.question for s in release.shares}
        assert released_questions <= set(displayed.questions)
        assert len(release.shares) >= puzzle.k
        assert release.url == puzzle.url

    def test_unknown_question_in_response_ignored(self, setup, party_context):
        from repro.core.construction1 import PuzzleAnswers

        _, service, puzzle, puzzle_id, _ = setup
        digests = {
            "fabricated question?": b"\x00" * 32,
        }
        for pair in party_context.take(2).pairs:
            digests[pair.question] = __import__(
                "repro.core.puzzle", fromlist=["Puzzle"]
            ).Puzzle.response_digest(pair.answer_bytes(), puzzle.puzzle_key)
        release = service.verify(PuzzleAnswers(puzzle_id=puzzle_id, digests=digests))
        assert {"fabricated question?"} & {s.question for s in release.shares} == set()


class TestAnswersEncoding:
    def test_bytes_are_pinned(self):
        """The meter charges these bytes; digests run to the end uncounted."""
        from repro.core.construction1 import PuzzleAnswers

        answers = PuzzleAnswers(
            puzzle_id=3, digests={"Who drove?": bytes(range(8)), "Where?": b"\xff\xfe"}
        )
        assert answers.to_bytes().hex() == (
            "00000003"
            "0000000a57686f2064726f76653f" "000000080001020304050607"
            "0000000657686572653f" "00000002fffe"
        )
        assert PuzzleAnswers.from_bytes(answers.to_bytes()) == answers


class TestSignedPuzzles:
    def test_signed_flow_verifies(self, party_context, secret_object):
        storage = StorageHost()
        bls = BlsScheme(TOY)
        sharer = SharerC1("s", storage, bls=bls)
        service = PuzzleServiceC1()
        puzzle = sharer.upload_policy(
            secret_object, party_context, k_of_n(2, party_context, 4)
        )
        assert puzzle.verify_signature(bls)
        puzzle_id = service.store_puzzle(puzzle)
        receiver = ReceiverC1("r", storage, bls=bls)
        displayed = service.display_puzzle(puzzle_id, rng=random.Random(0))
        answers = receiver.answer_puzzle(displayed, party_context)
        release = service.verify(answers)
        out = receiver.access(
            release, displayed, party_context, expected_signature=puzzle
        )
        assert out == secret_object

    def test_tampered_signed_puzzle_detected(self, party_context, secret_object):
        from dataclasses import replace

        storage = StorageHost()
        bls = BlsScheme(TOY)
        sharer = SharerC1("s", storage, bls=bls)
        puzzle = sharer.upload_policy(
            secret_object, party_context, k_of_n(2, party_context, 4)
        )
        tampered = replace(puzzle, url="dh://evil/0")
        service = PuzzleServiceC1()
        puzzle_id = service.store_puzzle(tampered)
        receiver = ReceiverC1("r", storage, bls=bls)
        displayed = service.display_puzzle(puzzle_id, rng=random.Random(0))
        answers = receiver.answer_puzzle(displayed, party_context)
        release = service.verify(answers)
        with pytest.raises(TamperDetectedError):
            receiver.access(
                release, displayed, party_context, expected_signature=tampered
            )
