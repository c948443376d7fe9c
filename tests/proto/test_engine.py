"""The protocol engine, driven end-to-end over raw wire frames."""

from __future__ import annotations

import random
from dataclasses import replace

import pytest

from repro.abe.access_tree import AccessTree
from repro.core.construction1 import (
    DisplayedPuzzle,
    PuzzleServiceC1,
    ReceiverC1,
    SharerC1,
)
from repro.core.construction2 import (
    C2Upload,
    DisplayedPuzzleC2,
    PuzzleServiceC2,
    ReceiverC2,
    SharerC2,
    leaf_attribute,
    perturb_tree,
)
from repro.core.context import Context, QAPair
from repro.core.errors import AccessDeniedError, UnknownPuzzleError
from repro.core.throttle import ThrottledError
from repro.crypto.params import TOY
from repro.osn.faults import FlakyPuzzleService
from repro.osn.provider import ServiceProvider
from repro.osn.storage import StorageHost
from repro.policy.model import PuzzlePolicy
from repro.proto.engine import PuzzleProtocolEngine
from repro.proto.messages import (
    AnswerSubmission,
    DisplayPuzzleRequest,
    DisplayReplyC1,
    ErrorReply,
    FetchPostRequest,
    GrantReply,
    PublishPostRequest,
    ReleaseReply,
    RetractPuzzleRequest,
    RetractReply,
    StoragePutRequest,
    StoragePutReply,
    StorePuzzleRequest,
    StoreReply,
    StoreUploadRequest,
    decode_message,
    encode_message,
)
from tests.conftest import k_of_n


@pytest.fixture()
def context():
    return Context.from_mapping(
        {
            "Where was the reunion?": "Lisbon",
            "Who sang first?": "Teodora",
            "What was for dessert?": "Pastel de nata",
        }
    )


@pytest.fixture()
def world():
    provider = ServiceProvider()
    storage = StorageHost()
    engine = PuzzleProtocolEngine(provider, storage)
    engine.register_backend(1, PuzzleServiceC1(audit=provider.audit))
    engine.register_backend(2, PuzzleServiceC2(audit=provider.audit))
    alice = provider.register_user("alice")
    bob = provider.register_user("bob")
    provider.befriend(alice, bob)
    return provider, storage, engine, alice, bob


def call(engine, message):
    """One raw round trip; decodes and raises error replies."""
    reply = decode_message(engine.dispatch(encode_message(message)))
    if isinstance(reply, ErrorReply):
        raise reply.to_exception()
    return reply


def _assert_second_guess_throttled(engine, construction, puzzle_id, digests):
    bad = AnswerSubmission(
        construction=construction,
        puzzle_id=puzzle_id,
        requester="eve",
        digests=digests,
    )
    with pytest.raises(AccessDeniedError):
        call(engine, bad)
    # Second failed guess by the same requester trips the throttle.
    with pytest.raises(ThrottledError):
        call(engine, bad)
    # The budget is per requester: another name is still only denied.
    with pytest.raises(AccessDeniedError):
        call(engine, replace(bad, requester="mallory"))


class TestC1Journey:
    def test_full_share_and_access_over_the_wire(self, world, context):
        provider, storage, engine, alice, bob = world
        puzzle = SharerC1("alice", storage).upload_policy(
            b"the secret", context, k_of_n(2, context, 3)
        )

        stored = call(engine, StorePuzzleRequest(puzzle=puzzle))
        assert isinstance(stored, StoreReply)

        posted = call(
            engine,
            PublishPostRequest(author=alice, content="solve me", audience="friends"),
        )
        fetched = call(
            engine, FetchPostRequest(viewer=bob, post_id=posted.post.post_id)
        )
        assert fetched.post.content == "solve me"

        shown = call(
            engine,
            DisplayPuzzleRequest(
                construction=1,
                puzzle_id=stored.puzzle_id,
                rng_state=random.Random(5).getstate(),
            ),
        )
        assert isinstance(shown, DisplayReplyC1)

        receiver = ReceiverC1("bob", storage)
        answers = receiver.answer_puzzle(shown.displayed, context)
        released = call(
            engine,
            AnswerSubmission(
                construction=1,
                puzzle_id=stored.puzzle_id,
                requester="bob",
                digests=dict(answers.digests),
            ),
        )
        assert isinstance(released, ReleaseReply)
        plaintext = receiver.access(released.release, shown.displayed, context)
        assert plaintext == b"the secret"

    def test_display_sampling_is_deterministic_per_state(self, world, context):
        _, storage, engine, _, _ = world
        puzzle = SharerC1("alice", storage).upload_policy(
            b"x", context, k_of_n(2, context, 3)
        )
        stored = call(engine, StorePuzzleRequest(puzzle=puzzle))
        request = DisplayPuzzleRequest(
            construction=1,
            puzzle_id=stored.puzzle_id,
            rng_state=random.Random(21).getstate(),
        )
        first = call(engine, request)
        second = call(engine, request)
        assert first.displayed == second.displayed

    def test_retract(self, world, context):
        _, storage, engine, _, _ = world
        puzzle = SharerC1("alice", storage).upload_policy(
            b"x", context, k_of_n(2, context, 3)
        )
        stored = call(engine, StorePuzzleRequest(puzzle=puzzle))
        gone = call(
            engine,
            RetractPuzzleRequest(construction=1, puzzle_id=stored.puzzle_id),
        )
        assert gone == RetractReply(removed=True)
        with pytest.raises(UnknownPuzzleError):
            call(
                engine,
                DisplayPuzzleRequest(
                    construction=1,
                    puzzle_id=stored.puzzle_id,
                    rng_state=random.Random(0).getstate(),
                ),
            )


class TestC2Journey:
    def test_full_share_and_access_over_the_wire(self, world, context):
        _, storage, engine, _, _ = world
        record, _ = SharerC2("alice", storage, TOY).upload_policy(
            b"qt secret", context, k_of_n(2, context, 3)
        )
        stored = call(engine, StoreUploadRequest(record=record))
        shown = call(
            engine, DisplayPuzzleRequest(construction=2, puzzle_id=stored.puzzle_id)
        )
        receiver = ReceiverC2("bob", storage, TOY)
        answers = receiver.answer_puzzle(shown.displayed, context)
        granted = call(
            engine,
            AnswerSubmission(
                construction=2,
                puzzle_id=stored.puzzle_id,
                requester="bob",
                digests={q: d.encode("ascii") for q, d in answers.digests.items()},
            ),
        )
        assert isinstance(granted, GrantReply)
        assert receiver.access(granted.grant, context) == b"qt secret"

    def test_retract(self, world, context):
        _, storage, engine, _, _ = world
        record, _ = SharerC2("alice", storage, TOY).upload_policy(
            b"x", context, k_of_n(2, context, 3)
        )
        stored = call(engine, StoreUploadRequest(record=record))
        request = RetractPuzzleRequest(construction=2, puzzle_id=stored.puzzle_id)
        assert call(engine, request) == RetractReply(removed=True)
        assert call(engine, request) == RetractReply(removed=False)
        with pytest.raises(UnknownPuzzleError):
            call(
                engine, DisplayPuzzleRequest(construction=2, puzzle_id=stored.puzzle_id)
            )


class TestErrorPaths:
    def test_wrong_answers_surface_access_denied(self, world, context):
        _, storage, engine, _, _ = world
        puzzle = SharerC1("alice", storage).upload_policy(
            b"x", context, k_of_n(3, context, 3)
        )
        stored = call(engine, StorePuzzleRequest(puzzle=puzzle))
        with pytest.raises(AccessDeniedError):
            call(
                engine,
                AnswerSubmission(
                    construction=1,
                    puzzle_id=stored.puzzle_id,
                    requester="eve",
                    digests={q: b"\x00" * 32 for q in puzzle.questions},
                ),
            )

    def test_throttled_backend_receives_the_requester(self, world, context):
        provider, storage, engine, _, _ = world
        engine.register_backend(
            1, PuzzleServiceC1(max_failures=1, audit=provider.audit)
        )
        puzzle = SharerC1("alice", storage).upload_policy(
            b"x", context, k_of_n(3, context, 3)
        )
        stored = call(engine, StorePuzzleRequest(puzzle=puzzle))
        _assert_second_guess_throttled(
            engine, 1, stored.puzzle_id, {q: b"\x00" * 32 for q in puzzle.questions}
        )

    def test_throttled_c2_backend_receives_the_requester(self, world, context):
        provider, storage, engine, _, _ = world
        engine.register_backend(
            2, PuzzleServiceC2(max_failures=1, audit=provider.audit)
        )
        record, _ = SharerC2("alice", storage, TOY).upload_policy(
            b"x", context, k_of_n(3, context, 3)
        )
        stored = call(engine, StoreUploadRequest(record=record))
        _assert_second_guess_throttled(
            engine, 2, stored.puzzle_id, {q: b"00" * 20 for q in context.questions}
        )

    def test_wrapped_throttled_backend_receives_the_requester(self, world, context):
        """A proxy that forwards keyword arguments is enough: the engine
        never looks behind it."""
        provider, storage, engine, _, _ = world
        engine.register_backend(
            1,
            FlakyPuzzleService(PuzzleServiceC1(max_failures=1, audit=provider.audit)),
        )
        puzzle = SharerC1("alice", storage).upload_policy(
            b"x", context, k_of_n(3, context, 3)
        )
        stored = call(engine, StorePuzzleRequest(puzzle=puzzle))
        _assert_second_guess_throttled(
            engine, 1, stored.puzzle_id, {q: b"\x00" * 32 for q in puzzle.questions}
        )

    def test_missing_backend_is_an_internal_error(self, context):
        provider, storage = ServiceProvider(), StorageHost()
        engine = PuzzleProtocolEngine(provider, storage)
        reply = decode_message(
            engine.dispatch(
                encode_message(DisplayPuzzleRequest(construction=1, puzzle_id=1))
            )
        )
        assert isinstance(reply, ErrorReply)
        assert reply.code == "internal"

    def test_invalid_construction_rejected_at_registration(self, world):
        _, _, engine, _, _ = world
        with pytest.raises(ValueError):
            engine.register_backend(3, object())

    def test_garbage_frame_answers_bad_message(self, world):
        _, _, engine, _, _ = world
        reply = decode_message(engine.dispatch(b"complete garbage"))
        assert isinstance(reply, ErrorReply)
        assert reply.code == "bad-message"
        assert reply.transient

    def test_storage_messages_route_to_the_storage_frontend(self, world):
        _, storage, engine, _, _ = world
        reply = call(engine, StoragePutRequest(data=b"blob"))
        assert isinstance(reply, StoragePutReply)
        assert storage.get(reply.url) == b"blob"


class TestSubstrateDispatchFaces:
    def test_provider_dispatch(self, world):
        provider, _, _, alice, bob = world
        reply = decode_message(
            provider.dispatch(
                encode_message(
                    PublishPostRequest(author=alice, content="direct", audience="friends")
                )
            )
        )
        assert reply.post.content == "direct"

    def test_storage_dispatch(self, world):
        _, storage, _, _, _ = world
        reply = decode_message(
            storage.dispatch(encode_message(StoragePutRequest(data=b"direct")))
        )
        assert storage.get(reply.url) == b"direct"

    def test_provider_frontend_rejects_foreign_messages(self, world):
        provider, _, _, _, _ = world
        reply = decode_message(
            provider.dispatch(encode_message(StoragePutRequest(data=b"x")))
        )
        assert isinstance(reply, ErrorReply)
        assert reply.code == "unroutable"
        assert not reply.transient


class TestOneReleaseRule:
    """Verify decides once, on the question-level policy the SP derives
    when it stores a puzzle."""

    def test_denials_are_byte_identical(self, world, context):
        """A C1 flat, a C1 nested and a C2 puzzle, each denied for no right
        answer and for one right answer short of a grant: every reply is
        the same frame, so a guesser cannot count its right answers."""
        _, storage, engine, _, _ = world
        q = context.questions
        nested = PuzzlePolicy(
            AccessTree.all_of([q[0], AccessTree.threshold(1, q[1:])])
        )
        # (construction, policy, the right answers of the near miss)
        cases = [
            (1, k_of_n(2, context), q[:1]),
            (1, nested, q[1:]),
            (2, k_of_n(2, context), q[:1]),
        ]
        frames = set()
        for construction, policy, near_miss in cases:
            if construction == 1:
                puzzle = SharerC1("alice", storage).upload_policy(b"x", context, policy)
                puzzle_id = call(engine, StorePuzzleRequest(puzzle=puzzle)).puzzle_id
                receiver = ReceiverC1("eve", storage)
                displayed = DisplayedPuzzle(
                    puzzle_id, tuple(q), puzzle.puzzle_key, puzzle.k
                )
            else:
                record, _ = SharerC2("alice", storage, TOY).upload_policy(
                    b"x", context, policy
                )
                puzzle_id = call(engine, StoreUploadRequest(record=record)).puzzle_id
                receiver = ReceiverC2("eve", storage, TOY)
                displayed = DisplayedPuzzleC2(puzzle_id, tuple(q), 2)
            for right in ((), near_miss):
                guess = Context(
                    QAPair(p.question, p.answer if p.question in right else "wrong")
                    for p in context
                )
                answers = receiver.answer_puzzle(displayed, guess)
                submission = AnswerSubmission.from_answers(construction, answers, "eve")
                frames.add(engine.dispatch(encode_message(submission)))
        assert len(frames) == 1
        reply = decode_message(frames.pop())
        assert isinstance(reply, ErrorReply) and reply.code == "access-denied"

    def test_c2_store_refuses_a_repeated_question(self, world):
        """Two leaves for one question: the SP matches answers per
        question, so Explain and Verify could not agree on such a tree."""
        _, _, engine, _, _ = world
        leaves = [leaf_attribute("q", "red"), leaf_attribute("q", "blue")]
        tree = perturb_tree(AccessTree.k_of_n(2, leaves))
        record = C2Upload(
            puzzle_id=0,
            tree_perturbed=tree,
            pk_bytes=b"pk",
            mk_bytes=b"mk",
            url="dh://dh/1",
            sharer_name="alice",
        )
        reply = decode_message(
            engine.dispatch(encode_message(StoreUploadRequest(record=record)))
        )
        assert isinstance(reply, ErrorReply)
        assert (reply.code, reply.transient) == ("puzzle-parameter", False)
        assert engine.backend(2).puzzle_count() == 0
