"""The protocol engine, driven end-to-end over raw wire frames."""

from __future__ import annotations

import random
from dataclasses import replace

import pytest

from repro.core.construction1 import PuzzleServiceC1, ReceiverC1, SharerC1
from repro.core.construction2 import PuzzleServiceC2, ReceiverC2, SharerC2
from repro.core.context import Context
from repro.core.errors import AccessDeniedError, UnknownPuzzleError
from repro.core.throttle import ThrottledError
from repro.crypto.params import TOY
from repro.osn.faults import FlakyPuzzleService
from repro.osn.provider import ServiceProvider
from repro.osn.storage import StorageHost
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
        puzzle = SharerC1("alice", storage).upload(b"the secret", context, 2, 3)

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
        puzzle = SharerC1("alice", storage).upload(b"x", context, 2, 3)
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
        puzzle = SharerC1("alice", storage).upload(b"x", context, 2, 3)
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
        record, _ = SharerC2("alice", storage, TOY).upload(
            b"qt secret", context, 2, 3
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
        record, _ = SharerC2("alice", storage, TOY).upload(b"x", context, 2, 3)
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
        puzzle = SharerC1("alice", storage).upload(b"x", context, 3, 3)
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
        puzzle = SharerC1("alice", storage).upload(b"x", context, 3, 3)
        stored = call(engine, StorePuzzleRequest(puzzle=puzzle))
        _assert_second_guess_throttled(
            engine, 1, stored.puzzle_id, {q: b"\x00" * 32 for q in puzzle.questions}
        )

    def test_throttled_c2_backend_receives_the_requester(self, world, context):
        provider, storage, engine, _, _ = world
        engine.register_backend(
            2, PuzzleServiceC2(max_failures=1, audit=provider.audit)
        )
        record, _ = SharerC2("alice", storage, TOY).upload(b"x", context, 3, 3)
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
        puzzle = SharerC1("alice", storage).upload(b"x", context, 3, 3)
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
