"""Round trips for every wire message, including the heavy payloads."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, strategies as st

from repro.core.construction1 import PuzzleServiceC1, ReceiverC1, SharerC1
from repro.core.construction2 import PuzzleServiceC2, ReceiverC2, SharerC2
from repro.core.errors import (
    AccessDeniedError,
    TransientNetworkError,
    TransientProviderError,
    UnknownPuzzleError,
)
from repro.core.throttle import ThrottledError
from repro.crypto.params import TOY
from repro.osn.faults import TransientStorageError
from repro.osn.provider import Post, User
from repro.osn.storage import StorageHost
from repro.proto.client import RemoteServiceError
from repro.proto.messages import (
    MESSAGE_TYPES,
    AnswerSubmission,
    DisplayPuzzleRequest,
    DisplayReplyC1,
    DisplayReplyC2,
    ErrorReply,
    FetchPostRequest,
    GrantReply,
    PostReply,
    PublishPostRequest,
    ReleaseReply,
    RetractPuzzleRequest,
    RetractReply,
    StoragePutRequest,
    StorageBoolReply,
    StorageDeleteRequest,
    StorageExistsRequest,
    StorageGetReply,
    StorageGetRequest,
    StoragePutReply,
    StorePuzzleRequest,
    StoreReply,
    StoreUploadRequest,
    decode_message,
    encode_message,
    message_name,
    rng_from_state,
)
from repro.util.codec import CodecError
from tests.conftest import k_of_n


def round_trip(message):
    decoded = decode_message(encode_message(message))
    assert decoded == message
    return decoded


@pytest.fixture(scope="module")
def wire_context():
    from repro.core.context import Context

    return Context.from_mapping(
        {
            "Where was the trip?": "Yosemite",
            "Who drove the van?": "Marisol",
            "What broke on day two?": "The stove",
            "Which trail did we skip?": "Half Dome",
        }
    )


@pytest.fixture(scope="module")
def c1_objects(wire_context):
    party_context = wire_context
    storage = StorageHost()
    sharer = SharerC1("vec-sharer", storage)
    service = PuzzleServiceC1()
    puzzle = sharer.upload_policy(
        b"wire-secret", party_context, k_of_n(2, party_context, 4)
    )
    puzzle_id = service.store_puzzle(puzzle)
    displayed = service.display_puzzle(puzzle_id, rng=random.Random(11))
    receiver = ReceiverC1("vec-receiver", storage)
    answers = receiver.answer_puzzle(displayed, party_context)
    release = service.verify(answers)
    return puzzle, displayed, answers, release


@pytest.fixture(scope="module")
def c2_objects(wire_context):
    party_context = wire_context
    storage = StorageHost()
    sharer = SharerC2("vec-sharer", storage, TOY)
    service = PuzzleServiceC2()
    record, _ = sharer.upload_policy(
        b"wire-secret-2", party_context, k_of_n(2, party_context, 3)
    )
    puzzle_id = service.store_upload(record)
    displayed = service.display_puzzle(puzzle_id)
    receiver = ReceiverC2("vec-receiver", storage, TOY)
    answers = receiver.answer_puzzle(displayed, party_context)
    grant = service.verify(answers)
    return record, displayed, answers, grant


class TestPuzzleMessages:
    def test_store_puzzle_request(self, c1_objects):
        puzzle, _, _, _ = c1_objects
        round_trip(StorePuzzleRequest(puzzle=puzzle))

    def test_store_upload_request(self, c2_objects):
        record, _, _, _ = c2_objects
        round_trip(StoreUploadRequest(record=record))

    def test_display_request_carries_rng_state(self):
        rng = random.Random(99)
        state = rng.getstate()
        decoded = round_trip(
            DisplayPuzzleRequest(construction=1, puzzle_id=7, rng_state=state)
        )
        # The revived generator must continue the exact same stream.
        revived = rng_from_state(decoded.rng_state)
        reference = random.Random(99)
        assert [revived.random() for _ in range(5)] == [
            reference.random() for _ in range(5)
        ]

    def test_display_request_without_rng(self):
        decoded = round_trip(DisplayPuzzleRequest(construction=2, puzzle_id=3))
        assert decoded.rng_state is None
        assert rng_from_state(decoded.rng_state) is None

    def test_answer_submission_c1(self, c1_objects):
        _, _, answers, _ = c1_objects
        message = AnswerSubmission(
            construction=1,
            puzzle_id=answers.puzzle_id,
            requester="vec-receiver",
            digests=dict(answers.digests),
        )
        assert AnswerSubmission.from_answers(1, answers, "vec-receiver") == message
        assert round_trip(message).to_answers() == answers

    def test_answer_submission_c2(self, c2_objects):
        _, _, answers, _ = c2_objects
        message = AnswerSubmission(
            construction=2,
            puzzle_id=answers.puzzle_id,
            requester="vec-receiver",
            digests={q: d.encode("ascii") for q, d in answers.digests.items()},
        )
        assert AnswerSubmission.from_answers(2, answers, "vec-receiver") == message
        assert round_trip(message).to_answers() == answers

    def test_answer_submission_non_ascii_c2_digest_rejected(self):
        message = AnswerSubmission(
            construction=2, puzzle_id=1, requester="r", digests={"q?": b"\xff\xfe"}
        )
        with pytest.raises(CodecError):
            round_trip(message).to_answers()

    @given(
        puzzle_id=st.integers(0, 2**32 - 1),
        requester=st.text(max_size=20),
        digests=st.dictionaries(
            st.text(min_size=1, max_size=30), st.binary(max_size=48), max_size=6
        ),
    )
    def test_answer_submission_property(self, puzzle_id, requester, digests):
        round_trip(
            AnswerSubmission(
                construction=1,
                puzzle_id=puzzle_id,
                requester=requester,
                digests=digests,
            )
        )

    def test_replies(self, c1_objects, c2_objects):
        _, displayed1, _, release = c1_objects
        _, displayed2, _, grant = c2_objects
        round_trip(StoreReply(puzzle_id=12))
        round_trip(DisplayReplyC1(displayed=displayed1))
        round_trip(DisplayReplyC2(displayed=displayed2))
        round_trip(ReleaseReply(release=release))
        round_trip(GrantReply(grant=grant))
        round_trip(RetractPuzzleRequest(construction=2, puzzle_id=5))
        round_trip(RetractReply(removed=True))
        round_trip(RetractReply(removed=False))


class TestSubstrateMessages:
    def test_publish_post_audiences(self):
        author = User(user_id=3, name="poster")
        for audience in ("friends", "public", frozenset({1, 2, 9})):
            round_trip(
                PublishPostRequest(author=author, content="hi", audience=audience)
            )

    def test_unusual_audience_string(self):
        author = User(user_id=3, name="poster")
        round_trip(PublishPostRequest(author=author, content="hi", audience="custom"))

    def test_fetch_and_post_reply(self):
        viewer = User(user_id=4, name="viewer")
        round_trip(FetchPostRequest(viewer=viewer, post_id=77))
        post = Post(
            post_id=77,
            author=User(user_id=3, name="poster"),
            content="a hyperlink",
            audience=frozenset({4}),
        )
        round_trip(PostReply(post=post))

    @given(data=st.binary(max_size=256))
    def test_storage_messages(self, data):
        round_trip(StoragePutRequest(data=data))
        round_trip(StorageGetReply(data=data))
        round_trip(StoragePutReply(url="dh://dh/1"))
        round_trip(StorageGetRequest(url="dh://dh/1"))
        round_trip(StorageExistsRequest(url="dh://dh/2"))
        round_trip(StorageDeleteRequest(url="dh://dh/3"))
        round_trip(StorageBoolReply(value=True))


class TestErrorReply:
    @pytest.mark.parametrize(
        "exc, code, transient",
        [
            (ThrottledError("over budget"), "throttled", False),
            (AccessDeniedError("below k"), "access-denied", False),
            (UnknownPuzzleError("42"), "unknown-puzzle", False),
            (TransientProviderError("sp timeout"), "transient-provider", True),
            (TransientStorageError("dh timeout"), "transient-storage", True),
        ],
    )
    def test_taxonomy_survives_the_wire(self, exc, code, transient):
        reply = ErrorReply.from_exception(exc)
        assert (reply.code, reply.transient) == (code, transient)
        revived = round_trip(reply).to_exception()
        assert type(revived) is type(exc)

    def test_unknown_exception_maps_to_internal(self):
        reply = ErrorReply.from_exception(RuntimeError("disk full"))
        assert reply.code == "internal"
        assert not reply.transient
        assert isinstance(round_trip(reply).to_exception(), RemoteServiceError)

    def test_bad_message_revives_as_transient_network(self):
        reply = ErrorReply(code="bad-message", message="checksum", transient=True)
        assert isinstance(reply.to_exception(), TransientNetworkError)


class TestRegistry:
    def test_message_names(self):
        assert message_name(StorePuzzleRequest.TYPE) == "StorePuzzleRequest"
        assert message_name(None) == "invalid"
        assert message_name(0xEE) == "invalid"

    def test_requests_and_replies_partition_the_type_space(self):
        for msg_type, cls in MESSAGE_TYPES.items():
            assert cls.TYPE == msg_type
            if cls.__name__.endswith("Request") or cls is AnswerSubmission:
                assert msg_type < 0x40, cls.__name__
            else:
                assert msg_type >= 0x40, cls.__name__

    def test_unknown_type_rejected(self):
        from repro.proto.envelope import seal

        with pytest.raises(CodecError, match="unknown message type"):
            decode_message(seal(0xEE, b""))
