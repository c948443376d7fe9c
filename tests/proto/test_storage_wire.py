"""Delete and tamper exercised over the wire protocol.

The in-process tests prove the DH semantics; these prove the same
behaviour *through the envelope* — the serialized requests, the typed
replies, and the exact :class:`~repro.proto.messages.ErrorReply` class a
client re-raises. Parametrized over a single :class:`StorageHost` and a
:class:`~repro.cluster.cluster.StorageCluster`, because the wire surface
must be indistinguishable.
"""

from __future__ import annotations

import random

import pytest

from repro.cluster import StorageCluster
from repro.core.construction1 import PuzzleServiceC1, ReceiverC1, SharerC1
from repro.core.context import Context
from repro.core.errors import (
    AccessDeniedError,
    TamperDetectedError,
    UnknownPuzzleError,
)
from repro.osn.provider import ServiceProvider
from repro.osn.storage import StorageError, StorageHost
from repro.proto.engine import PuzzleProtocolEngine
from repro.proto.messages import (
    AnswerSubmission,
    DisplayPuzzleRequest,
    ErrorReply,
    RetractPuzzleRequest,
    StorageBoolReply,
    StorageDeleteRequest,
    StorageExistsRequest,
    StorageGetRequest,
    StoragePutRequest,
    StorePuzzleRequest,
    decode_message,
    encode_message,
)
from tests.conftest import k_of_n


@pytest.fixture(params=["single-host", "cluster"])
def storage(request):
    if request.param == "single-host":
        return StorageHost()
    return StorageCluster(num_nodes=5)


def roundtrip(dispatcher, message):
    return decode_message(dispatcher.dispatch(encode_message(message)))


class TestDeleteOverTheWire:
    def test_delete_then_get_is_a_permanent_storage_error(self, storage):
        url = roundtrip(storage, StoragePutRequest(data=b"short-lived")).url
        deleted = roundtrip(storage, StorageDeleteRequest(url=url))
        assert deleted == StorageBoolReply(value=True)
        reply = roundtrip(storage, StorageGetRequest(url=url))
        assert isinstance(reply, ErrorReply)
        assert reply.code == "storage"
        assert not reply.transient
        assert isinstance(reply.to_exception(), StorageError)

    def test_delete_is_idempotent_over_the_wire(self, storage):
        url = roundtrip(storage, StoragePutRequest(data=b"x")).url
        assert roundtrip(storage, StorageDeleteRequest(url=url)).value is True
        assert roundtrip(storage, StorageDeleteRequest(url=url)).value is False
        assert roundtrip(storage, StorageExistsRequest(url=url)).value is False

    def test_delete_unknown_url_answers_false_not_error(self, storage):
        reply = roundtrip(storage, StorageDeleteRequest(url="dh://nowhere/404"))
        assert reply == StorageBoolReply(value=False)


class TestTamperOverTheWire:
    def test_tampered_bytes_are_served_verbatim(self, storage):
        # The DH cannot detect its own malice: the wire serves whatever
        # the replicas agree on; integrity is the crypto layer's job.
        url = roundtrip(storage, StoragePutRequest(data=b"original")).url
        storage.tamper(url, b"evil bytes")
        assert roundtrip(storage, StorageGetRequest(url=url)).data == b"evil bytes"

    def test_tampering_is_dos_not_disclosure_for_a_wire_driven_receiver(
        self, storage
    ):
        # Section VI-B over the protocol: the DH rewrites the blob after
        # upload; a receiver driving the whole journey through wire
        # messages hits a loud typed error, never silent wrong bytes.
        provider = ServiceProvider()
        engine = PuzzleProtocolEngine(provider, storage)
        engine.register_backend(1, PuzzleServiceC1(audit=provider.audit))
        context = Context.from_mapping(
            {"Q1?": "A1", "Q2?": "A2", "Q3?": "A3"}
        )
        puzzle = SharerC1("alice", storage).upload_policy(
            b"the object", context, k_of_n(2, context, 3)
        )
        stored = roundtrip(engine, StorePuzzleRequest(puzzle=puzzle))
        storage.tamper(puzzle.url, b"\x00" * 64)
        shown = roundtrip(
            engine,
            DisplayPuzzleRequest(
                construction=1,
                puzzle_id=stored.puzzle_id,
                rng_state=random.Random(5).getstate(),
            ),
        )
        receiver = ReceiverC1("bob", storage)
        answers = receiver.answer_puzzle(shown.displayed, context)
        released = roundtrip(
            engine,
            AnswerSubmission(
                construction=1,
                puzzle_id=stored.puzzle_id,
                requester="bob",
                digests=dict(answers.digests),
            ),
        )
        with pytest.raises((TamperDetectedError, AccessDeniedError)):
            receiver.access(released.release, shown.displayed, context)


class TestRetractThenGet:
    def test_retract_then_display_is_unknown_puzzle(self):
        provider, storage = ServiceProvider(), StorageHost()
        engine = PuzzleProtocolEngine(provider, storage)
        engine.register_backend(1, PuzzleServiceC1(audit=provider.audit))
        context = Context.from_mapping(
            {"Q1?": "A1", "Q2?": "A2", "Q3?": "A3"}
        )
        puzzle = SharerC1("alice", storage).upload_policy(
            b"obj", context, k_of_n(2, context, 3)
        )
        stored = roundtrip(engine, StorePuzzleRequest(puzzle=puzzle))
        gone = roundtrip(
            engine,
            RetractPuzzleRequest(construction=1, puzzle_id=stored.puzzle_id),
        )
        assert gone.removed is True
        reply = roundtrip(
            engine,
            DisplayPuzzleRequest(
                construction=1,
                puzzle_id=stored.puzzle_id,
                rng_state=random.Random(0).getstate(),
            ),
        )
        assert isinstance(reply, ErrorReply)
        assert reply.code == "unknown-puzzle"
        assert not reply.transient
        assert isinstance(reply.to_exception(), UnknownPuzzleError)

    def test_retract_then_get_blob_is_storage_error(self, storage):
        # The full cleanup: after retracting, the sharer deletes the
        # blob; any stale URL_O holder gets the permanent storage code.
        context = Context.from_mapping(
            {"Q1?": "A1", "Q2?": "A2", "Q3?": "A3"}
        )
        puzzle = SharerC1("alice", storage).upload_policy(
            b"obj", context, k_of_n(2, context, 3)
        )
        assert roundtrip(storage, StorageDeleteRequest(url=puzzle.url)).value
        reply = roundtrip(storage, StorageGetRequest(url=puzzle.url))
        assert isinstance(reply, ErrorReply)
        assert reply.code == "storage"
