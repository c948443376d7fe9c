"""The engine's thread-safety contract: dispatch is reentrant.

The smart server calls ``PuzzleProtocolEngine.dispatch`` from many
worker threads at once. These tests force two dispatches to be *inside
the backend simultaneously* (a two-party barrier neither can pass
alone) and check nothing tears: distinct serials, correct replies, no
cross-talk between interleaved batches.
"""

from __future__ import annotations

import threading

import pytest

from repro.core.construction1 import PuzzleServiceC1, SharerC1
from repro.core.context import Context
from repro.osn.provider import ServiceProvider
from repro.osn.storage import StorageHost
from repro.proto.engine import PuzzleProtocolEngine
from repro.proto.messages import (
    BatchRequest,
    StoragePutRequest,
    StorePuzzleRequest,
    decode_message,
    encode_message,
)
from tests.conftest import k_of_n

DEADLINE_S = 20.0


class RendezvousService:
    """A backend proxy that refuses to proceed until *both* in-flight
    requests have reached it — interleaving by construction."""

    def __init__(self, inner, parties: int = 2):
        self.wrapped = inner
        self.barrier = threading.Barrier(parties)

    def store_puzzle(self, puzzle):
        self.barrier.wait(timeout=DEADLINE_S)
        return self.wrapped.store_puzzle(puzzle)

    def __getattr__(self, name):
        return getattr(self.wrapped, name)


@pytest.fixture()
def engine_and_puzzle(party_context):
    provider = ServiceProvider()
    storage = StorageHost()
    engine = PuzzleProtocolEngine(provider, storage)
    engine.register_backend(
        1, RendezvousService(PuzzleServiceC1(audit=provider.audit))
    )
    sharer = SharerC1("alice", storage)
    puzzle = sharer.upload_policy(
        b"the photos", party_context, k_of_n(2, party_context, 4)
    )
    return engine, puzzle


def _dispatch_concurrently(engine, requests: list[bytes]) -> list[bytes]:
    replies: list[bytes | None] = [None] * len(requests)

    def run(i: int) -> None:
        replies[i] = engine.dispatch(requests[i])

    threads = [
        threading.Thread(target=run, args=(i,)) for i in range(len(requests))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=DEADLINE_S)
        assert not thread.is_alive(), "a dispatch never returned"
    return replies  # type: ignore[return-value]


def test_interleaved_stores_allocate_distinct_serials(engine_and_puzzle):
    engine, puzzle = engine_and_puzzle
    request = encode_message(StorePuzzleRequest(puzzle=puzzle))
    replies = [
        decode_message(raw)
        for raw in _dispatch_concurrently(engine, [request, request])
    ]
    ids = {reply.puzzle_id for reply in replies}
    assert len(ids) == 2, "two in-flight stores shared a puzzle id"
    # Both registrations are really there, independently displayable.
    for puzzle_id in ids:
        assert engine.backend(1).wrapped.display_puzzle(puzzle_id)


def test_two_in_flight_batches_do_not_cross_talk(engine_and_puzzle):
    """Each batch mixes a store (which blocks mid-engine on the barrier)
    with a storage put unique to that batch; every member reply must
    land in its own batch's slot."""
    engine, puzzle = engine_and_puzzle
    batches = [
        encode_message(
            BatchRequest.of(
                StorePuzzleRequest(puzzle=puzzle),
                StoragePutRequest(data=b"belongs to batch %d" % i),
            )
        )
        for i in range(2)
    ]
    raw_replies = _dispatch_concurrently(engine, batches)
    seen_ids = set()
    for i, raw in enumerate(raw_replies):
        batch_reply = decode_message(raw)
        store_reply, put_reply = (
            decode_message(frame) for frame in batch_reply.frames
        )
        seen_ids.add(store_reply.puzzle_id)
        # The put reply belongs to this batch: its blob reads back.
        assert engine.storage.get(put_reply.url) == b"belongs to batch %d" % i
    assert len(seen_ids) == 2
