"""Tests for multi-object albums behind one puzzle."""

from __future__ import annotations

import random

import pytest

from repro.core.album import AlbumManifest, AlbumReceiver, AlbumSharer
from repro.core.construction1 import PuzzleServiceC1, ReceiverC1, SharerC1
from repro.core.errors import (
    AccessDeniedError,
    PuzzleParameterError,
    TamperDetectedError,
)
from repro.osn.storage import StorageHost
from tests.conftest import k_of_n

ITEMS = {
    "sunrise.jpg": b"<jpeg bytes: sunrise over the jetty>",
    "group-photo.jpg": b"<jpeg bytes: everyone on the deck>",
    "toast.mp4": b"<mp4 bytes: the toast that went wrong>" * 10,
}


@pytest.fixture()
def world(party_context):
    storage = StorageHost()
    sharer = AlbumSharer(SharerC1("curator", storage))
    service = PuzzleServiceC1()
    puzzle = sharer.upload_album(ITEMS, party_context, k_of_n(2, party_context))
    puzzle_id = service.store_puzzle(puzzle)
    receiver = AlbumReceiver(ReceiverC1("viewer", storage))
    return storage, service, puzzle, puzzle_id, receiver


def _solve(service, receiver, puzzle_id, knowledge, seed=0):
    displayed = service.display_puzzle(puzzle_id, rng=random.Random(seed))
    answers = receiver.receiver.answer_puzzle(displayed, knowledge)
    release = service.verify(answers)
    return receiver.open_album(release, displayed, knowledge)


class TestManifest:
    def test_roundtrip(self):
        manifest = AlbumManifest(items=(("a.jpg", "dh://x/1"), ("b.jpg", "dh://x/2")))
        assert AlbumManifest.from_bytes(manifest.to_bytes()) == manifest

    def test_bytes_are_pinned(self):
        manifest = AlbumManifest(items=(("a.jpg", "dh://x/1"), ("b.jpg", "dh://x/2")))
        assert manifest.to_bytes().hex() == (
            "00000002"
            "00000005612e6a7067" "0000000864683a2f2f782f31"
            "00000005622e6a7067" "0000000864683a2f2f782f32"
        )

    def test_lookup(self):
        manifest = AlbumManifest(items=(("a.jpg", "dh://x/1"),))
        assert manifest.url_for("a.jpg") == "dh://x/1"
        with pytest.raises(KeyError):
            manifest.url_for("missing.jpg")


class TestAlbumFlow:
    def test_one_puzzle_unlocks_all_items(self, world, party_context):
        _, service, _, puzzle_id, receiver = world
        manifest = _solve(service, receiver, puzzle_id, party_context)
        assert set(manifest.titles()) == set(ITEMS)
        assert receiver.fetch_all() == ITEMS

    def test_single_item_fetch(self, world, party_context):
        _, service, _, puzzle_id, receiver = world
        _solve(service, receiver, puzzle_id, party_context)
        assert receiver.fetch_item("toast.mp4") == ITEMS["toast.mp4"]

    def test_manifest_is_the_puzzle_object(self, world, party_context):
        """The manifest is sealed under K_O = H(M_O), so a plain receiver's
        Access returns it."""
        _, service, _, puzzle_id, receiver = world
        displayed = service.display_puzzle(puzzle_id, rng=random.Random(0))
        answers = receiver.receiver.answer_puzzle(displayed, party_context)
        release = service.verify(answers)
        manifest = receiver.receiver.access(release, displayed, party_context)
        assert AlbumManifest.from_bytes(manifest).titles() == list(ITEMS)

    def test_fetch_before_open_rejected(self, world):
        _, _, _, _, receiver = world
        with pytest.raises(PuzzleParameterError):
            receiver.fetch_item("sunrise.jpg")
        with pytest.raises(PuzzleParameterError):
            receiver.fetch_all()

    def test_below_threshold_denied(self, world, party_context):
        _, service, _, puzzle_id, receiver = world
        displayed = service.display_puzzle(puzzle_id, rng=random.Random(0))
        answers = receiver.receiver.answer_puzzle(displayed, party_context.take(1))
        with pytest.raises(AccessDeniedError):
            service.verify(answers)

    def test_each_item_stored_encrypted(self, world):
        storage, *_ = world
        for content in ITEMS.values():
            assert not storage.audit.saw(content)

    def test_item_keys_independent(self, world, party_context):
        """Another item's key must not recover this item — keys are
        domain-separated per title. CBC unpadding of garbage succeeds
        by chance about once in 256 keys, so the wrong key must raise
        OR yield junk — never the item."""
        storage, service, _, puzzle_id, receiver = world
        manifest = _solve(service, receiver, puzzle_id, party_context)
        from repro.core.album import _album_key
        from repro.crypto import gibberish

        blob = storage.get(manifest.url_for("sunrise.jpg"))
        right_key = _album_key(receiver._secret, b"sunrise.jpg")
        wrong_key = _album_key(receiver._secret, b"group-photo.jpg")
        assert right_key != wrong_key
        assert gibberish.decrypt(blob, right_key) == ITEMS["sunrise.jpg"]
        try:
            recovered = gibberish.decrypt(blob, wrong_key)
        except ValueError:
            return
        assert recovered != ITEMS["sunrise.jpg"]

    def test_tampered_item_detected(self, world, party_context):
        storage, service, _, puzzle_id, receiver = world
        manifest = _solve(service, receiver, puzzle_id, party_context)
        storage.tamper(manifest.url_for("sunrise.jpg"), b"garbage")
        with pytest.raises(TamperDetectedError):
            receiver.fetch_item("sunrise.jpg")

    def test_tampered_manifest_detected(self, world, party_context):
        storage, service, puzzle, puzzle_id, receiver = world
        storage.tamper(puzzle.url, b"garbage")
        with pytest.raises(TamperDetectedError):
            _solve(service, receiver, puzzle_id, party_context)


class TestValidation:
    def test_empty_album_rejected(self, party_context):
        sharer = AlbumSharer(SharerC1("c", StorageHost()))
        with pytest.raises(PuzzleParameterError):
            sharer.upload_album({}, party_context, k_of_n(2, party_context))

    def test_blank_title_rejected(self, party_context):
        sharer = AlbumSharer(SharerC1("c", StorageHost()))
        with pytest.raises(PuzzleParameterError):
            sharer.upload_album({"  ": b"x"}, party_context, k_of_n(2, party_context))

    def test_threshold_one_album(self, party_context):
        storage = StorageHost()
        sharer = AlbumSharer(SharerC1("c", storage))
        service = PuzzleServiceC1()
        puzzle = sharer.upload_album(
            {"only.txt": b"data"}, party_context, k_of_n(1, party_context, 2)
        )
        puzzle_id = service.store_puzzle(puzzle)
        receiver = AlbumReceiver(ReceiverC1("v", storage))
        manifest = _solve(service, receiver, puzzle_id, party_context, seed=1)
        assert receiver.fetch_item("only.txt") == b"data"

