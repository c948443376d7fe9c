"""Tests for puzzle rotation (the section VI-C countermeasure)."""

from __future__ import annotations

import random

import pytest

from repro.core.construction1 import DisplayedPuzzle, ReceiverC1, SharerC1
from repro.core.construction2 import PuzzleServiceC2, ReceiverC2, SharerC2
from repro.core.context import Context
from repro.core.errors import (
    AccessDeniedError,
    PuzzleParameterError,
    TamperDetectedError,
    UnknownPuzzleError,
)
from repro.core.rotation import (
    RotatingPuzzleService,
    RotationPolicy,
    install_rotation_c2,
    rotate_puzzle,
    rotate_upload_c2,
)
from repro.crypto.params import TOY
from repro.osn.storage import StorageHost
from repro.policy.model import PuzzlePolicy
from tests.conftest import k_of_n

NESTED = PuzzlePolicy.from_text(
    "scope:group/trip and (2 of (ctx_a, ctx_b, ctx_c) or attr:escrow)"
)
NESTED_CONTEXT = Context.from_mapping(
    {
        "scope:group/trip": "lantern",
        "ctx_a": "alpha",
        "ctx_b": "bravo",
        "ctx_c": "charlie",
        "attr:escrow": "escrow key",
    }
)
# Two leaves, but not the scope gate: denied under NESTED, granted by a
# flat 2-of-5 puzzle over the same questions.
NOT_ENOUGH = NESTED_CONTEXT.subset(["ctx_a", "attr:escrow"])


@pytest.fixture()
def world(party_context, secret_object):
    storage = StorageHost()
    sharer = SharerC1("rotator", storage)
    service = RotatingPuzzleService(policy=RotationPolicy(max_releases=2))
    puzzle = sharer.upload_policy(
        secret_object, party_context, k_of_n(2, party_context, 4)
    )
    puzzle_id = service.store_puzzle(puzzle)
    receiver = ReceiverC1("reader", storage)
    return storage, sharer, service, puzzle, puzzle_id, receiver


def _solve(service, receiver, puzzle_id, knowledge, seed=0):
    displayed = service.display_puzzle(puzzle_id, rng=random.Random(seed))
    answers = receiver.answer_puzzle(displayed, knowledge)
    release = service.verify(answers)
    return receiver.access(release, displayed, knowledge), release, displayed


class TestRotatePuzzle:
    def test_rotation_refreshes_everything(self, world, party_context, secret_object):
        storage, sharer, _, old_puzzle, _, _ = world
        new_puzzle = rotate_puzzle(sharer, old_puzzle, secret_object, party_context)
        assert new_puzzle.puzzle_key != old_puzzle.puzzle_key
        assert new_puzzle.url != old_puzzle.url
        assert {e.share_x for e in new_puzzle.entries}.isdisjoint(
            {e.share_x for e in old_puzzle.entries}
        )
        assert new_puzzle.k == old_puzzle.k
        assert new_puzzle.n == old_puzzle.n
        assert set(new_puzzle.questions) == set(old_puzzle.questions)

    def test_old_object_deleted(self, world, party_context, secret_object):
        storage, sharer, _, old_puzzle, _, _ = world
        rotate_puzzle(sharer, old_puzzle, secret_object, party_context)
        assert not storage.exists(old_puzzle.url)

    def test_old_object_kept_on_request(self, world, party_context, secret_object):
        storage, sharer, _, old_puzzle, _, _ = world
        rotate_puzzle(
            sharer, old_puzzle, secret_object, party_context, delete_old_object=False
        )
        assert storage.exists(old_puzzle.url)

    def test_rotated_puzzle_solvable_with_same_answers(
        self, world, party_context, secret_object
    ):
        storage, sharer, service, old_puzzle, puzzle_id, receiver = world
        new_puzzle = rotate_puzzle(sharer, old_puzzle, secret_object, party_context)
        service.install_rotation(puzzle_id, new_puzzle)
        plaintext, _, _ = _solve(service, receiver, puzzle_id, party_context)
        assert plaintext == secret_object

    def test_hoarded_release_useless_after_rotation(
        self, world, party_context, secret_object
    ):
        """The point of the countermeasure: shares released before
        rotation cannot decrypt the re-encrypted object."""
        storage, sharer, service, old_puzzle, puzzle_id, receiver = world
        _, old_release, old_displayed = _solve(
            service, receiver, puzzle_id, party_context
        )
        new_puzzle = rotate_puzzle(sharer, old_puzzle, secret_object, party_context)
        service.install_rotation(puzzle_id, new_puzzle)
        # Replaying the hoarded release: old URL is gone, and even if the
        # blob had been kept, the old shares derive the OLD key.
        with pytest.raises((TamperDetectedError, KeyError, Exception)):
            receiver.access(old_release, old_displayed, party_context)


class TestRotationPolicy:
    def test_policy_validation(self):
        with pytest.raises(ValueError):
            RotationPolicy(max_releases=0)

    def test_release_counting(self, world, party_context):
        _, _, service, _, puzzle_id, receiver = world
        assert service.releases_since_rotation(puzzle_id) == 0
        assert not service.due_for_rotation(puzzle_id)
        _solve(service, receiver, puzzle_id, party_context, seed=1)
        assert service.releases_since_rotation(puzzle_id) == 1
        assert not service.due_for_rotation(puzzle_id)
        _solve(service, receiver, puzzle_id, party_context, seed=2)
        assert service.due_for_rotation(puzzle_id)

    def test_counter_resets_on_rotation(
        self, world, party_context, secret_object
    ):
        _, sharer, service, old_puzzle, puzzle_id, receiver = world
        _solve(service, receiver, puzzle_id, party_context, seed=1)
        _solve(service, receiver, puzzle_id, party_context, seed=2)
        assert service.due_for_rotation(puzzle_id)
        new_puzzle = rotate_puzzle(sharer, old_puzzle, secret_object, party_context)
        service.install_rotation(puzzle_id, new_puzzle)
        assert service.releases_since_rotation(puzzle_id) == 0

    def test_unknown_puzzle_rejected(self, world):
        _, _, service, _, _, _ = world
        with pytest.raises(UnknownPuzzleError):
            service.releases_since_rotation(99)


class TestInstallValidation:
    def test_same_key_rejected(self, world, party_context):
        _, _, service, old_puzzle, puzzle_id, _ = world
        with pytest.raises(PuzzleParameterError):
            service.install_rotation(puzzle_id, old_puzzle)

    def test_policy_must_match(self, world, party_context, secret_object):
        """The same questions under another threshold are another policy."""
        _, sharer, service, _, puzzle_id, _ = world
        stricter = sharer.upload_policy(
            secret_object, party_context, k_of_n(3, party_context)
        )
        with pytest.raises(PuzzleParameterError):
            service.install_rotation(puzzle_id, stricter)

    def test_question_set_must_match(self, world, secret_object):
        _, sharer, service, _, puzzle_id, _ = world
        other_context = Context.from_mapping(
            {"Different question?": "different answer", "Another?": "answer two"}
        )
        foreign = sharer.upload_policy(
            secret_object, other_context, k_of_n(2, other_context, 2)
        )
        with pytest.raises(PuzzleParameterError):
            service.install_rotation(puzzle_id, foreign)


class TestRotationC2:
    @pytest.fixture()
    def c2_world(self, party_context, secret_object):
        storage = StorageHost()
        sharer = SharerC2("rotator", storage, TOY)
        service = PuzzleServiceC2()
        record, _ = sharer.upload_policy(
            secret_object, party_context, k_of_n(2, party_context)
        )
        puzzle_id = service.store_upload(record)
        receiver = ReceiverC2("reader", storage, TOY)
        return storage, sharer, service, record, puzzle_id, receiver

    def test_rotation_refreshes_keys_and_url(
        self, c2_world, party_context, secret_object
    ):
        storage, sharer, _, old_record, _, _ = c2_world
        new_record, _ = rotate_upload_c2(
            sharer, old_record, secret_object, party_context
        )
        assert new_record.mk_bytes != old_record.mk_bytes
        assert new_record.pk_bytes != old_record.pk_bytes
        assert new_record.url != old_record.url
        assert not storage.exists(old_record.url)

    def test_rotated_upload_solvable_same_answers(
        self, c2_world, party_context, secret_object
    ):
        storage, sharer, service, old_record, puzzle_id, receiver = c2_world
        new_record, _ = rotate_upload_c2(
            sharer, old_record, secret_object, party_context
        )
        install_rotation_c2(service, puzzle_id, new_record)
        displayed = service.display_puzzle(puzzle_id)
        grant = service.verify(receiver.answer_puzzle(displayed, party_context))
        assert receiver.access(grant, party_context) == secret_object

    def test_install_requires_rekeying(self, c2_world):
        _, _, service, old_record, puzzle_id, _ = c2_world
        with pytest.raises(PuzzleParameterError):
            install_rotation_c2(service, puzzle_id, service._lookup(puzzle_id))

    def test_install_requires_same_questions(
        self, c2_world, secret_object
    ):
        storage, sharer, service, _, puzzle_id, _ = c2_world
        other = Context.from_mapping(
            {"Different q1?": "ans one", "Different q2?": "ans two"}
        )
        foreign, _ = sharer.upload_policy(secret_object, other, k_of_n(2, other))
        with pytest.raises(PuzzleParameterError):
            install_rotation_c2(service, puzzle_id, foreign)


class TestRotationKeepsNestedPolicy:
    """Rotation re-shares the stored puzzle's own policy: a nested puzzle
    must not come back as a flat k-of-n one."""

    def test_c1(self, secret_object):
        storage = StorageHost()
        sharer = SharerC1("rotator", storage)
        service = RotatingPuzzleService()
        old_puzzle = sharer.upload_policy(secret_object, NESTED_CONTEXT, NESTED)
        puzzle_id = service.store_puzzle(old_puzzle)
        new_puzzle = rotate_puzzle(sharer, old_puzzle, secret_object, NESTED_CONTEXT)
        service.install_rotation(puzzle_id, new_puzzle)

        receiver = ReceiverC1("reader", storage)
        # Every question, as a nested puzzle displays them (a flat one
        # would display a random subset).
        displayed = DisplayedPuzzle(
            puzzle_id, tuple(new_puzzle.questions), new_puzzle.puzzle_key, new_puzzle.k
        )
        with pytest.raises(AccessDeniedError):
            service.verify(receiver.answer_puzzle(displayed, NOT_ENOUGH))
        plaintext, _, _ = _solve(service, receiver, puzzle_id, NESTED_CONTEXT)
        assert plaintext == secret_object
        assert new_puzzle.policy() == NESTED

    def test_c2(self, secret_object):
        storage = StorageHost()
        sharer = SharerC2("rotator", storage, TOY)
        service = PuzzleServiceC2()
        old_record, _ = sharer.upload_policy(secret_object, NESTED_CONTEXT, NESTED)
        puzzle_id = service.store_upload(old_record)
        new_record, _ = rotate_upload_c2(
            sharer, old_record, secret_object, NESTED_CONTEXT
        )
        install_rotation_c2(service, puzzle_id, new_record)

        receiver = ReceiverC2("reader", storage, TOY)
        displayed = service.display_puzzle(puzzle_id)
        with pytest.raises(AccessDeniedError):
            service.verify(receiver.answer_puzzle(displayed, NOT_ENOUGH))
        grant = service.verify(receiver.answer_puzzle(displayed, NESTED_CONTEXT))
        assert receiver.access(grant, NESTED_CONTEXT) == secret_object
        assert new_record.policy() == NESTED
