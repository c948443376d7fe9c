"""Pin the expected outcome of every section VI attack scenario."""

from __future__ import annotations

import pytest

from repro.analysis.security import (
    collusion_attack_c1,
    dh_object_tampering_c1,
    malicious_sp_feedback_collusion_c1,
    semi_honest_sp_attack_c1,
    sp_dictionary_attack_c1,
    sp_dictionary_attack_c2,
    sp_url_tampering_c1,
)
from repro.core.construction1 import C1_FIELD_PRIME, PuzzleServiceC1, SharerC1
from repro.core.construction2 import PuzzleServiceC2, SharerC2
from repro.core.context import Context
from repro.crypto.bls import BlsScheme
from repro.crypto.params import TOY
from repro.osn.storage import StorageHost
from tests.conftest import k_of_n


@pytest.fixture()
def c1_world(party_context, secret_object):
    storage = StorageHost()
    sharer = SharerC1("sharer-user", storage)
    service = PuzzleServiceC1()
    puzzle = sharer.upload_policy(
        secret_object, party_context, k_of_n(2, party_context, 4)
    )
    puzzle_id = service.store_puzzle(puzzle)
    return storage, service, puzzle, puzzle_id


class TestSemiHonestSp:
    def test_without_context_fails(self, c1_world, secret_object):
        storage, _, puzzle, _ = c1_world
        outcome = semi_honest_sp_attack_c1(
            puzzle, storage, None, C1_FIELD_PRIME, secret_object
        )
        assert not outcome.succeeded

    def test_with_partial_context_fails(self, c1_world, party_context, secret_object):
        storage, _, puzzle, _ = c1_world
        outcome = semi_honest_sp_attack_c1(
            puzzle, storage, party_context.take(1), C1_FIELD_PRIME, secret_object
        )
        assert not outcome.succeeded

    def test_with_context_succeeds(self, c1_world, party_context, secret_object):
        """Paper: an SP that knows the context is, by definition, in R_O."""
        storage, _, puzzle, _ = c1_world
        outcome = semi_honest_sp_attack_c1(
            puzzle, storage, party_context, C1_FIELD_PRIME, secret_object
        )
        assert outcome.succeeded


class TestDictionaryAttacks:
    def test_c1_low_entropy_vocabulary_cracks(self, c1_world, party_context, secret_object):
        storage, _, puzzle, _ = c1_world
        vocabulary = {
            pair.question: ["red herring", pair.answer, "another wrong"]
            for pair in party_context
        }
        outcome = sp_dictionary_attack_c1(
            puzzle, storage, vocabulary, C1_FIELD_PRIME, secret_object
        )
        assert outcome.succeeded

    def test_c1_vocabulary_without_answers_fails(self, c1_world, party_context, secret_object):
        storage, _, puzzle, _ = c1_world
        vocabulary = {pair.question: ["wrong-a", "wrong-b"] for pair in party_context}
        outcome = sp_dictionary_attack_c1(
            puzzle, storage, vocabulary, C1_FIELD_PRIME, secret_object
        )
        assert not outcome.succeeded

    def test_c2_low_entropy_vocabulary_cracks(self, party_context, secret_object):
        storage = StorageHost()
        sharer = SharerC2("s", storage, TOY)
        service = PuzzleServiceC2()
        record, _ = sharer.upload_policy(
            secret_object, party_context, k_of_n(2, party_context)
        )
        puzzle_id = service.store_upload(record)
        vocabulary = {
            pair.question: ["decoy", pair.answer] for pair in party_context
        }
        outcome = sp_dictionary_attack_c2(
            service, puzzle_id, storage, vocabulary, TOY, secret_object
        )
        assert outcome.succeeded

    def test_c2_insufficient_vocabulary_fails(self, party_context, secret_object):
        storage = StorageHost()
        sharer = SharerC2("s", storage, TOY)
        service = PuzzleServiceC2()
        record, _ = sharer.upload_policy(
            secret_object, party_context, k_of_n(2, party_context)
        )
        puzzle_id = service.store_upload(record)
        first_question = party_context.questions[0]
        vocabulary = {first_question: [party_context.answer_for(first_question)]}
        outcome = sp_dictionary_attack_c2(
            service, puzzle_id, storage, vocabulary, TOY, secret_object
        )
        assert not outcome.succeeded


class TestCollusion:
    def test_pooled_below_threshold_fails(self, c1_world, party_context, secret_object):
        _, service, _, puzzle_id = c1_world
        storage = c1_world[0]
        # Two colluders share the SAME single correct answer: union < k.
        colluders = [party_context.take(1), party_context.take(1)]
        outcome = collusion_attack_c1(
            service, puzzle_id, storage, colluders, party_context, secret_object
        )
        assert not outcome.succeeded

    def test_pooled_at_threshold_succeeds(self, c1_world, party_context, secret_object):
        """Covert-channel pooling: 'extremely difficult to protect
        against' per the paper — the attack goes through."""
        storage, service, _, puzzle_id = c1_world
        colluders = [
            party_context.subset([party_context.questions[0]]),
            party_context.subset([party_context.questions[1]]),
        ]
        outcome = collusion_attack_c1(
            service, puzzle_id, storage, colluders, party_context, secret_object
        )
        assert outcome.succeeded

    def test_malicious_sp_feedback_collusion_succeeds(
        self, c1_world, party_context, secret_object
    ):
        """The conceded weakness: each colluder has < k correct answers,
        but malicious-SP feedback identifies which answers verified."""
        storage, _, puzzle, _ = c1_world
        from repro.core.context import QAPair

        # Each colluder knows ONE correct answer plus garbage.
        colluders = [
            Context(
                [party_context.pairs[0],
                 QAPair(party_context.questions[2], "wrong guess")]
            ),
            Context(
                [party_context.pairs[1],
                 QAPair(party_context.questions[3], "also wrong")]
            ),
        ]
        outcome = malicious_sp_feedback_collusion_c1(
            puzzle, storage, colluders, C1_FIELD_PRIME, secret_object
        )
        assert outcome.succeeded

    def test_feedback_collusion_below_k_fails(self, c1_world, party_context, secret_object):
        storage, _, puzzle, _ = c1_world
        colluders = [party_context.take(1)]
        outcome = malicious_sp_feedback_collusion_c1(
            puzzle, storage, colluders, C1_FIELD_PRIME, secret_object
        )
        assert not outcome.succeeded


class TestTampering:
    def test_unsigned_url_tampering_lands_dos(self, party_context, secret_object):
        storage = StorageHost()
        sharer = SharerC1("s", storage)
        puzzle = sharer.upload_policy(
            secret_object, party_context, k_of_n(2, party_context, 4)
        )
        outcome = sp_url_tampering_c1(puzzle, storage, party_context, bls=None)
        assert outcome.succeeded  # DOS lands when puzzles are unsigned

    def test_signed_url_tampering_detected(self, party_context, secret_object):
        storage = StorageHost()
        bls = BlsScheme(TOY)
        sharer = SharerC1("s", storage, bls=bls)
        puzzle = sharer.upload_policy(
            secret_object, party_context, k_of_n(2, party_context, 4)
        )
        outcome = sp_url_tampering_c1(puzzle, storage, party_context, bls=bls)
        assert not outcome.succeeded
        assert "detected" in outcome.detail

    def test_dh_object_tampering_is_dos_not_disclosure(
        self, c1_world, party_context, secret_object
    ):
        storage, service, puzzle, puzzle_id = c1_world
        outcome = dh_object_tampering_c1(
            service, puzzle, puzzle_id, storage, party_context, secret_object
        )
        # The receiver never obtains the real object (disclosure-free),
        # and the tampering surfaces as an error.
        assert not outcome.succeeded
