"""Tests for the encrypted client-side answer store."""

from __future__ import annotations

import random

import pytest

from repro.core.cookies import AnswerStore
from repro.core.context import Context
from tests.conftest import k_of_n


class TestStoreBasics:
    def test_remember_recall(self):
        store = AnswerStore(b"pass")
        store.remember("Where?", "Lake Tahoe")
        assert store.recall("Where?") == "lake tahoe"  # normalized
        assert store.recall("Unknown?") is None

    def test_remember_context(self, party_context):
        store = AnswerStore(b"pass")
        store.remember_context(party_context)
        assert len(store) == len(party_context)
        for pair in party_context:
            assert store.recall(pair.question) == pair.normalized_answer

    def test_forget(self):
        store = AnswerStore(b"pass")
        store.remember("q", "a")
        store.forget("q")
        assert store.recall("q") is None
        store.forget("never-there")  # no-op

    def test_forget_all(self, party_context):
        store = AnswerStore(b"pass")
        store.remember_context(party_context)
        store.forget_all()
        assert len(store) == 0

    def test_empty_passphrase_rejected(self):
        with pytest.raises(ValueError):
            AnswerStore(b"")

    def test_blank_question_rejected(self):
        with pytest.raises(ValueError):
            AnswerStore(b"p").remember("  ", "a")


class TestAutofill:
    def test_knowledge_for_subset(self, party_context):
        store = AnswerStore(b"pass")
        store.remember_context(party_context.take(2))
        displayed = party_context.questions  # all four shown
        knowledge = store.knowledge_for(displayed)
        assert knowledge is not None
        assert len(knowledge) == 2

    def test_knowledge_for_none_known(self):
        store = AnswerStore(b"pass")
        assert store.knowledge_for(["q1", "q2"]) is None

    def test_autofill_solves_puzzle(self, party_context, secret_object):
        """The paper's flow: the cookie's answers drive the whole access."""
        from repro.core.construction1 import PuzzleServiceC1, ReceiverC1, SharerC1
        from repro.osn.storage import StorageHost

        store = AnswerStore(b"pass")
        store.remember_context(party_context)

        storage = StorageHost()
        sharer = SharerC1("s", storage)
        service = PuzzleServiceC1()
        puzzle_id = service.store_puzzle(
            sharer.upload_policy(
                secret_object, party_context, k_of_n(2, party_context, 4)
            )
        )
        receiver = ReceiverC1("r", storage)
        displayed = service.display_puzzle(puzzle_id, rng=random.Random(0))
        knowledge = store.knowledge_for(list(displayed.questions))
        assert knowledge is not None
        release = service.verify(receiver.answer_puzzle(displayed, knowledge))
        assert receiver.access(release, displayed, knowledge) == secret_object


class TestPersistence:
    def test_save_load_roundtrip(self, tmp_path, party_context):
        path = str(tmp_path / "answers.cookie")
        store = AnswerStore(b"my-device-passphrase")
        store.remember_context(party_context)
        store.save(path)
        loaded = AnswerStore.load(path, b"my-device-passphrase")
        assert len(loaded) == len(party_context)
        for pair in party_context:
            assert loaded.recall(pair.question) == pair.normalized_answer

    def test_file_is_encrypted_at_rest(self, tmp_path, party_context):
        """Unlike the paper's plaintext cookie: no answer is readable from
        the stored file."""
        path = tmp_path / "answers.cookie"
        store = AnswerStore(b"pass")
        store.remember_context(party_context)
        store.save(str(path))
        raw = path.read_bytes()
        for pair in party_context:
            assert pair.answer_bytes() not in raw
            assert pair.question.encode() not in raw

    def test_wrong_passphrase_rejected(self, tmp_path):
        path = str(tmp_path / "answers.cookie")
        store = AnswerStore(b"right")
        store.remember("q", "a")
        store.save(path)
        with pytest.raises(ValueError):
            AnswerStore.load(path, b"wrong")

    def test_tampered_file_rejected(self, tmp_path):
        path = tmp_path / "answers.cookie"
        store = AnswerStore(b"pass")
        store.remember("q", "a")
        store.save(str(path))
        path.write_bytes(b"X" + path.read_bytes()[1:])
        with pytest.raises(ValueError):
            AnswerStore.load(str(path), b"pass")

    def test_empty_store_roundtrip(self, tmp_path):
        path = str(tmp_path / "answers.cookie")
        AnswerStore(b"pass").save(path)
        assert len(AnswerStore.load(path, b"pass")) == 0
