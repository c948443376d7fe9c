"""Tests for Construction 2 (CP-ABE-based social puzzles)."""

from __future__ import annotations

import pytest

from repro.abe.access_tree import AccessTree
from repro.core.construction2 import (
    PuzzleAnswersC2,
    PuzzleServiceC2,
    ReceiverC2,
    SharerC2,
    answer_digest_hex,
    is_perturbed,
    leaf_attribute,
    perturb_tree,
    perturbed_attribute,
    reconstruct_tree,
    split_attribute,
)
from repro.core.context import Context, QAPair
from repro.core.errors import AccessDeniedError, PuzzleParameterError, UnknownPuzzleError
from repro.crypto.params import TOY
from repro.osn.storage import StorageHost
from repro.policy.model import PuzzlePolicy
from tests.conftest import k_of_n


@pytest.fixture()
def setup(party_context, secret_object):
    storage = StorageHost()
    sharer = SharerC2("sharer-user", storage, TOY)
    service = PuzzleServiceC2()
    record, ct_bytes = sharer.upload_policy(
        secret_object, party_context, k_of_n(2, party_context)
    )
    puzzle_id = service.store_upload(record)
    receiver = ReceiverC2("receiver-user", storage, TOY)
    return storage, service, puzzle_id, receiver, ct_bytes


def run_flow(service, receiver, puzzle_id, knowledge):
    displayed = service.display_puzzle(puzzle_id)
    answers = receiver.answer_puzzle(displayed, knowledge)
    grant = service.verify(answers)
    return receiver.access(grant, knowledge)


class TestAttributes:
    def test_leaf_attribute_normalizes(self):
        assert leaf_attribute("Q?", " Lake  TAHOE ") == "Q?\x1flake tahoe"

    def test_split_attribute(self):
        assert split_attribute("Q?\x1fanswer") == ("Q?", "answer")
        with pytest.raises(PuzzleParameterError):
            split_attribute("no separator")

    def test_perturbed_marker(self):
        digest = answer_digest_hex("ans")
        attr = perturbed_attribute("Q?", digest)
        assert is_perturbed(attr)
        assert not is_perturbed(leaf_attribute("Q?", "ans"))

    def test_digest_matches_sha1(self):
        import hashlib

        assert answer_digest_hex("Lake Tahoe") == hashlib.sha1(b"lake tahoe").hexdigest()

    def test_alternate_digestmod(self):
        assert answer_digest_hex("x", "sha3_256") != answer_digest_hex("x", "sha1")


class TestPerturbReconstruct:
    # Answers use letters outside [0-9a-f] so they can never appear as a
    # substring of a hex digest by chance.
    def _tree(self):
        return AccessTree.k_of_n(
            2,
            [leaf_attribute("q1", "zulu"), leaf_attribute("q2", "yankee"),
             leaf_attribute("q3", "xray")],
        )

    def test_perturb_hides_answers(self):
        perturbed = perturb_tree(self._tree())
        for attr in perturbed.attributes():
            assert is_perturbed(attr)
            assert "zulu" not in attr and "yankee" not in attr and "xray" not in attr

    def test_perturb_preserves_shape_and_questions(self):
        tree = self._tree()
        perturbed = perturb_tree(tree)
        assert tree.same_shape_as(perturbed)
        assert [split_attribute(a)[0] for a in perturbed.attributes()] == [
            "q1", "q2", "q3",
        ]

    def test_perturb_idempotent(self):
        once = perturb_tree(self._tree())
        assert perturb_tree(once) == once

    def test_reconstruct_with_full_knowledge(self):
        tree = self._tree()
        perturbed = perturb_tree(tree)
        knowledge = Context.from_mapping({"q1": "zulu", "q2": "yankee", "q3": "xray"})
        rebuilt, resolved = reconstruct_tree(perturbed, knowledge)
        assert rebuilt == tree
        assert sorted(resolved) == sorted(tree.attributes())

    def test_reconstruct_partial(self):
        perturbed = perturb_tree(self._tree())
        knowledge = Context.from_mapping({"q1": "zulu"})
        rebuilt, resolved = reconstruct_tree(perturbed, knowledge)
        assert resolved == [leaf_attribute("q1", "zulu")]
        attrs = rebuilt.attributes()
        assert attrs[0] == leaf_attribute("q1", "zulu")
        assert is_perturbed(attrs[1]) and is_perturbed(attrs[2])

    def test_reconstruct_with_wrong_answer_leaves_hash(self):
        perturbed = perturb_tree(self._tree())
        knowledge = Context.from_mapping({"q1": "wrong"})
        rebuilt, resolved = reconstruct_tree(perturbed, knowledge)
        assert resolved == []
        assert all(is_perturbed(a) for a in rebuilt.attributes())


class TestUploadPolicy:
    def test_structure(self, party_context, secret_object):
        sharer = SharerC2("s", StorageHost(), TOY)
        record, _ = sharer.upload_policy(
            secret_object, party_context, k_of_n(2, party_context)
        )
        tree = record.tree_perturbed
        assert tree.root.threshold == 2
        assert len(tree.leaves()) == len(party_context)

    def test_1_1_threshold_rejected(self, secret_object):
        """The paper: CP-ABE does not support (1, 1); observations start
        at N = 2."""
        sharer = SharerC2("s", StorageHost(), TOY)
        context = Context.from_mapping({"q": "a"})
        with pytest.raises(PuzzleParameterError):
            sharer.upload_policy(secret_object, context, k_of_n(1, context))

    def test_bad_parameters(self, party_context, secret_object):
        sharer = SharerC2("s", StorageHost(), TOY)
        with pytest.raises(PuzzleParameterError):
            sharer.upload_policy(secret_object, party_context, k_of_n(0, party_context))
        with pytest.raises(PuzzleParameterError):
            sharer.upload_policy(secret_object, party_context, k_of_n(5, party_context))
        unanswerable = PuzzlePolicy.from_k_of_n(
            2, party_context.questions + ["Who sang?"]
        )
        with pytest.raises(PuzzleParameterError):
            sharer.upload_policy(secret_object, party_context, unanswerable)


class TestEndToEnd:
    def test_full_knowledge(self, setup, party_context, secret_object):
        _, service, puzzle_id, receiver, _ = setup
        assert run_flow(service, receiver, puzzle_id, party_context) == secret_object

    def test_threshold_knowledge(self, setup, party_context, secret_object):
        _, service, puzzle_id, receiver, _ = setup
        assert run_flow(service, receiver, puzzle_id, party_context.take(2)) == secret_object

    def test_below_threshold_denied_at_sp(self, setup, party_context):
        _, service, puzzle_id, receiver, _ = setup
        displayed = service.display_puzzle(puzzle_id)
        answers = receiver.answer_puzzle(displayed, party_context.take(1))
        with pytest.raises(AccessDeniedError):
            service.verify(answers)

    def test_wrong_answers_denied(self, setup, party_context):
        _, service, puzzle_id, receiver, _ = setup
        wrong = Context(
            QAPair(p.question, p.answer + " nope") for p in party_context
        )
        displayed = service.display_puzzle(puzzle_id)
        answers = receiver.answer_puzzle(displayed, wrong)
        with pytest.raises(AccessDeniedError):
            service.verify(answers)

    def test_case_insensitive_answers(self, setup, party_context, secret_object):
        _, service, puzzle_id, receiver, _ = setup
        shouty = Context(
            QAPair(p.question, "  " + p.answer.upper()) for p in party_context
        )
        assert run_flow(service, receiver, puzzle_id, shouty) == secret_object

    def test_receiver_cannot_skip_sp_without_answers(self, setup, party_context):
        """Even holding CT' (public URL), a receiver with too few answers
        cannot decrypt — the crypto enforces the threshold, not just the
        SP's gate."""
        from repro.core.construction2 import AccessGrantC2

        storage, service, puzzle_id, receiver, _ = setup
        record = service._lookup(puzzle_id)
        forged_grant = AccessGrantC2(
            puzzle_id=puzzle_id,
            url=record.url,
            pk_bytes=record.pk_bytes,
            mk_bytes=record.mk_bytes,
        )
        with pytest.raises(AccessDeniedError):
            receiver.access(forged_grant, party_context.take(1))

    def test_no_knowledge_rejected_locally(self, setup):
        from repro.core.construction2 import AccessGrantC2

        storage, service, puzzle_id, receiver, _ = setup
        record = service._lookup(puzzle_id)
        grant = AccessGrantC2(
            puzzle_id=puzzle_id, url=record.url,
            pk_bytes=record.pk_bytes, mk_bytes=record.mk_bytes,
        )
        stranger = Context.from_mapping({"unrelated question": "whatever"})
        with pytest.raises(AccessDeniedError):
            receiver.access(grant, stranger)

    def test_higher_threshold(self, party_context, secret_object):
        storage = StorageHost()
        sharer = SharerC2("s", storage, TOY)
        service = PuzzleServiceC2()
        record, _ = sharer.upload_policy(
            secret_object, party_context, k_of_n(4, party_context)
        )
        puzzle_id = service.store_upload(record)
        receiver = ReceiverC2("r", storage, TOY)
        assert run_flow(service, receiver, puzzle_id, party_context) == secret_object
        displayed = service.display_puzzle(puzzle_id)
        with pytest.raises(AccessDeniedError):
            service.verify(receiver.answer_puzzle(displayed, party_context.take(3)))


class TestSurveillanceResistance:
    def test_sp_dh_never_see_answers_or_object(self, party_context, secret_object):
        storage = StorageHost()
        sharer = SharerC2("sharer-user", storage, TOY)
        service = PuzzleServiceC2()
        record, _ = sharer.upload_policy(
            secret_object, party_context, k_of_n(2, party_context)
        )
        puzzle_id = service.store_upload(record)
        receiver = ReceiverC2("receiver-user", storage, TOY)
        run_flow(service, receiver, puzzle_id, party_context)

        for pair in party_context:
            needle = pair.answer_bytes()
            service.audit.assert_never_saw(needle, "answer")
            storage.audit.assert_never_saw(needle, "answer")
        service.audit.assert_never_saw(secret_object, "object")
        storage.audit.assert_never_saw(secret_object, "object")

    def test_legacy_mode_leaks_answers_to_dh(self, party_context, secret_object):
        """The paper prototype's shortcoming: unperturbed tree in CT'."""
        storage = StorageHost()
        sharer = SharerC2(
            "s", storage, TOY, legacy_unperturbed_ciphertext=True
        )
        sharer.upload_policy(secret_object, party_context, k_of_n(2, party_context))
        leaked = any(
            storage.audit.saw(pair.answer_bytes()) for pair in party_context
        )
        assert leaked

    def test_legacy_mode_still_controls_access(self, party_context, secret_object):
        storage = StorageHost()
        sharer = SharerC2("s", storage, TOY, legacy_unperturbed_ciphertext=True)
        service = PuzzleServiceC2()
        record, _ = sharer.upload_policy(
            secret_object, party_context, k_of_n(2, party_context)
        )
        puzzle_id = service.store_upload(record)
        receiver = ReceiverC2("r", storage, TOY)
        assert run_flow(service, receiver, puzzle_id, party_context.take(2)) == secret_object


class TestService:
    def test_display_questions(self, setup, party_context):
        _, service, puzzle_id, _, _ = setup
        displayed = service.display_puzzle(puzzle_id)
        assert list(displayed.questions) == party_context.questions
        assert displayed.threshold == 2

    def test_unknown_puzzle(self, setup):
        _, service, _, _, _ = setup
        with pytest.raises(UnknownPuzzleError):
            service.display_puzzle(42)

    def test_puzzle_ids_increment(self, party_context, secret_object):
        storage = StorageHost()
        sharer = SharerC2("s", storage, TOY)
        service = PuzzleServiceC2()
        ids = []
        for _ in range(3):
            record, _ = sharer.upload_policy(
                secret_object, party_context, k_of_n(2, party_context)
            )
            ids.append(service.store_upload(record))
        assert ids == [1, 2, 3]
        assert service.puzzle_count() == 3

    def test_file_sizes_reported(self, setup):
        _, service, puzzle_id, _, ct_bytes = setup
        record = service._lookup(puzzle_id)
        sizes = record.file_sizes()
        assert set(sizes) == {"details.txt", "pub_key", "master_key"}
        assert all(v > 0 for v in sizes.values())
        assert len(ct_bytes) > 0


class TestAnswersEncoding:
    def test_bytes_are_pinned(self):
        """The meter charges these bytes; digests run to the end uncounted."""
        answers = PuzzleAnswersC2(
            puzzle_id=4, digests={"Who drove?": "ab12", "Where?": "ff"}
        )
        assert answers.to_bytes().hex() == (
            "00000004"
            "0000000a57686f2064726f76653f" "0000000461623132"
            "0000000657686572653f" "000000026666"
        )
        assert PuzzleAnswersC2.from_bytes(answers.to_bytes()) == answers


class TestNestedPolicies:
    """Beyond the paper: arbitrary QA-policy trees through the full
    SP-mediated flow (generalized Verify evaluates tau' satisfiability)."""

    def _nested_world(self, secret_object):
        project = Context.from_mapping(
            {"What is the codename?": "falconer", "Which client?": "globex"}
        )
        logistics = Context.from_mapping(
            {"Which room?": "aurora", "Who presented?": "priya", "Which server?": "basalt"}
        )
        policy = PuzzlePolicy(
            AccessTree.any_of(
                [
                    AccessTree.all_of(project.questions),
                    AccessTree.threshold(2, logistics.questions),
                ]
            )
        )
        everything = Context(project.pairs + logistics.pairs)
        storage = StorageHost()
        sharer = SharerC2("s", storage, TOY)
        service = PuzzleServiceC2()
        record, _ = sharer.upload_policy(secret_object, everything, policy)
        puzzle_id = service.store_upload(record)
        receiver = ReceiverC2("r", storage, TOY)
        return project, logistics, service, puzzle_id, receiver

    def test_and_branch_grants(self, secret_object):
        project, _, service, puzzle_id, receiver = self._nested_world(secret_object)
        displayed = service.display_puzzle(puzzle_id)
        grant = service.verify(receiver.answer_puzzle(displayed, project))
        assert receiver.access(grant, project) == secret_object

    def test_threshold_branch_grants(self, secret_object):
        _, logistics, service, puzzle_id, receiver = self._nested_world(secret_object)
        partial = logistics.take(2)
        displayed = service.display_puzzle(puzzle_id)
        grant = service.verify(receiver.answer_puzzle(displayed, partial))
        assert receiver.access(grant, partial) == secret_object

    def test_mixed_branches_denied(self, secret_object):
        """One fact from each branch satisfies neither — the SP-side
        evaluation must agree with the cryptographic one."""
        project, logistics, service, puzzle_id, receiver = self._nested_world(
            secret_object
        )
        mixed = Context(
            [project.pairs[0], logistics.pairs[0]]
        )
        displayed = service.display_puzzle(puzzle_id)
        with pytest.raises(AccessDeniedError):
            service.verify(receiver.answer_puzzle(displayed, mixed))

    def test_surveillance_resistance_with_nested_tree(self, secret_object):
        project, logistics, service, puzzle_id, receiver = self._nested_world(
            secret_object
        )
        displayed = service.display_puzzle(puzzle_id)
        grant = service.verify(receiver.answer_puzzle(displayed, project))
        receiver.access(grant, project)
        for needle in (b"falconer", b"globex", b"aurora", b"priya", b"basalt"):
            service.audit.assert_never_saw(needle, "answer")
