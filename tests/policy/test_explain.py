"""The explain evaluator, its wire codec, and the curious-SP bound.

The leakage test is the load-bearing one: an explanation — for a grant
AND for a deny, rendered AND serialized — may carry questions and gate
arithmetic, never answers, digests, keys or shares.
"""

from __future__ import annotations

import pytest

from repro.core.construction1 import PuzzleServiceC1, ReceiverC1, SharerC1
from repro.core.context import Context
from repro.osn.storage import StorageHost
from repro.policy import Explanation, PuzzlePolicy, explain_tree

DEPTH3 = "scope:group/trip and (2 of (ctx_a, ctx_b, ctx_c) or attr:escrow)"

ANSWERS = {
    "scope:group/trip": "trip-roster-secret",
    "ctx_a": "alpha-answer",
    "ctx_b": "beta-answer",
    "ctx_c": "gamma-answer",
    "attr:escrow": "escrow-credential",
}


def explain(matched, granted_expected):
    policy = PuzzlePolicy.from_text(DEPTH3)
    exp = explain_tree(
        policy.tree, matched, construction=1, puzzle_id=7, policy_text=policy.text
    )
    assert exp.granted is granted_expected
    return exp


class TestExplainTree:
    def test_grant_names_satisfied_leaves_and_passed_gates(self):
        exp = explain({"scope:group/trip", "ctx_a", "ctx_b"}, True)
        assert exp.satisfied_leaves() == ("scope:group/trip", "ctx_a", "ctx_b")
        assert exp.failed_leaves() == ("ctx_c", "attr:escrow")
        assert exp.passed_gates() == ("0", "0.2", "0.2.1")

    def test_deny_does_not_raise_and_names_failed_gate(self):
        exp = explain({"ctx_a", "ctx_b", "ctx_c"}, False)
        assert "scope:group/trip" in exp.failed_leaves()
        assert "0" not in exp.passed_gates()
        # The inner 2-of-3 still passed — partial progress is visible.
        assert "0.2.1" in exp.passed_gates()

    def test_nodes_in_preorder_with_dotted_paths(self):
        exp = explain(set(), False)
        assert [n.path for n in exp.nodes] == [
            "0", "0.1", "0.2", "0.2.1", "0.2.1.1", "0.2.1.2", "0.2.1.3", "0.2.2",
        ]
        assert exp.nodes[0].kind == "gate" and exp.nodes[0].label == "and"

    def test_render_marks_passed_and_failed(self):
        text = explain({"scope:group/trip", "attr:escrow"}, True).render()
        assert text.startswith("grant ")
        assert "+ scope:group/trip" in text
        assert "- ctx_a" in text
        assert "[2/2]" in text  # the root AND's satisfied/threshold

    def test_codec_round_trip(self):
        exp = explain({"scope:group/trip", "ctx_a", "ctx_b"}, True)
        assert Explanation.from_bytes(exp.to_bytes()) == exp


class TestCuriousSp:
    """What a curious SP (or wire eavesdropper) learns from Explain."""

    @pytest.fixture()
    def service_and_attempts(self):
        storage = StorageHost()
        sharer = SharerC1("alice", storage)
        service = PuzzleServiceC1()
        policy = PuzzlePolicy.from_text(DEPTH3)
        context = Context.from_mapping(ANSWERS)
        puzzle = sharer.upload_policy(b"the object", context, policy)
        puzzle_id = service.store_puzzle(puzzle)
        service.attach_policy(puzzle_id, policy.text)
        displayed = service.display_puzzle(puzzle_id)
        receiver = ReceiverC1("bob", storage)

        def attempt(known):
            return receiver.answer_puzzle(
                displayed, Context.from_mapping(known)
            )

        return service, attempt, puzzle

    def test_explanations_never_carry_answer_material(
        self, service_and_attempts
    ):
        service, attempt, puzzle = service_and_attempts
        granted = service.explain(
            attempt(
                {
                    "scope:group/trip": "trip-roster-secret",
                    "ctx_a": "alpha-answer",
                    "ctx_b": "beta-answer",
                }
            )
        )
        denied = service.explain(attempt({"ctx_a": "alpha-answer"}))
        assert granted.granted and not denied.granted

        for exp in (granted, denied):
            surface = exp.to_bytes() + exp.render().encode("utf-8")
            for answer in ANSWERS.values():
                assert answer.encode("utf-8") not in surface
            # Nor the blinded shares, digests or the puzzle key.
            assert puzzle.puzzle_key not in surface
            for entry in puzzle.entries:
                assert entry.answer_digest not in surface
                assert entry.blinded_share not in surface

    def test_explain_shows_only_displayed_questions(self, service_and_attempts):
        service, attempt, puzzle = service_and_attempts
        exp = service.explain(attempt({"ctx_a": "totally wrong guess"}))
        leaf_labels = {n.label for n in exp.nodes if n.kind == "leaf"}
        assert leaf_labels == set(puzzle.questions)
        # A wrong answer is indistinguishable from no answer.
        assert exp.satisfied_leaves() == ()


class TestThrottledExplain:
    """Explain shares the Verify guess budget: it must not become an
    unthrottled answer-probing oracle."""

    def build(self, max_failures):
        storage = StorageHost()
        sharer = SharerC1("alice", storage)
        service = PuzzleServiceC1(max_failures=max_failures)
        policy = PuzzlePolicy.from_text(DEPTH3)
        puzzle = sharer.upload_policy(
            b"obj", Context.from_mapping(ANSWERS), policy
        )
        puzzle_id = service.store_puzzle(puzzle)
        displayed = service.display_puzzle(puzzle_id)
        receiver = ReceiverC1("mallory", storage)

        def attempt(known):
            return receiver.answer_puzzle(displayed, Context.from_mapping(known))

        return service, attempt

    def test_denied_explains_charge_the_budget_until_lockout(self):
        from repro.core.throttle import ThrottledError

        service, attempt = self.build(max_failures=2)
        bad = attempt({"ctx_a": "wrong"})
        for _ in range(2):
            exp = service.explain(bad, requester="mallory")
            assert not exp.granted
        with pytest.raises(ThrottledError):
            service.explain(bad, requester="mallory")
        # The shared budget also locks out Verify itself.
        with pytest.raises(ThrottledError):
            service.verify(bad, requester="mallory")

    def test_granted_explain_resets_the_budget(self):
        service, attempt = self.build(max_failures=2)
        good = attempt(
            {
                "scope:group/trip": "trip-roster-secret",
                "attr:escrow": "escrow-credential",
            }
        )
        bad = attempt({"ctx_b": "nope"})
        assert not service.explain(bad, requester="bob").granted
        assert service.explain(good, requester="bob").granted
        # Success cleared the strike; the next failure is strike one again.
        assert not service.explain(bad, requester="bob").granted
        assert not service.explain(bad, requester="bob").granted
