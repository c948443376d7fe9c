"""Tests for the SocialPuzzlePlatform facade."""

from __future__ import annotations

import pytest

from repro.apps.platform import SocialPuzzlePlatform
from repro.core.context import Context
from repro.core.errors import AccessDeniedError, PuzzleParameterError
from repro.crypto.params import TOY
from repro.osn.provider import OsnError
from repro.osn.storage import StorageHost


# A nested policy over three of the party_context questions.
_NESTED_POLICY = (
    "'Where was the party held?' and "
    "('Who brought the cake?' or 'Which song closed the night?')"
)


@pytest.fixture()
def platform():
    return SocialPuzzlePlatform(params=TOY)


@pytest.fixture()
def people(platform):
    alice = platform.join("alice", city="wichita")
    bob = platform.join("bob")
    carol = platform.join("carol")
    platform.befriend(alice, bob)
    return alice, bob, carol


class _CountingStorage(StorageHost):
    """A DH that counts object reads."""

    def __init__(self):
        super().__init__()
        self.gets = 0

    def get(self, url: str) -> bytes:
        self.gets += 1
        return super().get(url)


class TestSharing:
    @pytest.mark.parametrize("construction", [1, 2])
    def test_share_solve_roundtrip(
        self, platform, people, party_context, secret_object, construction
    ):
        alice, bob, _ = people
        share = platform.share(
            alice, secret_object, party_context, k=2, construction=construction
        )
        result = platform.solve(
            bob, share, party_context, construction=construction
        )
        assert result.plaintext == secret_object

    def test_partial_knowledge_with_deterministic_display(
        self, platform, people, party_context, secret_object
    ):
        import random

        alice, bob, _ = people
        share = platform.share(alice, secret_object, party_context, k=2)
        knowledge = party_context.take(2)
        # Find a display subset covering the receiver's two known answers.
        for seed in range(100):
            rng = random.Random(seed)
            probe = rng.randint(2, 4)
            if probe == 4:
                result = platform.solve(
                    bob, share, knowledge, rng=random.Random(seed)
                )
                assert result.plaintext == secret_object
                return
        pytest.fail("no seed displayed the full question set")

    def test_non_friend_blocked_by_acl(self, platform, people, party_context, secret_object):
        alice, _, carol = people
        share = platform.share(alice, secret_object, party_context, k=2)
        with pytest.raises(OsnError):
            platform.solve(carol, share, party_context)

    def test_public_audience_reaches_non_friends(
        self, platform, people, party_context, secret_object
    ):
        alice, _, carol = people
        share = platform.share(
            alice, secret_object, party_context, k=2, audience="public"
        )
        result = platform.solve(carol, share, party_context)
        assert result.plaintext == secret_object

    def test_friend_without_knowledge_denied(
        self, platform, people, party_context, secret_object
    ):
        alice, bob, _ = people
        share = platform.share(alice, secret_object, party_context, k=3)
        with pytest.raises(AccessDeniedError):
            platform.solve(bob, share, party_context.take(1))

    def test_feed_shows_puzzle_posts(self, platform, people, party_context, secret_object):
        alice, bob, _ = people
        share = platform.share(alice, secret_object, party_context, k=2)
        assert any(p.post_id == share.post.post_id for p in platform.feed(bob))

    @pytest.mark.parametrize(
        "access",
        [{}, {"k": 2, "policy": _NESTED_POLICY}, {"k": 2, "n": 5}],
        ids=["neither", "both", "n-beyond-context"],
    )
    @pytest.mark.parametrize("construction", [1, 2])
    def test_share_parameter_errors_publish_nothing(
        self, platform, people, party_context, secret_object, construction, access
    ):
        alice, _, _ = people
        with pytest.raises(PuzzleParameterError):
            platform.share(
                alice, secret_object, party_context, construction=construction,
                **access,
            )
        assert platform.storage.object_count() == 0

    def test_invalid_construction(self, platform, people, party_context, secret_object):
        alice, _, _ = people
        with pytest.raises(ValueError):
            platform.share(alice, secret_object, party_context, k=2, construction=3)


class TestDhReads:
    @pytest.mark.parametrize("construction", [1, 2])
    def test_share_reads_nothing_back(
        self, party_context, secret_object, construction
    ):
        """A share sizes the meter from the bytes its sharer just put, so
        it never reads the object back from the DH."""
        storage = _CountingStorage()
        platform = SocialPuzzlePlatform(params=TOY, storage=storage)
        alice = platform.join("alice")
        share = platform.share(
            alice, secret_object, party_context, k=2, construction=construction
        )
        (blob,) = storage._blobs.values()
        upload = {1: "store encrypted object on DH", 2: "upload message.txt.cpabe"}
        (charged,) = [
            r.num_bytes
            for r in share.timing.records
            if r.label == upload[construction]
        ]
        assert charged == len(blob)
        platform.share(
            alice,
            secret_object,
            party_context,
            construction=construction,
            policy=_NESTED_POLICY,
        )
        assert storage.gets == 0

    @pytest.mark.parametrize("flow", ["solve"])
    @pytest.mark.parametrize("construction", [1, 2])
    def test_one_object_read_per_access(
        self, party_context, secret_object, construction, flow
    ):
        """An access reads the encrypted object from the DH once: the app
        sizes the meter from the bytes it then hands the receiver."""
        storage = _CountingStorage()
        platform = SocialPuzzlePlatform(params=TOY, storage=storage)
        alice, bob = platform.join("alice"), platform.join("bob")
        platform.befriend(alice, bob)
        share = platform.share(
            alice, secret_object, party_context, k=2, construction=construction
        )
        storage.gets = 0
        result = getattr(platform, flow)(
            bob, share, party_context, construction=construction
        )
        assert result.plaintext == secret_object
        assert storage.gets == 1


class TestExplain:
    @pytest.mark.parametrize("construction", [1, 2])
    def test_explain_names_the_failed_gate(
        self, platform, people, party_context, secret_object, construction
    ):
        alice, bob, _ = people
        share = platform.share(
            alice,
            secret_object,
            party_context,
            construction=construction,
            policy=_NESTED_POLICY,
        )
        granted = platform.explain(
            bob, share, party_context, construction=construction
        )
        assert granted.granted
        partial = party_context.subset(
            ["Who brought the cake?", "Which song closed the night?"]
        )
        denied = platform.explain(bob, share, partial, construction=construction)
        assert not denied.granted
        assert "Where was the party held?" in denied.failed_leaves()
        with pytest.raises(AccessDeniedError):
            platform.solve(bob, share, partial, construction=construction)


class TestSignedPlatform:
    def test_signed_puzzles_flow(self, people_context=None):
        platform = SocialPuzzlePlatform(params=TOY, signed_puzzles=True)
        alice = platform.join("alice")
        bob = platform.join("bob")
        platform.befriend(alice, bob)
        context = Context.from_mapping(
            {"Where did we meet?": "the roastery", "What did we order?": "cortados"}
        )
        share = platform.share(alice, b"memo", context, k=1)
        result = platform.solve(bob, share, context)
        assert result.plaintext == b"memo"
        assert platform.bls is not None


class TestSurveillanceAudit:
    @pytest.mark.parametrize("construction", [1, 2])
    def test_provider_and_storage_blind(
        self, platform, people, party_context, secret_object, construction
    ):
        alice, bob, _ = people
        share = platform.share(
            alice, secret_object, party_context, k=2, construction=construction
        )
        platform.solve(bob, share, party_context, construction=construction)
        for pair in party_context:
            platform.provider.audit.assert_never_saw(pair.answer_bytes(), "answer")
            platform.storage.audit.assert_never_saw(pair.answer_bytes(), "answer")
        platform.provider.audit.assert_never_saw(secret_object, "object")
        platform.storage.audit.assert_never_saw(secret_object, "object")
