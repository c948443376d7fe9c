"""Tests for the metered application clients."""

from __future__ import annotations

import pytest

from repro.apps.clients import (
    PAPER_I2_FILE_SIZES,
    SocialPuzzleAppC1,
    SocialPuzzleAppC2,
)
from repro.core.errors import AccessDeniedError, PuzzleParameterError
from repro.crypto.params import TOY
from repro.osn.provider import ServiceProvider
from repro.osn.storage import StorageHost
from repro.sim.devices import PC, TABLET


@pytest.fixture()
def osn():
    sp = ServiceProvider()
    dh = StorageHost()
    alice = sp.register_user("alice")
    bob = sp.register_user("bob")
    sp.befriend(alice, bob)
    return sp, dh, alice, bob


class TestAppC1:
    def test_share_and_access(self, osn, party_context, secret_object):
        sp, dh, alice, bob = osn
        app = SocialPuzzleAppC1(sp, dh)
        share = app.share(alice, secret_object, party_context, k=2)
        result = app.attempt_access(bob, share.puzzle_id, party_context)
        assert result.plaintext == secret_object

    def test_timing_populated(self, osn, party_context, secret_object):
        sp, dh, alice, bob = osn
        app = SocialPuzzleAppC1(sp, dh)
        share = app.share(alice, secret_object, party_context, k=2)
        assert share.timing.local_s > 0
        assert share.timing.network_s > 0
        assert share.timing.bytes_transferred() > 0
        result = app.attempt_access(bob, share.puzzle_id, party_context)
        assert result.timing.local_s > 0
        assert result.timing.network_s > 0

    def test_post_created_with_link_text(self, osn, party_context, secret_object):
        sp, dh, alice, bob = osn
        app = SocialPuzzleAppC1(sp, dh)
        share = app.share(alice, secret_object, party_context, k=2)
        feed = sp.feed(bob)
        assert any(p.post_id == share.post.post_id for p in feed)
        assert "social-puzzle" in share.post.content

    def test_denied_below_threshold(self, osn, party_context, secret_object):
        sp, dh, alice, bob = osn
        app = SocialPuzzleAppC1(sp, dh)
        share = app.share(alice, secret_object, party_context, k=2)
        with pytest.raises(AccessDeniedError):
            app.attempt_access(bob, share.puzzle_id, party_context.take(1))

    def test_tablet_device_allowed_and_slower(self, osn, party_context, secret_object):
        sp, dh, alice, bob = osn
        app = SocialPuzzleAppC1(sp, dh)
        # Take the best of three runs per device so a GC pause in one
        # measured run cannot flip the 4.5x device-scale comparison.
        pc_local = min(
            app.share(alice, secret_object, party_context, k=2, device=PC)
            .timing.local_s
            for _ in range(3)
        )
        tablet_local = min(
            app.share(alice, secret_object, party_context, k=2, device=TABLET)
            .timing.local_s
            for _ in range(3)
        )
        assert tablet_local > pc_local
        # Network costs are modelled, hence deterministic.
        share_pc = app.share(alice, secret_object, party_context, k=2, device=PC)
        share_tablet = app.share(alice, secret_object, party_context, k=2, device=TABLET)
        assert share_tablet.timing.network_s > share_pc.timing.network_s

    def test_service_registered_on_provider(self, osn):
        sp, dh, _, _ = osn
        app = SocialPuzzleAppC1(sp, dh)
        assert sp.service(SocialPuzzleAppC1.SERVICE_NAME) is app.service


class TestAppC2:
    def test_share_and_access(self, osn, party_context, secret_object):
        sp, dh, alice, bob = osn
        app = SocialPuzzleAppC2(sp, dh, TOY)
        share = app.share(alice, secret_object, party_context, k=2)
        result = app.attempt_access(bob, share.puzzle_id, party_context)
        assert result.plaintext == secret_object

    def test_tablet_rejected(self, osn, party_context, secret_object):
        sp, dh, alice, _ = osn
        app = SocialPuzzleAppC2(sp, dh, TOY)
        with pytest.raises(PuzzleParameterError):
            app.share(alice, secret_object, party_context, k=2, device=TABLET)

    def test_four_uploads_logged(self, osn, party_context, secret_object):
        sp, dh, alice, _ = osn
        app = SocialPuzzleAppC2(sp, dh, TOY)
        link = PC.default_link()
        app.share(alice, secret_object, party_context, k=2, link=link)
        uploads = [t for t in link.log if t.direction == "up"]
        # 4 cpabe files + the profile post.
        assert len(uploads) == 5

    def test_paper_file_size_model(self, osn, party_context, secret_object):
        sp, dh, alice, bob = osn
        app = SocialPuzzleAppC2(sp, dh, TOY, file_size_model="paper")
        share = app.share(alice, secret_object, party_context, k=2)
        total = sum(PAPER_I2_FILE_SIZES.values())
        assert share.timing.bytes_transferred() >= total
        result = app.attempt_access(bob, share.puzzle_id, party_context)
        assert result.plaintext == secret_object

    def test_actual_model_much_smaller(self, osn, party_context, secret_object):
        sp, dh, alice, _ = osn
        app = SocialPuzzleAppC2(sp, dh, TOY, file_size_model="actual")
        share = app.share(alice, secret_object, party_context, k=2)
        assert share.timing.bytes_transferred() < 100_000

    def test_invalid_file_size_model(self, osn):
        sp, dh, _, _ = osn
        with pytest.raises(ValueError):
            SocialPuzzleAppC2(sp, dh, TOY, file_size_model="bogus")

    def test_denied_below_threshold(self, osn, party_context, secret_object):
        sp, dh, alice, bob = osn
        app = SocialPuzzleAppC2(sp, dh, TOY)
        share = app.share(alice, secret_object, party_context, k=3)
        with pytest.raises(AccessDeniedError):
            app.attempt_access(bob, share.puzzle_id, party_context.take(2))


class TestI1VsI2Shape:
    """The Figure 10(a) precondition at unit scale: with the paper's
    file footprint, I2's sharer network delay dwarfs I1's."""

    def test_network_delay_ordering(self, osn, party_context, secret_object):
        sp, dh, alice, _ = osn
        app1 = SocialPuzzleAppC1(sp, dh)
        app2 = SocialPuzzleAppC2(sp, dh, TOY, file_size_model="paper")
        share1 = app1.share(alice, secret_object, party_context, k=2)
        share2 = app2.share(alice, secret_object, party_context, k=2)
        assert share2.timing.network_s > 3 * share1.timing.network_s


class TestAtomicShare:
    """share() must fully publish or leave DH and SP exactly as found."""

    def _pre_state(self, sp, dh, app):
        return (
            dh.object_count(),
            len(sp._posts),
            app.service.puzzle_count()
            if hasattr(app.service, "puzzle_count")
            else None,
        )

    def test_c1_post_failure_rolls_back_everything(
        self, osn, party_context, secret_object
    ):
        from repro.core.errors import TransientProviderError
        from repro.osn.faults import FlakyServiceProvider

        sp = FlakyServiceProvider(post_failure_rate=1.0)
        dh = StorageHost()
        alice = sp.register_user("alice")
        app = SocialPuzzleAppC1(sp, dh)
        with pytest.raises(TransientProviderError):
            app.share(alice, secret_object, party_context, k=2)
        assert dh.object_count() == 0  # no orphaned blob
        assert len(sp._posts) == 0  # no half-published post
        assert app.service.puzzle_count() == 0  # no dangling registration

    def test_c1_store_failure_rolls_back_blob(self, party_context, secret_object):
        from repro.core.errors import TransientProviderError
        from repro.osn.faults import FlakyPuzzleService

        sp = ServiceProvider()
        dh = StorageHost()
        alice = sp.register_user("alice")
        app = SocialPuzzleAppC1(sp, dh)
        app.service = FlakyPuzzleService(app.service, store_failure_rate=1.0)
        with pytest.raises(TransientProviderError):
            app.share(alice, secret_object, party_context, k=2)
        assert dh.object_count() == 0
        assert len(sp._posts) == 0
        assert app.service.puzzle_count() == 0

    def test_c1_mid_publish_fault_restores_exact_pre_call_state(
        self, party_context, secret_object
    ):
        """The acceptance-criterion test: a successful share, then a
        failing one — the failing share leaves the DH blob set and the SP
        post/puzzle sets exactly as the pre-call snapshot."""
        from repro.core.errors import TransientProviderError
        from repro.osn.faults import FlakyServiceProvider

        sp = FlakyServiceProvider(post_failure_rate=0.0)
        dh = StorageHost()
        alice = sp.register_user("alice")
        app = SocialPuzzleAppC1(sp, dh)
        app.share(alice, secret_object, party_context, k=2)

        blobs_before = dict(dh._blobs)
        posts_before = dict(sp._posts)
        puzzles_before = dict(app.service._registrations)

        sp.post_failure_rate = 1.0
        with pytest.raises(TransientProviderError):
            app.share(alice, secret_object, party_context, k=2)

        assert dh._blobs == blobs_before
        assert sp._posts == posts_before
        assert app.service._registrations == puzzles_before

    def test_c2_post_failure_rolls_back_everything(
        self, party_context, secret_object
    ):
        from repro.core.errors import TransientProviderError
        from repro.osn.faults import FlakyServiceProvider

        sp = FlakyServiceProvider(post_failure_rate=1.0)
        dh = StorageHost()
        alice = sp.register_user("alice")
        app = SocialPuzzleAppC2(sp, dh, TOY)
        with pytest.raises(TransientProviderError):
            app.share(alice, secret_object, party_context, k=2)
        assert dh.object_count() == 0
        assert len(sp._posts) == 0
        assert app.service.puzzle_count() == 0

    def test_untyped_failures_surface_as_share_failed(
        self, osn, party_context, secret_object
    ):
        """A non-SocialPuzzleError mid-publish (here: a hosted-service
        bug) still rolls back and comes out typed."""
        from repro.core.errors import ShareFailedError

        sp, dh, alice, bob = osn
        app = SocialPuzzleAppC1(sp, dh)

        class Exploding:
            def __init__(self, wrapped):
                self.wrapped = wrapped

            def store_puzzle(self, puzzle):
                raise RuntimeError("disk full")

            def __getattr__(self, name):
                return getattr(self.wrapped, name)

        app.service = Exploding(app.service)
        with pytest.raises(ShareFailedError):
            app.share(alice, secret_object, party_context, k=2)
        assert dh.object_count() == 0
        assert len(sp._posts) == 0

    def test_share_retries_transient_publish_faults(
        self, party_context, secret_object
    ):
        """With a retry policy wired in, a partially-failing SP does not
        surface at all — the share just succeeds."""
        from repro.osn.faults import FlakyServiceProvider
        from repro.osn.resilience import RetryPolicy
        from repro.sim.metrics import ResilienceMetrics

        metrics = ResilienceMetrics()
        sp = FlakyServiceProvider(post_failure_rate=0.5, seed=3)
        dh = StorageHost()
        alice = sp.register_user("alice")
        app = SocialPuzzleAppC1(
            sp, dh, retry=RetryPolicy(max_attempts=8, metrics=metrics)
        )
        for _ in range(6):
            app.share(alice, secret_object, party_context, k=2)
        assert len(sp._posts) == 6
        assert dh.object_count() == 6
        assert metrics.retry_count("sp.post") > 0
