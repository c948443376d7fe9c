"""The Facebook-application layer (paper section VII).

These classes mirror the paper's two prototype applications: a canvas app
hosted alongside the SP, client-side crypto in the sharer's and receiver's
browsers (Implementation 1) or Qt application (Implementation 2), and the
hyperlink post on the sharer's profile that leads receivers to the puzzle.

Every protocol step is metered (see :mod:`repro.sim.timing`) into the same
local-processing / network-delay split that the paper's Figure 10 plots:

* local processing — *measured* wall time of the real cryptography, scaled
  by the device profile;
* network delay — modelled per-request transfer costs charged against a
  :class:`~repro.osn.network.NetworkLink` using the *actual serialized
  sizes* of the protocol messages (or, for Implementation 2, optionally
  the paper prototype's observed ~600 KB four-file footprint — see
  :data:`PAPER_I2_FILE_SIZES`).
"""

from __future__ import annotations

import random
from contextlib import ExitStack
from dataclasses import dataclass
from typing import Callable

from repro.core.construction1 import (
    DisplayedPuzzle,
    PuzzleServiceC1,
    ReceiverC1,
    SharerC1,
)
from repro.core.construction2 import (
    DisplayedPuzzleC2,
    PuzzleServiceC2,
    ReceiverC2,
    SharerC2,
)
from repro.core.context import Context
from repro.core.errors import (
    AccessDeniedError,
    PuzzleParameterError,
    ShareFailedError,
    SocialPuzzleError,
)
from repro.crypto.bls import BlsScheme
from repro.crypto.ec import CurveParams
from repro.obs import Observability
from repro.obs.events import Label
from repro.obs.runtime import emit_event, maybe_span, use as use_observer
from repro.osn.network import NetworkLink
from repro.osn.provider import Post, ServiceProvider, User
from repro.osn.resilience import RetryPolicy
from repro.osn.securechannel import ChannelClient, ChannelServer
from repro.osn.storage import StorageHost
from repro.policy import Explanation, PuzzlePolicy
from repro.proto.bus import MessageBus
from repro.proto.client import ProtocolClient
from repro.proto.engine import PuzzleProtocolEngine
from repro.proto.frontends import StorageFrontend
from repro.sim.devices import PC, DeviceProfile
from repro.sim.timing import CostMeter, TimingBreakdown

__all__ = [
    "ShareResult",
    "AccessResult",
    "SecureTransport",
    "SocialPuzzleAppC1",
    "SocialPuzzleAppC2",
    "PAPER_I2_FILE_SIZES",
]


def _enter_journey(obs: Observability | None, scope: ExitStack, name: str, **attributes):
    """Open a root span for one user journey, activating ``obs`` so every
    instrumentation point underneath (substrate spans, retry events,
    profiled crypto) reports into the same hub. Returns the root span, or
    ``None`` when the app is uninstrumented."""
    if obs is None:
        return None
    scope.enter_context(use_observer(obs))
    return scope.enter_context(obs.span(name, **attributes))


# Per-record framing added by the secure channel: sequence number + HMAC tag.
_RECORD_OVERHEAD = 8 + 32


class SecureTransport:
    """The paper's HTTPS hop, as a real protocol with real costs.

    Section VII: "all communications between users and our application on
    Amazon EC2 is carried over HTTPS". When an app is given a
    SecureTransport, every protocol flow first runs an actual
    station-to-station handshake (ECDH on the type-A curve + a BLS server
    signature — measured as local crypto and charged as handshake bytes)
    and every subsequent request pays the record-layer framing overhead.
    """

    def __init__(self, params: CurveParams, bls: BlsScheme | None = None):
        self.params = params
        self.bls = bls if bls is not None else BlsScheme(params)
        self.server_identity = self.bls.keygen()

    def open_session(self, meter: CostMeter) -> int:
        """Run a real handshake metered on ``meter``; returns the
        per-record byte overhead callers must add to each request."""
        with meter.measure("secure-channel handshake (ECDH + BLS)"):
            client = ChannelClient(self.params, self.bls)
            server = ChannelServer(self.params, self.bls, self.server_identity)
            server_hello, _, _ = server.respond(client.hello())
            client.finish(server_hello, self.server_identity.public)
        point_len = len(self.bls.generator.to_bytes())
        meter.charge_upload("secure-channel client hello", point_len)
        meter.charge_download("secure-channel server hello", 2 * point_len)
        return _RECORD_OVERHEAD

# The paper reports "four different CP-ABE related files (total ~600KB)"
# uploaded per share by Implementation 2 through cURL. Our own encodings
# are far more compact; this table reproduces the prototype's footprint
# when file_size_model="paper" (see DESIGN.md, substitutions).
PAPER_I2_FILE_SIZES = {
    "details.txt": 20_000,
    "pub_key": 150_000,
    "master_key": 140_000,
    "message.txt.cpabe": 290_000,
}

_POST_BYTES = 256  # the hyperlink post placed on the sharer's profile


class _PrefetchedStorage:
    """A storage view that answers known URLs from memory.

    The access flows fetch the encrypted object *before* handing control
    to the receiver, so the meter is sized from bytes in hand: the
    serial flows with one storage read, the batched flows over the DH
    wire plane (one :class:`~repro.proto.messages.BatchRequest` round
    trip). This view lets the receiver's own ``storage.get`` consume
    that already-transferred blob instead of paying a second fetch
    (over a cluster, a second quorum read). Everything else forwards to
    the real storage.
    """

    def __init__(self, storage):
        self._storage = storage
        self._blobs: dict[str, bytes] = {}

    def preload(self, url: str, data: bytes) -> None:
        self._blobs[url] = data

    def get(self, url: str) -> bytes:
        data = self._blobs.get(url)
        return data if data is not None else self._storage.get(url)

    def __getattr__(self, name: str):
        return getattr(self._storage, name)


@dataclass(frozen=True)
class ShareResult:
    """Outcome of a share operation."""

    post: Post
    puzzle_id: int
    timing: TimingBreakdown


@dataclass(frozen=True)
class AccessResult:
    """Outcome of a (successful) access attempt."""

    plaintext: bytes
    timing: TimingBreakdown


def _meter(device: DeviceProfile, link: NetworkLink | None) -> CostMeter:
    return CostMeter(device, link if link is not None else device.default_link())


class _PuzzleAppBase:
    """Orchestration shared by both prototype applications.

    The two implementations differ in cryptography and in what they ship
    to the SP, but the surrounding machinery — serializing SP-bound
    requests onto the message bus (where spans, retries and the audit
    trail attach), the atomic publish/rollback dance, device checks and
    the file-size model — is identical, so it lives here exactly once.

    Every SP interaction travels as a wire frame through a
    :class:`~repro.proto.client.ProtocolClient` over a
    :class:`~repro.proto.bus.MessageBus` into the
    :class:`~repro.proto.engine.PuzzleProtocolEngine`; apps hold no
    direct reference into the puzzle state machines. Pass ``engine`` /
    ``bus`` to share one protocol plane between apps (the platform
    does); standalone apps build their own.
    """

    SERVICE_NAME = "social-puzzle"
    construction = 0
    requires_cpabe_toolkit = False

    def __init__(
        self,
        provider: ServiceProvider,
        storage: StorageHost,
        service,
        transport: SecureTransport | None = None,
        retry: RetryPolicy | None = None,
        obs: Observability | None = None,
        file_size_model: str = "actual",
        engine: PuzzleProtocolEngine | None = None,
        bus: MessageBus | None = None,
        dh_bus: MessageBus | None = None,
    ):
        if file_size_model not in ("actual", "paper"):
            raise ValueError("file_size_model must be 'actual' or 'paper'")
        self.provider = provider
        self.storage = storage
        self.transport = transport
        self.retry = retry
        self.obs = obs
        self.file_size_model = file_size_model
        self._engine = (
            engine if engine is not None else PuzzleProtocolEngine(provider, storage)
        )
        self.bus = (
            bus if bus is not None else MessageBus(self._engine, audit=provider.audit)
        )
        self.client = ProtocolClient(self.bus, retry=retry)
        self._dh_bus = dh_bus
        self._dh_client: ProtocolClient | None = None
        # The retract-saga write-ahead log: puzzle_id -> (phase, url).
        # ``recover_retracts`` re-drives whatever a crash left here.
        self._pending_retracts: dict[int, tuple[str, str]] = {}
        # Chaos-test seam: called with the saga phase just reached
        # ("prepared" / "blob-deleted" / "committed"); raising from it
        # simulates the client dying between phases.
        self.retract_crash_hook: Callable[[str], None] | None = None
        self.service = service
        provider.host_service(self.SERVICE_NAME, service)

    # -- the DH wire plane -------------------------------------------------------

    @property
    def dh_bus(self) -> MessageBus:
        """The data-host wire plane, built lazily when first needed.

        Deliberately a *separate* bus from the SP plane, with no audit
        trail attached: DH traffic is exactly what the curious SP must
        not see. A quorum cluster gets its batching frontend so member
        gets fan across the ring; a plain host gets the generic storage
        frontend.
        """
        if self._dh_bus is None:
            if hasattr(self.storage, "ring"):
                from repro.cluster import ClusterStorageFrontend

                frontend: StorageFrontend = ClusterStorageFrontend(self.storage)
            else:
                frontend = StorageFrontend(self.storage)
            self._dh_bus = MessageBus(frontend)
        return self._dh_bus

    @property
    def dh_client(self) -> ProtocolClient:
        """Typed client over :attr:`dh_bus` (batched share fetches)."""
        if self._dh_client is None:
            self._dh_client = ProtocolClient(self.dh_bus, retry=self.retry)
        return self._dh_client

    # -- the construction backend ------------------------------------------------

    @property
    def service(self):
        """The puzzle service backing this app's construction."""
        return self._service

    @service.setter
    def service(self, value) -> None:
        """Swapping the service re-registers the engine backend, so
        fault-injecting proxies wrapped around a live service (the chaos
        harness does this) take effect on the wire path immediately."""
        self._service = value
        if self.construction in (1, 2):
            self._engine.register_backend(self.construction, value)

    # -- atomic publish ----------------------------------------------------------

    def _remove_registration(self, puzzle_id: int) -> bool:
        return self.client.retract(self.construction, puzzle_id)

    def _rollback_share(self, url: str, puzzle_id: int | None) -> None:
        """Undo a partially published share: puzzle registration first
        (so no live registration ever points at a deleted blob), then the
        blob itself."""
        emit_event(
            "share.rollback",
            construction=self.construction,
            url=Label(url),
            puzzle_id=puzzle_id if puzzle_id is not None else -1,
        )
        if puzzle_id is not None:
            self._remove_registration(puzzle_id)
        self.storage.delete(url)

    # -- the two-phase retract saga ----------------------------------------------

    def _saga_checkpoint(self, phase: str) -> None:
        if self.retract_crash_hook is not None:
            self.retract_crash_hook(phase)

    def retract_share(self, puzzle_id: int) -> bool:
        """Retract a published share atomically across both planes.

        The one-shot retract (``client.retract``) deletes the SP
        registration and leaves the DH blob to the caller; this saga
        extends the atomic-share contract to retraction: **no live
        registration may ever point at a deleted blob, and no retracted
        share may leave either artifact behind.** Three phases:

        1. *prepare* (SP): the registration moves into the retracting
           set — display/verify stop serving it — and yields URL_O;
        2. *delete* (DH): the blob is tombstoned under the usual
           retry/quorum machinery; a failure here **aborts**, restoring
           the registration unchanged, and re-raises;
        3. *commit* (SP): the prepared registration is discarded.

        Every phase transition is journaled in ``_pending_retracts``;
        :meth:`recover_retracts` re-drives interrupted sagas forward
        (both remaining steps are idempotent), so a crash between any
        two phases leaves no orphaned registration and no orphaned blob
        once recovery runs. Returns whether a registration was removed.
        """
        with maybe_span(
            "retract.saga", construction=self.construction, puzzle_id=puzzle_id
        ):
            url = self.client.retract_prepare(self.construction, puzzle_id)
            self._pending_retracts[puzzle_id] = ("prepared", url)
            emit_event(
                "retract.prepared", puzzle_id=puzzle_id, url=Label(url)
            )
            self._saga_checkpoint("prepared")
            try:
                self.storage.delete(url)
            except Exception:
                # The DH plane refused: roll the SP plane back so the
                # share stays fully live, then surface the failure.
                self.client.retract_abort(self.construction, puzzle_id)
                self._pending_retracts.pop(puzzle_id, None)
                emit_event("retract.aborted", puzzle_id=puzzle_id)
                raise
            self._pending_retracts[puzzle_id] = ("blob-deleted", url)
            self._saga_checkpoint("blob-deleted")
            removed = self.client.retract_commit(self.construction, puzzle_id)
            self._pending_retracts.pop(puzzle_id, None)
            emit_event("retract.committed", puzzle_id=puzzle_id)
            self._saga_checkpoint("committed")
            return removed

    def recover_retracts(self) -> int:
        """Re-drive every journaled retract saga to completion.

        Once a retract was *prepared* the sharer's intent is recorded
        and recovery always rolls forward: re-delete the blob if the
        crash may have preceded the delete (tombstones make this
        idempotent), then commit. Returns the number of sagas completed.
        """
        completed = 0
        for puzzle_id in sorted(self._pending_retracts):
            phase, url = self._pending_retracts[puzzle_id]
            if phase == "prepared":
                self.storage.delete(url)
            self.client.retract_commit(self.construction, puzzle_id)
            del self._pending_retracts[puzzle_id]
            emit_event(
                "retract.recovered", puzzle_id=puzzle_id, phase=Label(phase)
            )
            completed += 1
        return completed

    def _post_text(self, user: User, puzzle_id: int) -> str:
        return (
            f"[social-puzzle] {user.name} shared a protected object — "
            f"solve puzzle #{puzzle_id} to view."
        )

    def _publish_atomically(
        self,
        user: User,
        url: str,
        audience: str,
        meter: CostMeter,
        overhead: int,
        store: Callable[[], int],
    ) -> tuple[int, Post]:
        """Run the publish steps (uploads + registration + profile post)
        atomically: any failure rolls back every published artifact and
        surfaces as a typed error."""
        puzzle_id: int | None = None
        try:
            puzzle_id = store()
            post = self.client.publish_post(
                user, self._post_text(user, puzzle_id), audience=audience
            )
            meter.charge_upload("post hyperlink on profile", _POST_BYTES + overhead)
        except Exception as exc:
            self._rollback_share(url, puzzle_id)
            if isinstance(exc, SocialPuzzleError):
                raise
            raise ShareFailedError("share rolled back: %s" % exc) from exc
        return puzzle_id, post

    # -- the policy plane ----------------------------------------------------------

    @staticmethod
    def _resolve_policy(
        policy: "str | PuzzlePolicy | None",
    ) -> PuzzlePolicy | None:
        """Normalize the ``policy=`` argument of :meth:`share`.

        A string is parsed as a policy expression; a ready-made
        :class:`~repro.policy.PuzzlePolicy` passes through. ``None``
        keeps the classic flat k-of-n path (a flat threshold *is* the
        degenerate policy ``k of (q_1, ..., q_n)`` — the explicit
        argument exists for gates the flat form cannot express).
        """
        if policy is None:
            return None
        if isinstance(policy, PuzzlePolicy):
            return policy
        return PuzzlePolicy.from_text(policy)

    def _attach_policy(
        self, puzzle_id: int, policy: PuzzlePolicy, meter: CostMeter, overhead: int
    ) -> None:
        """Ship the canonical policy text to the SP (SharePolicy verb) so
        Explain replies echo the sharer's own rendering. Runs inside the
        atomic-publish window: a failure rolls the whole share back."""
        self.client.share_policy(self.construction, puzzle_id, policy.text)
        meter.charge_upload(
            "attach policy text (SharePolicy)",
            len(policy.text.encode("utf-8")) + overhead,
        )

    # -- device / sizing models --------------------------------------------------

    def _check_device(self, device: DeviceProfile) -> None:
        if self.requires_cpabe_toolkit and not device.supports_cpabe_toolkit:
            raise PuzzleParameterError(
                "the cpabe toolkit is Linux/x86 only — Implementation 2 "
                "cannot run on %s (paper section VIII)" % device.name
            )

    def _file_size(self, filename: str, actual: int) -> int:
        if self.file_size_model == "paper":
            return PAPER_I2_FILE_SIZES[filename]
        return actual


class SocialPuzzleAppC1(_PuzzleAppBase):
    """Implementation 1: browser JavaScript + Shamir puzzles."""

    SERVICE_NAME = "social-puzzle-c1"
    construction = 1

    def __init__(
        self,
        provider: ServiceProvider,
        storage: StorageHost,
        bls: BlsScheme | None = None,
        transport: SecureTransport | None = None,
        throttle_max_failures: int | None = None,
        retry: RetryPolicy | None = None,
        obs: Observability | None = None,
        engine: PuzzleProtocolEngine | None = None,
        bus: MessageBus | None = None,
        dh_bus: MessageBus | None = None,
    ):
        self.bls = bls
        super().__init__(
            provider,
            storage,
            PuzzleServiceC1(
                audit=provider.audit, max_failures=throttle_max_failures
            ),
            transport=transport,
            retry=retry,
            obs=obs,
            engine=engine,
            bus=bus,
            dh_bus=dh_bus,
        )
        self._sharers: dict[int, SharerC1] = {}

    def _sharer_for(self, user: User) -> SharerC1:
        if user.user_id not in self._sharers:
            self._sharers[user.user_id] = SharerC1(user.name, self.storage, bls=self.bls)
        return self._sharers[user.user_id]

    def share(
        self,
        user: User,
        obj: bytes,
        context: Context,
        k: int | None = None,
        n: int | None = None,
        device: DeviceProfile = PC,
        link: NetworkLink | None = None,
        audience: str = "friends",
        policy: "str | PuzzlePolicy | None" = None,
    ) -> ShareResult:
        """The sharer flow: client-side crypto, upload, hyperlink post.

        Access structure: either the classic flat threshold ``k`` (of
        ``n`` questions drawn from ``context``) or a nested ``policy``
        expression / :class:`~repro.policy.PuzzlePolicy` — a flat ``k``
        is exactly the degenerate policy ``k of (q_1, ..., q_n)``.
        Nested shares additionally register the canonical policy text
        with the SP (the SharePolicy verb) so Explain can echo it.
        """
        nested = self._resolve_policy(policy)
        if (nested is None) == (k is None):
            raise PuzzleParameterError("share() needs exactly one of k= or policy=")
        n = len(context) if n is None else n
        with ExitStack() as scope:
            root = _enter_journey(
                self.obs,
                scope,
                "c1.share",
                k=k if k is not None else nested.root_threshold,
                n=n,
            )
            meter = _meter(device, link)
            overhead = self.transport.open_session(meter) if self.transport else 0
            sharer = self._sharer_for(user)

            with maybe_span("sharer.crypto"), meter.measure(
                "sharer crypto (secret, shares, hashes, AES)"
            ):
                if nested is not None:
                    puzzle = sharer.upload_policy(obj, context, nested)
                else:
                    puzzle = sharer.upload(obj, context, k, n)

            # The encrypted blob is on the DH now. From here on the share is
            # atomic: any failure before the profile post lands rolls back
            # every published artifact and raises a typed error.
            def store() -> int:
                encrypted_size = len(self.storage.get(puzzle.url))
                meter.charge_upload(
                    "store encrypted object on DH", encrypted_size + overhead
                )
                meter.charge_upload(
                    "upload puzzle Z_O to SP", puzzle.byte_size() + overhead
                )
                puzzle_id = self.client.store_puzzle(puzzle)
                if nested is not None:
                    self._attach_policy(puzzle_id, nested, meter, overhead)
                return puzzle_id

            puzzle_id, post = self._publish_atomically(
                user, puzzle.url, audience, meter, overhead, store
            )
            if root is not None:
                root.set("puzzle_id", puzzle_id)
            return ShareResult(post=post, puzzle_id=puzzle_id, timing=meter.report())

    def attempt_access(
        self,
        viewer: User,
        puzzle_id: int,
        knowledge: Context,
        device: DeviceProfile = PC,
        link: NetworkLink | None = None,
        rng: random.Random | None = None,
    ) -> AccessResult:
        """The receiver flow; raises AccessDeniedError below threshold."""
        with ExitStack() as scope:
            _enter_journey(self.obs, scope, "c1.access", puzzle_id=puzzle_id)
            meter = _meter(device, link)
            overhead = self.transport.open_session(meter) if self.transport else 0
            prefetched = _PrefetchedStorage(self.storage)
            receiver = ReceiverC1(viewer.name, prefetched, bls=self.bls)

            displayed: DisplayedPuzzle = self.client.display_puzzle_c1(
                puzzle_id, rng=rng
            )
            meter.charge_download(
                "fetch puzzle page (questions)", displayed.byte_size() + overhead
            )

            with maybe_span("receiver.answer"), meter.measure(
                "receiver crypto (hash answers)"
            ):
                answers = receiver.answer_puzzle(displayed, knowledge)
            meter.charge_upload("submit hashed answers", answers.byte_size() + overhead)

            release = self.client.submit_answers_c1(answers, viewer.name)
            meter.charge_download(
                "receive released shares + URL", release.byte_size() + overhead
            )

            encrypted = self.storage.get(release.url)
            prefetched.preload(release.url, encrypted)
            meter.charge_download(
                "download encrypted object", len(encrypted) + overhead
            )
            with maybe_span("receiver.recover"), meter.measure(
                "receiver crypto (unblind, interpolate, AES)"
            ):
                plaintext = receiver.access(release, displayed, knowledge)
            return AccessResult(plaintext=plaintext, timing=meter.report())

    def explain_access(
        self,
        viewer: User,
        puzzle_id: int,
        knowledge: Context,
        rng: random.Random | None = None,
    ) -> Explanation:
        """Ask the SP *why* this knowledge grants or denies — without
        receiving shares. Runs the display + answer steps exactly like
        :meth:`attempt_access`, then submits the hashed evidence on the
        Explain verb; a deny returns (never raises) so the receiver can
        read which gates failed. Throttled services charge denied
        explains against the shared verify budget.
        """
        with ExitStack() as scope:
            _enter_journey(self.obs, scope, "c1.explain", puzzle_id=puzzle_id)
            receiver = ReceiverC1(viewer.name, self.storage, bls=self.bls)
            displayed = self.client.display_puzzle_c1(puzzle_id, rng=rng)
            answers = receiver.answer_puzzle(displayed, knowledge)
            return self.client.explain_c1(answers, viewer.name)

    def attempt_access_batched(
        self,
        viewer: User,
        puzzle_id: int,
        knowledge: Context,
        device: DeviceProfile = PC,
        link: NetworkLink | None = None,
        rng: random.Random | None = None,
    ) -> AccessResult:
        """The receiver flow with one round trip per plane after display.

        Where :meth:`attempt_access` pays a round trip per protocol step,
        this flow submits the answers as one SP-plane
        :class:`~repro.proto.messages.BatchRequest` and fetches the
        released object over the DH plane as another — the metered
        transfers (and the cryptography) are identical, only the
        round-trip count changes.
        """
        with ExitStack() as scope:
            _enter_journey(self.obs, scope, "c1.access_batched", puzzle_id=puzzle_id)
            meter = _meter(device, link)
            overhead = self.transport.open_session(meter) if self.transport else 0
            prefetched = _PrefetchedStorage(self.storage)
            receiver = ReceiverC1(viewer.name, prefetched, bls=self.bls)

            displayed: DisplayedPuzzle = self.client.display_puzzle_c1(
                puzzle_id, rng=rng
            )
            meter.charge_download(
                "fetch puzzle page (questions)", displayed.byte_size() + overhead
            )

            with maybe_span("receiver.answer"), meter.measure(
                "receiver crypto (hash answers)"
            ):
                answers = receiver.answer_puzzle(displayed, knowledge)
            meter.charge_upload("submit hashed answers", answers.byte_size() + overhead)

            (release,) = self.client.submit_answers_c1_batched(
                [answers], viewer.name
            )
            meter.charge_download(
                "receive released shares + URL", release.byte_size() + overhead
            )

            (encrypted,) = self.dh_client.storage_get_many([release.url])
            prefetched.preload(release.url, encrypted)
            meter.charge_download("download encrypted object", len(encrypted) + overhead)
            with maybe_span("receiver.recover"), meter.measure(
                "receiver crypto (unblind, interpolate, AES)"
            ):
                plaintext = receiver.access(release, displayed, knowledge)
            return AccessResult(plaintext=plaintext, timing=meter.report())


class SocialPuzzleAppC2(_PuzzleAppBase):
    """Implementation 2: Qt client + cpabe toolkit (here: our CP-ABE)."""

    SERVICE_NAME = "social-puzzle-c2"
    construction = 2
    requires_cpabe_toolkit = True

    def __init__(
        self,
        provider: ServiceProvider,
        storage: StorageHost,
        params: CurveParams,
        digestmod: str = "sha1",
        file_size_model: str = "actual",
        legacy_unperturbed_ciphertext: bool = False,
        transport: SecureTransport | None = None,
        throttle_max_failures: int | None = None,
        retry: RetryPolicy | None = None,
        obs: Observability | None = None,
        engine: PuzzleProtocolEngine | None = None,
        bus: MessageBus | None = None,
        dh_bus: MessageBus | None = None,
    ):
        self.params = params
        self.digestmod = digestmod
        self.legacy_unperturbed_ciphertext = legacy_unperturbed_ciphertext
        super().__init__(
            provider,
            storage,
            PuzzleServiceC2(
                audit=provider.audit,
                digestmod=digestmod,
                max_failures=throttle_max_failures,
            ),
            transport=transport,
            retry=retry,
            obs=obs,
            file_size_model=file_size_model,
            engine=engine,
            bus=bus,
            dh_bus=dh_bus,
        )

    def share(
        self,
        user: User,
        obj: bytes,
        context: Context,
        k: int | None = None,
        n: int | None = None,
        device: DeviceProfile = PC,
        link: NetworkLink | None = None,
        audience: str = "friends",
        policy: "str | PuzzlePolicy | None" = None,
    ) -> ShareResult:
        """The sharer flow; ``policy=`` compiles a nested expression into
        the CP-ABE access tree (see :meth:`SocialPuzzleAppC1.share` for
        the flat-vs-nested contract, which is identical)."""
        nested = self._resolve_policy(policy)
        if (nested is None) == (k is None):
            raise PuzzleParameterError("share() needs exactly one of k= or policy=")
        self._check_device(device)
        with ExitStack() as scope:
            root = _enter_journey(
                self.obs,
                scope,
                "c2.share",
                k=k if k is not None else nested.root_threshold,
            )
            meter = _meter(device, link)
            overhead = self.transport.open_session(meter) if self.transport else 0
            sharer = SharerC2(
                user.name,
                self.storage,
                self.params,
                digestmod=self.digestmod,
                legacy_unperturbed_ciphertext=self.legacy_unperturbed_ciphertext,
            )

            with maybe_span("sharer.crypto"), meter.measure(
                "sharer crypto (cpabe setup, encrypt, perturb)"
            ):
                if nested is not None:
                    record, ct_bytes = sharer.upload_policy(obj, context, nested)
                else:
                    record, ct_bytes = sharer.upload(obj, context, k, n)

            # The ciphertext is on the DH now; publish fully or roll back.
            def store() -> int:
                # Four cURL uploads, as in the prototype.
                sizes = record.file_sizes()
                meter.charge_upload(
                    "upload details.txt",
                    self._file_size("details.txt", sizes["details.txt"]) + overhead,
                )
                meter.charge_upload(
                    "upload pub_key",
                    self._file_size("pub_key", sizes["pub_key"]) + overhead,
                )
                meter.charge_upload(
                    "upload master_key",
                    self._file_size("master_key", sizes["master_key"]) + overhead,
                )
                meter.charge_upload(
                    "upload message.txt.cpabe",
                    self._file_size("message.txt.cpabe", len(ct_bytes)) + overhead,
                )
                puzzle_id = self.client.store_upload(record)
                if nested is not None:
                    self._attach_policy(puzzle_id, nested, meter, overhead)
                return puzzle_id

            puzzle_id, post = self._publish_atomically(
                user, record.url, audience, meter, overhead, store
            )
            if root is not None:
                root.set("puzzle_id", puzzle_id)
            return ShareResult(post=post, puzzle_id=puzzle_id, timing=meter.report())

    def attempt_access(
        self,
        viewer: User,
        puzzle_id: int,
        knowledge: Context,
        device: DeviceProfile = PC,
        link: NetworkLink | None = None,
    ) -> AccessResult:
        self._check_device(device)
        with ExitStack() as scope:
            _enter_journey(self.obs, scope, "c2.access", puzzle_id=puzzle_id)
            meter = _meter(device, link)
            overhead = self.transport.open_session(meter) if self.transport else 0
            prefetched = _PrefetchedStorage(self.storage)
            receiver = ReceiverC2(
                viewer.name, prefetched, self.params, digestmod=self.digestmod
            )

            displayed: DisplayedPuzzleC2 = self.client.display_puzzle_c2(puzzle_id)
            meter.charge_download(
                "download details.txt (questions)",
                self._file_size("details.txt", displayed.byte_size()) + overhead,
            )

            with maybe_span("receiver.answer"), meter.measure(
                "receiver crypto (hash answers)"
            ):
                answers = receiver.answer_puzzle(displayed, knowledge)
            meter.charge_upload("submit hashed answers", answers.byte_size() + overhead)

            grant = self.client.submit_answers_c2(answers, viewer.name)

            ct_bytes = self.storage.get(grant.url)
            prefetched.preload(grant.url, ct_bytes)
            meter.charge_download(
                "download message.txt.cpabe",
                self._file_size("message.txt.cpabe", len(ct_bytes)) + overhead,
            )
            meter.charge_download(
                "download master_key",
                self._file_size("master_key", len(grant.mk_bytes)) + overhead,
            )
            meter.charge_download(
                "download pub_key",
                self._file_size("pub_key", len(grant.pk_bytes)) + overhead,
            )

            with maybe_span("receiver.recover"), meter.measure(
                "receiver crypto (reconstruct, keygen, decrypt)"
            ):
                plaintext = receiver.access(grant, knowledge)
            return AccessResult(plaintext=plaintext, timing=meter.report())

    def explain_access(
        self,
        viewer: User,
        puzzle_id: int,
        knowledge: Context,
    ) -> Explanation:
        """The C2 Explain flow; same contract as
        :meth:`SocialPuzzleAppC1.explain_access`."""
        with ExitStack() as scope:
            _enter_journey(self.obs, scope, "c2.explain", puzzle_id=puzzle_id)
            receiver = ReceiverC2(
                viewer.name, self.storage, self.params, digestmod=self.digestmod
            )
            displayed = self.client.display_puzzle_c2(puzzle_id)
            answers = receiver.answer_puzzle(displayed, knowledge)
            return self.client.explain_c2(answers, viewer.name)

    def attempt_access_batched(
        self,
        viewer: User,
        puzzle_id: int,
        knowledge: Context,
        device: DeviceProfile = PC,
        link: NetworkLink | None = None,
    ) -> AccessResult:
        """The receiver flow with one round trip per plane after display;
        see :meth:`SocialPuzzleAppC1.attempt_access_batched`."""
        self._check_device(device)
        with ExitStack() as scope:
            _enter_journey(self.obs, scope, "c2.access_batched", puzzle_id=puzzle_id)
            meter = _meter(device, link)
            overhead = self.transport.open_session(meter) if self.transport else 0
            prefetched = _PrefetchedStorage(self.storage)
            receiver = ReceiverC2(
                viewer.name, prefetched, self.params, digestmod=self.digestmod
            )

            displayed: DisplayedPuzzleC2 = self.client.display_puzzle_c2(puzzle_id)
            meter.charge_download(
                "download details.txt (questions)",
                self._file_size("details.txt", displayed.byte_size()) + overhead,
            )

            with maybe_span("receiver.answer"), meter.measure(
                "receiver crypto (hash answers)"
            ):
                answers = receiver.answer_puzzle(displayed, knowledge)
            meter.charge_upload("submit hashed answers", answers.byte_size() + overhead)

            (grant,) = self.client.submit_answers_c2_batched([answers], viewer.name)

            (ct_bytes,) = self.dh_client.storage_get_many([grant.url])
            prefetched.preload(grant.url, ct_bytes)
            meter.charge_download(
                "download message.txt.cpabe",
                self._file_size("message.txt.cpabe", len(ct_bytes)) + overhead,
            )
            meter.charge_download(
                "download master_key",
                self._file_size("master_key", len(grant.mk_bytes)) + overhead,
            )
            meter.charge_download(
                "download pub_key",
                self._file_size("pub_key", len(grant.pk_bytes)) + overhead,
            )

            with maybe_span("receiver.recover"), meter.measure(
                "receiver crypto (reconstruct, keygen, decrypt)"
            ):
                plaintext = receiver.access(grant, knowledge)
            return AccessResult(plaintext=plaintext, timing=meter.report())
