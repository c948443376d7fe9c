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

import copy
import random
from contextlib import ExitStack
from dataclasses import dataclass
from typing import Callable

from repro.apps.roles import RolesC1, RolesC2
from repro.core.construction1 import PuzzleServiceC1, SharerC1
from repro.core.construction2 import PuzzleServiceC2
from repro.core.context import Context
from repro.core.errors import (
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

    The flows size the meter from bytes already in hand. The share flow
    reads back what its sharer ``put`` through this view; the access
    flow fetches the encrypted object once, *before* handing control to
    the receiver, and preloads it here, so the receiver's own
    ``storage.get`` consumes that blob instead of paying a second fetch
    (over a cluster, a second quorum read). Everything else forwards to
    the real storage.
    """

    def __init__(self, storage):
        self._storage = storage
        self._blobs: dict[str, bytes] = {}

    def preload(self, url: str, data: bytes) -> None:
        self._blobs[url] = data

    def put(self, data: bytes) -> str:
        url = self._storage.put(data)
        self._blobs[url] = data
        return url

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


class _PuzzleAppBase:
    """The share, access and explain flows, written once for both
    prototype applications.

    The two implementations differ in cryptography and in what they ship
    to the SP; :mod:`repro.apps.roles` hides the first behind one roles
    object per construction, and three charge hooks (store, display,
    access) meter the second. Everything else — serializing SP-bound
    requests onto the message bus (where spans, retries and the audit
    trail attach), the atomic publish/rollback dance, device checks and
    the file-size model — lives here exactly once.

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
        roles: RolesC1 | RolesC2,
        service,
        transport: SecureTransport | None = None,
        retry: RetryPolicy | None = None,
        obs: Observability | None = None,
        file_size_model: str = "actual",
        engine: PuzzleProtocolEngine | None = None,
        bus: MessageBus | None = None,
    ):
        if file_size_model not in ("actual", "paper"):
            raise ValueError("file_size_model must be 'actual' or 'paper'")
        self.provider = provider
        self.storage = storage
        self.roles = roles
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
        # The retract-saga write-ahead log: puzzle_id -> (phase, url).
        # ``recover_retracts`` re-drives whatever a crash left here.
        self._pending_retracts: dict[int, tuple[str, str]] = {}
        # Chaos-test seam: called with the saga phase just reached
        # ("prepared" / "blob-deleted" / "committed"); raising from it
        # simulates the client dying between phases.
        self.retract_crash_hook: Callable[[str], None] | None = None
        self.service = service
        provider.host_service(self.SERVICE_NAME, service)

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
    def _share_policy(
        context: Context,
        k: int | None,
        n: int | None,
        policy: "str | PuzzlePolicy | None",
    ) -> PuzzlePolicy:
        """The access structure of :meth:`share`, as one policy.

        A string is parsed as a policy expression; a ready-made
        :class:`~repro.policy.PuzzlePolicy` passes through. A flat ``k``
        compiles to the degenerate policy ``k of (q_1, ..., q_n)`` over
        the first ``n`` context questions (all of them by default), which
        both constructions turn into the paper's flat artifact.
        """
        if (policy is None) == (k is None):
            raise PuzzleParameterError("share() needs exactly one of k= or policy=")
        if isinstance(policy, PuzzlePolicy):
            return policy
        if policy is not None:
            return PuzzlePolicy.from_text(policy)
        n = len(context) if n is None else n
        if not 0 < n <= len(context):
            raise PuzzleParameterError(
                "puzzle needs 0 < n <= %d context pairs, got n=%d" % (len(context), n)
            )
        return PuzzlePolicy.from_k_of_n(k, context.questions[:n])

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

    def _session(
        self, device: DeviceProfile, link: NetworkLink | None
    ) -> tuple[CostMeter, int]:
        """A fresh meter, after the secure-channel handshake when the app
        has a transport; returns it with the per-record byte overhead."""
        meter = CostMeter(device, link if link is not None else device.default_link())
        overhead = self.transport.open_session(meter) if self.transport else 0
        return meter, overhead

    # -- the flows -----------------------------------------------------------------
    #
    # Subclasses supply the meter labels of their two crypto steps
    # (``SHARER_CRYPTO``, ``RECOVER_CRYPTO``) and three charge hooks:
    # ``_charge_store`` (the upload), ``_charge_display`` (the question
    # page) and ``_charge_access`` (the SP's reply and the object).

    def _sharer(self, user: User, storage):
        return self.roles.sharer(user.name, storage)

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
        Shares given ``policy=`` additionally register the canonical
        policy text with the SP (the SharePolicy verb) so Explain can
        echo it.
        """
        compiled = self._share_policy(context, k, n, policy)
        self._check_device(device)
        with ExitStack() as scope:
            root = _enter_journey(
                self.obs,
                scope,
                "c%d.share" % self.construction,
                k=compiled.root_threshold,
                n=len(compiled.questions),
            )
            meter, overhead = self._session(device, link)
            view = _PrefetchedStorage(self.storage)
            sharer = self._sharer(user, view)
            with maybe_span("sharer.crypto"), meter.measure(self.SHARER_CRYPTO):
                artifact = self.roles.upload(sharer, obj, context, compiled)

            # The encrypted object is on the DH now. From here on the share
            # is atomic: any failure before the profile post lands rolls
            # back every published artifact and raises a typed error.
            def store() -> int:
                encrypted = view.get(artifact.url)  # the bytes just put
                self._charge_store(meter, artifact, encrypted, overhead)
                puzzle_id = self.roles.store(self.client, artifact)
                if policy is not None:
                    self._attach_policy(puzzle_id, compiled, meter, overhead)
                return puzzle_id

            puzzle_id, post = self._publish_atomically(
                user, artifact.url, audience, meter, overhead, store
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
        """The receiver flow; raises AccessDeniedError below threshold.

        ``rng`` fixes the question subset a C1 display draws; C2 displays
        every question and ignores it.
        """
        self._check_device(device)
        with ExitStack() as scope:
            _enter_journey(
                self.obs, scope, "c%d.access" % self.construction, puzzle_id=puzzle_id
            )
            meter, overhead = self._session(device, link)
            prefetched = _PrefetchedStorage(self.storage)
            receiver = self.roles.receiver(viewer.name, prefetched)

            displayed = self.roles.display(self.client, puzzle_id, rng)
            self._charge_display(meter, displayed, overhead)

            with maybe_span("receiver.answer"), meter.measure(
                "receiver crypto (hash answers)"
            ):
                answers = receiver.answer_puzzle(displayed, knowledge)
            meter.charge_upload("submit hashed answers", answers.byte_size() + overhead)

            reply = self.roles.submit(self.client, answers, viewer.name)
            encrypted = self.storage.get(reply.url)
            prefetched.preload(reply.url, encrypted)
            self._charge_access(meter, reply, encrypted, overhead)
            with maybe_span("receiver.recover"), meter.measure(self.RECOVER_CRYPTO):
                plaintext = self.roles.recover(receiver, reply, displayed, knowledge)
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
            _enter_journey(
                self.obs, scope, "c%d.explain" % self.construction, puzzle_id=puzzle_id
            )
            receiver = self.roles.receiver(viewer.name, self.storage)
            displayed = self.roles.display(self.client, puzzle_id, rng)
            answers = receiver.answer_puzzle(displayed, knowledge)
            return self.roles.explain(self.client, answers, viewer.name)


class SocialPuzzleAppC1(_PuzzleAppBase):
    """Implementation 1: browser JavaScript + Shamir puzzles."""

    SERVICE_NAME = "social-puzzle-c1"
    construction = 1
    SHARER_CRYPTO = "sharer crypto (secret, shares, hashes, AES)"
    RECOVER_CRYPTO = "receiver crypto (unblind, interpolate, AES)"

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
    ):
        super().__init__(
            provider,
            storage,
            RolesC1(bls=bls),
            PuzzleServiceC1(
                audit=provider.audit, max_failures=throttle_max_failures
            ),
            transport=transport,
            retry=retry,
            obs=obs,
            engine=engine,
            bus=bus,
        )
        self._sharers: dict[int, SharerC1] = {}

    def _sharer(self, user: User, storage) -> SharerC1:
        """One sharer per user, so a user who signs puzzles keeps one BLS
        key pair; each share gets a copy bound to its storage view."""
        if user.user_id not in self._sharers:
            self._sharers[user.user_id] = self.roles.sharer(user.name, self.storage)
        sharer = copy.copy(self._sharers[user.user_id])
        sharer.storage = storage
        return sharer

    def _charge_store(self, meter: CostMeter, puzzle, encrypted, overhead) -> None:
        meter.charge_upload("store encrypted object on DH", len(encrypted) + overhead)
        meter.charge_upload("upload puzzle Z_O to SP", puzzle.byte_size() + overhead)

    def _charge_display(self, meter: CostMeter, displayed, overhead) -> None:
        meter.charge_download(
            "fetch puzzle page (questions)", displayed.byte_size() + overhead
        )

    def _charge_access(self, meter: CostMeter, release, encrypted, overhead) -> None:
        meter.charge_download(
            "receive released shares + URL", release.byte_size() + overhead
        )
        meter.charge_download("download encrypted object", len(encrypted) + overhead)


class SocialPuzzleAppC2(_PuzzleAppBase):
    """Implementation 2: Qt client + cpabe toolkit (here: our CP-ABE).

    Its transfers are the prototype's cURL files, each sized by the
    file-size model.
    """

    SERVICE_NAME = "social-puzzle-c2"
    construction = 2
    requires_cpabe_toolkit = True
    SHARER_CRYPTO = "sharer crypto (cpabe setup, encrypt, perturb)"
    RECOVER_CRYPTO = "receiver crypto (reconstruct, keygen, decrypt)"

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
    ):
        super().__init__(
            provider,
            storage,
            RolesC2(
                params,
                digestmod=digestmod,
                legacy_unperturbed_ciphertext=legacy_unperturbed_ciphertext,
            ),
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
        )

    def _charge_store(self, meter: CostMeter, record, encrypted, overhead) -> None:
        # Four cURL uploads, as in the prototype.
        sizes = {**record.file_sizes(), "message.txt.cpabe": len(encrypted)}
        for filename, actual in sizes.items():
            meter.charge_upload(
                "upload " + filename, self._file_size(filename, actual) + overhead
            )

    def _charge_display(self, meter: CostMeter, displayed, overhead) -> None:
        meter.charge_download(
            "download details.txt (questions)",
            self._file_size("details.txt", displayed.byte_size()) + overhead,
        )

    def _charge_access(self, meter: CostMeter, grant, encrypted, overhead) -> None:
        for filename, actual in (
            ("message.txt.cpabe", len(encrypted)),
            ("master_key", len(grant.mk_bytes)),
            ("pub_key", len(grant.pk_bytes)),
        ):
            meter.charge_download(
                "download " + filename, self._file_size(filename, actual) + overhead
            )
