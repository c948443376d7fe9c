"""A one-stop platform facade tying everything together.

``SocialPuzzlePlatform`` is what the examples (and most tests) use: it
stands up a simulated OSN provider, a storage host, and both puzzle
applications, and exposes the end-to-end user journey —

    platform = SocialPuzzlePlatform(params=SMALL)
    alice = platform.join("alice"); bob = platform.join("bob")
    platform.befriend(alice, bob)
    share = platform.share(alice, b"photos!", context, k=2)     # C1
    result = platform.solve(bob, share, knowledge)               # as bob

mirroring the paper's demo: the sharer fills the HTML form, the app posts
a hyperlink, friends click it, answer questions, and read the object.
"""

from __future__ import annotations

import random

from repro.apps.clients import (
    AccessResult,
    SecureTransport,
    ShareResult,
    SocialPuzzleAppC1,
    SocialPuzzleAppC2,
)
from repro.core.context import Context
from repro.crypto.bls import BlsScheme
from repro.crypto.ec import CurveParams
from repro.crypto.params import SMALL
from repro.obs import Observability
from repro.obs.runtime import use as use_observer
from repro.osn.network import NetworkLink
from repro.osn.provider import Post, ServiceProvider, User
from repro.osn.resilience import CircuitBreaker, ResilientStorageClient, RetryPolicy
from repro.osn.storage import StorageHost
from repro.proto.bus import MessageBus
from repro.proto.client import ProtocolClient
from repro.proto.engine import PuzzleProtocolEngine
from repro.sim.devices import PC, DeviceProfile

__all__ = ["SocialPuzzlePlatform"]


class SocialPuzzlePlatform:
    """Simulated OSN + storage + both social-puzzle applications.

    Resilience wiring: pass ``provider`` / ``storage`` to substitute
    fault-injecting substrates (:mod:`repro.osn.faults`), and a
    ``retry_policy`` (plus optional ``circuit_breaker``) to make every
    client journey retry transient faults. With a retry policy the
    storage host is wrapped in a
    :class:`~repro.osn.resilience.ResilientStorageClient` shared by both
    applications, and SP-bound requests (store / post / display / verify
    / post-ACL reads) run under the same policy. Backoff advances the
    policy's simulated clock — never wall time.

    Storage plane: ``cluster_nodes=N`` backs the DH with an N-node
    :class:`~repro.cluster.cluster.StorageCluster` (quorum reads/writes,
    read repair, hinted handoff) instead of a single ``StorageHost``;
    passing a ready-made cluster as ``storage`` works too — anything
    with a ``ring`` attribute gets the cluster wire frontend. The
    platform's ``cluster`` attribute exposes the cluster (or ``None``)
    for chaos control: ``platform.cluster.crash("dhc-n2")``.
    ``storage_engine="segment"`` puts the log-structured blob store
    (:mod:`repro.store`) under every cluster node instead of the dict
    reference engine — same wire plane, real durability.
    """

    def __init__(
        self,
        params: CurveParams = SMALL,
        signed_puzzles: bool = False,
        file_size_model: str = "actual",
        digestmod_c2: str = "sha1",
        secure_transport: bool = False,
        provider: ServiceProvider | None = None,
        storage: StorageHost | None = None,
        retry_policy: RetryPolicy | None = None,
        circuit_breaker: CircuitBreaker | None = None,
        throttle_max_failures: int | None = None,
        observability: Observability | None = None,
        cluster_nodes: int | None = None,
        degraded_reads: bool = False,
        storage_engine: str = "dict",
    ):
        self.obs = observability
        self.provider = provider if provider is not None else ServiceProvider()
        if cluster_nodes is not None and storage is not None:
            raise ValueError("pass either storage or cluster_nodes, not both")
        if storage_engine != "dict" and cluster_nodes is None:
            raise ValueError(
                "storage_engine selects the per-node blob engine and needs "
                "cluster_nodes (a single StorageHost has no engines)"
            )
        if cluster_nodes is not None:
            from repro.cluster import StorageCluster

            storage = StorageCluster(num_nodes=cluster_nodes, engine=storage_engine)
        base_storage = storage if storage is not None else StorageHost()
        self.cluster = base_storage if hasattr(base_storage, "ring") else None
        self.retry = retry_policy
        if retry_policy is not None or circuit_breaker is not None:
            self.storage: StorageHost = ResilientStorageClient(
                base_storage,
                retry=retry_policy,
                breaker=circuit_breaker,
                degraded_reads=degraded_reads,
            )
        else:
            self.storage = base_storage
        self.params = params
        self.bls = BlsScheme(params) if signed_puzzles else None
        self.transport = (
            SecureTransport(params, bls=self.bls) if secure_transport else None
        )
        # One protocol plane for the whole platform: both apps and the
        # ACL gate speak to the SP through the same engine and bus, so a
        # transport wrapper (or a chaos fault injector) on the bus sees
        # every SP-bound frame.
        storage_frontend = None
        if self.cluster is not None:
            from repro.cluster import ClusterStorageFrontend

            storage_frontend = ClusterStorageFrontend(
                self.storage, degraded_reads=degraded_reads
            )
        self.engine = PuzzleProtocolEngine(
            self.provider, self.storage, storage_frontend=storage_frontend
        )
        self.bus = MessageBus(self.engine, audit=self.provider.audit)
        self._client = ProtocolClient(self.bus, retry=retry_policy)
        self.app_c1 = SocialPuzzleAppC1(
            self.provider,
            self.storage,
            bls=self.bls,
            transport=self.transport,
            throttle_max_failures=throttle_max_failures,
            retry=retry_policy,
            obs=observability,
            engine=self.engine,
            bus=self.bus,
        )
        self.app_c2 = SocialPuzzleAppC2(
            self.provider,
            self.storage,
            params,
            digestmod=digestmod_c2,
            file_size_model=file_size_model,
            transport=self.transport,
            throttle_max_failures=throttle_max_failures,
            retry=retry_policy,
            obs=observability,
            engine=self.engine,
            bus=self.bus,
        )

    # -- membership ---------------------------------------------------------------

    def join(self, name: str, **profile: str) -> User:
        return self.provider.register_user(name, profile)

    def befriend(self, a: User, b: User) -> None:
        self.provider.befriend(a, b)

    # -- sharing ------------------------------------------------------------------

    def share(
        self,
        user: User,
        obj: bytes,
        context: Context,
        k: int | None = None,
        n: int | None = None,
        construction: int = 1,
        device: DeviceProfile = PC,
        link: NetworkLink | None = None,
        audience: str = "friends",
        policy: str | None = None,
    ) -> ShareResult:
        """Share under a flat threshold ``k`` or a nested ``policy``
        expression (exactly one of the two; a flat ``k`` is the
        degenerate policy ``k of (q_1, ..., q_n)``)."""
        app = self._app(construction)
        return app.share(
            user,
            obj,
            context,
            k,
            n=n,
            device=device,
            link=link,
            audience=audience,
            policy=policy,
        )

    def solve(
        self,
        viewer: User,
        share: ShareResult,
        knowledge: Context,
        construction: int = 1,
        device: DeviceProfile = PC,
        link: NetworkLink | None = None,
        rng: random.Random | None = None,
    ) -> AccessResult:
        """Attempt to solve a previously shared puzzle as ``viewer``.

        The viewer must be able to see the post (static ACL layer) before
        the puzzle is even displayed — the paper's two complementary
        access-control layers.
        """
        self._acl_gate(viewer, share)
        return self._app(construction).attempt_access(
            viewer, share.puzzle_id, knowledge, device=device, link=link, rng=rng
        )

    def explain(
        self,
        viewer: User,
        share: ShareResult,
        knowledge: Context,
        construction: int = 1,
        rng: random.Random | None = None,
    ):
        """Ask the SP why ``knowledge`` grants or denies ``share`` —
        the gate-by-gate derivation, never shares or answer material.
        The static ACL gate applies exactly as it does for
        :meth:`solve`."""
        self._acl_gate(viewer, share)
        return self._app(construction).explain_access(
            viewer, share.puzzle_id, knowledge, rng=rng
        )

    def retract(
        self, user: User, share: ShareResult, construction: int = 1
    ) -> bool:
        """Retract ``share`` atomically across the SP and DH planes via
        the two-phase saga (see ``_PuzzleAppBase.retract_share``)."""
        del user  # the sharer's device does the work; kept for symmetry
        return self._app(construction).retract_share(share.puzzle_id)

    def recover_retracts(self, construction: int = 1) -> int:
        """Roll forward retract sagas interrupted by a crash."""
        return self._app(construction).recover_retracts()

    def _acl_gate(self, viewer: User, share: ShareResult) -> None:
        """Check the static ACL layer: the viewer must see the post before
        the puzzle is displayed. The read travels the wire like every
        other SP interaction (retried under ``sp.get_post`` when a retry
        policy is wired); observed under ``acl.get_post`` when the
        platform carries an :class:`~repro.obs.Observability` hub."""

        def gate() -> None:
            self._client.get_post(viewer, share.post.post_id)

        if self.obs is None:
            gate()
            return
        with use_observer(self.obs), self.obs.span(
            "acl.get_post", post_id=share.post.post_id
        ):
            gate()

    def feed(self, viewer: User) -> list[Post]:
        return self.provider.feed(viewer)

    def _app(self, construction: int) -> SocialPuzzleAppC1 | SocialPuzzleAppC2:
        if construction == 1:
            return self.app_c1
        if construction == 2:
            return self.app_c2
        raise ValueError("construction must be 1 or 2, got %r" % construction)
