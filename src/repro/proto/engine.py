"""The unified puzzle protocol engine.

One server-side state machine for both constructions: store -> display
-> verify -> release/grant, plus retraction, the profile post and the
static-ACL read. The construction-specific behaviour lives entirely in
the registered *backend* (a ``PuzzleServiceC1`` for Shamir, a
``PuzzleServiceC2`` for CP-ABE, or any fault-injecting proxy around
one); the engine owns the message routing and the error mapping —
exactly once. Verify, Explain and retract reach every backend through
the same :class:`~repro.core.service.PuzzleService` surface: the engine
always passes the requester (the service decides whether a guess budget
applies) and never asks whether the backend is throttled or wrapped.

``dispatch(bytes) -> bytes`` is the only entry point. Everything a
client can do to a puzzle travels through it as a serialized message, so
sharding, batching or moving the SP out of process later is a transport
change, not a protocol change.

Thread-safety contract
======================

``dispatch`` is **reentrant**: the smart server (:mod:`repro.serve`)
calls it concurrently from many worker threads, one call per in-flight
request, with no external locking. The engine upholds this by holding
no per-request mutable state at all:

* routing is a *read-only* handler table built once in ``__init__``
  (``_route`` binds message classes to bound methods and never mutates
  afterwards);
* every value a request needs (decoded message, rng rebuilt from the
  wire state, backend lookup) lives on the stack of its own
  ``dispatch`` call;
* ``register_backend`` is a single GIL-atomic dict store — swapping a
  backend mid-flight is safe, with requests observing either the old or
  the new service, never a torn mix;
* mutable state *behind* the engine is the backends' problem, and the
  shipped services honour it: identifier allocation in
  ``PuzzleService`` and its guess budgets are lock-protected, the
  metrics registry takes an update lock, and the observability runtime
  keeps per-thread activation stacks.

The regression test ``tests/proto/test_engine_reentrancy.py``
interleaves two in-flight batches mid-member to pin this contract down.
"""

from __future__ import annotations

from repro.proto.envelope import peek_type
from repro.proto.frontends import ProviderFrontend, StorageFrontend, serve, serve_batch
from repro.proto.messages import (
    AnswerSubmission,
    BatchRequest,
    BefriendRequest,
    AckReply,
    DisplayPuzzleRequest,
    DisplayReplyC1,
    DisplayReplyC2,
    ExplainReply,
    ExplainRequest,
    FetchPostRequest,
    GrantReply,
    Message,
    PublishPostRequest,
    RegisterUserRequest,
    ReleaseReply,
    RetractAbortRequest,
    RetractCommitRequest,
    RetractPrepareReply,
    RetractPrepareRequest,
    RetractPuzzleRequest,
    RetractReply,
    SharePolicyRequest,
    StorageDeleteRequest,
    StorageExistsRequest,
    StorageGetRequest,
    StoragePutRequest,
    StorePuzzleRequest,
    StoreReply,
    StoreUploadRequest,
    rng_from_state,
)

__all__ = ["PuzzleProtocolEngine"]

# Frame types a pure-storage batch is made of; such a batch hands over to
# the storage frontend wholesale so a cluster can fan it out per node.
_STORAGE_FRAME_TYPES = frozenset(
    cls.TYPE
    for cls in (
        StoragePutRequest,
        StorageGetRequest,
        StorageExistsRequest,
        StorageDeleteRequest,
    )
)


class PuzzleProtocolEngine:
    """Owns the share/access state machines over construction backends."""

    def __init__(self, provider, storage, storage_frontend=None):
        self.provider = provider
        self.storage = storage
        self._backends: dict[int, object] = {}
        self._provider_frontend = ProviderFrontend(provider)
        # A caller may substitute the storage wire face (e.g. a
        # ClusterStorageFrontend when the DH is a quorum cluster); the
        # message surface must stay identical either way.
        self._storage_frontend = (
            storage_frontend
            if storage_frontend is not None
            else StorageFrontend(storage)
        )
        # The routing table: message class -> bound handler. Built once,
        # never mutated — concurrent dispatch calls only ever read it
        # (the reentrancy contract in the module docstring).
        self._route = {
            BatchRequest: self._handle_batch,
            StorePuzzleRequest: self._store_c1,
            StoreUploadRequest: self._store_c2,
            DisplayPuzzleRequest: self._display,
            AnswerSubmission: self._verify,
            SharePolicyRequest: self._share_policy,
            ExplainRequest: self._explain,
            RetractPuzzleRequest: self._retract,
            RetractPrepareRequest: self._retract_saga,
            RetractCommitRequest: self._retract_saga,
            RetractAbortRequest: self._retract_saga,
            # Substrate-bound messages route to the owning frontend, so
            # one bus serves the SP's whole surface.
            PublishPostRequest: self._provider_frontend.handle,
            FetchPostRequest: self._provider_frontend.handle,
            RegisterUserRequest: self._provider_frontend.handle,
            BefriendRequest: self._provider_frontend.handle,
        }

    # -- backend registry --------------------------------------------------------

    def register_backend(self, construction: int, service: object) -> None:
        """Attach (or replace) the service handling one construction.

        Re-registration is deliberate: tests and the chaos harness wrap a
        live service in fault-injecting proxies after construction.
        """
        if construction not in (1, 2):
            raise ValueError("construction must be 1 or 2, got %r" % construction)
        self._backends[construction] = service

    def backend(self, construction: int):
        try:
            return self._backends[construction]
        except KeyError:
            raise RuntimeError(
                "no backend registered for construction %d" % construction
            ) from None

    # -- the dispatch frontend ---------------------------------------------------

    def dispatch(self, request: bytes) -> bytes:
        """Serve one serialized request; never raises across the wire."""
        return serve(request, self.handle)

    def handle(self, message: Message) -> Message:
        handler = self._route.get(type(message))
        if handler is not None:
            return handler(message)
        # Everything else is storage-plane traffic (or unroutable, which
        # the storage frontend reports with the proper taxonomy code).
        return self._storage_frontend.handle(message)

    def _handle_batch(self, batch: BatchRequest) -> Message:
        """Execute a batch with per-member isolation.

        A batch made purely of storage frames is handed to the storage
        frontend wholesale, so a quorum-cluster frontend can fan the
        member gets across its nodes and charge the link once per node;
        mixed batches run member-by-member through the engine's own
        routing. Either way one bad member answers with its own
        :class:`~repro.proto.messages.ErrorReply` while the rest succeed.
        """
        if batch.frames and all(
            peek_type(frame) in _STORAGE_FRAME_TYPES for frame in batch.frames
        ):
            return self._storage_frontend.handle(batch)
        return serve_batch(batch, self.handle)

    # -- puzzle state machine ----------------------------------------------------

    def _store_c1(self, message: StorePuzzleRequest) -> Message:
        return StoreReply(puzzle_id=self.backend(1).store_puzzle(message.puzzle))

    def _store_c2(self, message: StoreUploadRequest) -> Message:
        return StoreReply(puzzle_id=self.backend(2).store_upload(message.record))

    def _display(self, message: DisplayPuzzleRequest) -> Message:
        backend = self.backend(message.construction)
        if message.construction == 1:
            rng = rng_from_state(message.rng_state)
            displayed = backend.display_puzzle(message.puzzle_id, rng=rng)
            return DisplayReplyC1(displayed=displayed)
        return DisplayReplyC2(displayed=backend.display_puzzle(message.puzzle_id))

    def _verify(self, message: AnswerSubmission) -> Message:
        backend = self.backend(message.construction)
        result = backend.verify(message.to_answers(), requester=message.requester)
        if message.construction == 1:
            return ReleaseReply(release=result)
        return GrantReply(grant=result)

    def _share_policy(self, message: SharePolicyRequest) -> Message:
        self.backend(message.construction).attach_policy(
            message.puzzle_id, message.policy_text
        )
        return AckReply()

    def _explain(self, message: ExplainRequest) -> Message:
        """Serve the grant/deny derivation for the submitted evidence;
        the requester travels exactly as for :class:`AnswerSubmission`,
        because explains share the verify guess budget."""
        backend = self.backend(message.construction)
        explanation = backend.explain(
            message.to_answers(), requester=message.requester
        )
        return ExplainReply(explanation=explanation)

    def _retract(self, message: RetractPuzzleRequest) -> Message:
        backend = self.backend(message.construction)
        return RetractReply(removed=backend.remove(message.puzzle_id))

    def _retract_saga(self, message: Message) -> Message:
        """The two-phase retract verbs; both backends implement the same
        ``prepare_retract`` / ``commit_retract`` / ``abort_retract``
        surface, so routing is construction-agnostic."""
        backend = self.backend(message.construction)
        if isinstance(message, RetractPrepareRequest):
            return RetractPrepareReply(url=backend.prepare_retract(message.puzzle_id))
        if isinstance(message, RetractCommitRequest):
            return RetractReply(removed=backend.commit_retract(message.puzzle_id))
        return RetractReply(removed=backend.abort_retract(message.puzzle_id))
