"""The cluster's wire face: the PR-3 envelope over quorum storage.

A :class:`ClusterStorageFrontend` serves exactly the storage messages a
single-host :class:`~repro.proto.frontends.StorageFrontend` serves —
same envelope, same message types, same
:class:`~repro.proto.messages.ErrorReply` taxonomy — so a
:class:`~repro.proto.client.ProtocolClient` or
:class:`~repro.osn.resilience.ResilientStorageClient` cannot tell (and
must not care) whether the DH behind the bus is one host or a quorum
cluster. Cluster-induced failures surface through the existing codes:
an unreachable quorum is a retryable ``transient-storage`` error, a
genuinely unknown URL a permanent ``storage`` one.

:class:`~repro.proto.messages.BatchRequest` is where the cluster
diverges from the generic frontend: the member
:class:`~repro.proto.messages.StorageGetRequest` frames all ride one
:meth:`~repro.cluster.cluster.StorageCluster.get_many`, which fans the
quorum consultations across the ring and charges the
:class:`~repro.osn.network.NetworkLink` once per *node* instead of once
per key. Member isolation is preserved: a malformed frame, a missing
key or an unreachable quorum each answer with their own per-member
``ErrorReply`` while the rest of the batch succeeds.
"""

from __future__ import annotations

from repro.core.errors import CircuitOpenError, UnroutableMessageError
from repro.obs.runtime import count
from repro.osn.faults import TransientStorageError
from repro.proto.frontends import StorageFrontend, serve_batch
from repro.proto.messages import (
    BatchReply,
    BatchRequest,
    ErrorReply,
    Message,
    StorageGetReply,
    StorageGetRequest,
    decode_message,
    encode_message,
)
from repro.util.codec import CodecError

__all__ = ["ClusterStorageFrontend"]


class ClusterStorageFrontend(StorageFrontend):
    """Wire face of a :class:`~repro.cluster.cluster.StorageCluster`.

    With ``degraded_reads=True`` a get whose quorum is unreachable (or
    whose resilience wrapper fails fast with an open circuit) falls back
    to the cluster's R=1 :meth:`~repro.cluster.cluster.StorageCluster.
    get_degraded` instead of surfacing the transient error — trading
    bounded staleness for availability, with the stale-risk serve
    counted under ``cluster.degraded_reads`` and queued for async read
    repair. Off by default: quorum semantics stay the contract unless a
    deployment opts into the trade.
    """

    def __init__(self, cluster, degraded_reads: bool = False):
        super().__init__(cluster)
        self.cluster = cluster
        self.degraded_reads = degraded_reads

    def _degraded_get(self, url: str) -> bytes:
        # ``cluster`` may be a resilient wrapper; getattr sees through it
        # (and deliberately bypasses its breaker — this is the one path
        # allowed to keep serving while the breaker cools down).
        return self.cluster.get_degraded(url)

    def handle(self, message: Message) -> Message:
        count("cluster.frontend.requests")
        if isinstance(message, BatchRequest):
            return self._handle_batch(message)
        if self.degraded_reads and isinstance(message, StorageGetRequest):
            try:
                return super().handle(message)
            except (TransientStorageError, CircuitOpenError):
                return StorageGetReply(data=self._degraded_get(message.url))
        return super().handle(message)

    def _handle_batch(self, batch: BatchRequest) -> Message:
        """Serve a batch, folding its gets into one cluster-wide read."""
        get_many = getattr(self.storage, "get_many", None)
        if get_many is None:
            # The backing store cannot batch (e.g. a resilience wrapper
            # without a passthrough): fall back to member-by-member.
            return serve_batch(batch, super().handle)

        count("proto.batch.requests")
        count("proto.batch.members", len(batch.frames))
        reply_frames: list[bytes | None] = [None] * len(batch.frames)
        decoded: list[Message | None] = []
        for index, frame in enumerate(batch.frames):
            try:
                decoded.append(decode_message(frame))
            except CodecError as exc:
                count("proto.bad_message")
                decoded.append(None)
                reply_frames[index] = encode_message(ErrorReply.from_exception(exc))

        get_indices = [
            index
            for index, message in enumerate(decoded)
            if isinstance(message, StorageGetRequest)
        ]
        if get_indices:
            results = get_many([decoded[index].url for index in get_indices])
            for index, result in zip(get_indices, results):
                if isinstance(result, Exception):
                    if self.degraded_reads and isinstance(
                        result, (TransientStorageError, CircuitOpenError)
                    ):
                        try:
                            result = self._degraded_get(decoded[index].url)
                        except Exception as exc:
                            result = exc
                if isinstance(result, Exception):
                    count("proto.error_replies")
                    reply_frames[index] = encode_message(
                        ErrorReply.from_exception(result)
                    )
                else:
                    reply_frames[index] = encode_message(
                        StorageGetReply(data=result)
                    )

        for index, message in enumerate(decoded):
            if reply_frames[index] is not None or message is None:
                continue
            try:
                if isinstance(message, BatchRequest):
                    raise UnroutableMessageError("batch members cannot be batches")
                reply = super().handle(message)
            except Exception as exc:
                count("proto.error_replies")
                reply = ErrorReply.from_exception(exc)
            reply_frames[index] = encode_message(reply)
        return BatchReply(frames=tuple(reply_frames))
