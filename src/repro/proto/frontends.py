"""Serve loops and per-substrate message frontends.

:func:`serve` is the one place a serialized request becomes a serialized
reply: decode, handle, and map *every* failure onto the wire — a frame
that cannot be decoded answers with a transient ``bad-message`` error
(resending an uncorrupted copy may well succeed), and handler exceptions
become :class:`~repro.proto.messages.ErrorReply` with their taxonomy
code. A dispatch frontend therefore never raises; bad input costs the
caller one round trip, not the server its loop.

``ProviderFrontend`` and ``StorageFrontend`` give the OSN substrates
their ``dispatch(bytes) -> bytes`` face; the puzzle state machines live
in :class:`~repro.proto.engine.PuzzleProtocolEngine`, which routes
substrate-bound messages here.
"""

from __future__ import annotations

from typing import Callable

from repro.core.errors import UnroutableMessageError
from repro.obs.runtime import count
from repro.proto.messages import (
    AckReply,
    BatchReply,
    BatchRequest,
    BefriendRequest,
    ErrorReply,
    FetchPostRequest,
    Message,
    PostReply,
    PublishPostRequest,
    RegisterUserRequest,
    StorageBoolReply,
    StorageDeleteRequest,
    StorageExistsRequest,
    StorageGetReply,
    StorageGetRequest,
    StoragePutReply,
    StoragePutRequest,
    UserReply,
    decode_message,
    encode_message,
)
from repro.util.codec import CodecError

__all__ = ["serve", "serve_batch", "ProviderFrontend", "StorageFrontend"]


def serve(request: bytes, handler: Callable[[Message], Message]) -> bytes:
    """Decode -> handle -> encode, never raising across the wire."""
    try:
        message = decode_message(request)
    except CodecError as exc:
        count("proto.bad_message")
        reply: Message = ErrorReply.from_exception(exc)
    else:
        try:
            reply = handler(message)
        except Exception as exc:
            count("proto.error_replies")
            reply = ErrorReply.from_exception(exc)
    return encode_message(reply)


def serve_batch(
    batch: BatchRequest, handler: Callable[[Message], Message]
) -> BatchReply:
    """Execute every member frame through :func:`serve`, in order.

    Member isolation is the contract: a malformed or failing member
    produces its own :class:`~repro.proto.messages.ErrorReply` frame in
    its reply slot while its siblings execute normally. Nested batches
    are refused per member with an ``unroutable`` error rather than
    recursing.
    """

    def member_handler(message: Message) -> Message:
        if isinstance(message, BatchRequest):
            raise UnroutableMessageError("batch members cannot be batches")
        return handler(message)

    count("proto.batch.requests")
    count("proto.batch.members", len(batch.frames))
    return BatchReply(
        frames=tuple(serve(frame, member_handler) for frame in batch.frames)
    )


class ProviderFrontend:
    """Wire face of a :class:`~repro.osn.provider.ServiceProvider`:
    profile posts and static-ACL reads."""

    def __init__(self, provider):
        self.provider = provider

    def handle(self, message: Message) -> Message:
        if isinstance(message, BatchRequest):
            return serve_batch(message, self.handle)
        if isinstance(message, PublishPostRequest):
            post = self.provider.post(
                message.author, message.content, audience=message.audience
            )
            return PostReply(post=post)
        if isinstance(message, FetchPostRequest):
            return PostReply(
                post=self.provider.get_post(message.viewer, message.post_id)
            )
        if isinstance(message, RegisterUserRequest):
            return UserReply(
                user=self.provider.register_user(message.name, dict(message.profile))
            )
        if isinstance(message, BefriendRequest):
            self.provider.befriend(message.a, message.b)
            return AckReply()
        raise UnroutableMessageError(
            "provider frontend cannot serve %s" % type(message).__name__
        )

    def dispatch(self, request: bytes) -> bytes:
        return serve(request, self.handle)


class StorageFrontend:
    """Wire face of a :class:`~repro.osn.storage.StorageHost` (DH)."""

    def __init__(self, storage):
        self.storage = storage

    def handle(self, message: Message) -> Message:
        if isinstance(message, BatchRequest):
            return serve_batch(message, self.handle)
        if isinstance(message, StoragePutRequest):
            return StoragePutReply(url=self.storage.put(message.data))
        if isinstance(message, StorageGetRequest):
            return StorageGetReply(data=self.storage.get(message.url))
        if isinstance(message, StorageExistsRequest):
            return StorageBoolReply(value=self.storage.exists(message.url))
        if isinstance(message, StorageDeleteRequest):
            return StorageBoolReply(value=self.storage.delete(message.url))
        raise UnroutableMessageError(
            "storage frontend cannot serve %s" % type(message).__name__
        )

    def dispatch(self, request: bytes) -> bytes:
        return serve(request, self.handle)
