"""Typed client stubs over the message bus.

A :class:`ProtocolClient` turns method calls into wire frames and reply
frames back into domain objects. Each round trip runs under the same
span label and retry policy the apps used before the wire existed
(``sp.store_puzzle``, ``sp.verify``, ...), so traces, retry metrics and
backoff behaviour are indistinguishable from the pre-protocol layering —
only the transport changed.

Failure mapping is the inverse of
:meth:`~repro.proto.messages.ErrorReply.from_exception`: taxonomy-coded
errors re-raise as their original exception classes (keeping the
transient/permanent retry classification), a reply frame that cannot be
decoded raises :class:`~repro.core.errors.TransientNetworkError`, and an
unrecognized remote failure raises :class:`RemoteServiceError` — a plain
``RuntimeError`` and deliberately *not* a ``SocialPuzzleError``, so the
atomic-share path wraps it in ``ShareFailedError`` exactly as it would a
local untyped bug.
"""

from __future__ import annotations

import random

from repro.core.construction1 import DisplayedPuzzle, Puzzle, PuzzleAnswers, ShareRelease
from repro.core.construction2 import (
    AccessGrantC2,
    C2Upload,
    DisplayedPuzzleC2,
    PuzzleAnswersC2,
)
from repro.core.errors import TransientNetworkError
from repro.obs.runtime import maybe_span
from repro.osn.provider import Post, User
from repro.proto.messages import (
    AnswerSubmission,
    BatchReply,
    BatchRequest,
    BefriendRequest,
    DisplayPuzzleRequest,
    ErrorReply,
    ExplainRequest,
    FetchPostRequest,
    Message,
    PublishPostRequest,
    RegisterUserRequest,
    RetractAbortRequest,
    RetractCommitRequest,
    RetractPrepareRequest,
    RetractPuzzleRequest,
    SharePolicyRequest,
    StoragePutRequest,
    StorageDeleteRequest,
    StorageExistsRequest,
    StorageGetRequest,
    StorePuzzleRequest,
    StoreUploadRequest,
    decode_message,
    encode_message,
)
from repro.util.codec import CodecError

__all__ = ["ProtocolClient", "RemoteServiceError"]


class RemoteServiceError(RuntimeError):
    """An unrecognized failure reported by the remote side."""


class ProtocolClient:
    """Encode, dispatch, decode — with spans and retries per request."""

    def __init__(self, bus, retry=None):
        self.bus = bus
        self.retry = retry

    # -- the round trip ----------------------------------------------------------

    def _roundtrip(self, label: str, message: Message) -> Message:
        request = encode_message(message)

        def exchange() -> Message:
            raw = self.bus.dispatch(request)
            try:
                reply = decode_message(raw)
            except CodecError as exc:
                raise TransientNetworkError(
                    "reply frame corrupted in transit: %s" % exc
                ) from exc
            if isinstance(reply, ErrorReply):
                raise reply.to_exception()
            return reply

        with maybe_span(label):
            if self.retry is None:
                return exchange()
            return self.retry.call(exchange, label)

    # -- batched round trips -----------------------------------------------------

    def call_batch(
        self,
        label: str,
        messages: "list[Message] | tuple[Message, ...]",
        return_exceptions: bool = False,
    ) -> list:
        """Submit every message in ONE BatchRequest round trip.

        Returns the decoded member replies in request order. A failed
        member decodes to its taxonomy exception: with
        ``return_exceptions=True`` it is returned *in place* (so callers
        can act on partial success), otherwise the first member failure
        raises — after the whole batch executed server-side either way.
        The retry policy wraps only whole-batch transport failures;
        per-member errors are never retried here, since their siblings
        already committed.
        """
        reply = self._roundtrip(label, BatchRequest.of(*messages))
        if not isinstance(reply, BatchReply):
            raise RemoteServiceError(
                "expected BatchReply, got %s" % type(reply).__name__
            )
        if len(reply.frames) != len(messages):
            raise RemoteServiceError(
                "batch reply carries %d members for %d requests"
                % (len(reply.frames), len(messages))
            )
        results: list = []
        first_error: BaseException | None = None
        for frame in reply.frames:
            member: object
            try:
                decoded = decode_message(frame)
            except CodecError as exc:
                member = TransientNetworkError(
                    "batch member corrupted in transit: %s" % exc
                )
            else:
                if isinstance(decoded, ErrorReply):
                    member = decoded.to_exception()
                else:
                    member = decoded
            if first_error is None and isinstance(member, BaseException):
                first_error = member
            results.append(member)
        if first_error is not None and not return_exceptions:
            raise first_error
        return results

    def storage_get_many(
        self, urls: "list[str] | tuple[str, ...]", return_exceptions: bool = False
    ) -> list:
        """Fetch every URL in one round trip; see :meth:`call_batch` for
        the per-member failure contract."""
        replies = self.call_batch(
            "dh.get_many",
            [StorageGetRequest(url=url) for url in urls],
            return_exceptions=return_exceptions,
        )
        return [
            reply.data if isinstance(reply, Message) else reply for reply in replies
        ]

    # -- puzzle protocol ---------------------------------------------------------

    def store_puzzle(self, puzzle: Puzzle) -> int:
        reply = self._roundtrip("sp.store_puzzle", StorePuzzleRequest(puzzle=puzzle))
        return reply.puzzle_id

    def store_upload(self, record: C2Upload) -> int:
        reply = self._roundtrip("sp.store_upload", StoreUploadRequest(record=record))
        return reply.puzzle_id

    def display_puzzle_c1(
        self, puzzle_id: int, rng: random.Random | None = None
    ) -> DisplayedPuzzle:
        reply = self._roundtrip(
            "sp.display_puzzle",
            DisplayPuzzleRequest(
                construction=1,
                puzzle_id=puzzle_id,
                rng_state=rng.getstate() if rng is not None else None,
            ),
        )
        return reply.displayed

    def display_puzzle_c2(self, puzzle_id: int) -> DisplayedPuzzleC2:
        reply = self._roundtrip(
            "sp.display_puzzle",
            DisplayPuzzleRequest(construction=2, puzzle_id=puzzle_id),
        )
        return reply.displayed

    def submit_answers_c1(
        self, answers: PuzzleAnswers, requester: str
    ) -> ShareRelease:
        submission = AnswerSubmission.from_answers(1, answers, requester)
        return self._roundtrip("sp.verify", submission).release

    def submit_answers_c2(
        self, answers: PuzzleAnswersC2, requester: str
    ) -> AccessGrantC2:
        submission = AnswerSubmission.from_answers(2, answers, requester)
        return self._roundtrip("sp.verify", submission).grant

    def share_policy(
        self, construction: int, puzzle_id: int, policy_text: str
    ) -> None:
        """Attach the canonical policy text to a stored registration so
        later Explain replies echo the sharer's own rendering."""
        self._roundtrip(
            "sp.share_policy",
            SharePolicyRequest(
                construction=construction,
                puzzle_id=puzzle_id,
                policy_text=policy_text,
            ),
        )

    def explain_c1(self, answers: PuzzleAnswers, requester: str):
        """Ask for the grant/deny derivation under the C1 evidence."""
        request = ExplainRequest.from_answers(1, answers, requester)
        return self._roundtrip("sp.explain", request).explanation

    def explain_c2(self, answers: PuzzleAnswersC2, requester: str):
        """Ask for the grant/deny derivation under the C2 evidence."""
        request = ExplainRequest.from_answers(2, answers, requester)
        return self._roundtrip("sp.explain", request).explanation

    def retract(self, construction: int, puzzle_id: int) -> bool:
        reply = self._roundtrip(
            "sp.retract",
            RetractPuzzleRequest(construction=construction, puzzle_id=puzzle_id),
        )
        return reply.removed

    # -- the two-phase retract saga ----------------------------------------------

    def retract_prepare(self, construction: int, puzzle_id: int) -> str:
        """Saga phase 1: hide the registration; returns its URL_O."""
        reply = self._roundtrip(
            "sp.retract_prepare",
            RetractPrepareRequest(construction=construction, puzzle_id=puzzle_id),
        )
        return reply.url

    def retract_commit(self, construction: int, puzzle_id: int) -> bool:
        reply = self._roundtrip(
            "sp.retract_commit",
            RetractCommitRequest(construction=construction, puzzle_id=puzzle_id),
        )
        return reply.removed

    def retract_abort(self, construction: int, puzzle_id: int) -> bool:
        reply = self._roundtrip(
            "sp.retract_abort",
            RetractAbortRequest(construction=construction, puzzle_id=puzzle_id),
        )
        return reply.removed

    # -- OSN substrate -----------------------------------------------------------

    def register_user(self, name: str, **profile: str) -> User:
        """Create an account on the remote SP; returns the ``User``."""
        reply = self._roundtrip(
            "sp.register_user", RegisterUserRequest(name=name, profile=profile)
        )
        return reply.user

    def befriend(self, a: User, b: User) -> None:
        self._roundtrip("sp.befriend", BefriendRequest(a=a, b=b))

    def publish_post(
        self, author: User, content: str, audience: str | frozenset[int] = "friends"
    ) -> Post:
        reply = self._roundtrip(
            "sp.post",
            PublishPostRequest(author=author, content=content, audience=audience),
        )
        return reply.post

    def get_post(self, viewer: User, post_id: int) -> Post:
        reply = self._roundtrip(
            "sp.get_post", FetchPostRequest(viewer=viewer, post_id=post_id)
        )
        return reply.post

    def storage_put(self, data: bytes) -> str:
        return self._roundtrip("dh.put", StoragePutRequest(data=data)).url

    def storage_get(self, url: str) -> bytes:
        return self._roundtrip("dh.get", StorageGetRequest(url=url)).data

    def storage_exists(self, url: str) -> bool:
        return self._roundtrip("dh.exists", StorageExistsRequest(url=url)).value

    def storage_delete(self, url: str) -> bool:
        return self._roundtrip("dh.delete", StorageDeleteRequest(url=url)).value
