"""Typed protocol messages.

One frozen dataclass per wire message. Each class carries a unique
``TYPE`` byte and declares its body's fields with their wire kinds
(:func:`repro.util.codec.wire`); the body encoder and decoder are derived
from that declaration. :func:`encode_message` / :func:`decode_message`
add and strip the versioned envelope (:mod:`repro.proto.envelope`).

A message that carries a core artifact (``Puzzle``, ``DisplayedPuzzle``,
``ShareRelease``, ``Explanation``...) declares it as a record field, so
the body is the artifact's own encoding, and a message's payload size
equals the ``byte_size()`` the cost meter charges — the wire layer adds
only the envelope.

Any failure while a body is decoded — a truncated field, an artifact's
own validation, a malformed access tree, a construction byte other than
1 or 2 — leaves :func:`decode_message` as
:class:`~repro.util.codec.CodecError`, which the serve loop answers with
a transient ``bad-message`` reply. A handler that finds a field
malformed only after decoding (a C2 digest that is not ASCII, an rng
state ``random`` rejects) raises the same error and gets the same reply.

Failures cross the wire as :class:`ErrorReply`, which round-trips the
repository's exception taxonomy (:mod:`repro.core.errors`) by stable
code strings, preserving the transient/permanent split the resilience
layer keys on.
"""

from __future__ import annotations

import random
import struct
from dataclasses import dataclass

from repro.core.construction1 import DisplayedPuzzle, PuzzleAnswers, ShareRelease
from repro.core.construction2 import (
    AccessGrantC2,
    C2Upload,
    DisplayedPuzzleC2,
    PuzzleAnswersC2,
)
from repro.core.errors import (
    AccessDeniedError,
    CircuitOpenError,
    PuzzleParameterError,
    ShareFailedError,
    TamperDetectedError,
    TransientNetworkError,
    TransientProviderError,
    TransientServiceError,
    UnknownPuzzleError,
    UnroutableMessageError,
)
from repro.core.puzzle import Puzzle
from repro.core.throttle import ThrottledError
from repro.osn.provider import AUDIENCE, OsnError, Post, User
from repro.osn.storage import StorageError
from repro.policy.explain import Explanation
from repro.proto.envelope import WireFormatError, open_envelope, seal
from repro.util.codec import (
    BLOB,
    BOOL,
    TEXT,
    U32,
    CodecError,
    Kind,
    Reader,
    WireRecord,
    mapping,
    record,
    seq,
    u8,
    wire,
)

__all__ = [
    "Message",
    "MESSAGE_TYPES",
    "encode_message",
    "decode_message",
    "message_name",
    "rng_from_state",
    "StorePuzzleRequest",
    "StoreUploadRequest",
    "DisplayPuzzleRequest",
    "AnswerSubmission",
    "RetractPuzzleRequest",
    "RetractPrepareRequest",
    "RetractCommitRequest",
    "RetractAbortRequest",
    "PublishPostRequest",
    "FetchPostRequest",
    "RegisterUserRequest",
    "BefriendRequest",
    "SharePolicyRequest",
    "ExplainRequest",
    "StoragePutRequest",
    "StorageGetRequest",
    "StorageExistsRequest",
    "StorageDeleteRequest",
    "BatchRequest",
    "BatchReply",
    "StoreReply",
    "DisplayReplyC1",
    "DisplayReplyC2",
    "ReleaseReply",
    "GrantReply",
    "RetractReply",
    "RetractPrepareReply",
    "PostReply",
    "UserReply",
    "AckReply",
    "ExplainReply",
    "StoragePutReply",
    "StorageGetReply",
    "StorageBoolReply",
    "ErrorReply",
]

MESSAGE_TYPES: dict[int, type["Message"]] = {}


def _register(cls: type["Message"]) -> type["Message"]:
    if cls.TYPE in MESSAGE_TYPES:  # pragma: no cover - programming error
        raise ValueError("duplicate message type 0x%02x" % cls.TYPE)
    MESSAGE_TYPES[cls.TYPE] = cls
    return cls


class Message(WireRecord):
    """Base class: a wire record whose encoding is a message body."""

    TYPE = -1


def encode_message(message: Message) -> bytes:
    return seal(message.TYPE, message.to_bytes())


def decode_message(data: bytes) -> Message:
    msg_type, body = open_envelope(data)
    cls = MESSAGE_TYPES.get(msg_type)
    if cls is None:
        raise WireFormatError("unknown message type 0x%02x" % msg_type)
    return cls.from_bytes(body)


def message_name(msg_type: int | None) -> str:
    cls = MESSAGE_TYPES.get(msg_type) if msg_type is not None else None
    return cls.__name__ if cls is not None else "invalid"


# ``random.Random`` state: (version, 625 words + index, optional gauss).
# Serializing the full state keeps the SP's question sampling
# deterministic for a caller-supplied rng even across the wire. The
# words cross in one ``struct`` call each way.
_RngState = tuple


def _write_rng_state(state: _RngState | None) -> bytes:
    if state is None:
        return b"\x00"
    version, words, gauss = state
    body = struct.pack(">BII%dI" % len(words), 1, version, len(words), *words)
    if gauss is None:
        return body + b"\x00"
    return body + struct.pack(">Bd", 1, gauss)


def _read_rng_state(reader: Reader) -> _RngState | None:
    if not reader.u8():
        return None
    version, count = struct.unpack(">II", reader.take(8))
    words = struct.unpack(">%dI" % count, reader.take(4 * count))
    gauss = struct.unpack(">d", reader.take(8))[0] if reader.u8() else None
    return (version, words, gauss)


_RNG_STATE = Kind(_write_rng_state, _read_rng_state)


def rng_from_state(state: _RngState | None) -> random.Random | None:
    """Rebuild a :class:`random.Random` from a decoded state tuple."""
    if state is None:
        return None
    rng = random.Random()
    try:
        rng.setstate((state[0], tuple(state[1]), state[2]))
    except (ValueError, TypeError, IndexError) as exc:
        raise CodecError("invalid rng state in display request") from exc
    return rng


def _read_construction(reader: Reader) -> int:
    construction = reader.u8()
    if construction not in (1, 2):
        raise CodecError("unknown construction %d" % construction)
    return construction


# The construction byte of a request: only 1 (Shamir) and 2 (CP-ABE) decode.
_CONSTRUCTION = Kind(u8, _read_construction)


# -- requests ----------------------------------------------------------------


@_register
@dataclass(frozen=True)
class StorePuzzleRequest(Message):
    """C1 Upload: the sharer ships Z_O to the SP."""

    TYPE = 0x01
    puzzle: Puzzle = wire(record(Puzzle))


@_register
@dataclass(frozen=True)
class StoreUploadRequest(Message):
    """C2 Upload: tau' + PK + MK + URL_O to the SP."""

    TYPE = 0x02
    record: C2Upload = wire(record(C2Upload))


@_register
@dataclass(frozen=True)
class DisplayPuzzleRequest(Message):
    """DisplayPuzzle: ask the SP for the question subset."""

    TYPE = 0x03
    construction: int = wire(_CONSTRUCTION)
    puzzle_id: int = wire(U32)
    rng_state: _RngState | None = wire(_RNG_STATE, default=None)


@dataclass(frozen=True)
class _AnswerEvidence(Message):
    """The body Verify and Explain share: hashed answers per question
    (never plaintext answers).

    C1 digests are raw HMAC bytes; C2 digests are hex strings carried as
    their ASCII bytes. ``requester`` keys the per-requester guess budget
    when the service enforces one.
    """

    construction: int = wire(_CONSTRUCTION)
    puzzle_id: int = wire(U32)
    requester: str = wire(TEXT)
    digests: dict[str, bytes] = wire(mapping(TEXT, BLOB), default_factory=dict)

    @classmethod
    def from_answers(cls, construction: int, answers, requester: str):
        """The wire form of a construction's answer object."""
        digests = dict(answers.digests)
        if construction == 2:
            digests = {q: d.encode("ascii") for q, d in digests.items()}
        return cls(construction, answers.puzzle_id, requester, digests)

    def to_answers(self):
        """The construction's answer object for the service (the inverse
        of :meth:`from_answers`)."""
        if self.construction == 1:
            return PuzzleAnswers(puzzle_id=self.puzzle_id, digests=dict(self.digests))
        try:
            digests = {q: d.decode("ascii") for q, d in self.digests.items()}
        except UnicodeDecodeError as exc:
            raise CodecError("C2 digest is not hex text") from exc
        return PuzzleAnswersC2(puzzle_id=self.puzzle_id, digests=digests)


@_register
@dataclass(frozen=True)
class AnswerSubmission(_AnswerEvidence):
    """Verify: the hashed evidence, answered with the release (C1) or
    the grant (C2)."""

    TYPE = 0x04


@dataclass(frozen=True)
class _PuzzleRef(Message):
    """The body the retract verbs share: which construction, which puzzle."""

    construction: int = wire(_CONSTRUCTION)
    puzzle_id: int = wire(U32)


@_register
@dataclass(frozen=True)
class RetractPuzzleRequest(_PuzzleRef):
    """Remove a puzzle registration (retraction or publish rollback)."""

    TYPE = 0x05


@_register
@dataclass(frozen=True)
class RetractPrepareRequest(_PuzzleRef):
    """Retract saga phase 1: hide the registration, learn URL_O.

    A prepared registration stops serving display/verify immediately but
    is restorable by :class:`RetractAbortRequest` until the commit —
    the cross-plane contract: no live registration ever points at a
    blob the DH plane has already deleted.
    """

    TYPE = 0x0C


@_register
@dataclass(frozen=True)
class RetractCommitRequest(_PuzzleRef):
    """Retract saga phase 2: discard the prepared registration for good."""

    TYPE = 0x0D


@_register
@dataclass(frozen=True)
class RetractAbortRequest(_PuzzleRef):
    """Retract saga rollback: restore a prepared registration."""

    TYPE = 0x0E


@_register
@dataclass(frozen=True)
class PublishPostRequest(Message):
    """Place the hyperlink post on the sharer's profile."""

    TYPE = 0x06
    author: User = wire(record(User))
    content: str = wire(TEXT)
    audience: str | frozenset[int] = wire(AUDIENCE, default="friends")


@_register
@dataclass(frozen=True)
class FetchPostRequest(Message):
    """Static-ACL read: fetch a post as a given viewer."""

    TYPE = 0x07
    viewer: User = wire(record(User))
    post_id: int = wire(U32)


@_register
@dataclass(frozen=True)
class RegisterUserRequest(Message):
    """Create an account on the SP — the membership verb a *remote*
    client needs before it can publish the hyperlink post. The local
    platform keeps calling ``provider.register_user`` directly; over the
    wire this travels like everything else and its profile fields land
    in the audit trail (they are public OSN profile data, never puzzle
    answers)."""

    TYPE = 0x0F
    name: str = wire(TEXT)
    profile: dict[str, str] = wire(
        mapping(TEXT, TEXT, sort=True), default_factory=dict
    )


@_register
@dataclass(frozen=True)
class BefriendRequest(Message):
    """Make two accounts friends (symmetric, per the paper's model)."""

    TYPE = 0x10
    a: User = wire(record(User))
    b: User = wire(record(User))


@_register
@dataclass(frozen=True)
class SharePolicyRequest(Message):
    """Attach the canonical policy text to a stored registration.

    The sharer sends this right after Store when the puzzle was compiled
    from a nested policy, so later Explain replies can echo the policy
    the *sharer* wrote rather than a reconstruction. The text contains
    only questions and gate structure — the same strings DisplayPuzzle
    already serves — never answers.
    """

    TYPE = 0x11
    construction: int = wire(_CONSTRUCTION)
    puzzle_id: int = wire(U32)
    policy_text: str = wire(TEXT)


@_register
@dataclass(frozen=True)
class ExplainRequest(_AnswerEvidence):
    """Explain: the same hashed evidence as Verify, answered with the
    gate-by-gate derivation instead of (never in addition to) the
    release. A deny explains without raising; throttled services charge
    denied explains against the shared Verify budget.
    """

    TYPE = 0x12


@_register
@dataclass(frozen=True)
class StoragePutRequest(Message):
    TYPE = 0x08
    data: bytes = wire(BLOB)


@_register
@dataclass(frozen=True)
class StorageGetRequest(Message):
    TYPE = 0x09
    url: str = wire(TEXT)


@_register
@dataclass(frozen=True)
class StorageExistsRequest(Message):
    TYPE = 0x0A
    url: str = wire(TEXT)


@_register
@dataclass(frozen=True)
class StorageDeleteRequest(Message):
    TYPE = 0x0B
    url: str = wire(TEXT)


# -- batching ----------------------------------------------------------------


@_register
@dataclass(frozen=True)
class BatchRequest(Message):
    """N member requests in one round trip.

    Members ride as *fully enveloped frames* (each its own sealed
    message), decoded one by one at execution time: a corrupted member
    yields its own per-member ``bad-message`` :class:`ErrorReply` while
    its siblings execute normally — the same isolation :func:`~repro.proto.frontends.serve`
    gives a lone frame. Batches cannot nest; a batch member that is
    itself a batch is answered with an ``unroutable`` error.
    """

    TYPE = 0x20
    frames: tuple[bytes, ...] = wire(seq(BLOB))

    @classmethod
    def of(cls, *messages: Message) -> "BatchRequest":
        """Seal each message into its member frame."""
        for message in messages:
            if isinstance(message, BatchRequest):
                raise ValueError("batch members cannot be batches")
        return cls(frames=tuple(encode_message(m) for m in messages))


@_register
@dataclass(frozen=True)
class BatchReply(Message):
    """Member replies, one enveloped frame per request, in request
    order. Failed members carry an :class:`ErrorReply` frame in their
    slot; success and failure coexist in one reply."""

    TYPE = 0x60
    frames: tuple[bytes, ...] = wire(seq(BLOB))

    @classmethod
    def of(cls, *messages: Message) -> "BatchReply":
        return cls(frames=tuple(encode_message(m) for m in messages))


# -- replies -----------------------------------------------------------------


@_register
@dataclass(frozen=True)
class StoreReply(Message):
    """The SP-assigned puzzle identifier."""

    TYPE = 0x40
    puzzle_id: int = wire(U32)


@_register
@dataclass(frozen=True)
class DisplayReplyC1(Message):
    TYPE = 0x41
    displayed: DisplayedPuzzle = wire(record(DisplayedPuzzle))


@_register
@dataclass(frozen=True)
class DisplayReplyC2(Message):
    TYPE = 0x42
    displayed: DisplayedPuzzleC2 = wire(record(DisplayedPuzzleC2))


@_register
@dataclass(frozen=True)
class ReleaseReply(Message):
    """C1 Verify success: blinded shares + URL_O."""

    TYPE = 0x43
    release: ShareRelease = wire(record(ShareRelease))


@_register
@dataclass(frozen=True)
class GrantReply(Message):
    """C2 Verify success: URL_O + PK + MK."""

    TYPE = 0x44
    grant: AccessGrantC2 = wire(record(AccessGrantC2))


@_register
@dataclass(frozen=True)
class RetractReply(Message):
    TYPE = 0x45
    removed: bool = wire(BOOL)


@_register
@dataclass(frozen=True)
class RetractPrepareReply(Message):
    """The prepared registration's URL_O — what the DH plane must delete
    before the saga may commit."""

    TYPE = 0x4A
    url: str = wire(TEXT)


@_register
@dataclass(frozen=True)
class PostReply(Message):
    TYPE = 0x46
    post: Post = wire(record(Post))


@_register
@dataclass(frozen=True)
class UserReply(Message):
    """The freshly registered account."""

    TYPE = 0x4B
    user: User = wire(record(User))


@_register
@dataclass(frozen=True)
class AckReply(Message):
    """A bare success acknowledgement (befriend and friends).

    Failures never travel as a negative ack — they cross the wire as
    :class:`ErrorReply` with their taxonomy code, like everywhere else.
    """

    TYPE = 0x4C


@_register
@dataclass(frozen=True)
class ExplainReply(Message):
    """The grant/deny derivation for one Explain request.

    Carries :class:`repro.policy.explain.Explanation` in its canonical
    encoding — questions and gate arithmetic only, no answer material
    (the curious-SP test pins this byte-for-byte).
    """

    TYPE = 0x4D
    explanation: Explanation = wire(record(Explanation))


@_register
@dataclass(frozen=True)
class StoragePutReply(Message):
    TYPE = 0x47
    url: str = wire(TEXT)


@_register
@dataclass(frozen=True)
class StorageGetReply(Message):
    TYPE = 0x48
    data: bytes = wire(BLOB)


@_register
@dataclass(frozen=True)
class StorageBoolReply(Message):
    """Reply to exists/delete: a single boolean."""

    TYPE = 0x49
    value: bool = wire(BOOL)


# -- the error reply and the taxonomy mapping --------------------------------

# Ordered most-specific-first: the first isinstance match wins. Codes are
# wire-stable strings; classes are looked up on the receiving side to
# re-raise the same exception type (and therefore the same
# transient/permanent retry classification).
def _error_registry() -> list[tuple[str, type[BaseException]]]:
    from repro.osn.faults import TransientStorageError

    return [
        ("throttled", ThrottledError),
        ("access-denied", AccessDeniedError),
        ("tamper-detected", TamperDetectedError),
        ("unknown-puzzle", UnknownPuzzleError),
        ("unroutable", UnroutableMessageError),
        ("puzzle-parameter", PuzzleParameterError),
        ("share-failed", ShareFailedError),
        ("circuit-open", CircuitOpenError),
        ("transient-storage", TransientStorageError),
        ("transient-provider", TransientProviderError),
        ("transient-network", TransientNetworkError),
        ("transient-service", TransientServiceError),
        ("storage", StorageError),
        ("osn", OsnError),
    ]


@_register
@dataclass(frozen=True)
class ErrorReply(Message):
    """A failure crossing the wire, typed by taxonomy code.

    ``bad-message`` (transient) marks a malformed request: a frame the
    server could not decode, or a field found invalid after decoding
    (any :class:`~repro.util.codec.CodecError`). ``internal`` marks an
    unrecognized server-side exception and is deliberately NOT a
    :class:`SocialPuzzleError` on re-raise, so atomic-share handling
    wraps it in :class:`ShareFailedError` exactly as it would a local
    untyped bug.
    """

    TYPE = 0x7F
    code: str = wire(TEXT)
    message: str = wire(TEXT)
    transient: bool = wire(BOOL)

    @classmethod
    def from_exception(cls, exc: BaseException) -> "ErrorReply":
        if isinstance(exc, CodecError):
            # A malformed request, found while decoding or after.
            return cls(code="bad-message", message=str(exc), transient=True)
        for code, klass in _error_registry():
            if isinstance(exc, klass):
                return cls(
                    code=code,
                    message=str(exc),
                    transient=isinstance(exc, TransientServiceError),
                )
        return cls(code="internal", message=str(exc), transient=False)

    def to_exception(self) -> BaseException:
        from repro.proto.client import RemoteServiceError

        if self.code == "bad-message":
            return TransientNetworkError(
                "peer rejected a corrupted frame: %s" % self.message
            )
        for code, klass in _error_registry():
            if code == self.code:
                return klass(self.message)
        return RemoteServiceError(
            "remote error (%s): %s" % (self.code, self.message)
        )
