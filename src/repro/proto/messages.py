"""Typed protocol messages and their byte codecs.

One dataclass per wire message. Each class carries a unique ``TYPE``
byte, an ``encode_body`` method and a ``decode_body`` classmethod;
:func:`encode_message` / :func:`decode_message` add and strip the
versioned envelope (:mod:`repro.proto.envelope`).

Message bodies reuse the canonical encodings the core layer already
defines (``Puzzle.to_bytes``, ``DisplayedPuzzle.to_bytes``, ...), so a
message's payload size equals the ``byte_size()`` the cost meter charges
— the wire layer adds only the envelope.

Failures cross the wire as :class:`ErrorReply`, which round-trips the
repository's exception taxonomy (:mod:`repro.core.errors`) by stable
code strings, preserving the transient/permanent split the resilience
layer keys on.
"""

from __future__ import annotations

import random
import struct
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

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
from repro.osn.provider import OsnError, Post, User
from repro.osn.storage import StorageError
from repro.proto.envelope import WireFormatError, open_envelope, seal
from repro.util.codec import CodecError, Reader, blob, text, u8, u32

if TYPE_CHECKING:  # the policy plane is a runtime-lazy import (reply decode)
    from repro.policy.explain import Explanation

__all__ = [
    "Message",
    "MESSAGE_TYPES",
    "encode_message",
    "decode_message",
    "message_name",
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


class Message:
    """Base class: encode/decode glue around the per-class body codecs."""

    TYPE = -1

    def encode_body(self) -> bytes:
        raise NotImplementedError

    @classmethod
    def decode_body(cls, body: bytes) -> "Message":
        raise NotImplementedError


def encode_message(message: Message) -> bytes:
    return seal(message.TYPE, message.encode_body())


def decode_message(data: bytes) -> Message:
    msg_type, body = open_envelope(data)
    cls = MESSAGE_TYPES.get(msg_type)
    if cls is None:
        raise WireFormatError("unknown message type 0x%02x" % msg_type)
    return cls.decode_body(body)


def message_name(msg_type: int | None) -> str:
    cls = MESSAGE_TYPES.get(msg_type) if msg_type is not None else None
    return cls.__name__ if cls is not None else "invalid"


# -- shared field codecs -----------------------------------------------------


def _encode_user(user: User) -> bytes:
    return u32(user.user_id) + text(user.name)


def _decode_user(reader: Reader) -> User:
    return User(user_id=reader.u32(), name=reader.text())


def _encode_audience(audience: str | frozenset[int]) -> bytes:
    if audience == "friends":
        return u8(0)
    if audience == "public":
        return u8(1)
    if isinstance(audience, str):
        # An invalid audience string is still representable — the
        # provider, not the codec, owns that validation.
        return u8(3) + text(audience)
    members = sorted(audience)
    return u8(2) + u32(len(members)) + b"".join(u32(uid) for uid in members)


def _decode_audience(reader: Reader) -> str | frozenset[int]:
    tag = reader.u8()
    if tag == 0:
        return "friends"
    if tag == 1:
        return "public"
    if tag == 2:
        return frozenset(reader.u32() for _ in range(reader.u32()))
    if tag == 3:
        return reader.text()
    raise CodecError("unknown audience tag %d" % tag)


def _encode_post(post: Post) -> bytes:
    return (
        u32(post.post_id)
        + _encode_user(post.author)
        + text(post.content)
        + _encode_audience(post.audience)
    )


def _decode_post(reader: Reader) -> Post:
    return Post(
        post_id=reader.u32(),
        author=_decode_user(reader),
        content=reader.text(),
        audience=_decode_audience(reader),
    )


# ``random.Random`` state: (version, 625 words + index, optional gauss).
# Serializing the full state keeps the SP's question sampling
# deterministic for a caller-supplied rng even across the wire.
_RngState = tuple


def _encode_rng_state(state: _RngState | None) -> bytes:
    if state is None:
        return u8(0)
    version, words, gauss = state
    body = u8(1) + u32(version) + u32(len(words))
    body += b"".join(u32(word) for word in words)
    if gauss is None:
        body += u8(0)
    else:
        body += u8(1) + struct.pack(">d", gauss)
    return body


def _decode_rng_state(reader: Reader) -> _RngState | None:
    if reader.u8() == 0:
        return None
    version = reader.u32()
    words = tuple(reader.u32() for _ in range(reader.u32()))
    gauss = None
    if reader.u8():
        gauss = struct.unpack(">d", reader.take(8))[0]
    return (version, words, gauss)


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


# -- requests ----------------------------------------------------------------


@_register
@dataclass(frozen=True)
class StorePuzzleRequest(Message):
    """C1 Upload: the sharer ships Z_O to the SP."""

    TYPE = 0x01
    puzzle: Puzzle

    def encode_body(self) -> bytes:
        return self.puzzle.to_bytes()

    @classmethod
    def decode_body(cls, body: bytes) -> "StorePuzzleRequest":
        return cls(puzzle=Puzzle.from_bytes(body))


@_register
@dataclass(frozen=True)
class StoreUploadRequest(Message):
    """C2 Upload: tau' + PK + MK + URL_O to the SP."""

    TYPE = 0x02
    record: C2Upload

    def encode_body(self) -> bytes:
        return self.record.to_bytes()

    @classmethod
    def decode_body(cls, body: bytes) -> "StoreUploadRequest":
        return cls(record=C2Upload.from_bytes(body))


@_register
@dataclass(frozen=True)
class DisplayPuzzleRequest(Message):
    """DisplayPuzzle: ask the SP for the question subset."""

    TYPE = 0x03
    construction: int
    puzzle_id: int
    rng_state: _RngState | None = None

    def encode_body(self) -> bytes:
        return (
            u8(self.construction)
            + u32(self.puzzle_id)
            + _encode_rng_state(self.rng_state)
        )

    @classmethod
    def decode_body(cls, body: bytes) -> "DisplayPuzzleRequest":
        reader = Reader(body)
        construction = reader.u8()
        puzzle_id = reader.u32()
        rng_state = _decode_rng_state(reader)
        reader.done()
        return cls(
            construction=construction, puzzle_id=puzzle_id, rng_state=rng_state
        )


@dataclass(frozen=True)
class _AnswerEvidence(Message):
    """The body Verify and Explain share: hashed answers per question
    (never plaintext answers).

    C1 digests are raw HMAC bytes; C2 digests are hex strings carried as
    their ASCII bytes. ``requester`` keys the per-requester guess budget
    when the service enforces one.
    """

    construction: int
    puzzle_id: int
    requester: str
    digests: dict[str, bytes] = field(default_factory=dict)

    def encode_body(self) -> bytes:
        body = u8(self.construction) + u32(self.puzzle_id) + text(self.requester)
        body += u32(len(self.digests))
        for question, digest in self.digests.items():
            body += text(question) + blob(digest)
        return body

    @classmethod
    def decode_body(cls, body: bytes):
        reader = Reader(body)
        construction = reader.u8()
        puzzle_id = reader.u32()
        requester = reader.text()
        digests: dict[str, bytes] = {}
        for _ in range(reader.u32()):
            question = reader.text()
            digests[question] = reader.blob()
        reader.done()
        return cls(
            construction=construction,
            puzzle_id=puzzle_id,
            requester=requester,
            digests=digests,
        )

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


@_register
@dataclass(frozen=True)
class RetractPuzzleRequest(Message):
    """Remove a puzzle registration (retraction or publish rollback)."""

    TYPE = 0x05
    construction: int
    puzzle_id: int

    def encode_body(self) -> bytes:
        return u8(self.construction) + u32(self.puzzle_id)

    @classmethod
    def decode_body(cls, body: bytes) -> "RetractPuzzleRequest":
        reader = Reader(body)
        construction = reader.u8()
        puzzle_id = reader.u32()
        reader.done()
        return cls(construction=construction, puzzle_id=puzzle_id)


@_register
@dataclass(frozen=True)
class RetractPrepareRequest(Message):
    """Retract saga phase 1: hide the registration, learn URL_O.

    A prepared registration stops serving display/verify immediately but
    is restorable by :class:`RetractAbortRequest` until the commit —
    the cross-plane contract: no live registration ever points at a
    blob the DH plane has already deleted.
    """

    TYPE = 0x0C
    construction: int
    puzzle_id: int

    def encode_body(self) -> bytes:
        return u8(self.construction) + u32(self.puzzle_id)

    @classmethod
    def decode_body(cls, body: bytes) -> "RetractPrepareRequest":
        reader = Reader(body)
        construction = reader.u8()
        puzzle_id = reader.u32()
        reader.done()
        return cls(construction=construction, puzzle_id=puzzle_id)


@_register
@dataclass(frozen=True)
class RetractCommitRequest(Message):
    """Retract saga phase 2: discard the prepared registration for good."""

    TYPE = 0x0D
    construction: int
    puzzle_id: int

    def encode_body(self) -> bytes:
        return u8(self.construction) + u32(self.puzzle_id)

    @classmethod
    def decode_body(cls, body: bytes) -> "RetractCommitRequest":
        reader = Reader(body)
        construction = reader.u8()
        puzzle_id = reader.u32()
        reader.done()
        return cls(construction=construction, puzzle_id=puzzle_id)


@_register
@dataclass(frozen=True)
class RetractAbortRequest(Message):
    """Retract saga rollback: restore a prepared registration."""

    TYPE = 0x0E
    construction: int
    puzzle_id: int

    def encode_body(self) -> bytes:
        return u8(self.construction) + u32(self.puzzle_id)

    @classmethod
    def decode_body(cls, body: bytes) -> "RetractAbortRequest":
        reader = Reader(body)
        construction = reader.u8()
        puzzle_id = reader.u32()
        reader.done()
        return cls(construction=construction, puzzle_id=puzzle_id)


@_register
@dataclass(frozen=True)
class PublishPostRequest(Message):
    """Place the hyperlink post on the sharer's profile."""

    TYPE = 0x06
    author: User
    content: str
    audience: str | frozenset[int] = "friends"

    def encode_body(self) -> bytes:
        return (
            _encode_user(self.author)
            + text(self.content)
            + _encode_audience(self.audience)
        )

    @classmethod
    def decode_body(cls, body: bytes) -> "PublishPostRequest":
        reader = Reader(body)
        author = _decode_user(reader)
        content = reader.text()
        audience = _decode_audience(reader)
        reader.done()
        return cls(author=author, content=content, audience=audience)


@_register
@dataclass(frozen=True)
class FetchPostRequest(Message):
    """Static-ACL read: fetch a post as a given viewer."""

    TYPE = 0x07
    viewer: User
    post_id: int

    def encode_body(self) -> bytes:
        return _encode_user(self.viewer) + u32(self.post_id)

    @classmethod
    def decode_body(cls, body: bytes) -> "FetchPostRequest":
        reader = Reader(body)
        viewer = _decode_user(reader)
        post_id = reader.u32()
        reader.done()
        return cls(viewer=viewer, post_id=post_id)


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
    name: str
    profile: dict[str, str] = field(default_factory=dict)

    def encode_body(self) -> bytes:
        body = text(self.name) + u32(len(self.profile))
        for key in sorted(self.profile):
            body += text(key) + text(self.profile[key])
        return body

    @classmethod
    def decode_body(cls, body: bytes) -> "RegisterUserRequest":
        reader = Reader(body)
        name = reader.text()
        profile: dict[str, str] = {}
        for _ in range(reader.u32()):
            key = reader.text()
            profile[key] = reader.text()
        reader.done()
        return cls(name=name, profile=profile)


@_register
@dataclass(frozen=True)
class BefriendRequest(Message):
    """Make two accounts friends (symmetric, per the paper's model)."""

    TYPE = 0x10
    a: User
    b: User

    def encode_body(self) -> bytes:
        return _encode_user(self.a) + _encode_user(self.b)

    @classmethod
    def decode_body(cls, body: bytes) -> "BefriendRequest":
        reader = Reader(body)
        a = _decode_user(reader)
        b = _decode_user(reader)
        reader.done()
        return cls(a=a, b=b)


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
    construction: int
    puzzle_id: int
    policy_text: str

    def encode_body(self) -> bytes:
        return u8(self.construction) + u32(self.puzzle_id) + text(self.policy_text)

    @classmethod
    def decode_body(cls, body: bytes) -> "SharePolicyRequest":
        reader = Reader(body)
        construction = reader.u8()
        puzzle_id = reader.u32()
        policy_text = reader.text()
        reader.done()
        return cls(
            construction=construction,
            puzzle_id=puzzle_id,
            policy_text=policy_text,
        )


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
    data: bytes

    def encode_body(self) -> bytes:
        return blob(self.data)

    @classmethod
    def decode_body(cls, body: bytes) -> "StoragePutRequest":
        reader = Reader(body)
        data = reader.blob()
        reader.done()
        return cls(data=data)


@_register
@dataclass(frozen=True)
class StorageGetRequest(Message):
    TYPE = 0x09
    url: str

    def encode_body(self) -> bytes:
        return text(self.url)

    @classmethod
    def decode_body(cls, body: bytes) -> "StorageGetRequest":
        reader = Reader(body)
        url = reader.text()
        reader.done()
        return cls(url=url)


@_register
@dataclass(frozen=True)
class StorageExistsRequest(Message):
    TYPE = 0x0A
    url: str

    def encode_body(self) -> bytes:
        return text(self.url)

    @classmethod
    def decode_body(cls, body: bytes) -> "StorageExistsRequest":
        reader = Reader(body)
        url = reader.text()
        reader.done()
        return cls(url=url)


@_register
@dataclass(frozen=True)
class StorageDeleteRequest(Message):
    TYPE = 0x0B
    url: str

    def encode_body(self) -> bytes:
        return text(self.url)

    @classmethod
    def decode_body(cls, body: bytes) -> "StorageDeleteRequest":
        reader = Reader(body)
        url = reader.text()
        reader.done()
        return cls(url=url)


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
    frames: tuple[bytes, ...]

    def encode_body(self) -> bytes:
        body = u32(len(self.frames))
        for frame in self.frames:
            body += blob(frame)
        return body

    @classmethod
    def decode_body(cls, body: bytes) -> "BatchRequest":
        reader = Reader(body)
        frames = tuple(reader.blob() for _ in range(reader.u32()))
        reader.done()
        return cls(frames=frames)

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
    frames: tuple[bytes, ...]

    def encode_body(self) -> bytes:
        body = u32(len(self.frames))
        for frame in self.frames:
            body += blob(frame)
        return body

    @classmethod
    def decode_body(cls, body: bytes) -> "BatchReply":
        reader = Reader(body)
        frames = tuple(reader.blob() for _ in range(reader.u32()))
        reader.done()
        return cls(frames=frames)

    @classmethod
    def of(cls, *messages: Message) -> "BatchReply":
        return cls(frames=tuple(encode_message(m) for m in messages))


# -- replies -----------------------------------------------------------------


@_register
@dataclass(frozen=True)
class StoreReply(Message):
    """The SP-assigned puzzle identifier."""

    TYPE = 0x40
    puzzle_id: int

    def encode_body(self) -> bytes:
        return u32(self.puzzle_id)

    @classmethod
    def decode_body(cls, body: bytes) -> "StoreReply":
        reader = Reader(body)
        puzzle_id = reader.u32()
        reader.done()
        return cls(puzzle_id=puzzle_id)


@_register
@dataclass(frozen=True)
class DisplayReplyC1(Message):
    TYPE = 0x41
    displayed: DisplayedPuzzle

    def encode_body(self) -> bytes:
        return self.displayed.to_bytes()

    @classmethod
    def decode_body(cls, body: bytes) -> "DisplayReplyC1":
        return cls(displayed=DisplayedPuzzle.from_bytes(body))


@_register
@dataclass(frozen=True)
class DisplayReplyC2(Message):
    TYPE = 0x42
    displayed: DisplayedPuzzleC2

    def encode_body(self) -> bytes:
        return self.displayed.to_bytes()

    @classmethod
    def decode_body(cls, body: bytes) -> "DisplayReplyC2":
        return cls(displayed=DisplayedPuzzleC2.from_bytes(body))


@_register
@dataclass(frozen=True)
class ReleaseReply(Message):
    """C1 Verify success: blinded shares + URL_O."""

    TYPE = 0x43
    release: ShareRelease

    def encode_body(self) -> bytes:
        return self.release.to_bytes()

    @classmethod
    def decode_body(cls, body: bytes) -> "ReleaseReply":
        return cls(release=ShareRelease.from_bytes(body))


@_register
@dataclass(frozen=True)
class GrantReply(Message):
    """C2 Verify success: URL_O + PK + MK."""

    TYPE = 0x44
    grant: AccessGrantC2

    def encode_body(self) -> bytes:
        return self.grant.to_bytes()

    @classmethod
    def decode_body(cls, body: bytes) -> "GrantReply":
        return cls(grant=AccessGrantC2.from_bytes(body))


@_register
@dataclass(frozen=True)
class RetractReply(Message):
    TYPE = 0x45
    removed: bool

    def encode_body(self) -> bytes:
        return u8(int(self.removed))

    @classmethod
    def decode_body(cls, body: bytes) -> "RetractReply":
        reader = Reader(body)
        removed = bool(reader.u8())
        reader.done()
        return cls(removed=removed)


@_register
@dataclass(frozen=True)
class RetractPrepareReply(Message):
    """The prepared registration's URL_O — what the DH plane must delete
    before the saga may commit."""

    TYPE = 0x4A
    url: str

    def encode_body(self) -> bytes:
        return text(self.url)

    @classmethod
    def decode_body(cls, body: bytes) -> "RetractPrepareReply":
        reader = Reader(body)
        url = reader.text()
        reader.done()
        return cls(url=url)


@_register
@dataclass(frozen=True)
class PostReply(Message):
    TYPE = 0x46
    post: Post

    def encode_body(self) -> bytes:
        return _encode_post(self.post)

    @classmethod
    def decode_body(cls, body: bytes) -> "PostReply":
        reader = Reader(body)
        post = _decode_post(reader)
        reader.done()
        return cls(post=post)


@_register
@dataclass(frozen=True)
class UserReply(Message):
    """The freshly registered account."""

    TYPE = 0x4B
    user: User

    def encode_body(self) -> bytes:
        return _encode_user(self.user)

    @classmethod
    def decode_body(cls, body: bytes) -> "UserReply":
        reader = Reader(body)
        user = _decode_user(reader)
        reader.done()
        return cls(user=user)


@_register
@dataclass(frozen=True)
class AckReply(Message):
    """A bare success acknowledgement (befriend and friends).

    Failures never travel as a negative ack — they cross the wire as
    :class:`ErrorReply` with their taxonomy code, like everywhere else.
    """

    TYPE = 0x4C

    def encode_body(self) -> bytes:
        return b""

    @classmethod
    def decode_body(cls, body: bytes) -> "AckReply":
        Reader(body).done()
        return cls()


@_register
@dataclass(frozen=True)
class ExplainReply(Message):
    """The grant/deny derivation for one Explain request.

    Carries :class:`repro.policy.explain.Explanation` in its canonical
    encoding — questions and gate arithmetic only, no answer material
    (the curious-SP test pins this byte-for-byte).
    """

    TYPE = 0x4D
    explanation: "Explanation"

    def encode_body(self) -> bytes:
        return self.explanation.to_bytes()

    @classmethod
    def decode_body(cls, body: bytes) -> "ExplainReply":
        from repro.policy.explain import Explanation

        return cls(explanation=Explanation.from_bytes(body))


@_register
@dataclass(frozen=True)
class StoragePutReply(Message):
    TYPE = 0x47
    url: str

    def encode_body(self) -> bytes:
        return text(self.url)

    @classmethod
    def decode_body(cls, body: bytes) -> "StoragePutReply":
        reader = Reader(body)
        url = reader.text()
        reader.done()
        return cls(url=url)


@_register
@dataclass(frozen=True)
class StorageGetReply(Message):
    TYPE = 0x48
    data: bytes

    def encode_body(self) -> bytes:
        return blob(self.data)

    @classmethod
    def decode_body(cls, body: bytes) -> "StorageGetReply":
        reader = Reader(body)
        data = reader.blob()
        reader.done()
        return cls(data=data)


@_register
@dataclass(frozen=True)
class StorageBoolReply(Message):
    """Reply to exists/delete: a single boolean."""

    TYPE = 0x49
    value: bool

    def encode_body(self) -> bytes:
        return u8(int(self.value))

    @classmethod
    def decode_body(cls, body: bytes) -> "StorageBoolReply":
        reader = Reader(body)
        value = bool(reader.u8())
        reader.done()
        return cls(value=value)


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

    ``bad-message`` (transient) marks a request frame the server could
    not decode; ``internal`` marks an unrecognized server-side exception
    and is deliberately NOT a :class:`SocialPuzzleError` on re-raise, so
    atomic-share handling wraps it in :class:`ShareFailedError` exactly
    as it would a local untyped bug.
    """

    TYPE = 0x7F
    code: str
    message: str
    transient: bool

    def encode_body(self) -> bytes:
        return text(self.code) + text(self.message) + u8(int(self.transient))

    @classmethod
    def decode_body(cls, body: bytes) -> "ErrorReply":
        reader = Reader(body)
        code = reader.text()
        message = reader.text()
        transient = bool(reader.u8())
        reader.done()
        return cls(code=code, message=message, transient=transient)

    @classmethod
    def from_exception(cls, exc: BaseException) -> "ErrorReply":
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
