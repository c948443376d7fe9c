"""Well-framed but malformed bodies: refused as ``bad-message``, never raised.

A frame whose envelope and CRC are valid can still carry a body that no
sender would produce: a puzzle with k = 0, an access tree with an
unknown node tag, a gate chain deeper than the interpreter's stack, a
construction byte other than 1 or 2. Every such failure leaves
:func:`~repro.proto.messages.decode_message` as
:class:`~repro.util.codec.CodecError`, so the serve loop answers it
with a transient ``bad-message`` reply, a batch keeps the error in the
member's own slot, and a client reading such a reply raises
:class:`~repro.core.errors.TransientNetworkError`. A field the engine
finds malformed only while handling the request (a C2 digest that is
not ASCII, an rng state ``random`` rejects) gets the same reply.
"""

from __future__ import annotations

from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.construction1 import PuzzleServiceC1
from repro.core.construction2 import PuzzleServiceC2
from repro.core.errors import TransientNetworkError
from repro.osn.provider import ServiceProvider
from repro.osn.storage import StorageHost
from repro.proto.client import ProtocolClient
from repro.proto.engine import PuzzleProtocolEngine
from repro.proto.envelope import open_envelope, seal
from repro.proto.messages import (
    MESSAGE_TYPES,
    AnswerSubmission,
    BatchReply,
    BatchRequest,
    DisplayPuzzleRequest,
    ErrorReply,
    ExplainRequest,
    RegisterUserRequest,
    StorePuzzleRequest,
    StoreUploadRequest,
    UserReply,
    decode_message,
    encode_message,
)
from repro.util.codec import CodecError, blob, text, u8, u32

VECTOR_DIR = Path(__file__).parent / "vectors"

# Golden bodies per message type: mutating a real body reaches the inner
# decoders (puzzle validation, access trees) far more often than random
# bytes do.
BODIES: dict[int, list[bytes]] = {}
for _path in sorted(VECTOR_DIR.glob("*.bin")):
    _type, _body = open_envelope(_path.read_bytes())
    BODIES.setdefault(_type, []).append(_body)


def puzzle_body(k: int, questions: list[str]) -> bytes:
    """A C1 puzzle body in the wire layout, bypassing ``Puzzle``'s checks."""
    body = u32(k) + blob(b"puzzle key") + text("dh://0000000000000001")
    body += text("alice") + u32(len(questions))
    for question in questions:
        body += text(question) + blob(bytes(32))
        body += blob((1).to_bytes(32, "big")) + blob(bytes(32))
    return body + blob(b"") + blob(b"")


def upload_body(tree: bytes) -> bytes:
    """A C2 upload body around a hand-made access-tree encoding."""
    return (
        u32(0) + blob(tree) + blob(b"pk") + blob(b"mk")
        + text("dh://0000000000000001") + text("alice")
    )


LEAF = b"\x00" + blob(b"q=digest")
MALFORMED = {
    "k-zero": (StorePuzzleRequest.TYPE, puzzle_body(0, ["a?", "b?"])),
    "duplicate-questions": (StorePuzzleRequest.TYPE, puzzle_body(1, ["a?", "a?"])),
    "no-entries": (StorePuzzleRequest.TYPE, puzzle_body(1, [])),
    "unknown-tree-tag": (StoreUploadRequest.TYPE, upload_body(b"\x07")),
    "non-utf8-leaf": (StoreUploadRequest.TYPE, upload_body(b"\x00" + blob(b"\xff\xfe"))),
    "deep-gate-chain": (
        StoreUploadRequest.TYPE,
        upload_body((b"\x01" + u32(1) + u32(1)) * 3000 + LEAF),
    ),
    "construction-3": (DisplayPuzzleRequest.TYPE, u8(3) + u32(1) + u8(0)),
    "construction-7": (AnswerSubmission.TYPE, u8(7) + u32(1) + text("eve") + u32(0)),
}

# Bodies that decode, but whose fields the engine finds malformed only
# while it handles them.
HANDLED_MALFORMED = {
    "c2-verify-non-ascii-digest": AnswerSubmission(2, 1, "eve", {"q?": b"\xff\xfe"}),
    "c2-explain-non-ascii-digest": ExplainRequest(2, 1, "eve", {"q?": b"\xff\xfe"}),
    "rejected-rng-state": DisplayPuzzleRequest(1, 1, (99, tuple(range(625)), None)),
}


@pytest.fixture()
def engine():
    provider = ServiceProvider()
    engine = PuzzleProtocolEngine(provider, StorageHost())
    engine.register_backend(1, PuzzleServiceC1(audit=provider.audit))
    engine.register_backend(2, PuzzleServiceC2(audit=provider.audit))
    return engine


@st.composite
def bodies(draw, msg_type: int) -> bytes:
    """Random bytes, or a golden body with one byte replaced, one span cut
    out or a few bytes inserted."""
    golden = BODIES.get(msg_type, [])
    if not golden or draw(st.booleans()):
        return draw(st.binary(max_size=64))
    body = draw(st.sampled_from(golden))
    at = draw(st.integers(0, len(body)))
    how = draw(st.sampled_from(("replace", "cut", "insert")))
    if how == "replace" and at < len(body):
        return body[:at] + bytes([draw(st.integers(0, 255))]) + body[at + 1 :]
    if how == "cut":
        return body[:at] + body[at + draw(st.integers(1, 8)) :]
    return body[:at] + draw(st.binary(min_size=1, max_size=8)) + body[at:]


@pytest.mark.parametrize("msg_type", sorted(MESSAGE_TYPES), ids=lambda t: "0x%02x" % t)
@settings(max_examples=40, derandomize=True)
@given(data=st.data())
def test_a_body_decodes_or_raises_codec_error(msg_type, data):
    frame = seal(msg_type, data.draw(bodies(msg_type)))
    try:
        decode_message(frame)
    except CodecError:
        pass


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_body_decodes_to_codec_error(name):
    msg_type, body = MALFORMED[name]
    with pytest.raises(CodecError):
        decode_message(seal(msg_type, body))


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_engine_answers_bad_message(engine, name):
    msg_type, body = MALFORMED[name]
    reply = decode_message(engine.dispatch(seal(msg_type, body)))
    assert isinstance(reply, ErrorReply)
    assert (reply.code, reply.transient) == ("bad-message", True)


@pytest.mark.parametrize("name", sorted(HANDLED_MALFORMED))
def test_engine_answers_bad_message_after_decoding(engine, name):
    reply = decode_message(engine.dispatch(encode_message(HANDLED_MALFORMED[name])))
    assert isinstance(reply, ErrorReply)
    assert (reply.code, reply.transient) == ("bad-message", True)


def test_malformed_batch_member_keeps_its_own_slot(engine):
    """The first member registers its user; the second alone fails."""
    msg_type, body = MALFORMED["k-zero"]
    batch = BatchRequest(
        frames=(encode_message(RegisterUserRequest(name="dave")), seal(msg_type, body))
    )
    reply = decode_message(engine.dispatch(encode_message(batch)))
    assert isinstance(reply, BatchReply)
    registered, refused = (decode_message(frame) for frame in reply.frames)
    assert isinstance(registered, UserReply) and registered.user.name == "dave"
    assert isinstance(refused, ErrorReply) and refused.code == "bad-message"
    assert engine.provider.user_count() == 1


def test_client_treats_a_malformed_reply_as_transient():
    msg_type, body = MALFORMED["k-zero"]

    class Bus:
        def dispatch(self, request: bytes) -> bytes:
            return seal(msg_type, body)

    with pytest.raises(TransientNetworkError):
        ProtocolClient(Bus()).storage_get("dh://0000000000000001")
