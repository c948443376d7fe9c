"""Golden wire vectors: the serialized format is a compatibility contract.

Each ``.bin`` file under ``vectors/`` is a canonical frame. The test
decodes every vector into the expected message and re-encodes it to the
identical bytes — so an accidental change to the envelope, a field
order, or an integer width fails here with the file name of the message
that moved, before it silently breaks persisted or recorded traffic.

Regenerating (only after a deliberate, version-bumped format change):

    PYTHONPATH=src:tests python -c \
        "from proto.test_vectors import regenerate; regenerate()"
"""

from __future__ import annotations

import random
from pathlib import Path

import pytest

from repro.abe.access_tree import AccessTree
from repro.core.construction1 import DisplayedPuzzle, ReleasedShare, ShareRelease
from repro.core.construction2 import (
    AccessGrantC2,
    C2Upload,
    DisplayedPuzzleC2,
    perturbed_attribute,
)
from repro.core.puzzle import Puzzle, PuzzleEntry
from repro.crypto.bls import BlsScheme
from repro.crypto.hash_to_group import hash_to_g0
from repro.crypto.params import TOY
from repro.osn.provider import Post, User
from repro.policy.compile import encode_shape
from repro.policy.explain import Explanation, NodeTrace
from repro.proto.envelope import open_envelope, seal
from repro.proto.messages import (
    AckReply,
    AnswerSubmission,
    BatchReply,
    BatchRequest,
    BefriendRequest,
    DisplayPuzzleRequest,
    DisplayReplyC1,
    DisplayReplyC2,
    ErrorReply,
    ExplainReply,
    ExplainRequest,
    FetchPostRequest,
    GrantReply,
    PostReply,
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
    StorageBoolReply,
    StorageDeleteRequest,
    StorageExistsRequest,
    StorageGetReply,
    StorageGetRequest,
    StoragePutReply,
    StoragePutRequest,
    StorePuzzleRequest,
    StoreReply,
    StoreUploadRequest,
    UserReply,
    decode_message,
    encode_message,
)
from repro.util.codec import CodecError

VECTOR_DIR = Path(__file__).parent / "vectors"

# BLS signing is deterministic, so a fixed generator and secret give a
# fixed signature over the puzzle's signed payload.
BLS = BlsScheme(TOY, generator=hash_to_g0(TOY, b"golden-vector generator"))
BLS_SECRET = 0x5EED5EED

QUESTIONS = (
    "Where was the party held?",
    "Who brought the cake?",
    "What song closed the night?",
    "Which room flooded?",
)

# "Where ... and (2 of (cake, song, room))": the root gate is 2-of-2.
NESTED_SHAPE = encode_shape(
    AccessTree.all_of(["q0", AccessTree.threshold(2, ["q1", "q2", "q3"])])
)


def _entry(index: int) -> PuzzleEntry:
    return PuzzleEntry(
        question=QUESTIONS[index],
        answer_digest=bytes(range(index * 32, index * 32 + 32)),
        share_x=(index + 1) * 0x0123456789ABCDEF,
        blinded_share=bytes(range(255 - index * 32, 223 - index * 32, -1)),
    )


def _signed_flat_puzzle() -> Puzzle:
    puzzle = Puzzle(
        entries=tuple(_entry(i) for i in range(3)),
        k=2,
        puzzle_key=bytes(range(16)),
        url="dh://0000000000000007",
        sharer_name="alice",
    )
    return puzzle.sign(BLS, BLS_SECRET, BLS.generator * BLS_SECRET)


def _released(index: int) -> ReleasedShare:
    entry = _entry(index)
    return ReleasedShare(
        question=entry.question,
        entry_index=index,
        share_x=entry.share_x,
        blinded_share=entry.blinded_share,
    )

# Every vector is built from fixed values only — no RNG, no clocks.
GOLDEN = {
    "store_reply": StoreReply(puzzle_id=7),
    "display_request_c2": DisplayPuzzleRequest(construction=2, puzzle_id=41),
    "answer_submission": AnswerSubmission(
        construction=1,
        puzzle_id=3,
        requester="bob",
        digests={
            "Where was the party held?": bytes(range(32)),
            "Who brought the cake?": bytes(range(32, 64)),
        },
    ),
    "retract_request": RetractPuzzleRequest(construction=1, puzzle_id=9),
    "retract_reply": RetractReply(removed=True),
    "publish_post_friends": PublishPostRequest(
        author=User(user_id=1, name="alice"),
        content="solve puzzle #7 to view.",
        audience="friends",
    ),
    "publish_post_custom": PublishPostRequest(
        author=User(user_id=1, name="alice"),
        content="restricted",
        audience=frozenset({2, 5, 8}),
    ),
    "fetch_post": FetchPostRequest(viewer=User(user_id=2, name="bob"), post_id=7),
    "post_reply": PostReply(
        post=Post(
            post_id=7,
            author=User(user_id=1, name="alice"),
            content="solve puzzle #7 to view.",
            audience="friends",
        )
    ),
    "storage_put": StoragePutRequest(data=b"\x00\x01\xfe\xff encrypted blob"),
    "storage_get_reply": StorageGetReply(data=b"ciphertext bytes"),
    "error_reply": ErrorReply(
        code="transient-provider", message="injected post-publish failure",
        transient=True,
    ),
    # The policy-plane verbs (PR 8): sharer-attached policy text, the
    # explain evidence submission, and the derivation reply.
    "share_policy": SharePolicyRequest(
        construction=1,
        puzzle_id=3,
        policy_text="scope:group/trip and (2 of (ctx_a, ctx_b, ctx_c)"
        " or attr:escrow)",
    ),
    "explain_request": ExplainRequest(
        construction=1,
        puzzle_id=3,
        requester="bob",
        digests={
            "scope:group/trip": bytes(range(32)),
            "ctx_a": bytes(range(32, 64)),
        },
    ),
    "explain_reply": ExplainReply(
        explanation=Explanation(
            construction=1,
            puzzle_id=3,
            granted=False,
            policy_text="(scope:group/trip and ctx_a)",
            nodes=(
                NodeTrace(
                    path="0", kind="gate", label="and", threshold=2,
                    child_count=2, satisfied=1, passed=False,
                ),
                NodeTrace(
                    path="0.1", kind="leaf", label="scope:group/trip",
                    threshold=1, child_count=0, satisfied=1, passed=True,
                ),
                NodeTrace(
                    path="0.2", kind="leaf", label="ctx_a", threshold=1,
                    child_count=0, satisfied=0, passed=False,
                ),
            ),
        )
    ),
    # Batch envelopes carry fully-enveloped member frames, so their
    # vectors pin down the nested framing too.
    "batch_request": BatchRequest.of(
        StorageGetRequest(url="dh://0000000000000001"),
        StorageGetRequest(url="dh://0000000000000002"),
    ),
    "batch_reply": BatchReply.of(
        StorageGetReply(data=b"ciphertext bytes"),
        ErrorReply(
            code="storage",
            message="no object at dh://0000000000000002",
            transient=False,
        ),
    ),
    # Every registered type, and every irregular field shape, has its own
    # vector: the artifacts each message carries are pinned through it.
    "store_puzzle_signed": StorePuzzleRequest(puzzle=_signed_flat_puzzle()),
    "store_puzzle_nested": StorePuzzleRequest(
        puzzle=Puzzle(
            entries=tuple(_entry(i) for i in range(4)),
            k=2,
            puzzle_key=bytes(range(16, 32)),
            url="dh://0000000000000008",
            sharer_name="alice",
            policy_shape=NESTED_SHAPE,
        )
    ),
    "store_upload": StoreUploadRequest(
        record=C2Upload(
            puzzle_id=0,
            tree_perturbed=AccessTree.k_of_n(
                2,
                [
                    perturbed_attribute(q, "%040x" % (i + 1))
                    for i, q in enumerate(QUESTIONS[:3])
                ],
            ),
            pk_bytes=b"fixed public key bytes",
            mk_bytes=b"fixed master key bytes",
            url="dh://0000000000000009",
            sharer_name="alice",
        )
    ),
    "display_request_c1_rng": DisplayPuzzleRequest(
        construction=1, puzzle_id=3, rng_state=random.Random(2014).getstate()
    ),
    "retract_prepare": RetractPrepareRequest(construction=2, puzzle_id=4),
    "retract_commit": RetractCommitRequest(construction=2, puzzle_id=4),
    "retract_abort": RetractAbortRequest(construction=1, puzzle_id=9),
    "register_user": RegisterUserRequest(
        name="carol", profile={"school": "Lakeside", "city": "Oslo", "age": "31"}
    ),
    "befriend": BefriendRequest(
        a=User(user_id=1, name="alice"), b=User(user_id=2, name="bob")
    ),
    "publish_post_public": PublishPostRequest(
        author=User(user_id=1, name="alice"), content="open to all", audience="public"
    ),
    "publish_post_other": PublishPostRequest(
        author=User(user_id=1, name="alice"),
        content="left to the provider to refuse",
        audience="close-friends",
    ),
    "storage_get": StorageGetRequest(url="dh://0000000000000001"),
    "storage_exists": StorageExistsRequest(url="dh://0000000000000002"),
    "storage_delete": StorageDeleteRequest(url="dh://0000000000000003"),
    "display_reply_c1": DisplayReplyC1(
        displayed=DisplayedPuzzle(
            puzzle_id=3,
            questions=(QUESTIONS[2], QUESTIONS[0], QUESTIONS[1]),
            puzzle_key=bytes(range(16)),
            k=2,
        )
    ),
    "display_reply_c2": DisplayReplyC2(
        displayed=DisplayedPuzzleC2(
            puzzle_id=4, questions=QUESTIONS[:3], threshold=2
        )
    ),
    "release_reply": ReleaseReply(
        release=ShareRelease(
            puzzle_id=3,
            k=2,
            url="dh://0000000000000007",
            shares=(_released(0), _released(2)),
        )
    ),
    "release_reply_nested": ReleaseReply(
        release=ShareRelease(
            puzzle_id=5,
            k=2,
            url="dh://0000000000000008",
            shares=(_released(0), _released(1), _released(3)),
            policy_shape=NESTED_SHAPE,
        )
    ),
    "grant_reply": GrantReply(
        grant=AccessGrantC2(
            puzzle_id=4,
            url="dh://0000000000000009",
            pk_bytes=b"fixed public key bytes",
            mk_bytes=b"fixed master key bytes",
        )
    ),
    "retract_prepare_reply": RetractPrepareReply(url="dh://0000000000000009"),
    "user_reply": UserReply(user=User(user_id=3, name="carol")),
    "ack_reply": AckReply(),
    "storage_put_reply": StoragePutReply(url="dh://000000000000000a"),
    "storage_bool_reply": StorageBoolReply(value=False),
}


def regenerate() -> None:
    VECTOR_DIR.mkdir(exist_ok=True)
    for name, message in GOLDEN.items():
        (VECTOR_DIR / ("%s.bin" % name)).write_bytes(encode_message(message))


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_vector_round_trip(name):
    frame = (VECTOR_DIR / ("%s.bin" % name)).read_bytes()
    message = GOLDEN[name]
    assert decode_message(frame) == message, name
    assert encode_message(message) == frame, name


def test_no_orphan_vectors():
    on_disk = {p.stem for p in VECTOR_DIR.glob("*.bin")}
    assert on_disk == set(GOLDEN)


def test_every_registered_type_has_a_vector():
    from repro.proto.messages import MESSAGE_TYPES

    pinned = {type(message) for message in GOLDEN.values()}
    assert pinned == set(MESSAGE_TYPES.values())


def test_signed_puzzle_vector_verifies():
    """The signature inside the vector covers ``signed_payload()``, so
    this pins the signed layout as well as the wire layout."""
    frame = (VECTOR_DIR / "store_puzzle_signed.bin").read_bytes()
    puzzle = decode_message(frame).puzzle
    assert puzzle.signature and puzzle.verify_signature(BLS)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_vector_body_must_be_exact(name):
    """A well-framed body one byte short or one byte long is refused."""
    msg_type, body = open_envelope((VECTOR_DIR / ("%s.bin" % name)).read_bytes())
    if body:
        with pytest.raises(CodecError):
            decode_message(seal(msg_type, body[:-1]))
    with pytest.raises(CodecError):
        decode_message(seal(msg_type, body + b"\x00"))
