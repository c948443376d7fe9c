"""The social puzzle object Z_O of Construction 1 (paper section V-A).

    Z_O = { <q_1, H(a_1, K_Z), a_1 XOR d_1>, ...,
            <q_n, H(a_n, K_Z), a_n XOR d_n>,  n, k, K_Z, URL_O }

Each entry binds a question to (i) the keyed hash of its normalized answer
under the puzzle key K_Z — what the SP matches responses against — and
(ii) the Shamir share of the object secret, blinded with the answer.

**Blinding detail.** The paper writes ``a_i XOR d_i`` directly; answers and
shares are different lengths, so (like any real implementation must) we
XOR the share with a keystream derived from the answer:
``mask_i = HKDF(ikm=a_i, salt=K_Z, info="blind"||i)``. Anyone who knows
a_i removes the mask; to anyone who does not, the blinded share is
indistinguishable from random — the same two properties the paper's
security analysis uses.

Entries also carry the x-coordinate s_i of the share in the clear. This
matches the protocol: the SP returns ``<sigma(j), a XOR d>`` pairs, and
the x-coordinates are random field elements chosen independently of the
secret, so revealing them leaks nothing (Shamir's secrecy is over the
y-values).

A puzzle may be *signed* (BLS over every component, section VI's
countermeasure) so receivers can detect SP tampering.

**Nested policies.** A puzzle whose shares were dealt by the policy
plane's share-of-shares compiler (:mod:`repro.policy.compile`) carries
the label-free gate shape in ``policy_shape``; entries map to shape
leaves in order, and ``k`` is the root gate's threshold. Flat puzzles
leave the field empty and their byte encoding (and therefore their BLS
signature) is unchanged from the classic artifact — the shape blob is
appended only when present, and it is signature-covered when it is.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.core.errors import PuzzleParameterError
from repro.crypto.bls import BlsScheme
from repro.crypto.ec import CurveParams, Point
from repro.crypto.field import PrimeField
from repro.crypto.kdf import hkdf
from repro.crypto.mac import keyed_hash
from repro.crypto.shamir import Share
from repro.policy.compile import shape_tree
from repro.policy.model import PuzzlePolicy
from repro.util.codec import (
    BLOB,
    TAIL_BLOB,
    TEXT,
    U32,
    UINT256,
    WireRecord,
    record,
    seq,
    wire,
)

__all__ = ["PuzzleEntry", "Puzzle", "blind_share", "unblind_share"]


def _blind_mask(answer: bytes, puzzle_key: bytes, index: int, length: int) -> bytes:
    return hkdf(
        ikm=answer,
        length=length,
        salt=puzzle_key,
        info=b"repro.c1.blind." + index.to_bytes(4, "big"),
    )


def blind_share(
    share: Share, field: PrimeField, answer: bytes, puzzle_key: bytes, index: int
) -> bytes:
    """``a_i XOR d_i``: the share's y-value masked by the answer keystream."""
    width = field.byte_length
    y_bytes = share.y.to_bytes(width, "big")
    mask = _blind_mask(answer, puzzle_key, index, width)
    return bytes(a ^ b for a, b in zip(y_bytes, mask))


def unblind_share(
    x: int,
    blinded: bytes,
    field: PrimeField,
    answer: bytes,
    puzzle_key: bytes,
    index: int,
) -> Share:
    """Inverse of :func:`blind_share` for a receiver who knows the answer."""
    mask = _blind_mask(answer, puzzle_key, index, len(blinded))
    y = int.from_bytes(bytes(a ^ b for a, b in zip(blinded, mask)), "big")
    return Share(x=x, y=y % field.p)


@dataclass(frozen=True)
class PuzzleEntry(WireRecord):
    """One puzzle row <q_i, H(a_i, K_Z), s_i, a_i XOR d_i>."""

    question: str = wire(TEXT)
    answer_digest: bytes = wire(BLOB)
    share_x: int = wire(UINT256)  # fixed width keeps wire sizes stable
    blinded_share: bytes = wire(BLOB)


@dataclass(frozen=True)
class Puzzle(WireRecord):
    """The complete Z_O uploaded to the service provider."""

    entries: tuple[PuzzleEntry, ...] = wire(seq(record(PuzzleEntry)))
    k: int = wire(U32)
    puzzle_key: bytes = wire(BLOB)
    url: str = wire(TEXT)
    sharer_name: str = wire(TEXT, default="")
    signature: bytes = wire(BLOB, default=b"")  # BLS point encoding; empty = unsigned
    signer_public: bytes = wire(BLOB, default=b"")  # BLS public key point encoding
    # Encoded gate shape; empty = flat k-of-n, and then left off the wire.
    policy_shape: bytes = wire(TAIL_BLOB, default=b"")

    # The wire and signed order, which predates the field order.
    WIRE_ORDER = (
        "k", "puzzle_key", "url", "sharer_name", "entries",
        "signature", "signer_public", "policy_shape",
    )

    def __post_init__(self) -> None:
        if not self.entries:
            raise PuzzleParameterError("a puzzle needs at least one entry")
        if not 0 < self.k <= len(self.entries):
            raise PuzzleParameterError(
                "threshold k=%d out of range for n=%d entries"
                % (self.k, len(self.entries))
            )
        questions = [e.question for e in self.entries]
        if len(set(questions)) != len(questions):
            raise PuzzleParameterError("puzzle questions must be distinct")

    @property
    def n(self) -> int:
        return len(self.entries)

    @property
    def questions(self) -> list[str]:
        return [e.question for e in self.entries]

    def policy(self) -> PuzzlePolicy:
        """The puzzle's policy over its questions: the gate shape
        re-labeled with them (nested), or the paper's ``k of
        (q_1..q_n)`` (flat)."""
        if self.policy_shape:
            return PuzzlePolicy(shape_tree(self.policy_shape, self.questions))
        return PuzzlePolicy.from_k_of_n(self.k, self.questions)

    def entry_for(self, question: str) -> PuzzleEntry:
        for entry in self.entries:
            if entry.question == question:
                return entry
        raise KeyError("no entry for question %r" % question)

    def verify_response(self, question: str, response_digest: bytes) -> bool:
        """The SP-side check: does the keyed hash match?"""
        entry = self.entry_for(question)
        return entry.answer_digest == response_digest

    @staticmethod
    def response_digest(answer_normalized: bytes, puzzle_key: bytes) -> bytes:
        """What a receiver sends: H(a, K_Z)."""
        return keyed_hash(answer_normalized, puzzle_key)

    # -- signatures (section VI countermeasure) --------------------------------------

    def signed_payload(self) -> bytes:
        """Every SP-tamperable component: the wire encoding minus the
        signature fields.

        The policy shape joins the payload only when present so flat
        puzzles keep their classic signature bytes; when present it is
        covered — an SP rewriting gate thresholds is tampering exactly
        like rewriting k.
        """
        return self.to_bytes(omit=("signature", "signer_public"))

    def sign(self, scheme: BlsScheme, secret: int, public: Point) -> "Puzzle":
        signature = scheme.sign(secret, self.signed_payload())
        return replace(
            self,
            signature=signature.to_bytes(),
            signer_public=public.to_bytes(),
        )

    def verify_signature(self, scheme: BlsScheme) -> bool:
        """Check the sharer's signature over all components."""
        if not self.signature or not self.signer_public:
            return False
        params: CurveParams = scheme.params
        try:
            signature = Point.from_bytes(params, self.signature)
            public = Point.from_bytes(params, self.signer_public)
        except ValueError:
            return False
        return scheme.verify(public, self.signed_payload(), signature)
