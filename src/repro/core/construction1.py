"""Construction 1: context-based access control from Shamir secret sharing
(paper section V-A).

Five subroutines, split across the three principals exactly as in Fig. 1:

* sharer S            — ``Upload(O, k, n)``
* service provider SP — ``DisplayPuzzle(Z_O)`` and ``Verify(u, h_1..h_r)``
* receiver u          — ``AnswerPuzzle(q_1..q_r, K_Z)`` and ``Access(...)``

The sharer draws a random degree-k polynomial P with secret M_O = P(0),
derives the object key K_O = H(M_O), encrypts O (GibberishAES container,
as the paper's JavaScript prototype does), stores it on the storage host
DH, and uploads the puzzle Z_O (questions, keyed answer hashes, blinded
shares, k, K_Z, URL_O) to the SP. The SP displays a random subset of
r in [k, n] questions; a receiver returns keyed hashes of her answers; the
SP releases the blinded shares of correctly answered questions once at
least k verify; the receiver unblinds k shares, interpolates M_O and
decrypts.

The SP handles only: questions, keyed hashes, blinded shares, K_Z and
URL_O — never a plaintext answer or the object. That is the surveillance
resistance property, and the integration tests assert it against the SP's
audit trail.
"""

from __future__ import annotations

import random
import secrets
from dataclasses import dataclass

from repro.core.context import Context, normalize_answer
from repro.core.errors import (
    AccessDeniedError,
    PuzzleParameterError,
    TamperDetectedError,
)
from repro.core.puzzle import Puzzle, PuzzleEntry, blind_share, unblind_share
from repro.core.service import PuzzleService
from repro.crypto import gibberish
from repro.crypto.bls import BlsKeyPair, BlsScheme
from repro.crypto.field import PrimeField
from repro.crypto.hashes import sha3_256
from repro.crypto.polynomial import Polynomial
from repro.crypto.shamir import Share, reconstruct_secret
from repro.osn.storage import StorageHost
from repro.policy.compile import encode_shape, share_plan, solve_shape
from repro.policy.model import PuzzlePolicy
from repro.util.codec import (
    BLOB,
    TEXT,
    U32,
    UINT256,
    WireRecord,
    mapping,
    record,
    rest,
    wire,
)

__all__ = [
    "C1_FIELD_PRIME",
    "DisplayedPuzzle",
    "PuzzleAnswers",
    "ShareRelease",
    "SharerC1",
    "PuzzleServiceC1",
    "ReceiverC1",
]

# The finite field F for secrets and shares: the largest 256-bit prime.
C1_FIELD_PRIME = 2**256 - 189


def _object_key(secret_m: int) -> bytes:
    """K_O = H(M_O): hex passphrase for the GibberishAES container."""
    return sha3_256(secret_m.to_bytes(32, "big")).hexdigest().encode()


@dataclass(frozen=True)
class DisplayedPuzzle(WireRecord):
    """What the SP shows a prospective receiver: a permuted random subset
    of r in [k, n] questions plus the puzzle key K_Z."""

    puzzle_id: int = wire(U32)
    questions: tuple[str, ...] = wire(rest(TEXT))
    puzzle_key: bytes = wire(BLOB)
    k: int = wire(U32)

    WIRE_ORDER = ("puzzle_id", "k", "puzzle_key", "questions")


@dataclass(frozen=True)
class PuzzleAnswers(WireRecord):
    """A receiver's response: keyed hashes H(a, K_Z) per question."""

    puzzle_id: int = wire(U32)
    # question -> H(answer, K_Z), running to the end of the body
    digests: dict[str, bytes] = wire(mapping(TEXT, BLOB, counted=False))


@dataclass(frozen=True)
class ReleasedShare(WireRecord):
    """One <sigma(j), a XOR d> element sent back for a correct answer."""

    question: str = wire(TEXT)
    entry_index: int = wire(U32)
    share_x: int = wire(UINT256)
    blinded_share: bytes = wire(BLOB)


@dataclass(frozen=True)
class ShareRelease(WireRecord):
    """The SP's reply when the puzzle policy is satisfied: blinded shares
    of the correctly answered questions plus URL_O.

    For a flat puzzle "satisfied" means >= k hashes matched; for a
    nested-policy puzzle the released entries satisfied the gate shape,
    which rides along in ``policy_shape`` so the receiver can run the
    share-of-shares reconstruction (entry indices identify shape leaves).
    """

    puzzle_id: int = wire(U32)
    k: int = wire(U32)
    url: str = wire(TEXT)
    shares: tuple[ReleasedShare, ...] = wire(rest(record(ReleasedShare)))
    policy_shape: bytes = wire(BLOB, default=b"")

    WIRE_ORDER = ("puzzle_id", "k", "url", "policy_shape", "shares")


class SharerC1:
    """The sharer role: builds puzzles and uploads encrypted objects."""

    def __init__(
        self,
        name: str,
        storage: StorageHost,
        bls: BlsScheme | None = None,
        field_prime: int = C1_FIELD_PRIME,
    ):
        self.name = name
        self.storage = storage
        self.field = PrimeField(field_prime, check_prime=False)
        self.bls = bls
        self.keys: BlsKeyPair | None = bls.keygen() if bls else None

    def upload_policy(
        self,
        obj: bytes,
        context: Context,
        policy: PuzzlePolicy,
        secret: int | None = None,
    ) -> Puzzle:
        """The paper's Upload(O, k, n), for any policy: encrypt O under
        K_O = H(M_O), store it on the DH and build Z_O.

        The flat policy ``k of (q_1..q_n)``
        (:meth:`~repro.policy.model.PuzzlePolicy.from_k_of_n`) is the
        paper's puzzle: one random degree-(k-1) polynomial with P(0) =
        M_O, shares at n distinct random x, and no shape blob. A nested
        policy deals shares down the gate tree instead (fresh polynomial
        per gate, child position as x) and records the label-free gate
        shape in the puzzle. Each leaf share is blinded under its
        question's answer either way, and the puzzle is signed when the
        sharer has a BLS key pair.

        ``secret`` is M_O, for a caller that derives more keys from it
        (an album's item keys); it MUST be fresh for this puzzle. By
        default M_O is drawn at random.
        """
        policy.require_answerable(context)
        questions = policy.questions
        secret_m = (
            secrets.randbelow(self.field.p) if secret is None else secret % self.field.p
        )
        if policy.is_flat():
            polynomial = Polynomial.random(
                self.field, policy.root_threshold - 1, constant_term=secret_m
            )
            xs: dict[int, None] = {}  # n distinct random x, in draw order
            while len(xs) < len(questions):
                xs[secrets.randbelow(self.field.p - 1) + 1] = None
            shares = [Share(x=x, y=int(polynomial(x))) for x in xs]
            policy_shape = b""
        else:
            shares = share_plan(policy.tree, self.field, secret_m)
            policy_shape = encode_shape(policy.tree)

        url = self.storage.put(gibberish.encrypt(obj, _object_key(secret_m)))
        puzzle_key = secrets.token_bytes(16)
        entries = []
        for index, (question, share) in enumerate(zip(questions, shares)):
            answer = normalize_answer(context.answer_for(question)).encode()
            entries.append(
                PuzzleEntry(
                    question=question,
                    answer_digest=Puzzle.response_digest(answer, puzzle_key),
                    share_x=share.x,
                    blinded_share=blind_share(
                        share, self.field, answer, puzzle_key, index
                    ),
                )
            )
        puzzle = Puzzle(
            entries=tuple(entries),
            k=policy.root_threshold,
            puzzle_key=puzzle_key,
            url=url,
            sharer_name=self.name,
            policy_shape=policy_shape,
        )
        if self.bls and self.keys:
            puzzle = puzzle.sign(self.bls, self.keys.secret, self.keys.public)
        return puzzle


class PuzzleServiceC1(PuzzleService):
    """The SP-side access-control service for Construction 1: stores
    puzzles, displays question subsets and verifies keyed answer hashes
    (registry, retract saga, Explain and guess budget in
    :class:`~repro.core.service.PuzzleService`)."""

    construction = 1

    def store_puzzle(self, puzzle: Puzzle) -> int:
        """Accept an uploaded Z_O; returns its post/puzzle identifier."""
        self.audit.record(puzzle.to_bytes())
        puzzle_id = self._allocate_id()
        self._install(puzzle_id, puzzle)
        return puzzle_id

    def _matched_questions(self, answers: PuzzleAnswers) -> set[str]:
        puzzle = self._lookup(answers.puzzle_id)
        matched: set[str] = set()
        for question, digest in answers.digests.items():
            try:
                entry = puzzle.entry_for(question)
            except KeyError:
                continue
            if entry.answer_digest == digest:
                matched.add(question)
        return matched

    def display_puzzle(
        self, puzzle_id: int, rng: random.Random | None = None
    ) -> DisplayedPuzzle:
        """DisplayPuzzle(Z_O): random r in [k, n], permutation sigma.

        Nested-policy puzzles display every question (permuted): the
        paper's r-sampling is a flat-threshold notion, and withholding a
        leaf could make a satisfiable branch (e.g. the escrow arm of an
        OR) unanswerable.
        """
        puzzle = self._lookup(puzzle_id)
        rng = rng or random.Random(secrets.randbits(64))
        r = puzzle.n if puzzle.policy_shape else rng.randint(puzzle.k, puzzle.n)
        questions = rng.sample(puzzle.questions, r)
        return DisplayedPuzzle(
            puzzle_id=puzzle_id,
            questions=tuple(questions),
            puzzle_key=puzzle.puzzle_key,
            k=puzzle.k,
        )

    def _grant(self, answers: PuzzleAnswers, matched: set[str]) -> ShareRelease:
        """The blinded shares of the matched questions, plus URL_O and
        the gate shape the receiver reconstructs along."""
        puzzle = self._lookup(answers.puzzle_id)
        return ShareRelease(
            puzzle_id=answers.puzzle_id,
            k=puzzle.k,
            url=puzzle.url,
            shares=tuple(
                ReleasedShare(
                    question=entry.question,
                    entry_index=index,
                    share_x=entry.share_x,
                    blinded_share=entry.blinded_share,
                )
                for index, entry in enumerate(puzzle.entries)
                if entry.question in matched
            ),
            policy_shape=puzzle.policy_shape,
        )


class ReceiverC1:
    """The receiver role: answers puzzles and reconstructs objects."""

    def __init__(
        self,
        name: str,
        storage: StorageHost,
        bls: BlsScheme | None = None,
        field_prime: int = C1_FIELD_PRIME,
    ):
        self.name = name
        self.storage = storage
        self.field = PrimeField(field_prime, check_prime=False)
        self.bls = bls

    def answer_puzzle(
        self, displayed: DisplayedPuzzle, knowledge: Context
    ) -> PuzzleAnswers:
        """AnswerPuzzle: keyed hashes for every displayed question the
        receiver believes she can answer."""
        digests: dict[str, bytes] = {}
        for question in displayed.questions:
            if knowledge.knows(question):
                answer = normalize_answer(knowledge.answer_for(question)).encode()
                digests[question] = Puzzle.response_digest(
                    answer, displayed.puzzle_key
                )
        return PuzzleAnswers(puzzle_id=displayed.puzzle_id, digests=digests)

    def recover_object_secret(
        self,
        release: ShareRelease,
        displayed: DisplayedPuzzle,
        knowledge: Context,
        expected_signature: Puzzle | None = None,
    ) -> int:
        """Unblind k released shares and interpolate M_O.

        When the sharer signed the puzzle and the receiver holds the signed
        copy (e.g. re-fetched out of band), verifying it first detects SP
        tampering with URL_O / K_Z / questions (section VI-A). Exposed
        separately from :meth:`access` so higher layers (albums) can derive
        multiple object keys from one solved puzzle.
        """
        if expected_signature is not None:
            if self.bls is None:
                raise PuzzleParameterError("no BLS scheme configured for verification")
            if not expected_signature.verify_signature(self.bls):
                raise TamperDetectedError("puzzle signature verification failed")

        if release.policy_shape:
            # Nested policy: unblind every released share and run the
            # share-of-shares recursion over the gate shape (entry index
            # identifies the shape leaf, share_x its position under its
            # parent gate).
            leaf_values: dict[int, int] = {}
            for released in release.shares:
                answer = normalize_answer(
                    knowledge.answer_for(released.question)
                ).encode()
                share = unblind_share(
                    released.share_x,
                    released.blinded_share,
                    self.field,
                    answer,
                    displayed.puzzle_key,
                    released.entry_index,
                )
                leaf_values[released.entry_index] = share.y
            secret = solve_shape(release.policy_shape, leaf_values, self.field)
            if secret is None:
                raise AccessDeniedError(
                    "released shares do not satisfy the puzzle policy"
                )
            return secret

        if len(release.shares) < release.k:
            raise AccessDeniedError(
                "release contains %d shares but k=%d" % (len(release.shares), release.k)
            )

        shares: list[Share] = []
        for released in release.shares[: release.k]:
            answer = normalize_answer(knowledge.answer_for(released.question)).encode()
            shares.append(
                unblind_share(
                    released.share_x,
                    released.blinded_share,
                    self.field,
                    answer,
                    displayed.puzzle_key,
                    released.entry_index,
                )
            )
        return int(reconstruct_secret(self.field, shares, release.k))

    def access(
        self,
        release: ShareRelease,
        displayed: DisplayedPuzzle,
        knowledge: Context,
        expected_signature: Puzzle | None = None,
    ) -> bytes:
        """Access: recover M_O, fetch O_{K_O} from the DH and decrypt."""
        secret_m = self.recover_object_secret(
            release, displayed, knowledge, expected_signature=expected_signature
        )
        encrypted = self.storage.get(release.url)
        try:
            return gibberish.decrypt(encrypted, _object_key(secret_m))
        except ValueError as exc:
            raise TamperDetectedError(
                "object decryption failed — wrong answers or tampered storage"
            ) from exc
