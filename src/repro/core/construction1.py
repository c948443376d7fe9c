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

from repro.abe.access_tree import AccessTree
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
from repro.policy.compile import encode_shape, share_plan, shape_tree, solve_shape
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

    def upload(self, obj: bytes, context: Context, k: int, n: int) -> Puzzle:
        """The paper's Upload(O, k, n): encrypt, store, build Z_O.

        ``n`` questions are taken from the context (n <= N) and ``k`` is
        the knowledge threshold zeta_O.
        """
        if not 0 < k <= n:
            raise PuzzleParameterError("need 0 < k <= n, got k=%d n=%d" % (k, n))
        polynomial = Polynomial.random(self.field, k - 1)
        object_key = _object_key(int(polynomial.constant_term()))
        encrypted = gibberish.encrypt(obj, object_key)
        return self.upload_with_polynomial(encrypted, context, k, n, polynomial)

    def upload_with_polynomial(
        self,
        encrypted_obj: bytes,
        context: Context,
        k: int,
        n: int,
        polynomial: Polynomial,
    ) -> Puzzle:
        """Build and publish Z_O around an already-encrypted object using a
        caller-supplied sharing polynomial.

        Higher layers (e.g. :mod:`repro.core.album`) use this to derive
        several object keys from one secret; the polynomial's constant term
        is M_O and MUST have been generated fresh for this puzzle.
        """
        if not 0 < k <= n:
            raise PuzzleParameterError("need 0 < k <= n, got k=%d n=%d" % (k, n))
        if n > len(context):
            raise PuzzleParameterError(
                "puzzle needs n=%d pairs but context has only %d" % (n, len(context))
            )
        degree_ok = polynomial.degree == k - 1 or (
            polynomial.degree == -1 and k == 1  # zero constant term, k=1
        )
        if polynomial.field != self.field or not degree_ok:
            raise PuzzleParameterError(
                "sharing polynomial must be over the puzzle field with degree k-1"
            )

        xs: dict[int, None] = {}  # n distinct random x, in draw order
        while len(xs) < n:
            xs[secrets.randbelow(self.field.p - 1) + 1] = None
        return self._build_puzzle(
            encrypted_obj,
            [(pair.question, pair.answer_bytes()) for pair in context.pairs[:n]],
            [Share(x=x, y=int(polynomial(x))) for x in xs],
            k,
        )

    def upload_policy(
        self, obj: bytes, context: Context, policy: PuzzlePolicy
    ) -> Puzzle:
        """Upload under an arbitrary nested policy (the policy plane's
        share-of-shares compiler).

        The flat ``k of (q_1..q_n)`` policy degenerates to the classic
        :meth:`upload` artifact — same byte encoding, no shape blob — so
        existing receivers and golden vectors are untouched. A nested
        policy deals shares down the gate tree (fresh polynomial per
        gate, child position as x), blinds each leaf share under its
        question's answer exactly like a flat entry, and records the
        label-free gate shape in the puzzle.
        """
        policy.require_answerable(context)
        if policy.is_flat():
            flat = context.subset(policy.questions)
            return self.upload(obj, flat, policy.root_threshold, len(flat))

        secret_m = secrets.randbelow(self.field.p)
        encrypted = gibberish.encrypt(obj, _object_key(secret_m))
        return self._build_puzzle(
            encrypted,
            [
                (question, normalize_answer(context.answer_for(question)).encode())
                for question in policy.questions
            ],
            share_plan(policy.tree, self.field, secret_m),
            policy.root_threshold,
            policy_shape=encode_shape(policy.tree),
        )

    def _build_puzzle(
        self,
        encrypted_obj: bytes,
        pairs: list[tuple[str, bytes]],
        shares: list[Share],
        k: int,
        policy_shape: bytes = b"",
    ) -> Puzzle:
        """Store O_{K_O}, draw K_Z, blind each share under its
        (question, normalized answer) pair, then build Z_O — signed when
        the sharer has a BLS key pair."""
        url = self.storage.put(encrypted_obj)
        puzzle_key = secrets.token_bytes(16)
        entries = tuple(
            PuzzleEntry(
                question=question,
                answer_digest=Puzzle.response_digest(answer, puzzle_key),
                share_x=share.x,
                blinded_share=blind_share(
                    share, self.field, answer, puzzle_key, index
                ),
            )
            for index, ((question, answer), share) in enumerate(zip(pairs, shares))
        )
        puzzle = Puzzle(
            entries=entries,
            k=k,
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
        self._registrations[puzzle_id] = puzzle
        return puzzle_id

    def question_tree(self, puzzle_id: int) -> AccessTree:
        """The question-level policy tree of a stored puzzle: the gate
        shape re-labeled with the questions (nested), or the implicit
        height-1 ``k of (questions)`` gate (flat)."""
        puzzle = self._lookup(puzzle_id)
        if puzzle.policy_shape:
            return shape_tree(puzzle.policy_shape, puzzle.questions)
        return AccessTree.k_of_n(puzzle.k, puzzle.questions)

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

    def _release(self, answers: PuzzleAnswers) -> ShareRelease:
        """Release blinded shares iff the policy holds.

        Flat puzzles keep the paper's rule — >= k hashes match. A puzzle
        carrying a policy shape instead evaluates the gate tree over the
        matched questions (still hashes only).
        """
        puzzle = self._lookup(answers.puzzle_id)
        self.audit.record(
            b"".join(q.encode() + d for q, d in answers.digests.items())
        )
        released: list[ReleasedShare] = []
        for question, digest in answers.digests.items():
            try:
                entry = puzzle.entry_for(question)
            except KeyError:
                continue
            if entry.answer_digest == digest:
                released.append(
                    ReleasedShare(
                        question=question,
                        entry_index=puzzle.entries.index(entry),
                        share_x=entry.share_x,
                        blinded_share=entry.blinded_share,
                    )
                )
        if puzzle.policy_shape:
            tree = shape_tree(puzzle.policy_shape, puzzle.questions)
            if not tree.satisfied_by({r.question for r in released}):
                raise AccessDeniedError(
                    "the %d verified answers do not satisfy the puzzle policy"
                    % len(released)
                )
        elif len(released) < puzzle.k:
            raise AccessDeniedError(
                "only %d of the required %d answers verified"
                % (len(released), puzzle.k)
            )
        return ShareRelease(
            puzzle_id=answers.puzzle_id,
            k=puzzle.k,
            url=puzzle.url,
            shares=tuple(released),
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
