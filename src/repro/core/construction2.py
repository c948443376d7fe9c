"""Construction 2: context-based access control from CP-ABE
(paper section V-B).

The sharer encrypts the object under a height-1 access tree tau whose root
is a k-of-N threshold gate and whose leaves carry (question, answer)
attributes. Two algorithms are new relative to vanilla CP-ABE:

* ``Perturb(tau)``  — replace every leaf's answer with its hash H(a_i),
  producing tau'. tau' goes to the SP (for answer verification) and is
  embedded in the ciphertext CT' stored on the DH, so neither service ever
  holds a plaintext answer.
* ``Reconstruct(tau')`` — a receiver who knows >= k answers replaces the
  matching hashes with the real answers, yielding tau^; substituting tau^
  into CT' gives a decryptable ciphertext.

The receiver then runs the *public* KeyGen(MK, S) with her real answer
attributes (the paper publishes PK and MK to the whole social network —
confidentiality rests solely on knowledge of the context, mirroring
Construction 1) and decrypts.

Notable fidelity point: the paper's prototype could not rewrite the cpabe
toolkit's ciphertext encoding, so it shipped CT with the *unperturbed*
tree, sacrificing surveillance resistance "only in the implementation".
Our serialization is our own, so the full design is implemented; a
``legacy_unperturbed_ciphertext`` switch reproduces the prototype's
weakened behaviour for the security-analysis experiments.

Answer hashes default to SHA-1 exactly because the paper's Implementation
2 uses OpenSSL SHA-1 (``digestmod`` accepts any from-scratch hash).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.abe.access_tree import AccessTree
from repro.abe.cpabe import CPABE, HybridCiphertext, MasterKey, PolicyNotSatisfiedError, PublicKey
from repro.abe.serialize import (
    decode_access_tree,
    decode_hybrid_ciphertext,
    decode_master_key,
    decode_public_key,
    encode_access_tree,
    encode_hybrid_ciphertext,
    encode_master_key,
    encode_public_key,
)
from repro.core.context import Context, normalize_answer
from repro.core.errors import (
    AccessDeniedError,
    PuzzleParameterError,
    TamperDetectedError,
)
from repro.core.service import PuzzleService
from repro.crypto.ec import CurveParams
from repro.crypto.hashes import new as new_hash
from repro.crypto.modes import IntegrityError
from repro.osn.storage import AuditTrail, StorageHost
from repro.policy.compile import compile_tree_c2
from repro.policy.model import PuzzlePolicy
from repro.util.codec import (
    BLOB,
    TEXT,
    U32,
    Kind,
    WireRecord,
    blob,
    mapping,
    rest,
    wire,
)

__all__ = [
    "leaf_attribute",
    "perturbed_attribute",
    "answer_digest_hex",
    "perturb_tree",
    "reconstruct_tree",
    "SharerC2",
    "PuzzleServiceC2",
    "ReceiverC2",
    "C2Upload",
    "DisplayedPuzzleC2",
    "PuzzleAnswersC2",
    "AccessGrantC2",
]

# Unit separator: cannot occur in normalized questions/answers.
_SEP = "\x1f"
_HASH_PREFIX = "#"


def leaf_attribute(question: str, answer: str) -> str:
    """The real attribute of a leaf: question || answer (normalized)."""
    return question + _SEP + normalize_answer(answer)


def answer_digest_hex(answer: str, digestmod: str = "sha1") -> str:
    """H(a_i) in hex — what the perturbed tree and the SP's check use."""
    return new_hash(digestmod, normalize_answer(answer).encode()).hexdigest()


def perturbed_attribute(question: str, digest_hex: str) -> str:
    """A leaf label carrying H(a_i) instead of a_i."""
    return question + _SEP + _HASH_PREFIX + digest_hex


def split_attribute(attribute: str) -> tuple[str, str]:
    """(question, answer-or-hash-part) of a leaf label."""
    question, _, rest = attribute.partition(_SEP)
    if not rest:
        raise PuzzleParameterError("malformed leaf attribute %r" % attribute)
    return question, rest


def is_perturbed(attribute: str) -> bool:
    _, rest = split_attribute(attribute)
    return rest.startswith(_HASH_PREFIX)


def perturb_tree(tree: AccessTree, digestmod: str = "sha1") -> AccessTree:
    """Perturb(tau): hash every leaf's answer part (paper's new algorithm)."""

    def relabel(attribute: str) -> str:
        question, rest = split_attribute(attribute)
        if rest.startswith(_HASH_PREFIX):
            return attribute  # already perturbed — idempotent
        digest = new_hash(digestmod, rest.encode()).hexdigest()
        return perturbed_attribute(question, digest)

    return tree.relabel(relabel)


def reconstruct_tree(
    perturbed: AccessTree, knowledge: Context, digestmod: str = "sha1"
) -> tuple[AccessTree, list[str]]:
    """Reconstruct(tau'): substitute known answers back for their hashes.

    Returns the (partially) reconstructed tree tau^ plus the list of real
    attributes that were resolved — the receiver's KeyGen set S. Hashes
    the receiver cannot invert stay perturbed (and will simply not match
    any key attribute, exactly as the paper intends).
    """
    resolved: list[str] = []

    def relabel(attribute: str) -> str:
        question, rest = split_attribute(attribute)
        if not rest.startswith(_HASH_PREFIX):
            # Already a real attribute (legacy unperturbed ciphertext).
            # It still only helps a receiver who knows the answer herself.
            if knowledge.knows(question) and (
                normalize_answer(knowledge.answer_for(question)) == rest
            ):
                resolved.append(attribute)
            return attribute
        if not knowledge.knows(question):
            return attribute
        candidate = normalize_answer(knowledge.answer_for(question))
        digest = new_hash(digestmod, candidate.encode()).hexdigest()
        if _HASH_PREFIX + digest != rest:
            return attribute  # the receiver's answer is wrong
        real = question + _SEP + candidate
        resolved.append(real)
        return real

    return perturbed.relabel(relabel), resolved


# The perturbed tree tau' inside a blob, in the CP-ABE artifact format.
_TREE = Kind(
    lambda tree: blob(encode_access_tree(tree)),
    lambda reader: decode_access_tree(reader.blob()),
)


@dataclass(frozen=True)
class C2Upload(WireRecord):
    """What the sharer ships: tau' + PK + MK to the SP, CT' to the DH.

    ``file_sizes`` records the four-file split of the paper's prototype
    (details.txt, pub_key, master_key, message.txt.cpabe) for network
    accounting.
    """

    puzzle_id: int = wire(U32)
    tree_perturbed: AccessTree = wire(_TREE)
    pk_bytes: bytes = wire(BLOB)
    mk_bytes: bytes = wire(BLOB)
    url: str = wire(TEXT)
    sharer_name: str = wire(TEXT)

    def policy(self) -> PuzzlePolicy:
        """tau' with every leaf reduced to its question: the policy over
        questions. A tree with two leaves for one question has none and
        raises :class:`~repro.policy.model.PolicyError`, because the SP
        matches answers per question."""
        return PuzzlePolicy(
            self.tree_perturbed.relabel(lambda attribute: split_attribute(attribute)[0])
        )

    def file_sizes(self) -> dict[str, int]:
        return {
            "details.txt": len(encode_access_tree(self.tree_perturbed)),
            "pub_key": len(self.pk_bytes),
            "master_key": len(self.mk_bytes),
        }


@dataclass(frozen=True)
class DisplayedPuzzleC2(WireRecord):
    """Questions shown by the SP (from tau')."""

    puzzle_id: int = wire(U32)
    questions: tuple[str, ...] = wire(rest(TEXT))
    threshold: int = wire(U32)

    WIRE_ORDER = ("puzzle_id", "threshold", "questions")


@dataclass(frozen=True)
class PuzzleAnswersC2(WireRecord):
    """Receiver response: hex answer hashes per question."""

    puzzle_id: int = wire(U32)
    # question -> H(answer) hex, running to the end of the body
    digests: dict[str, str] = wire(mapping(TEXT, TEXT, counted=False))


@dataclass(frozen=True)
class AccessGrantC2(WireRecord):
    """SP reply on success: where the ciphertext lives, plus PK and MK."""

    puzzle_id: int = wire(U32)
    url: str = wire(TEXT)
    pk_bytes: bytes = wire(BLOB)
    mk_bytes: bytes = wire(BLOB)


class SharerC2:
    """Sharer role for Construction 2."""

    def __init__(
        self,
        name: str,
        storage: StorageHost,
        params: CurveParams,
        digestmod: str = "sha1",
        legacy_unperturbed_ciphertext: bool = False,
    ):
        self.name = name
        self.storage = storage
        self.params = params
        self.digestmod = digestmod
        self.legacy_unperturbed_ciphertext = legacy_unperturbed_ciphertext
        self.abe = CPABE(params)

    def upload_policy(
        self, obj: bytes, context: Context, policy: PuzzlePolicy
    ) -> tuple[C2Upload, bytes]:
        """Setup + Encrypt + Perturb + store, for any policy.

        Every requirement leaf becomes a (question, answer) attribute and
        the tree goes straight into CP-ABE ``Encrypt``: the flat policy
        ``k of (q_1..q_n)`` is the paper's height-1 tree of Fig. 3, and
        nested AND/OR/threshold gates are an extension past the paper
        (the SP's Verify evaluates the same tree over hashed answers).

        Returns the SP-bound record and the ciphertext bytes bound for the
        DH (already stored; bytes returned for cost accounting).
        """
        if policy.is_flat() and policy.root_threshold == len(policy.questions) == 1:
            # The paper: "CP-ABE does not support (1,1) threshold" — the
            # toolkit rejects a single-child root, so observations start
            # at N = 2. We keep the restriction for fidelity.
            raise PuzzleParameterError("CP-ABE does not support a (1, 1) threshold")
        tree = compile_tree_c2(policy, context)
        pk, mk = self.abe.setup()
        ciphertext = self.abe.encrypt_bytes(pk, obj, tree)

        perturbed = perturb_tree(tree, self.digestmod)
        if not self.legacy_unperturbed_ciphertext:
            ciphertext = ciphertext.with_tree(perturbed)
        ct_bytes = encode_hybrid_ciphertext(ciphertext)
        url = self.storage.put(ct_bytes)

        record = C2Upload(
            puzzle_id=0,  # assigned by the SP at store time
            tree_perturbed=perturbed,
            pk_bytes=encode_public_key(pk),
            mk_bytes=encode_master_key(self.params, mk),
            url=url,
            sharer_name=self.name,
        )
        return record, ct_bytes


class PuzzleServiceC2(PuzzleService):
    """SP-side service for Construction 2: holds tau', PK, MK and URL_O
    (registry, retract saga, Explain and guess budget in
    :class:`~repro.core.service.PuzzleService`)."""

    construction = 2

    def __init__(
        self,
        audit: AuditTrail | None = None,
        digestmod: str = "sha1",
        max_failures: int | None = None,
    ):
        super().__init__(audit=audit, max_failures=max_failures)
        self.digestmod = digestmod

    def store_upload(self, record: C2Upload) -> int:
        self.audit.record(encode_access_tree(record.tree_perturbed))
        self.audit.record(record.pk_bytes)
        self.audit.record(record.mk_bytes)
        self.audit.record(record.url.encode())
        puzzle_id = self._allocate_id()
        self._install(puzzle_id, replace(record, puzzle_id=puzzle_id))
        return puzzle_id

    def _matched_questions(self, answers: PuzzleAnswersC2) -> set[str]:
        """Match hashed answers against the hashes embedded in tau' —
        only hashes, so surveillance resistance is unchanged."""
        record = self._lookup(answers.puzzle_id)
        matched: set[str] = set()
        for attribute in record.tree_perturbed.attributes():
            question, rest = split_attribute(attribute)
            if not rest.startswith(_HASH_PREFIX):
                continue
            if answers.digests.get(question) == rest[len(_HASH_PREFIX) :]:
                matched.add(question)
        return matched

    def display_puzzle(self, puzzle_id: int) -> DisplayedPuzzleC2:
        policy = self._policy(puzzle_id)
        return DisplayedPuzzleC2(
            puzzle_id=puzzle_id,
            questions=policy.questions,
            threshold=policy.root_threshold,
        )

    def _grant(self, answers: PuzzleAnswersC2, matched: set[str]) -> AccessGrantC2:
        """Where CT' lives, plus PK and MK."""
        record = self._lookup(answers.puzzle_id)
        return AccessGrantC2(
            puzzle_id=answers.puzzle_id,
            url=record.url,
            pk_bytes=record.pk_bytes,
            mk_bytes=record.mk_bytes,
        )


class ReceiverC2:
    """Receiver role: reconstruct the tree, KeyGen with real answers,
    decrypt."""

    def __init__(
        self,
        name: str,
        storage: StorageHost,
        params: CurveParams,
        digestmod: str = "sha1",
    ):
        self.name = name
        self.storage = storage
        self.params = params
        self.digestmod = digestmod
        self.abe = CPABE(params)

    def answer_puzzle(
        self, displayed: DisplayedPuzzleC2, knowledge: Context
    ) -> PuzzleAnswersC2:
        digests: dict[str, str] = {}
        for question in displayed.questions:
            if knowledge.knows(question):
                digests[question] = answer_digest_hex(
                    knowledge.answer_for(question), self.digestmod
                )
        return PuzzleAnswersC2(puzzle_id=displayed.puzzle_id, digests=digests)

    def access(self, grant: AccessGrantC2, knowledge: Context) -> bytes:
        """Download CT', Reconstruct tau^, KeyGen(MK, S), Decrypt."""
        ct_bytes = self.storage.get(grant.url)
        ciphertext: HybridCiphertext = decode_hybrid_ciphertext(self.params, ct_bytes)
        pk: PublicKey = decode_public_key(self.params, grant.pk_bytes)
        mk: MasterKey = decode_master_key(self.params, grant.mk_bytes)

        reconstructed, resolved = reconstruct_tree(
            ciphertext.header.tree, knowledge, self.digestmod
        )
        if not resolved:
            raise AccessDeniedError("no answer hash could be inverted")
        ciphertext = ciphertext.with_tree(reconstructed)

        secret_key = self.abe.keygen(pk, mk, set(resolved))
        try:
            return self.abe.decrypt_bytes(pk, secret_key, ciphertext)
        except PolicyNotSatisfiedError as exc:
            raise AccessDeniedError(str(exc)) from exc
        except IntegrityError as exc:
            raise TamperDetectedError(
                "ciphertext body failed its integrity check — tampered storage"
            ) from exc
