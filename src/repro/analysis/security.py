"""Executable security analysis (paper section VI).

Each function stages one adversarial scenario from the paper against the
*real* protocol implementation and reports whether the attack succeeded.
The integration tests pin the expected outcomes:

=====================================================  ==================
Scenario                                               Expected
=====================================================  ==================
Semi-honest SP without context (VI-A)                  fails
Semi-honest SP who knows the context (VI-A)            succeeds (by design)
SP dictionary attack on low-entropy answers            succeeds (caveat)
Colluding ST-R_O users, pooled knowledge < k (VI-C)    fails
Colluding users pooling >= k correct answers (VI-C)    succeeds (covert channel)
Malicious SP verification-feedback collusion (VI-C)    succeeds (conceded weakness)
Malicious SP tampers URL_O, unsigned puzzle (VI-A)     DOS succeeds
Malicious SP tampers URL_O, signed puzzle (VI-A)       detected
Malicious DH tampers stored object (VI-B)              DOS, but detected
=====================================================  ==================

The "succeeds" rows are the paper's own concessions; reproducing them is
as much a part of the reproduction as the security guarantees.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

from repro.core.construction1 import PuzzleServiceC1, ReceiverC1
from repro.core.construction2 import (
    PuzzleServiceC2,
    ReceiverC2,
    SharerC2,
    answer_digest_hex,
    split_attribute,
)
from repro.core.context import Context, QAPair, normalize_answer
from repro.core.errors import AccessDeniedError, TamperDetectedError
from repro.core.puzzle import Puzzle, unblind_share
from repro.crypto import gibberish
from repro.crypto.bls import BlsScheme
from repro.crypto.ec import CurveParams
from repro.crypto.field import PrimeField
from repro.crypto.hashes import sha3_256
from repro.crypto.mac import keyed_hash
from repro.crypto.shamir import Share, reconstruct_secret
from repro.osn.storage import StorageHost

__all__ = [
    "AttackOutcome",
    "semi_honest_sp_attack_c1",
    "sp_dictionary_attack_c1",
    "sp_dictionary_attack_c2",
    "collusion_attack_c1",
    "malicious_sp_feedback_collusion_c1",
    "sp_url_tampering_c1",
    "dh_object_tampering_c1",
]


@dataclass(frozen=True)
class AttackOutcome:
    """Result of one staged attack."""

    name: str
    succeeded: bool
    detail: str


def _object_key(secret_m: int) -> bytes:
    return sha3_256(secret_m.to_bytes(32, "big")).hexdigest().encode()


def _try_decrypt(storage: StorageHost, url: str, secret_m: int) -> bytes | None:
    try:
        return gibberish.decrypt(storage.get(url), _object_key(secret_m))
    except ValueError:
        return None


def semi_honest_sp_attack_c1(
    puzzle: Puzzle,
    storage: StorageHost,
    known_context: Context | None,
    field_prime: int,
    obj: bytes,
) -> AttackOutcome:
    """Section VI-A: the SP holds Z_O and can download O_{K_O} from the DH.

    With knowledge of >= k context answers the SP decrypts like any member
    of R_O; without it, the information-theoretic security of Shamir's
    scheme leaves every candidate secret equally likely.
    """
    field = PrimeField(field_prime, check_prime=False)
    shares: list[Share] = []
    for index, entry in enumerate(puzzle.entries):
        if known_context is None or not known_context.knows(entry.question):
            continue
        answer = normalize_answer(known_context.answer_for(entry.question)).encode()
        if keyed_hash(answer, puzzle.puzzle_key) != entry.answer_digest:
            continue
        shares.append(
            unblind_share(
                entry.share_x, entry.blinded_share, field, answer,
                puzzle.puzzle_key, index,
            )
        )
    if len(shares) < puzzle.k:
        return AttackOutcome(
            name="semi-honest SP (insufficient context)",
            succeeded=False,
            detail="SP recovered only %d of the %d shares needed"
            % (len(shares), puzzle.k),
        )
    secret_m = int(reconstruct_secret(field, shares, puzzle.k))
    plaintext = _try_decrypt(storage, puzzle.url, secret_m)
    return AttackOutcome(
        name="semi-honest SP (knows context)",
        succeeded=plaintext == obj,
        detail="SP reconstructed K_O from %d known answers" % len(shares),
    )


def sp_dictionary_attack_c1(
    puzzle: Puzzle,
    storage: StorageHost,
    vocabulary: dict[str, list[str]],
    field_prime: int,
    obj: bytes,
) -> AttackOutcome:
    """Offline dictionary attack: the SP holds K_Z in Z_O, so it can test
    candidate answers against the stored keyed hashes. Succeeds whenever
    answer entropy is low — the usability caveat the design inherits."""
    field = PrimeField(field_prime, check_prime=False)
    shares: list[Share] = []
    cracked = 0
    for index, entry in enumerate(puzzle.entries):
        for candidate in vocabulary.get(entry.question, []):
            answer = normalize_answer(candidate).encode()
            if keyed_hash(answer, puzzle.puzzle_key) == entry.answer_digest:
                cracked += 1
                shares.append(
                    unblind_share(
                        entry.share_x, entry.blinded_share, field, answer,
                        puzzle.puzzle_key, index,
                    )
                )
                break
    if len(shares) < puzzle.k:
        return AttackOutcome(
            name="SP dictionary attack (C1)",
            succeeded=False,
            detail="dictionary cracked only %d answers; %d needed"
            % (cracked, puzzle.k),
        )
    secret_m = int(reconstruct_secret(field, shares, puzzle.k))
    plaintext = _try_decrypt(storage, puzzle.url, secret_m)
    return AttackOutcome(
        name="SP dictionary attack (C1)",
        succeeded=plaintext == obj,
        detail="dictionary cracked %d answers and rebuilt K_O" % cracked,
    )


def sp_dictionary_attack_c2(
    service: PuzzleServiceC2,
    puzzle_id: int,
    storage: StorageHost,
    vocabulary: dict[str, list[str]],
    params: CurveParams,
    obj: bytes,
    digestmod: str = "sha1",
) -> AttackOutcome:
    """The C2 analogue is *easier* for the adversary: the perturbed tree
    stores unkeyed hashes H(a_i), so a dictionary can even be precomputed
    across puzzles. With enough cracked answers the SP runs the public
    KeyGen and decrypts exactly as a legitimate receiver would."""
    record = service._lookup(puzzle_id)
    cracked: dict[str, str] = {}
    for attribute in record.tree_perturbed.attributes():
        question, rest = split_attribute(attribute)
        if not rest.startswith("#"):
            continue
        digest = rest[1:]
        for candidate in vocabulary.get(question, []):
            if answer_digest_hex(candidate, digestmod) == digest:
                cracked[question] = candidate
                break
    knowledge_pairs = [QAPair(q, a) for q, a in cracked.items()]
    if not knowledge_pairs:
        return AttackOutcome(
            name="SP dictionary attack (C2)",
            succeeded=False,
            detail="dictionary cracked no answers",
        )
    receiver = ReceiverC2("adversary-sp", storage, params, digestmod=digestmod)
    try:
        grant = service.verify(
            receiver.answer_puzzle(
                service.display_puzzle(puzzle_id), Context(knowledge_pairs)
            )
        )
        plaintext = receiver.access(grant, Context(knowledge_pairs))
    except AccessDeniedError:
        return AttackOutcome(
            name="SP dictionary attack (C2)",
            succeeded=False,
            detail="cracked %d answers, below threshold" % len(cracked),
        )
    return AttackOutcome(
        name="SP dictionary attack (C2)",
        succeeded=plaintext == obj,
        detail="dictionary cracked %d answers" % len(cracked),
    )


def collusion_attack_c1(
    service: PuzzleServiceC1,
    puzzle_id: int,
    storage: StorageHost,
    colluder_knowledge: list[Context],
    full_context: Context,
    obj: bytes,
) -> AttackOutcome:
    """Section VI-C: users in S_T - R_O pool their (correct and incorrect)
    answers through a covert channel and submit the union. Against an
    honest SP this succeeds iff their pooled *correct* answers reach k —
    i.e. iff collectively they already know the context."""
    pooled: dict[str, str] = {}
    for knowledge in colluder_knowledge:
        for pair in knowledge.pairs:
            pooled.setdefault(pair.question, pair.answer)
    pooled_context = Context(QAPair(q, a) for q, a in pooled.items())

    receiver = ReceiverC1("colluders", storage)
    displayed = service.display_puzzle(puzzle_id, rng=random.Random(7))
    answers = receiver.answer_puzzle(displayed, pooled_context)
    try:
        release = service.verify(answers)
        plaintext = receiver.access(release, displayed, pooled_context)
    except (AccessDeniedError, TamperDetectedError) as exc:
        return AttackOutcome(
            name="colluding users (honest SP)",
            succeeded=False,
            detail="pooled submission rejected: %s" % exc,
        )
    correct = sum(
        1
        for question, answer in pooled.items()
        if full_context.knows(question)
        and normalize_answer(answer) == normalize_answer(full_context.answer_for(question))
    )
    return AttackOutcome(
        name="colluding users (honest SP)",
        succeeded=plaintext == obj,
        detail="pooled %d correct answers" % correct,
    )


def malicious_sp_feedback_collusion_c1(
    puzzle: Puzzle,
    storage: StorageHost,
    colluder_knowledge: list[Context],
    field_prime: int,
    obj: bytes,
) -> AttackOutcome:
    """Section VI-C's strong scenario: a malicious SP leaks, per colluder,
    WHICH of their answers verified (even though each stayed below k).
    The colluders then assemble a list of >= k known-correct answers and
    reconstruct the key. The paper concedes this succeeds."""
    verified: dict[str, str] = {}
    for knowledge in colluder_knowledge:
        for pair in knowledge.pairs:
            try:
                entry = puzzle.entry_for(pair.question)
            except KeyError:
                continue
            answer = pair.answer_bytes()
            # The malicious SP runs the real verification and leaks the bit.
            if keyed_hash(answer, puzzle.puzzle_key) == entry.answer_digest:
                verified[pair.question] = pair.answer
    if len(verified) < puzzle.k:
        return AttackOutcome(
            name="malicious SP feedback collusion",
            succeeded=False,
            detail="colluders verified only %d answers jointly" % len(verified),
        )
    field = PrimeField(field_prime, check_prime=False)
    shares: list[Share] = []
    for index, entry in enumerate(puzzle.entries):
        if entry.question in verified:
            answer = normalize_answer(verified[entry.question]).encode()
            shares.append(
                unblind_share(
                    entry.share_x, entry.blinded_share, field, answer,
                    puzzle.puzzle_key, index,
                )
            )
    secret_m = int(reconstruct_secret(field, shares, puzzle.k))
    plaintext = _try_decrypt(storage, puzzle.url, secret_m)
    return AttackOutcome(
        name="malicious SP feedback collusion",
        succeeded=plaintext == obj,
        detail="colluders assembled %d verified answers" % len(verified),
    )


def sp_url_tampering_c1(
    puzzle: Puzzle,
    storage: StorageHost,
    knowledge: Context,
    bls: BlsScheme | None,
) -> AttackOutcome:
    """Section VI-A DOS: the SP rewrites URL_O in Z_O. Unsigned puzzles
    leave the receiver fetching garbage; signed puzzles (the paper's
    countermeasure) are detected before any download."""
    # A plausible decoy: a well-formed container under the SP's own key,
    # so the substitution is not trivially malformed.
    fake_url = storage.put(gibberish.encrypt(b"decoy", b"sp-chosen-passphrase"))
    tampered = replace(puzzle, url=fake_url)

    service = PuzzleServiceC1()
    puzzle_id = service.store_puzzle(tampered)
    receiver = ReceiverC1("victim", storage, bls=bls)
    displayed = service.display_puzzle(puzzle_id, rng=random.Random(3))
    answers = receiver.answer_puzzle(displayed, knowledge)
    try:
        release = service.verify(answers)
        receiver.access(
            release,
            displayed,
            knowledge,
            expected_signature=tampered if bls else None,
        )
    except TamperDetectedError as exc:
        if "signature" in str(exc):
            # The countermeasure worked: tampering detected up front.
            return AttackOutcome(
                name="SP URL tampering",
                succeeded=False,
                detail="receiver detected tampering: %s" % exc,
            )
        # Decryption failed on the decoy: the DOS landed (the receiver
        # wasted the download and cannot attribute blame).
        return AttackOutcome(
            name="SP URL tampering",
            succeeded=True,
            detail="DOS landed; receiver saw only a generic failure: %s" % exc,
        )
    except AccessDeniedError as exc:
        return AttackOutcome(
            name="SP URL tampering", succeeded=False, detail=str(exc)
        )
    return AttackOutcome(
        name="SP URL tampering",
        succeeded=True,
        detail="receiver consumed the substituted object (DOS landed)",
    )


def dh_object_tampering_c1(
    service: PuzzleServiceC1,
    puzzle: Puzzle,
    puzzle_id: int,
    storage: StorageHost,
    knowledge: Context,
    obj: bytes,
) -> AttackOutcome:
    """Section VI-B DOS: the DH rewrites the stored encrypted object.

    The receiver's decryption either fails loudly or yields bytes that are
    not the original object; either way the attack is only a DOS, never a
    disclosure — which is what we check."""
    storage.tamper(puzzle.url, b"\x00" * 64)
    receiver = ReceiverC1("victim", storage)
    displayed = service.display_puzzle(puzzle_id, rng=random.Random(5))
    answers = receiver.answer_puzzle(displayed, knowledge)
    try:
        release = service.verify(answers)
        plaintext = receiver.access(release, displayed, knowledge)
    except (TamperDetectedError, AccessDeniedError) as exc:
        return AttackOutcome(
            name="DH object tampering",
            succeeded=False,
            detail="tampering surfaced as an error: %s" % exc,
        )
    return AttackOutcome(
        name="DH object tampering",
        succeeded=plaintext == obj,
        detail="receiver got %r" % plaintext[:16],
    )
