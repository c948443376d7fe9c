"""One roles object per construction: the client side written once.

The paper runs the same steps for either construction: the sharer's
Upload, then the receiver's DisplayPuzzle → AnswerPuzzle → Verify →
Access (§V-A, §V-B, Fig. 1). :class:`RolesC1` and :class:`RolesC2` give
those steps one shape, so a flow that drives them (the apps' share,
access and explain flows, the remote journeys of
:mod:`repro.serve.journey`) is written once and never branches on the
construction. Each method calls an existing sharer/receiver role or one
:class:`~repro.proto.client.ProtocolClient` verb and nothing else; the
cost meter stays with the apps.
"""

from __future__ import annotations

import random

from repro.core.construction1 import ReceiverC1, SharerC1
from repro.core.construction2 import C2Upload, ReceiverC2, SharerC2
from repro.core.context import Context
from repro.core.puzzle import Puzzle
from repro.crypto.bls import BlsScheme
from repro.crypto.ec import CurveParams
from repro.policy import PuzzlePolicy
from repro.proto.client import ProtocolClient

__all__ = ["RolesC1", "RolesC2", "roles_for"]


class RolesC1:
    """Construction 1: Shamir puzzles, BLS-signed when ``bls`` is set."""

    def __init__(self, bls: BlsScheme | None = None):
        self.bls = bls

    def sharer(self, name: str, storage) -> SharerC1:
        return SharerC1(name, storage, bls=self.bls)

    def receiver(self, name: str, storage) -> ReceiverC1:
        return ReceiverC1(name, storage, bls=self.bls)

    def upload(
        self, sharer: SharerC1, obj: bytes, context: Context, policy: PuzzlePolicy
    ) -> Puzzle:
        """Encrypt and store O; returns the SP-bound puzzle Z_O."""
        return sharer.upload_policy(obj, context, policy)

    def store(self, client: ProtocolClient, puzzle: Puzzle) -> int:
        return client.store_puzzle(puzzle)

    def display(
        self, client: ProtocolClient, puzzle_id: int, rng: random.Random | None
    ):
        return client.display_puzzle_c1(puzzle_id, rng=rng)

    def submit(self, client: ProtocolClient, answers, requester: str):
        return client.submit_answers_c1(answers, requester)

    def explain(self, client: ProtocolClient, answers, requester: str):
        return client.explain_c1(answers, requester)

    def recover(self, receiver: ReceiverC1, release, displayed, knowledge) -> bytes:
        return receiver.access(release, displayed, knowledge)


class RolesC2:
    """Construction 2: CP-ABE over the perturbed access tree."""

    def __init__(
        self,
        params: CurveParams,
        digestmod: str = "sha1",
        legacy_unperturbed_ciphertext: bool = False,
    ):
        self.params = params
        self.digestmod = digestmod
        self.legacy_unperturbed_ciphertext = legacy_unperturbed_ciphertext

    def sharer(self, name: str, storage) -> SharerC2:
        return SharerC2(
            name,
            storage,
            self.params,
            digestmod=self.digestmod,
            legacy_unperturbed_ciphertext=self.legacy_unperturbed_ciphertext,
        )

    def receiver(self, name: str, storage) -> ReceiverC2:
        return ReceiverC2(name, storage, self.params, digestmod=self.digestmod)

    def upload(
        self, sharer: SharerC2, obj: bytes, context: Context, policy: PuzzlePolicy
    ) -> C2Upload:
        """Setup, Encrypt, Perturb and store CT'; returns the SP-bound
        record (tau', PK, MK, URL_O)."""
        record, _ct_bytes = sharer.upload_policy(obj, context, policy)
        return record

    def store(self, client: ProtocolClient, record: C2Upload) -> int:
        return client.store_upload(record)

    def display(
        self, client: ProtocolClient, puzzle_id: int, rng: random.Random | None
    ):
        del rng  # C2 displays every question, so there is nothing to draw
        return client.display_puzzle_c2(puzzle_id)

    def submit(self, client: ProtocolClient, answers, requester: str):
        return client.submit_answers_c2(answers, requester)

    def explain(self, client: ProtocolClient, answers, requester: str):
        return client.explain_c2(answers, requester)

    def recover(self, receiver: ReceiverC2, grant, displayed, knowledge) -> bytes:
        del displayed  # the grant and the ciphertext carry all C2 needs
        return receiver.access(grant, knowledge)


def roles_for(construction: int, params: CurveParams) -> RolesC1 | RolesC2:
    """The roles of ``construction`` (1 or 2); ``params`` serve C2."""
    if construction == 1:
        return RolesC1()
    if construction == 2:
        return RolesC2(params)
    raise ValueError("construction must be 1 or 2, got %r" % construction)
