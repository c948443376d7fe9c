"""Sanity checks at the paper's real operating point (|r|=160, |q|=512).

Most tests run on toy parameters for speed; this file pins a handful of
end-to-end behaviours at DEFAULT so a parameter-dependent regression
(e.g. a byte-width bug that only shows at 512-bit q) cannot hide.
"""

from __future__ import annotations

import secrets

import pytest

from repro.abe import CPABE, AccessTree, PolicyNotSatisfiedError
from repro.abe.serialize import decode_hybrid_ciphertext, encode_hybrid_ciphertext
from repro.core.construction2 import PuzzleServiceC2, ReceiverC2, SharerC2
from repro.crypto.bls import BlsScheme
from repro.crypto.pairing import Pairing
from repro.crypto.params import DEFAULT
from repro.osn.storage import StorageHost
from tests.conftest import k_of_n


@pytest.mark.slow
class TestDefaultParams:
    def test_pairing_bilinearity(self):
        pairing = Pairing(DEFAULT)
        g, h = DEFAULT.random_g0(), DEFAULT.random_g0()
        a = secrets.randbelow(DEFAULT.r - 1) + 1
        b = secrets.randbelow(DEFAULT.r - 1) + 1
        assert pairing.pair(g * a, h * b) == pairing.gt_exp(pairing.pair(g, h), a * b)

    def test_cpabe_roundtrip_with_serialization(self):
        abe = CPABE(DEFAULT)
        pk, mk = abe.setup()
        tree = AccessTree.k_of_n(2, ["ctx-a", "ctx-b", "ctx-c"])
        ct = abe.encrypt_bytes(pk, b"default-params payload", tree)
        decoded = decode_hybrid_ciphertext(DEFAULT, encode_hybrid_ciphertext(ct))
        sk = abe.keygen(pk, mk, {"ctx-a", "ctx-c"})
        assert abe.decrypt_bytes(pk, sk, decoded) == b"default-params payload"
        weak = abe.keygen(pk, mk, {"ctx-b"})
        with pytest.raises(PolicyNotSatisfiedError):
            abe.decrypt_bytes(pk, weak, decoded)

    def test_construction2_end_to_end(self, party_context, secret_object):
        storage = StorageHost()
        sharer = SharerC2("s", storage, DEFAULT)
        service = PuzzleServiceC2()
        record, _ = sharer.upload_policy(
            secret_object, party_context, k_of_n(2, party_context)
        )
        puzzle_id = service.store_upload(record)
        receiver = ReceiverC2("r", storage, DEFAULT)
        displayed = service.display_puzzle(puzzle_id)
        grant = service.verify(
            receiver.answer_puzzle(displayed, party_context.take(2))
        )
        assert receiver.access(grant, party_context.take(2)) == secret_object

    def test_bls_roundtrip(self):
        scheme = BlsScheme(DEFAULT)
        keys = scheme.keygen()
        signature = scheme.sign(keys.secret, b"sign at the real operating point")
        assert scheme.verify(keys.public, b"sign at the real operating point", signature)
        assert not scheme.verify(keys.public, b"other message", signature)
