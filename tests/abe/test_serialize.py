"""Tests for CP-ABE wire encodings."""

from __future__ import annotations

import pytest

from repro.abe.access_tree import AccessTree
from repro.abe.cpabe import CPABE
from repro.abe.serialize import (
    decode_access_tree,
    decode_ciphertext,
    decode_hybrid_ciphertext,
    decode_master_key,
    decode_public_key,
    decode_secret_key,
    encode_access_tree,
    encode_ciphertext,
    encode_hybrid_ciphertext,
    encode_master_key,
    encode_public_key,
    encode_secret_key,
)
from repro.crypto.params import TOY


@pytest.fixture(scope="module")
def abe():
    return CPABE(TOY)


@pytest.fixture(scope="module")
def keys(abe):
    return abe.setup()


class TestAccessTree:
    def test_roundtrip_flat(self):
        tree = AccessTree.k_of_n(2, ["a", "b", "c"])
        assert decode_access_tree(encode_access_tree(tree)) == tree

    def test_roundtrip_nested(self):
        tree = AccessTree.any_of(
            [AccessTree.all_of(["x", "y"]), AccessTree.k_of_n(2, ["p", "q", "r"])]
        )
        assert decode_access_tree(encode_access_tree(tree)) == tree

    def test_unicode_attributes(self):
        tree = AccessTree.k_of_n(1, ["où était-ce?\x1flà-bas", "b"])
        assert decode_access_tree(encode_access_tree(tree)) == tree

    def test_truncated_rejected(self):
        data = encode_access_tree(AccessTree.k_of_n(2, ["a", "b", "c"]))
        with pytest.raises(ValueError):
            decode_access_tree(data[:-2])

    def test_trailing_bytes_rejected(self):
        data = encode_access_tree(AccessTree.single("a"))
        with pytest.raises(ValueError):
            decode_access_tree(data + b"\x00")

    def test_unknown_tag_rejected(self):
        with pytest.raises(ValueError):
            decode_access_tree(b"\x09\x00\x00\x00\x01a")


class TestKeys:
    def test_public_key_roundtrip(self, abe, keys):
        pk, _ = keys
        decoded = decode_public_key(TOY, encode_public_key(pk))
        assert decoded.g == pk.g
        assert decoded.h == pk.h
        assert decoded.f == pk.f
        assert decoded.e_gg_alpha == pk.e_gg_alpha

    def test_master_key_roundtrip(self, abe, keys):
        _, mk = keys
        decoded = decode_master_key(TOY, encode_master_key(TOY, mk))
        assert decoded.beta == mk.beta
        assert decoded.g_alpha == mk.g_alpha

    def test_secret_key_roundtrip(self, abe, keys):
        pk, mk = keys
        sk = abe.keygen(pk, mk, {"attr-a", "attr-b", "attr-c"})
        decoded = decode_secret_key(TOY, encode_secret_key(sk))
        assert decoded.d == sk.d
        assert decoded.attributes == sk.attributes
        for attr in sk.attributes:
            assert decoded.components[attr] == sk.components[attr]

    def test_decoded_secret_key_still_decrypts(self, abe, keys):
        pk, mk = keys
        message = abe._random_gt()
        ct = abe.encrypt_element(pk, message, AccessTree.k_of_n(1, ["a", "b"]))
        sk = abe.keygen(pk, mk, {"a"})
        decoded = decode_secret_key(TOY, encode_secret_key(sk))
        assert abe.decrypt_element(pk, decoded, ct) == message


class TestCiphertexts:
    def test_element_ciphertext_roundtrip(self, abe, keys):
        pk, mk = keys
        message = abe._random_gt()
        tree = AccessTree.k_of_n(2, ["a", "b", "c"])
        ct = abe.encrypt_element(pk, message, tree)
        decoded = decode_ciphertext(TOY, encode_ciphertext(ct))
        assert decoded.tree == ct.tree
        sk = abe.keygen(pk, mk, {"a", "b"})
        assert abe.decrypt_element(pk, sk, decoded) == message

    def test_hybrid_roundtrip(self, abe, keys):
        pk, mk = keys
        ct = abe.encrypt_bytes(pk, b"payload bytes", AccessTree.k_of_n(1, ["a", "b"]))
        decoded = decode_hybrid_ciphertext(TOY, encode_hybrid_ciphertext(ct))
        sk = abe.keygen(pk, mk, {"b"})
        assert abe.decrypt_bytes(pk, sk, decoded) == b"payload bytes"

    def test_leaf_count_mismatch_rejected(self, abe, keys):
        pk, _ = keys
        ct = abe.encrypt_element(
            pk, abe._random_gt(), AccessTree.k_of_n(1, ["a", "b"])
        )
        data = bytearray(encode_ciphertext(ct))
        # Corrupt the embedded tree: swap it for a single-leaf tree while
        # keeping two leaf components.
        good_tree = encode_access_tree(ct.tree)
        bad_tree = encode_access_tree(AccessTree.single("a"))
        blob = bytes(data)
        prefix = len(good_tree).to_bytes(4, "big") + good_tree
        assert blob.startswith(prefix)
        tampered = len(bad_tree).to_bytes(4, "big") + bad_tree + blob[len(prefix):]
        with pytest.raises(ValueError):
            decode_ciphertext(TOY, tampered)

    def test_truncation_rejected(self, abe, keys):
        pk, _ = keys
        ct = abe.encrypt_bytes(pk, b"x", AccessTree.k_of_n(1, ["a", "b"]))
        data = encode_hybrid_ciphertext(ct)
        with pytest.raises(ValueError):
            decode_hybrid_ciphertext(TOY, data[:-1])

    def test_size_grows_with_leaves(self, abe, keys):
        pk, _ = keys
        sizes = []
        for n in (2, 4, 8):
            tree = AccessTree.k_of_n(1, ["attr-%d" % i for i in range(n)])
            ct = abe.encrypt_bytes(pk, b"x" * 100, tree)
            sizes.append(len(encode_hybrid_ciphertext(ct)))
        assert sizes[0] < sizes[1] < sizes[2]
