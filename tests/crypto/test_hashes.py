"""Tests for the hash wrappers: FIPS 180-4/202 known-answer vectors and
the incremental protocol, cross-checked against hashlib."""

from __future__ import annotations

import hashlib

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.crypto import hashes

ALGORITHMS = ["sha1", "sha256", "sha3_224", "sha3_256", "sha3_384", "sha3_512"]


class TestKnownVectors:
    def test_sha1_empty(self):
        assert (
            hashes.sha1().hexdigest() == "da39a3ee5e6b4b0d3255bfef95601890afd80709"
        )

    def test_sha1_abc(self):
        assert (
            hashes.sha1(b"abc").hexdigest()
            == "a9993e364706816aba3e25717850c26c9cd0d89d"
        )

    def test_sha256_empty(self):
        assert (
            hashes.sha256().hexdigest()
            == "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        )

    def test_sha256_abc(self):
        assert (
            hashes.sha256(b"abc").hexdigest()
            == "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        )

    def test_sha3_256_empty(self):
        assert (
            hashes.sha3_256().hexdigest()
            == "a7ffc6f8bf1ed76651c14756a061d662f580ff4de43b49fa82d80a4b80f8434a"
        )

    def test_sha3_256_abc(self):
        assert (
            hashes.sha3_256(b"abc").hexdigest()
            == "3a985da74fe225b2045c172d6bd390bd855f086e3e9d525b46bfe24511431532"
        )

    def test_sha3_512_abc(self):
        assert hashes.sha3_512(b"abc").hexdigest() == (
            "b751850b1a57168a5693cd924b6b096e08f621827444f70d884f5d0240d2712e"
            "10e116e9192af3c91a7ec57647e3934057340b4cf408d5a56592f8274eec53f0"
        )


@pytest.mark.parametrize("name", ALGORITHMS)
class TestAgainstHashlib:
    def test_assorted_lengths(self, name):
        ours = hashes.new(name)
        block = ours.block_size
        # Cover below/at/above block boundaries and multi-block inputs.
        lengths = [0, 1, 7, block - 1, block, block + 1, 2 * block, 3 * block + 5, 1000]
        for length in lengths:
            data = bytes(range(256)) * (length // 256 + 1)
            data = data[:length]
            assert (
                hashes.new(name, data).hexdigest()
                == hashlib.new(name, data).hexdigest()
            ), "mismatch for %s at length %d" % (name, length)

    def test_incremental_equals_oneshot(self, name):
        data = b"the quick brown fox jumps over the lazy dog" * 40
        h = hashes.new(name)
        for offset in range(0, len(data), 17):
            h.update(data[offset : offset + 17])
        assert h.hexdigest() == hashes.new(name, data).hexdigest()

    def test_digest_is_idempotent(self, name):
        h = hashes.new(name, b"hello")
        first = h.digest()
        assert h.digest() == first
        h.update(b" world")
        assert h.digest() == hashes.new(name, b"hello world").digest()

    def test_copy_forks_state(self, name):
        h = hashes.new(name, b"prefix-")
        clone = h.copy()
        h.update(b"left")
        clone.update(b"right")
        assert h.digest() == hashes.new(name, b"prefix-left").digest()
        assert clone.digest() == hashes.new(name, b"prefix-right").digest()

    def test_digest_size_and_name(self, name):
        h = hashes.new(name)
        assert h.digest_size == hashlib.new(name).digest_size
        assert h.name == name
        assert len(h.digest()) == h.digest_size


class TestHypothesisAgainstHashlib:
    @given(st.binary(max_size=600), st.sampled_from(ALGORITHMS))
    def test_random_inputs(self, data, name):
        assert (
            hashes.new(name, data).digest() == hashlib.new(name, data).digest()
        )

    @given(st.lists(st.binary(max_size=100), max_size=8), st.sampled_from(ALGORITHMS))
    def test_chunked_updates(self, chunks, name):
        ours = hashes.new(name)
        reference = hashlib.new(name)
        for chunk in chunks:
            ours.update(chunk)
            reference.update(chunk)
        assert ours.hexdigest() == reference.hexdigest()


class TestErrors:
    def test_unknown_algorithm(self):
        with pytest.raises(ValueError):
            hashes.new("md5")  # deliberately unsupported

    def test_non_bytes_update(self):
        with pytest.raises(TypeError):
            hashes.sha256().update("text")  # type: ignore[arg-type]

    def test_unsupported_keccak_size(self):
        with pytest.raises(ValueError):
            hashes.Keccak(17)

    def test_bytearray_and_memoryview_accepted(self):
        data = b"abc"
        assert hashes.sha256(bytearray(data)).digest() == hashes.sha256(data).digest()
        h = hashes.sha256()
        h.update(memoryview(data))
        assert h.digest() == hashes.sha256(data).digest()
