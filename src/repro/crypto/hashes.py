"""Hash functions, backed by the standard library's :mod:`hashlib`.

The paper's Implementation 1 computes all hashes with CryptoJS's SHA-3
(Keccak) and Implementation 2 with OpenSSL's SHA-1; the security analysis
only requires "a cryptographically secure hash function H". Like the
paper's Implementation 2, this module runs on OpenSSL's compiled digests
(through :mod:`hashlib`):

* :class:`_MerkleDamgard` — SHA-1 and SHA-256 (FIPS 180-4).
* :class:`Keccak` / :func:`sha3_256` etc. — SHA-3 (FIPS 202).

The thin wrapper classes pin the set of algorithms the protocols may
name and keep the incremental ``update()/digest()`` protocol; the test
suite checks them against the FIPS known-answer vectors.
"""

from __future__ import annotations

import hashlib

__all__ = [
    "Keccak",
    "sha1",
    "sha256",
    "sha3_224",
    "sha3_256",
    "sha3_384",
    "sha3_512",
    "new",
]


class _Hash:
    """An incremental hash over one :mod:`hashlib` object."""

    def __init__(self, name: str, data: bytes = b""):
        self._hash = hashlib.new(name)
        if data:
            self.update(data)

    @property
    def name(self) -> str:
        return self._hash.name

    @property
    def digest_size(self) -> int:
        return self._hash.digest_size

    @property
    def block_size(self) -> int:
        return self._hash.block_size

    def update(self, data: bytes) -> None:
        self._hash.update(data)

    def copy(self):
        clone = object.__new__(type(self))
        clone._hash = self._hash.copy()
        return clone

    def digest(self) -> bytes:
        return self._hash.digest()

    def hexdigest(self) -> str:
        return self._hash.hexdigest()


class _MerkleDamgard(_Hash):
    """SHA-1 or SHA-256, the 32-bit-word SHA family of FIPS 180-4.

    SHA-1 is included because the paper's Implementation 2 hashes answers
    with OpenSSL's SHA-1. (SHA-1 is collision-broken; the reproduction
    defaults to SHA3-256 and only uses SHA-1 where fidelity to the paper
    matters.)
    """


class Keccak(_Hash):
    """SHA-3 (FIPS 202) with a 28-, 32-, 48- or 64-byte digest."""

    def __init__(self, digest_size: int, data: bytes = b""):
        if digest_size not in (28, 32, 48, 64):
            raise ValueError("unsupported Keccak digest size %d" % digest_size)
        super().__init__("sha3_%d" % (digest_size * 8), data)


def sha1(data: bytes = b"") -> _MerkleDamgard:
    return _MerkleDamgard("sha1", data)


def sha256(data: bytes = b"") -> _MerkleDamgard:
    return _MerkleDamgard("sha256", data)


def sha3_224(data: bytes = b"") -> Keccak:
    return Keccak(28, data)


def sha3_256(data: bytes = b"") -> Keccak:
    return Keccak(32, data)


def sha3_384(data: bytes = b"") -> Keccak:
    return Keccak(48, data)


def sha3_512(data: bytes = b"") -> Keccak:
    return Keccak(64, data)


_CONSTRUCTORS = {
    "sha1": sha1,
    "sha256": sha256,
    "sha3_224": sha3_224,
    "sha3_256": sha3_256,
    "sha3_384": sha3_384,
    "sha3_512": sha3_512,
}


def new(name: str, data: bytes = b""):
    """hashlib-style constructor lookup by algorithm name."""
    try:
        return _CONSTRUCTORS[name](data)
    except KeyError:
        raise ValueError("unsupported hash algorithm %r" % name) from None
