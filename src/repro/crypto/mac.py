"""HMAC (FIPS 198-1) on the standard library's :mod:`hmac`.

Also provides :func:`keyed_hash`, the puzzle-keyed answer hash
``H(a_i, K_Z)`` of the paper's Construction 1 — implemented as HMAC with
the puzzle key so that answer digests are bound to a specific puzzle and
cannot be precomputed across puzzles (rainbow-table resistance, as the
paper's security analysis assumes).

``digestmod`` names one of the :mod:`repro.crypto.hashes` algorithms.
"""

from __future__ import annotations

import hmac
from typing import Callable

from repro.crypto import hashes

__all__ = ["HMAC", "hmac_digest", "keyed_hash", "constant_time_compare"]


def _checked(digestmod):
    """``digestmod`` for :mod:`hmac`, rejecting names :mod:`hashes` lacks."""
    if isinstance(digestmod, str) and digestmod not in hashes._CONSTRUCTORS:
        raise ValueError("unsupported hash algorithm %r" % digestmod)
    return digestmod


class HMAC:
    """HMAC with any of the :mod:`repro.crypto.hashes` algorithms (by name
    or constructor)."""

    def __init__(
        self,
        key: bytes,
        msg: bytes = b"",
        digestmod: str | Callable[..., object] = "sha3_256",
    ):
        self._mac = hmac.new(key, msg, _checked(digestmod))

    @property
    def digest_size(self) -> int:
        return self._mac.digest_size

    def update(self, msg: bytes) -> None:
        self._mac.update(msg)

    def copy(self) -> "HMAC":
        clone = object.__new__(HMAC)
        clone._mac = self._mac.copy()
        return clone

    def digest(self) -> bytes:
        return self._mac.digest()

    def hexdigest(self) -> str:
        return self._mac.hexdigest()


def hmac_digest(key: bytes, msg: bytes, digestmod: str = "sha3_256") -> bytes:
    return hmac.digest(key, msg, _checked(digestmod))


def keyed_hash(answer: bytes, puzzle_key: bytes, digestmod: str = "sha3_256") -> bytes:
    """The paper's ``H(a_i, K_Z)``: hash of an answer keyed by the puzzle key."""
    return hmac_digest(puzzle_key, answer, digestmod)


def constant_time_compare(a: bytes, b: bytes) -> bool:
    """Timing-safe equality for digests."""
    return hmac.compare_digest(a, b)
