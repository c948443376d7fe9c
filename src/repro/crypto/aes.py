"""The AES block cipher (FIPS 197) implemented from scratch.

The S-box and its inverse are *computed* from the AES finite-field
definition (multiplicative inverse in GF(2^8) followed by an affine map)
rather than pasted as magic tables, and the round transforms use
precomputed T-tables, the same trick native implementations use. This
module is the one definition of the key schedule (:meth:`AES._expand_key`,
:meth:`AES._invert_round_keys`) and of the tables.

:meth:`AES.encrypt_block` / :meth:`AES.decrypt_block` are the reference
tier: fine for single blocks, but ~1.5 ms per KiB in the interpreter.
Bulk data goes through the chaining modes in :mod:`repro.crypto.modes`,
which on the compiled tier hand the whole block chain to the C kernel
(``spx_aes_*`` in ``accel/_kernel.c``), passing it this module's round
keys and tables.

T-table AES indexes memory with secret state bytes, so neither tier is
constant-time against cache-timing observers on the same machine.
"""

from __future__ import annotations

import functools
import struct

__all__ = ["AES", "SBOX", "INV_SBOX"]


def _gf_mul(a: int, b: int) -> int:
    """Multiplication in GF(2^8) with the AES polynomial x^8+x^4+x^3+x+1."""
    result = 0
    for _ in range(8):
        if b & 1:
            result ^= a
        high = a & 0x80
        a = (a << 1) & 0xFF
        if high:
            a ^= 0x1B
        b >>= 1
    return result


def _build_sbox() -> tuple[list[int], list[int]]:
    # GF(2^8) inverse via exponentiation tables on generator 3.
    exp = [0] * 510
    log = [0] * 256
    x = 1
    for i in range(255):
        exp[i] = x
        log[x] = i
        x = _gf_mul(x, 3)
    for i in range(255, 510):
        exp[i] = exp[i - 255]

    sbox = [0] * 256
    for value in range(256):
        inv = 0 if value == 0 else exp[255 - log[value]]
        # Affine transformation over GF(2).
        b = inv
        transformed = 0x63
        for shift in (0, 1, 2, 3, 4):
            rotated = ((b << shift) | (b >> (8 - shift))) & 0xFF
            transformed ^= rotated
        sbox[value] = transformed

    inv_sbox = [0] * 256
    for value, substituted in enumerate(sbox):
        inv_sbox[substituted] = value
    return sbox, inv_sbox


SBOX, INV_SBOX = _build_sbox()

# Encryption T-tables: Te0[x] = MixColumn(SubBytes(x) in column position 0).
_TE0 = [0] * 256
_TE1 = [0] * 256
_TE2 = [0] * 256
_TE3 = [0] * 256
_TD0 = [0] * 256
_TD1 = [0] * 256
_TD2 = [0] * 256
_TD3 = [0] * 256

for _x in range(256):
    _s = SBOX[_x]
    _t = (
        (_gf_mul(_s, 2) << 24)
        | (_s << 16)
        | (_s << 8)
        | _gf_mul(_s, 3)
    )
    _TE0[_x] = _t
    _TE1[_x] = ((_t >> 8) | (_t << 24)) & 0xFFFFFFFF
    _TE2[_x] = ((_t >> 16) | (_t << 16)) & 0xFFFFFFFF
    _TE3[_x] = ((_t >> 24) | (_t << 8)) & 0xFFFFFFFF

    _si = INV_SBOX[_x]
    _t = (
        (_gf_mul(_si, 14) << 24)
        | (_gf_mul(_si, 9) << 16)
        | (_gf_mul(_si, 13) << 8)
        | _gf_mul(_si, 11)
    )
    _TD0[_x] = _t
    _TD1[_x] = ((_t >> 8) | (_t << 24)) & 0xFFFFFFFF
    _TD2[_x] = ((_t >> 16) | (_t << 16)) & 0xFFFFFFFF
    _TD3[_x] = ((_t >> 24) | (_t << 8)) & 0xFFFFFFFF

_RCON = [0x01]
while len(_RCON) < 14:
    _RCON.append(_gf_mul(_RCON[-1], 2))


class AES:
    """AES-128/192/256 raw block cipher."""

    block_size = 16

    def __init__(self, key: bytes):
        if len(key) not in (16, 24, 32):
            raise ValueError("AES key must be 16, 24 or 32 bytes, got %d" % len(key))
        self.key_size = len(key)
        self.rounds = {16: 10, 24: 12, 32: 14}[len(key)]
        self._round_keys = self._expand_key(key)

    # -- key schedule ----------------------------------------------------------

    def _expand_key(self, key: bytes) -> list[int]:
        nk = len(key) // 4
        total_words = 4 * (self.rounds + 1)
        words = list(struct.unpack(">%dI" % nk, key))
        for i in range(nk, total_words):
            temp = words[i - 1]
            if i % nk == 0:
                temp = ((temp << 8) | (temp >> 24)) & 0xFFFFFFFF  # RotWord
                temp = (
                    (SBOX[(temp >> 24) & 0xFF] << 24)
                    | (SBOX[(temp >> 16) & 0xFF] << 16)
                    | (SBOX[(temp >> 8) & 0xFF] << 8)
                    | SBOX[temp & 0xFF]
                )
                temp ^= _RCON[i // nk - 1] << 24
            elif nk > 6 and i % nk == 4:
                temp = (
                    (SBOX[(temp >> 24) & 0xFF] << 24)
                    | (SBOX[(temp >> 16) & 0xFF] << 16)
                    | (SBOX[(temp >> 8) & 0xFF] << 8)
                    | SBOX[temp & 0xFF]
                )
            words.append(words[i - nk] ^ temp)
        return words

    @functools.cached_property
    def _inv_round_keys(self) -> list[int]:
        # Only decryption needs the inverse schedule: derive it on first use.
        return self._invert_round_keys()

    def _invert_round_keys(self) -> list[int]:
        """Equivalent-inverse-cipher round keys (InvMixColumns applied)."""
        rk = self._round_keys
        inv: list[int] = [0] * len(rk)
        n = self.rounds
        for rnd in range(n + 1):
            for c in range(4):
                word = rk[4 * (n - rnd) + c]
                if 0 < rnd < n:
                    word = (
                        _TD0[SBOX[(word >> 24) & 0xFF]]
                        ^ _TD1[SBOX[(word >> 16) & 0xFF]]
                        ^ _TD2[SBOX[(word >> 8) & 0xFF]]
                        ^ _TD3[SBOX[word & 0xFF]]
                    )
                inv[4 * rnd + c] = word
        return inv

    # -- block transforms --------------------------------------------------------

    def encrypt_block(self, block: bytes) -> bytes:
        if len(block) != 16:
            raise ValueError("AES block must be 16 bytes, got %d" % len(block))
        rk = self._round_keys
        s0, s1, s2, s3 = struct.unpack(">4I", block)
        s0 ^= rk[0]
        s1 ^= rk[1]
        s2 ^= rk[2]
        s3 ^= rk[3]
        i = 4
        for _ in range(self.rounds - 1):
            t0 = (
                _TE0[(s0 >> 24) & 0xFF]
                ^ _TE1[(s1 >> 16) & 0xFF]
                ^ _TE2[(s2 >> 8) & 0xFF]
                ^ _TE3[s3 & 0xFF]
                ^ rk[i]
            )
            t1 = (
                _TE0[(s1 >> 24) & 0xFF]
                ^ _TE1[(s2 >> 16) & 0xFF]
                ^ _TE2[(s3 >> 8) & 0xFF]
                ^ _TE3[s0 & 0xFF]
                ^ rk[i + 1]
            )
            t2 = (
                _TE0[(s2 >> 24) & 0xFF]
                ^ _TE1[(s3 >> 16) & 0xFF]
                ^ _TE2[(s0 >> 8) & 0xFF]
                ^ _TE3[s1 & 0xFF]
                ^ rk[i + 2]
            )
            t3 = (
                _TE0[(s3 >> 24) & 0xFF]
                ^ _TE1[(s0 >> 16) & 0xFF]
                ^ _TE2[(s1 >> 8) & 0xFF]
                ^ _TE3[s2 & 0xFF]
                ^ rk[i + 3]
            )
            s0, s1, s2, s3 = t0, t1, t2, t3
            i += 4
        # Final round: SubBytes + ShiftRows + AddRoundKey (no MixColumns).
        out0 = (
            (SBOX[(s0 >> 24) & 0xFF] << 24)
            | (SBOX[(s1 >> 16) & 0xFF] << 16)
            | (SBOX[(s2 >> 8) & 0xFF] << 8)
            | SBOX[s3 & 0xFF]
        ) ^ rk[i]
        out1 = (
            (SBOX[(s1 >> 24) & 0xFF] << 24)
            | (SBOX[(s2 >> 16) & 0xFF] << 16)
            | (SBOX[(s3 >> 8) & 0xFF] << 8)
            | SBOX[s0 & 0xFF]
        ) ^ rk[i + 1]
        out2 = (
            (SBOX[(s2 >> 24) & 0xFF] << 24)
            | (SBOX[(s3 >> 16) & 0xFF] << 16)
            | (SBOX[(s0 >> 8) & 0xFF] << 8)
            | SBOX[s1 & 0xFF]
        ) ^ rk[i + 2]
        out3 = (
            (SBOX[(s3 >> 24) & 0xFF] << 24)
            | (SBOX[(s0 >> 16) & 0xFF] << 16)
            | (SBOX[(s1 >> 8) & 0xFF] << 8)
            | SBOX[s2 & 0xFF]
        ) ^ rk[i + 3]
        return struct.pack(">4I", out0, out1, out2, out3)

    def decrypt_block(self, block: bytes) -> bytes:
        if len(block) != 16:
            raise ValueError("AES block must be 16 bytes, got %d" % len(block))
        rk = self._inv_round_keys
        s0, s1, s2, s3 = struct.unpack(">4I", block)
        s0 ^= rk[0]
        s1 ^= rk[1]
        s2 ^= rk[2]
        s3 ^= rk[3]
        i = 4
        for _ in range(self.rounds - 1):
            t0 = (
                _TD0[(s0 >> 24) & 0xFF]
                ^ _TD1[(s3 >> 16) & 0xFF]
                ^ _TD2[(s2 >> 8) & 0xFF]
                ^ _TD3[s1 & 0xFF]
                ^ rk[i]
            )
            t1 = (
                _TD0[(s1 >> 24) & 0xFF]
                ^ _TD1[(s0 >> 16) & 0xFF]
                ^ _TD2[(s3 >> 8) & 0xFF]
                ^ _TD3[s2 & 0xFF]
                ^ rk[i + 1]
            )
            t2 = (
                _TD0[(s2 >> 24) & 0xFF]
                ^ _TD1[(s1 >> 16) & 0xFF]
                ^ _TD2[(s0 >> 8) & 0xFF]
                ^ _TD3[s3 & 0xFF]
                ^ rk[i + 2]
            )
            t3 = (
                _TD0[(s3 >> 24) & 0xFF]
                ^ _TD1[(s2 >> 16) & 0xFF]
                ^ _TD2[(s1 >> 8) & 0xFF]
                ^ _TD3[s0 & 0xFF]
                ^ rk[i + 3]
            )
            s0, s1, s2, s3 = t0, t1, t2, t3
            i += 4
        out0 = (
            (INV_SBOX[(s0 >> 24) & 0xFF] << 24)
            | (INV_SBOX[(s3 >> 16) & 0xFF] << 16)
            | (INV_SBOX[(s2 >> 8) & 0xFF] << 8)
            | INV_SBOX[s1 & 0xFF]
        ) ^ rk[i]
        out1 = (
            (INV_SBOX[(s1 >> 24) & 0xFF] << 24)
            | (INV_SBOX[(s0 >> 16) & 0xFF] << 16)
            | (INV_SBOX[(s3 >> 8) & 0xFF] << 8)
            | INV_SBOX[s2 & 0xFF]
        ) ^ rk[i + 1]
        out2 = (
            (INV_SBOX[(s2 >> 24) & 0xFF] << 24)
            | (INV_SBOX[(s1 >> 16) & 0xFF] << 16)
            | (INV_SBOX[(s0 >> 8) & 0xFF] << 8)
            | INV_SBOX[s3 & 0xFF]
        ) ^ rk[i + 2]
        out3 = (
            (INV_SBOX[(s3 >> 24) & 0xFF] << 24)
            | (INV_SBOX[(s2 >> 16) & 0xFF] << 16)
            | (INV_SBOX[(s1 >> 8) & 0xFF] << 8)
            | INV_SBOX[s0 & 0xFF]
        ) ^ rk[i + 3]
        return struct.pack(">4I", out0, out1, out2, out3)
