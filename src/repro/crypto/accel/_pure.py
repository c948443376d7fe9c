"""Pure-Python reference mirror of the compiled kernel surface.

The pure *tier* is simply the existing code in
:mod:`repro.crypto.numbers` / :mod:`repro.crypto.fq2` /
:mod:`repro.crypto.ec` / :mod:`repro.crypto.pairing` running with no
backend installed — this
module is not on any hot path.  What it provides is a
:class:`PureKernels` object with the **same call signatures** as the
compiled :class:`~repro.crypto.accel._compiled.GmpKernels`, built from
the reference implementations, so the cross-tier equivalence suite can
drive both backends through one harness on seeded inputs and demand
bit-for-bit agreement kernel by kernel (not just end to end).
"""

from __future__ import annotations

from typing import Sequence

import repro.crypto.ec as _ec
import repro.crypto.modes as _modes
import repro.crypto.numbers as _numbers


class PureKernels:
    """Reference-tier implementation of the kernel table."""

    lib_path = None

    @staticmethod
    def mulmod(a: int, b: int, m: int) -> int:
        return a * b % m

    @staticmethod
    def powmod(base: int, exponent: int, m: int) -> int:
        if exponent < 0:
            return pow(_numbers._modinv_pure(base, m), -exponent, m)
        return pow(base, exponent, m)

    @staticmethod
    def modinv(a: int, m: int) -> int:
        return _numbers._modinv_pure(a, m)

    @staticmethod
    def batch_modinv(values: Sequence[int], m: int) -> list[int]:
        return _numbers._batch_modinv_pure(values, m)

    @staticmethod
    def ec_mul(q: int, x: int, y: int, k: int) -> "tuple[int, int] | None":
        return _ec.ec_mul_pure(q, x, y, k)

    @staticmethod
    def aes_cbc_encrypt(cipher, iv: bytes, data: bytes) -> bytes:
        return _modes._cbc_encrypt_pure(cipher, iv, data)

    @staticmethod
    def aes_cbc_decrypt(cipher, iv: bytes, data: bytes) -> bytes:
        return _modes._cbc_decrypt_pure(cipher, iv, data)

    @staticmethod
    def aes_ctr(cipher, nonce: bytes, data: bytes) -> bytes:
        return _modes._ctr_pure(cipher, nonce, data)

    @staticmethod
    def fq2_pow(q: int, a: int, b: int, exponent: int) -> tuple[int, int]:
        ra, rb = 1, 0
        for bit in bin(exponent)[2:] if exponent else "":
            ra, rb = (ra - rb) * (ra + rb) % q, 2 * ra * rb % q
            if bit == "1":
                ra, rb = (ra * a - rb * b) % q, (ra * b + rb * a) % q
        return ra, rb

    @classmethod
    def fq2_multi_exp(
        cls,
        q: int,
        bases: Sequence[tuple[int, int]],
        exponents: Sequence[int],
    ) -> tuple[int, int]:
        ra, rb = 1, 0
        for (a, b), exponent in zip(bases, exponents):
            ta, tb = cls.fq2_pow(q, a % q, b % q, exponent)
            ra, rb = (ra * ta - rb * tb) % q, (ra * tb + rb * ta) % q
        return ra, rb

    @staticmethod
    def miller_merged(
        q: int,
        r_bits: str,
        states: Sequence[tuple[int, int, int, int, int, int, int]],
        n_groups: int,
    ) -> list[tuple[int, int]]:
        # Plain-integer transliteration of Pairing._merged_miller (which
        # is the authoritative reference; the cross-tier suite pins this
        # mirror against it at the pair_product level too).
        live = [[tx % q, ty % q, px % q, py % q, xq % q, yq % q, g, 0]
                for tx, ty, px, py, xq, yq, g in states]
        acc = [(1, 0)] * n_groups
        for bit in r_bits[1:]:
            line: list[tuple[int, int] | None] = [None] * n_groups
            for s in live:
                if s[7]:
                    continue
                tx, ty = s[0], s[1]
                slope = (3 * tx * tx + 1) * _numbers._modinv_pure(2 * ty, q) % q
                la, lb = (-(slope * (s[4] - tx) + ty)) % q, s[5]
                prev = line[s[6]]
                if prev is not None:
                    la, lb = (prev[0] * la - prev[1] * lb) % q, (
                        prev[0] * lb + prev[1] * la
                    ) % q
                line[s[6]] = (la, lb)
                x3 = (slope * slope - 2 * tx) % q
                s[1] = (slope * (tx - x3) - ty) % q
                s[0] = x3
            for g in range(n_groups):
                a, b = acc[g]
                a, b = (a - b) * (a + b) % q, 2 * a * b % q
                if line[g] is not None:
                    la, lb = line[g]
                    a, b = (a * la - b * lb) % q, (a * lb + b * la) % q
                acc[g] = (a, b)
            if bit != "1":
                continue
            line = [None] * n_groups
            for s in live:
                if s[7]:
                    continue
                tx, ty, px, py = s[0], s[1], s[2], s[3]
                if tx == px and (ty + py) % q == 0:
                    s[7] = 1
                    continue
                if tx == px:
                    slope = (3 * tx * tx + 1) * _numbers._modinv_pure(2 * ty, q) % q
                else:
                    slope = (py - ty) * _numbers._modinv_pure((px - tx) % q, q) % q
                la, lb = (-(slope * (s[4] - tx) + ty)) % q, s[5]
                prev = line[s[6]]
                if prev is not None:
                    la, lb = (prev[0] * la - prev[1] * lb) % q, (
                        prev[0] * lb + prev[1] * la
                    ) % q
                line[s[6]] = (la, lb)
                x3 = (slope * slope - tx - px) % q
                s[1] = (slope * (tx - x3) - ty) % q
                s[0] = x3
            for g in range(n_groups):
                if line[g] is not None:
                    a, b = acc[g]
                    la, lb = line[g]
                    acc[g] = ((a * la - b * lb) % q, (a * lb + b * la) % q)
        return acc
