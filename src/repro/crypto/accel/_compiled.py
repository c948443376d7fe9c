"""The compiled backend: GMP kernels built with the system toolchain.

Follows the bzrlib ``*_c.pyx`` / ``*_py.py`` pattern in spirit — an
optional compiled implementation behind the always-tested pure-Python
reference — but without requiring a build step at install time: the
first probe compiles :mod:`_kernel.c <repro.crypto.accel>` with
``cc -O2 -shared -fPIC ... -lgmp`` into a content-addressed cache
directory and loads it through :mod:`ctypes`.  No compiler, no GMP, a
failed build, or a failed self-test all degrade to ``None`` (the tier
layer then stays on the pure backend); ``REPRO_CRYPTO_TIER=compiled``
turns that silent degradation into a hard error.

Marshalling: every big integer crosses the FFI boundary as a
fixed-width big-endian byte string sized to the modulus, so the kernels
are width-agnostic (the TOY/SMALL/DEFAULT presets all use the same
entry points).  The AES block chains take bytes in and out, plus the
round-key words and the T-tables of :mod:`repro.crypto.aes`.

The probe ends with known-answer self-tests against the pure-Python
reference implementations and, for AES, the FIPS-197 and SP 800-38A
vectors, so a miscompiled or ABI-skewed library can never be selected.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import tempfile
from typing import Sequence

_KERNEL = os.path.join(os.path.dirname(__file__), "_kernel.c")


class CompiledBackendUnavailable(RuntimeError):
    """Raised (via the tier layer) when the compiled tier is forced but
    cannot be built on this machine."""


def _cache_dir() -> str:
    root = os.environ.get("REPRO_ACCEL_CACHE")
    if not root:
        root = os.path.join(tempfile.gettempdir(), "repro-accel")
    os.makedirs(root, exist_ok=True)
    return root


def _build_library() -> str:
    """Compile the kernel once per source revision; return the .so path."""
    with open(_KERNEL, "rb") as fh:
        source = fh.read()
    digest = hashlib.sha256(source).hexdigest()[:16]
    lib_path = os.path.join(_cache_dir(), "spxaccel-%s.so" % digest)
    if os.path.exists(lib_path):
        return lib_path
    compiler = os.environ.get("CC", "cc")
    tmp_path = lib_path + ".%d.tmp" % os.getpid()
    command = [
        compiler, "-O2", "-shared", "-fPIC", "-o", tmp_path, _KERNEL, "-lgmp",
    ]
    result = subprocess.run(
        command, capture_output=True, text=True, timeout=120
    )
    if result.returncode != 0:
        raise CompiledBackendUnavailable(
            "kernel build failed: %s" % (result.stderr.strip() or command)
        )
    os.replace(tmp_path, lib_path)  # atomic: concurrent probes both win
    return lib_path


class GmpKernels:
    """ctypes face of the compiled kernel library.

    The big-integer methods take and return plain Python ints (plus int
    tuples for GF(q²) elements); the byte-string marshalling is
    internal.  The AES chains take an expanded
    :class:`~repro.crypto.aes.AES` and bytes, and return bytes.  Raises
    :class:`ZeroDivisionError`/:class:`ValueError` with the same
    semantics as the pure tier.
    """

    def __init__(self, lib_path: str):
        self.lib_path = lib_path
        lib = ctypes.CDLL(lib_path)
        u8p = ctypes.POINTER(ctypes.c_uint8)
        lib.spx_mulmod.restype = ctypes.c_int
        lib.spx_mulmod.argtypes = [
            ctypes.c_char_p, ctypes.c_size_t, ctypes.c_char_p,
            ctypes.c_char_p, u8p,
        ]
        lib.spx_powmod.restype = ctypes.c_int
        lib.spx_powmod.argtypes = [
            ctypes.c_char_p, ctypes.c_size_t, ctypes.c_char_p,
            ctypes.c_char_p, ctypes.c_size_t, u8p,
        ]
        lib.spx_modinv.restype = ctypes.c_int
        lib.spx_modinv.argtypes = [
            ctypes.c_char_p, ctypes.c_size_t, ctypes.c_char_p, u8p,
        ]
        lib.spx_batch_modinv.restype = ctypes.c_long
        lib.spx_batch_modinv.argtypes = [
            ctypes.c_char_p, ctypes.c_size_t, ctypes.c_char_p,
            ctypes.c_size_t, u8p,
        ]
        lib.spx_ec_mul.restype = ctypes.c_int
        lib.spx_ec_mul.argtypes = [
            ctypes.c_char_p, ctypes.c_size_t, ctypes.c_char_p,
            ctypes.c_char_p, ctypes.c_char_p, ctypes.c_size_t, u8p,
        ]
        lib.spx_fq2_pow.restype = ctypes.c_int
        lib.spx_fq2_pow.argtypes = [
            ctypes.c_char_p, ctypes.c_size_t, ctypes.c_char_p,
            ctypes.c_char_p, ctypes.c_char_p, ctypes.c_size_t, u8p,
        ]
        lib.spx_fq2_multi_exp.restype = ctypes.c_int
        lib.spx_fq2_multi_exp.argtypes = [
            ctypes.c_char_p, ctypes.c_size_t, ctypes.c_size_t,
            ctypes.c_char_p, ctypes.c_char_p, ctypes.c_size_t, u8p,
        ]
        lib.spx_miller_merged.restype = ctypes.c_int
        lib.spx_miller_merged.argtypes = [
            ctypes.c_char_p, ctypes.c_size_t, ctypes.c_char_p,
            ctypes.c_char_p, ctypes.POINTER(ctypes.c_int32),
            ctypes.c_size_t, ctypes.c_size_t, u8p,
        ]
        u32p = ctypes.POINTER(ctypes.c_uint32)
        for chain in (lib.spx_aes_cbc_encrypt, lib.spx_aes_cbc_decrypt,
                      lib.spx_aes_ctr):
            chain.restype = ctypes.c_int
            chain.argtypes = [
                u32p, ctypes.c_int, u32p, ctypes.c_char_p, ctypes.c_char_p,
                ctypes.c_char_p, ctypes.c_size_t, ctypes.c_char_p,
            ]
        self._lib = lib
        # The AES tables cross once, as arrays the kernels read through
        # pointers on every call; the C side keeps no state of its own.
        from repro.crypto import aes

        tables = ctypes.c_uint32 * 1024
        self._te = tables(*(aes._TE0 + aes._TE1 + aes._TE2 + aes._TE3))
        self._td = tables(*(aes._TD0 + aes._TD1 + aes._TD2 + aes._TD3))
        self._sbox = bytes(aes.SBOX)
        self._inv_sbox = bytes(aes.INV_SBOX)

    # -- marshalling -----------------------------------------------------------

    @staticmethod
    def _width(m: int) -> int:
        return (m.bit_length() + 7) // 8

    @staticmethod
    def _enc(value: int, width: int) -> bytes:
        return value.to_bytes(width, "big")

    @staticmethod
    def _out(width: int):
        return (ctypes.c_uint8 * width)()

    # -- scalar kernels --------------------------------------------------------

    def mulmod(self, a: int, b: int, m: int) -> int:
        width = self._width(m)
        out = self._out(width)
        self._lib.spx_mulmod(
            self._enc(m, width), width, self._enc(a % m, width),
            self._enc(b % m, width), out,
        )
        return int.from_bytes(bytes(out), "big")

    def powmod(self, base: int, exponent: int, m: int) -> int:
        if exponent < 0:
            return self.powmod(self.modinv(base, m), -exponent, m)
        width = self._width(m)
        exp = exponent.to_bytes(max(1, (exponent.bit_length() + 7) // 8), "big")
        out = self._out(width)
        self._lib.spx_powmod(
            self._enc(m, width), width, self._enc(base % m, width),
            exp, len(exp), out,
        )
        return int.from_bytes(bytes(out), "big")

    def modinv(self, a: int, m: int) -> int:
        width = self._width(m)
        a %= m
        out = self._out(width)
        rc = self._lib.spx_modinv(
            self._enc(m, width), width, self._enc(a, width), out
        )
        if rc != 0:
            from repro.crypto import numbers

            numbers.raise_not_invertible(a, m)
        return int.from_bytes(bytes(out), "big")

    def batch_modinv(self, values: Sequence[int], m: int) -> list[int]:
        if not values:
            return []
        width = self._width(m)
        reduced = [v % m for v in values]
        packed = b"".join(self._enc(v, width) for v in reduced)
        out = (ctypes.c_uint8 * (width * len(reduced)))()
        rc = self._lib.spx_batch_modinv(
            self._enc(m, width), width, packed, len(reduced), out
        )
        if rc >= 0:
            from repro.crypto import numbers

            numbers.raise_not_invertible(reduced[rc], m, index=int(rc))
        if rc != -1:
            raise ValueError("batch_modinv kernel failed (rc=%d)" % rc)
        raw = bytes(out)
        return [
            int.from_bytes(raw[i * width : (i + 1) * width], "big")
            for i in range(len(reduced))
        ]

    # -- G0 kernel --------------------------------------------------------------

    def ec_mul(self, q: int, x: int, y: int, k: int) -> "tuple[int, int] | None":
        """k·(x, y) on y² = x³ + x over GF(q); ``None`` is infinity."""
        if k == 0:
            return None
        if k < 0:
            y, k = -y, -k
        width = self._width(q)
        scalar = k.to_bytes((k.bit_length() + 7) // 8, "big")
        out = self._out(2 * width)
        rc = self._lib.spx_ec_mul(
            self._enc(q, width), width, self._enc(x % q, width),
            self._enc(y % q, width), scalar, len(scalar), out,
        )
        if rc == 1:
            return None
        if rc != 0:
            raise ZeroDivisionError("ec_mul: final Z has no inverse mod q")
        raw = bytes(out)
        return (
            int.from_bytes(raw[:width], "big"),
            int.from_bytes(raw[width:], "big"),
        )

    # -- GF(q^2) kernels -------------------------------------------------------

    def fq2_pow(self, q: int, a: int, b: int, exponent: int) -> tuple[int, int]:
        """(a + b·i)^exponent in GF(q²); exponent must be >= 0."""
        width = self._width(q)
        exp = exponent.to_bytes(max(1, (exponent.bit_length() + 7) // 8), "big")
        out = self._out(2 * width)
        self._lib.spx_fq2_pow(
            self._enc(q, width), width, self._enc(a % q, width),
            self._enc(b % q, width), exp, len(exp), out,
        )
        raw = bytes(out)
        return (
            int.from_bytes(raw[:width], "big"),
            int.from_bytes(raw[width:], "big"),
        )

    def fq2_multi_exp(
        self,
        q: int,
        bases: Sequence[tuple[int, int]],
        exponents: Sequence[int],
    ) -> tuple[int, int]:
        """Π basesᵢ^exponentsᵢ in GF(q²); exponents must be >= 0."""
        width = self._width(q)
        exp_width = max(
            1, max((e.bit_length() for e in exponents), default=1) + 7 >> 3
        )
        packed_bases = b"".join(
            self._enc(a % q, width) + self._enc(b % q, width) for a, b in bases
        )
        packed_exps = b"".join(e.to_bytes(exp_width, "big") for e in exponents)
        out = self._out(2 * width)
        rc = self._lib.spx_fq2_multi_exp(
            self._enc(q, width), width, len(bases), packed_bases,
            packed_exps, exp_width, out,
        )
        if rc != 0:
            raise ValueError("fq2_multi_exp kernel failed (rc=%d)" % rc)
        raw = bytes(out)
        return (
            int.from_bytes(raw[:width], "big"),
            int.from_bytes(raw[width:], "big"),
        )

    def miller_merged(
        self,
        q: int,
        r_bits: str,
        states: Sequence[tuple[int, int, int, int, int, int, int]],
        n_groups: int,
    ) -> list[tuple[int, int]]:
        """Lockstep Miller loops; states are (tx, ty, px, py, xq, yq, group)
        rows, the return value one (a, b) accumulator per group."""
        width = self._width(q)
        packed = b"".join(
            b"".join(self._enc(value % q, width) for value in row[:6])
            for row in states
        )
        groups = (ctypes.c_int32 * len(states))(*(row[6] for row in states))
        out = self._out(2 * width * n_groups)
        rc = self._lib.spx_miller_merged(
            self._enc(q, width), width, r_bits.encode("ascii"), packed,
            groups, len(states), n_groups, out,
        )
        if rc == -1:
            raise ZeroDivisionError(
                "degenerate Miller state: slope denominator not invertible"
            )
        if rc != 0:
            raise ValueError("miller_merged kernel failed (rc=%d)" % rc)
        raw = bytes(out)
        return [
            (
                int.from_bytes(raw[g * 2 * width : g * 2 * width + width], "big"),
                int.from_bytes(
                    raw[g * 2 * width + width : (g + 1) * 2 * width], "big"
                ),
            )
            for g in range(n_groups)
        ]

    # -- AES block chains -------------------------------------------------------

    def _aes_chain(self, kernel, round_keys, table, box, iv, data, count) -> bytes:
        iv, data = bytes(iv), bytes(data)  # any bytes-like, as on the pure tier
        if len(iv) != 16:
            raise ValueError("AES chain IV/counter must be 16 bytes")
        out = ctypes.create_string_buffer(len(data))
        rc = kernel(
            (ctypes.c_uint32 * len(round_keys))(*round_keys),
            len(round_keys) // 4 - 1, table, box, iv, data, count, out,
        )
        if rc != 0:
            raise ValueError("AES kernel failed (rc=%d)" % rc)
        return out.raw

    @staticmethod
    def _whole_blocks(data: bytes) -> int:
        if len(data) % 16:
            raise ValueError("AES-CBC data length %d is not whole blocks" % len(data))
        return len(data) // 16

    def aes_cbc_encrypt(self, cipher, iv: bytes, data: bytes) -> bytes:
        """CBC-encrypt whole blocks under an expanded ``AES``."""
        return self._aes_chain(
            self._lib.spx_aes_cbc_encrypt, cipher._round_keys, self._te,
            self._sbox, iv, data, self._whole_blocks(data),
        )

    def aes_cbc_decrypt(self, cipher, iv: bytes, data: bytes) -> bytes:
        """CBC-decrypt whole blocks; unpadding stays with the caller."""
        return self._aes_chain(
            self._lib.spx_aes_cbc_decrypt, cipher._inv_round_keys, self._td,
            self._inv_sbox, iv, data, self._whole_blocks(data),
        )

    def aes_ctr(self, cipher, nonce: bytes, data: bytes) -> bytes:
        """CTR keystream XOR from the 128-bit counter ``nonce``."""
        return self._aes_chain(
            self._lib.spx_aes_ctr, cipher._round_keys, self._te, self._sbox,
            nonce, data, len(data),
        )


def _self_test_aes(kernels: GmpKernels) -> None:
    """FIPS-197 Appendix C and SP 800-38A F.2.1/F.5.1 known answers."""
    from repro.crypto.aes import AES

    plain = bytes.fromhex("00112233445566778899aabbccddeeff")
    for key_hex, expect in (
        ("000102030405060708090a0b0c0d0e0f", "69c4e0d86a7b0430d8cdb78070b4c55a"),
        ("000102030405060708090a0b0c0d0e0f1011121314151617",
         "dda97ca4864cdfe06eaf70a0ec0d7191"),
        ("000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f",
         "8ea2b7ca516745bfeafc49904b496089"),
    ):
        # One CBC block under a zero IV is the bare block transform.
        cipher, zero = AES(bytes.fromhex(key_hex)), bytes(16)
        block = bytes.fromhex(expect)
        if (kernels.aes_cbc_encrypt(cipher, zero, plain) != block
                or kernels.aes_cbc_decrypt(cipher, zero, block) != plain):
            raise CompiledBackendUnavailable("self-test failed: AES FIPS-197")
    cipher = AES(bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c"))
    plain = bytes.fromhex(
        "6bc1bee22e409f96e93d7e117393172aae2d8a571e03ac9c9eb76fac45af8e51"
        "30c81c46a35ce411e5fbc1191a0a52eff69f2445df4f9b17ad2b417be66c3710"
    )
    iv = bytes(range(16))
    cbc = bytes.fromhex(
        "7649abac8119b246cee98e9b12e9197d5086cb9b507219ee95db113a917678b2"
        "73bed6b8e3c1743b7116e69e222295163ff1caa1681fac09120eca307586e1a7"
    )
    if (kernels.aes_cbc_encrypt(cipher, iv, plain) != cbc
            or kernels.aes_cbc_decrypt(cipher, iv, cbc) != plain):
        raise CompiledBackendUnavailable("self-test failed: AES-CBC SP 800-38A")
    counter = bytes.fromhex("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff")
    ctr = bytes.fromhex(
        "874d6191b620e3261bef6864990db6ce9806f66b7970fdff8617187bb9fffdff"
        "5ae4df3edbd5d35e5b4f09020db03eab1e031dda2fbe03d1792170a0f3009cee"
    )
    if kernels.aes_ctr(cipher, counter, plain) != ctr:
        raise CompiledBackendUnavailable("self-test failed: AES-CTR SP 800-38A")


def _self_test(kernels: GmpKernels) -> None:
    """Known-answer checks against the pure reference; raises on mismatch."""
    from repro.crypto.numbers import _batch_modinv_pure, _modinv_pure

    m = 0xFFFFFFFFFFFFFFC5  # 64-bit prime
    values = [3, 7, 0xDEADBEEF, m - 2, 12345678901234567]
    if kernels.modinv(values[2], m) != _modinv_pure(values[2], m):
        raise CompiledBackendUnavailable("self-test failed: modinv")
    if kernels.batch_modinv(values, m) != _batch_modinv_pure(values, m):
        raise CompiledBackendUnavailable("self-test failed: batch_modinv")
    if kernels.mulmod(values[2], values[3], m) != values[2] * values[3] % m:
        raise CompiledBackendUnavailable("self-test failed: mulmod")
    if kernels.powmod(3, 0x12345, m) != pow(3, 0x12345, m):
        raise CompiledBackendUnavailable("self-test failed: powmod")
    # GF(q²) with q ≡ 3 (mod 4): compare against a tiny pure ladder.
    q = 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFF6F  # 128-bit prime, q % 4 == 3
    a, b = 0x1234567890ABCDEF, 0x0FEDCBA987654321
    expect_a, expect_b = 1, 0
    for bit in bin(0xBEEF)[2:]:
        # square
        expect_a, expect_b = (
            (expect_a - expect_b) * (expect_a + expect_b) % q,
            2 * expect_a * expect_b % q,
        )
        if bit == "1":
            expect_a, expect_b = (
                (expect_a * a - expect_b * b) % q,
                (expect_a * b + expect_b * a) % q,
            )
    if kernels.fq2_pow(q, a, b, 0xBEEF) != (expect_a, expect_b):
        raise CompiledBackendUnavailable("self-test failed: fq2_pow")
    if kernels.fq2_multi_exp(q, [(a, b)], [0xBEEF]) != (expect_a, expect_b):
        raise CompiledBackendUnavailable("self-test failed: fq2_multi_exp")
    # ec_mul on the TOY curve: cofactor clearing, then the ladder's edge
    # cases (k = r meets P + (-P), k = r + 2 doubles inside an add, a
    # negative k, the order-2 point (0, 0)) against the pure ladder.
    from repro.crypto.ec import ec_mul_pure
    from repro.crypto.params import TOY

    tq = TOY.q
    base = next(p for p in map(TOY.lift_x, range(2, 64)) if p is not None)
    cases = [(base.x, base.y, TOY.h)]
    g = ec_mul_pure(tq, base.x, base.y, TOY.h)
    cases += [(g[0], g[1], k) for k in (1, 0xBEEF, TOY.r, TOY.r + 2, -3)]
    cases += [(0, 0, 2), (0, 0, 3)]
    for x, y, k in cases:
        if kernels.ec_mul(tq, x, y, k) != ec_mul_pure(tq, x, y, k):
            raise CompiledBackendUnavailable("self-test failed: ec_mul")
    # miller_merged is covered end-to-end: probe() runs a pairing KAT via
    # the tier layer's cross-check in tests; here assert it loads and
    # rejects a degenerate state (ty == 0 → no slope denominator).
    try:
        kernels.miller_merged(q, "101", [(5, 0, 5, 1, 2, 3, 0)], 1)
    except ZeroDivisionError:
        pass
    else:
        raise CompiledBackendUnavailable("self-test failed: miller_merged")
    _self_test_aes(kernels)


def probe() -> GmpKernels:
    """Build + load + self-test the compiled kernels.

    Returns the kernel table, or raises
    :class:`CompiledBackendUnavailable` with the reason (no compiler, no
    GMP, failed self-test) — the tier layer decides whether that reason
    is fatal (forced tier) or just means staying pure (auto probe).
    """
    try:
        lib_path = _build_library()
        kernels = GmpKernels(lib_path)
    except CompiledBackendUnavailable:
        raise
    except (OSError, subprocess.SubprocessError) as exc:
        raise CompiledBackendUnavailable(str(exc)) from exc
    _self_test(kernels)
    return kernels
