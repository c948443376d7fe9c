"""Acceleration-tier layer: probe, selection, kernels, error paths.

Kernel-level equivalence drives the compiled :class:`GmpKernels` and the
pure :class:`PureKernels` through the same harness on seeded random
inputs and demands bit-for-bit agreement per primitive; tier-selection
tests cover ``REPRO_CRYPTO_TIER`` semantics, runtime ``set_tier``, and
backend installation into the consumer modules.  The ``batch_modinv``
error contract (zero and non-coprime inputs, first-offender
attribution, identical messages) is asserted in both tiers, and so are
the AES block chains: FIPS-197 and SP 800-38A known answers, seeded
buffers up to 64 KiB, the CTR counter wrap and the modes' error cases.
"""

from __future__ import annotations

import random

import pytest

from repro.crypto import accel
from repro.crypto import ec as ec_mod
from repro.crypto import field as field_mod
from repro.crypto import fq2 as fq2_mod
from repro.crypto import modes as modes_mod
from repro.crypto import numbers
from repro.crypto import pairing as pairing_mod
from repro.crypto.accel import CompiledBackendUnavailable, PureKernels
from repro.crypto.aes import AES
from repro.crypto.fq2 import Fq2
from repro.crypto.params import SMALL, TOY


def _compiled_kernels():
    try:
        return accel._probe_compiled()
    except CompiledBackendUnavailable:
        return None


COMPILED = _compiled_kernels()
needs_compiled = pytest.mark.skipif(
    COMPILED is None, reason="compiled tier unavailable on this machine"
)

BACKENDS = [PureKernels()] + ([COMPILED] if COMPILED is not None else [])
BACKEND_IDS = ["pure"] + (["compiled"] if COMPILED is not None else [])


@pytest.fixture(autouse=True)
def restore_tier():
    prior = accel.active().requested
    yield
    accel.set_tier(prior)


@pytest.fixture(params=BACKENDS, ids=BACKEND_IDS)
def backend(request):
    return request.param


class TestKernelEquivalence:
    """Each backend must match plain-Python ground truth exactly."""

    MODULI = [TOY.q, SMALL.q, 10_007]

    @pytest.mark.parametrize("m", MODULI)
    def test_mulmod(self, backend, m):
        rng = random.Random(m)
        for _ in range(20):
            a, b = rng.randrange(m), rng.randrange(m)
            assert backend.mulmod(a, b, m) == a * b % m

    @pytest.mark.parametrize("m", MODULI)
    def test_powmod(self, backend, m):
        rng = random.Random(m + 1)
        for _ in range(10):
            a, e = rng.randrange(1, m), rng.randrange(1 << 64)
            assert backend.powmod(a, e, m) == pow(a, e, m)
        assert backend.powmod(7, 0, m) == 1

    @pytest.mark.parametrize("m", MODULI)
    def test_modinv(self, backend, m):
        rng = random.Random(m + 2)
        for _ in range(10):
            a = rng.randrange(1, m)
            inv = backend.modinv(a, m)
            assert a * inv % m == 1

    @pytest.mark.parametrize("m", MODULI)
    @pytest.mark.parametrize("count", [1, 2, 7, 40])
    def test_batch_modinv(self, backend, m, count):
        rng = random.Random(m + count)
        values = [rng.randrange(1, m) for _ in range(count)]
        out = backend.batch_modinv(values, m)
        assert out == [numbers._modinv_pure(v, m) for v in values]

    def test_batch_modinv_empty(self, backend):
        assert backend.batch_modinv([], TOY.q) == []

    @pytest.mark.parametrize("q", [TOY.q, SMALL.q])
    def test_fq2_pow(self, backend, q):
        rng = random.Random(q)
        for _ in range(5):
            a, b = rng.randrange(q), rng.randrange(q)
            e = rng.randrange(1 << 80)
            expected = Fq2(q, a, b) ** e
            assert backend.fq2_pow(q, a, b, e) == (expected.a, expected.b)
        assert backend.fq2_pow(q, 3, 4, 0) == (1, 0)

    @pytest.mark.parametrize("q", [TOY.q, SMALL.q])
    @pytest.mark.parametrize("count", [1, 3, 5, 9])
    def test_fq2_multi_exp(self, backend, q, count):
        rng = random.Random(q + count)
        bases = [(rng.randrange(q), rng.randrange(q)) for _ in range(count)]
        exponents = [rng.randrange(1, 1 << 64) for _ in range(count)]
        expected = Fq2.one(q)
        for (a, b), e in zip(bases, exponents):
            expected = expected * (Fq2(q, a, b) ** e)
        assert backend.fq2_multi_exp(q, bases, exponents) == (
            expected.a,
            expected.b,
        )

    @pytest.mark.parametrize("params", [TOY, SMALL], ids=lambda p: p.name)
    @pytest.mark.parametrize(
        "layout", [[1], [3], [2, 2], [1, 2, 3], [1] * 5, [1] * 7]
    )
    def test_miller_merged_matches_reference(self, backend, params, layout):
        """Kernel output == the pure Pairing's merged loop, group by group.

        ``[1] * 5`` and ``[1] * 7`` are the C2 access shapes, flat 2-of-3
        and nested: 2k + 1 states, each in its own exponent group."""
        accel.set_tier("pure")
        pairing = pairing_mod.Pairing(params)
        rng = random.Random(sum(layout))
        base = params.random_g0()
        groups, rows = [], []
        for g, size in enumerate(layout):
            entries = []
            for _ in range(size):
                p = base * rng.randrange(1, params.r)
                q_pt = base * rng.randrange(1, params.r)
                sign = rng.choice([1, -1])
                entries.append((p, q_pt, sign))
                xq = (-q_pt.x) % params.q
                yq = q_pt.y % params.q if sign >= 0 else (-q_pt.y) % params.q
                rows.append((p.x, p.y, p.x, p.y, xq, yq, g))
            groups.append(entries)
        expected = pairing._merged_miller(groups)
        got = backend.miller_merged(
            params.q, bin(params.r)[2:], rows, len(layout)
        )
        assert got == [(v.a, v.b) for v in expected]

    def test_miller_merged_degenerate_state_raises(self, backend):
        with pytest.raises(ZeroDivisionError):
            backend.miller_merged(TOY.q, "101", [(5, 0, 5, 1, 2, 3, 0)], 1)

    @pytest.mark.parametrize("position", [0, 2, 3], ids=["first", "middle", "last"])
    def test_miller_merged_degenerate_row_among_valid_raises(self, backend, position):
        """A slope denominator with no inverse fails the whole batch,
        wherever its row sits among valid ones."""
        rng = random.Random(position)
        base = TOY.lift_x(next(x for x in range(2, 64) if TOY.lift_x(x))) * TOY.h
        rows = []
        for group in range(3):
            p = base * rng.randrange(1, TOY.r)
            q_pt = base * rng.randrange(1, TOY.r)
            rows.append((p.x, p.y, p.x, p.y, (-q_pt.x) % TOY.q, q_pt.y, group))
        r_bits = bin(TOY.r)[2:]
        assert len(backend.miller_merged(TOY.q, r_bits, rows, 3)) == 3
        rows.insert(position, (5, 0, 5, 1, 2, 3, 0))
        with pytest.raises(ZeroDivisionError):
            backend.miller_merged(TOY.q, r_bits, rows, 3)


def _affine_mul(params, x, y, k):
    """k·(x, y) by repeated affine addition: ground truth for small k."""
    acc = params.infinity()
    point = params.point(x, y)
    for _ in range(abs(k)):
        acc = acc + point
    acc = -acc if k < 0 else acc
    return None if acc.infinity else (acc.x, acc.y)


class TestEcMulKernel:
    """``ec_mul`` on both backends: ground truth, then edge cases of the
    ladder (infinity results, P + (-P), doubling inside an add)."""

    @pytest.fixture(scope="class", params=[TOY, SMALL], ids=lambda p: p.name)
    def g0(self, request):
        params = request.param
        rng = random.Random(params.r)
        while True:
            point = params.lift_x(rng.randrange(params.q))
            if point is not None:
                break
        g = point * params.h
        return params, point, g

    def test_small_scalars_match_repeated_addition(self, backend, g0):
        params, _, g = g0
        for k in range(-5, 12):
            assert backend.ec_mul(params.q, g.x, g.y, k) == _affine_mul(
                params, g.x, g.y, k
            ), k

    def test_zero_and_one(self, backend, g0):
        params, _, g = g0
        assert backend.ec_mul(params.q, g.x, g.y, 0) is None
        assert backend.ec_mul(params.q, g.x, g.y, 1) == (g.x, g.y)

    def test_order_r_reaches_infinity(self, backend, g0):
        """k = r: the last add is P + (-P)."""
        params, _, g = g0
        assert backend.ec_mul(params.q, g.x, g.y, params.r) is None
        assert backend.ec_mul(params.q, g.x, g.y, -params.r) is None

    def test_doubling_inside_add(self, backend, g0):
        """k = r + 2: before the last add the accumulator equals P."""
        params, _, g = g0
        double = g + g
        got = backend.ec_mul(params.q, g.x, g.y, params.r + 2)
        assert got == (double.x, double.y)

    def test_cofactor_lands_in_g0(self, backend, g0):
        params, point, g = g0
        assert backend.ec_mul(params.q, point.x, point.y, params.h) == (g.x, g.y)
        assert backend.ec_mul(params.q, g.x, g.y, params.r - 1) == (
            g.x, (-g.y) % params.q
        )

    def test_negative_scalar_negates(self, backend, g0):
        params, _, g = g0
        k = random.Random(7).randrange(1, params.r)
        x, y = backend.ec_mul(params.q, g.x, g.y, k)
        assert backend.ec_mul(params.q, g.x, g.y, -k) == (x, (-y) % params.q)

    def test_order_two_point(self, backend, g0):
        """(0, 0) has y = 0: doubling it gives infinity."""
        params = g0[0]
        assert backend.ec_mul(params.q, 0, 0, 1) == (0, 0)
        assert backend.ec_mul(params.q, 0, 0, 2) is None
        assert backend.ec_mul(params.q, 0, 0, 3) == (0, 0)
        assert backend.ec_mul(params.q, 0, 0, 1 << 100) is None

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_backends_agree_on_random_scalars(self, g0, seed):
        params, point, _ = g0
        rng = random.Random(seed)
        for _ in range(5):
            k = rng.randrange(-(1 << 200), 1 << 200)
            results = {
                backend.ec_mul(params.q, point.x, point.y, k) for backend in BACKENDS
            }
            assert len(results) == 1, k


# SP 800-38A Appendix F: the same four plaintext blocks under three keys.
SP800_38A_PLAIN = bytes.fromhex(
    "6bc1bee22e409f96e93d7e117393172aae2d8a571e03ac9c9eb76fac45af8e51"
    "30c81c46a35ce411e5fbc1191a0a52eff69f2445df4f9b17ad2b417be66c3710"
)
SP800_38A_KEYS = {
    128: "2b7e151628aed2a6abf7158809cf4f3c",
    192: "8e73b0f7da0e6452c810f32b809079e562f8ead2522c6b7b",
    256: "603deb1015ca71be2b73aef0857d77811f352c073b6108d72d9810a30914dff4",
}
SP800_38A_CBC = {  # F.2.1, F.2.3, F.2.5; IV 000102...0f
    128: "7649abac8119b246cee98e9b12e9197d5086cb9b507219ee95db113a917678b2"
         "73bed6b8e3c1743b7116e69e222295163ff1caa1681fac09120eca307586e1a7",
    192: "4f021db243bc633d7178183a9fa071e8b4d9ada9ad7dedf4e5e738763f69145a"
         "571b242012fb7ae07fa9baac3df102e008b0e27988598881d920a9e64f5615cd",
    256: "f58c4c04d6e5f1ba779eabfb5f7bfbd69cfc4e967edb808d679f777bc6702c7d"
         "39f23369a9d9bacfa530e26304231461b2eb05e2c39be9fcda6c19078c6a9d1b",
}
SP800_38A_CTR = {  # F.5.1, F.5.3, F.5.5; initial counter f0f1...ff
    128: "874d6191b620e3261bef6864990db6ce9806f66b7970fdff8617187bb9fffdff"
         "5ae4df3edbd5d35e5b4f09020db03eab1e031dda2fbe03d1792170a0f3009cee",
    192: "1abc932417521ca24f2b0459fe7e6e0b090339ec0aa6faefd5ccc2c6f4ce8e94"
         "1e36b26bd1ebc670d1bd1d665620abf74f78a7f6d29809585a97daec58c6b050",
    256: "601ec313775789a5b7a7f504bbf3d228f443e3ca4d62b59aca84e990cacaf5c5"
         "2b0930daa23de94ce87017ba2d84988ddfc9c58db67aada613c2dd08457941a6",
}


class TestAesKernels:
    """The CBC and CTR block chains on both backends, one harness."""

    @pytest.mark.parametrize(
        "key_hex,expected",
        [
            ("000102030405060708090a0b0c0d0e0f",
             "69c4e0d86a7b0430d8cdb78070b4c55a"),
            ("000102030405060708090a0b0c0d0e0f1011121314151617",
             "dda97ca4864cdfe06eaf70a0ec0d7191"),
            ("000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f",
             "8ea2b7ca516745bfeafc49904b496089"),
        ],
        ids=["aes128", "aes192", "aes256"],
    )
    def test_fips197_appendix_c(self, backend, key_hex, expected):
        """One CBC block under a zero IV is the bare block transform."""
        cipher = AES(bytes.fromhex(key_hex))
        plain = bytes.fromhex("00112233445566778899aabbccddeeff")
        block = bytes.fromhex(expected)
        assert backend.aes_cbc_encrypt(cipher, bytes(16), plain) == block
        assert backend.aes_cbc_decrypt(cipher, bytes(16), block) == plain

    @pytest.mark.parametrize("bits", [128, 192, 256])
    def test_sp800_38a_cbc(self, backend, bits):
        cipher = AES(bytes.fromhex(SP800_38A_KEYS[bits]))
        iv = bytes(range(16))
        expected = bytes.fromhex(SP800_38A_CBC[bits])
        assert backend.aes_cbc_encrypt(cipher, iv, SP800_38A_PLAIN) == expected
        assert backend.aes_cbc_decrypt(cipher, iv, expected) == SP800_38A_PLAIN

    @pytest.mark.parametrize("bits", [128, 192, 256])
    def test_sp800_38a_ctr(self, backend, bits):
        cipher = AES(bytes.fromhex(SP800_38A_KEYS[bits]))
        counter = bytes.fromhex("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff")
        expected = bytes.fromhex(SP800_38A_CTR[bits])
        assert backend.aes_ctr(cipher, counter, SP800_38A_PLAIN) == expected
        assert backend.aes_ctr(cipher, counter, expected) == SP800_38A_PLAIN
        # A partial last block uses a prefix of its keystream block.
        assert backend.aes_ctr(cipher, counter, SP800_38A_PLAIN[:37]) == expected[:37]

    @pytest.mark.parametrize("size", [16, 48, 1024, 4112, 65536])
    def test_cbc_backends_agree_on_seeded_buffers(self, size):
        rng = random.Random(size)
        cipher = AES(rng.randbytes(rng.choice([16, 24, 32])))
        iv, data = rng.randbytes(16), rng.randbytes(size)
        encrypted = {b.aes_cbc_encrypt(cipher, iv, data) for b in BACKENDS}
        decrypted = {b.aes_cbc_decrypt(cipher, iv, data) for b in BACKENDS}
        assert len(encrypted) == 1 and len(decrypted) == 1
        (ciphertext,) = encrypted
        assert {b.aes_cbc_decrypt(cipher, iv, ciphertext) for b in BACKENDS} == {data}

    @pytest.mark.parametrize("size", [0, 1, 16, 17, 1000, 65535])
    def test_ctr_backends_agree_on_seeded_buffers(self, size):
        rng = random.Random(size + 1)
        cipher = AES(rng.randbytes(rng.choice([16, 24, 32])))
        nonce, data = rng.randbytes(16), rng.randbytes(size)
        streams = {b.aes_ctr(cipher, nonce, data) for b in BACKENDS}
        assert len(streams) == 1
        assert len(streams.pop()) == size

    @pytest.mark.parametrize(
        "nonce",
        [b"\xff" * 16, bytes(12) + b"\xff" * 4],
        ids=["wrap-2^128", "carry-32"],
    )
    def test_ctr_counter_wraps_and_carries(self, backend, nonce):
        cipher = AES(bytes(range(16)))
        start = int.from_bytes(nonce, "big")
        expected = b"".join(
            cipher.encrypt_block(((start + i) % (1 << 128)).to_bytes(16, "big"))
            for i in range(3)
        )
        assert backend.aes_ctr(cipher, nonce, bytes(48)) == expected

    def test_bytes_like_inputs(self, backend):
        cipher, iv, data = AES(bytes(24)), bytes(range(16)), SP800_38A_PLAIN
        for wrap in (bytearray, memoryview):
            assert backend.aes_cbc_encrypt(
                cipher, wrap(iv), wrap(data)
            ) == backend.aes_cbc_encrypt(cipher, iv, data)
            assert backend.aes_cbc_decrypt(
                cipher, wrap(iv), wrap(data)
            ) == backend.aes_cbc_decrypt(cipher, iv, data)
            assert backend.aes_ctr(cipher, wrap(iv), wrap(data[:21])) == backend.aes_ctr(
                cipher, iv, data[:21]
            )

    def test_misaligned_cbc_input_rejected(self, backend):
        cipher = AES(bytes(16))
        with pytest.raises(ValueError):
            backend.aes_cbc_encrypt(cipher, bytes(16), bytes(17))
        with pytest.raises(ValueError):
            backend.aes_cbc_decrypt(cipher, bytes(16), bytes(31))

    @pytest.mark.parametrize("tier", ["pure"] + (["compiled"] if COMPILED else []))
    def test_mode_error_contract(self, tier):
        """The checks that stay in Python raise the same errors per tier."""
        accel.set_tier(tier)
        key = bytes(range(32))
        with pytest.raises(ValueError, match="IV must be 16 bytes"):
            modes_mod.cbc_encrypt(key, b"m", iv=b"short")
        with pytest.raises(ValueError, match="length 24 is invalid"):
            modes_mod.cbc_decrypt(key, bytes(24))
        with pytest.raises(ValueError, match="nonce must be 16 bytes"):
            modes_mod.ctr_transform(key, b"x", b"short")
        with pytest.raises(ValueError, match="AES key must be"):
            modes_mod.cbc_encrypt(b"short", b"m")
        # A zero pad byte after decryption: craft it by encrypting the
        # block that decrypts to sixteen zero bytes.
        cipher, iv = AES(key), bytes(16)
        forged = iv + modes_mod._cbc_encrypt_pure(cipher, iv, bytes(16))
        with pytest.raises(modes_mod.PaddingError, match="invalid padding byte 0"):
            modes_mod.cbc_decrypt(key, forged)
        forged = iv + modes_mod._cbc_encrypt_pure(
            cipher, iv, bytes(13) + b"\x01\x02\x03"
        )
        with pytest.raises(modes_mod.PaddingError, match="inconsistent padding"):
            modes_mod.cbc_decrypt(key, forged)


class TestBatchModinvErrorPath:
    """Satellite fix: documented, attributed errors in both tiers."""

    COMPOSITE = 3 * 5 * 7 * 11 * 13 * 17 * 19 * 23 + 1  # odd, composite

    def _tiers(self):
        return ["pure"] + (["compiled"] if COMPILED is not None else [])

    @pytest.mark.parametrize("m", [11, 10_007])
    def test_zero_raises_with_index(self, m):
        for tier in self._tiers():
            accel.set_tier(tier)
            with pytest.raises(ZeroDivisionError) as excinfo:
                numbers.batch_modinv([3, 7, 0, 5], m)
            assert "element 2" in str(excinfo.value), tier

    def test_non_coprime_raises_first_offender(self):
        m = 3 * 10_007  # composite modulus: multiples of 3 not invertible
        for tier in self._tiers():
            accel.set_tier(tier)
            with pytest.raises(ZeroDivisionError) as excinfo:
                numbers.batch_modinv([2, 5, 9, 6, 4], m)
            # 9 (index 2) is the first element sharing a factor with m.
            assert "element 2" in str(excinfo.value), tier
            assert "gcd=3" in str(excinfo.value), tier

    def test_error_messages_identical_across_tiers(self):
        if COMPILED is None:
            pytest.skip("compiled tier unavailable")
        m = 3 * 10_007
        messages = {}
        for tier in ("pure", "compiled"):
            accel.set_tier(tier)
            for values in ([1, 0], [2, 21], [0]):
                try:
                    numbers.batch_modinv(values, m)
                except ZeroDivisionError as exc:
                    messages.setdefault(tuple(values), set()).add(str(exc))
                else:  # pragma: no cover - inputs are all non-invertible
                    pytest.fail("expected ZeroDivisionError for %r" % (values,))
        for values, texts in messages.items():
            assert len(texts) == 1, (values, texts)

    def test_scalar_modinv_messages(self):
        for tier in self._tiers():
            accel.set_tier(tier)
            with pytest.raises(ZeroDivisionError, match="0 has no inverse"):
                numbers.modinv(0, 11)
            with pytest.raises(ZeroDivisionError, match="gcd=3"):
                numbers.modinv(9, 3 * 10_007)

    def test_no_garbage_on_failure(self):
        """A failing batch must raise, never return a poisoned prefix
        product (the pre-fix behaviour surfaced the error but blamed the
        opaque product value; sanity-check the result when it succeeds)."""
        m = 3 * 10_007
        for tier in self._tiers():
            accel.set_tier(tier)
            good = [2, 5, 4, 10_006]
            out = numbers.batch_modinv(good, m)
            assert all(v * inv % m == 1 for v, inv in zip(good, out))


class TestTierSelection:
    def test_pure_tier_uninstalls_backends(self):
        accel.set_tier("pure")
        assert numbers._BACKEND is None
        assert fq2_mod._BACKEND is None
        assert ec_mod._KERNELS is None
        assert modes_mod._KERNELS is None
        assert pairing_mod._KERNELS is None
        assert field_mod._MULMOD is None
        state = accel.active()
        assert state.active == "pure"
        assert state.library is None

    @needs_compiled
    def test_compiled_tier_installs_backends(self):
        state = accel.set_tier("compiled")
        assert state.active == "compiled"
        assert state.library and state.library.endswith(".so")
        assert numbers._BACKEND is COMPILED
        assert fq2_mod._BACKEND is COMPILED
        assert ec_mod._KERNELS is COMPILED
        assert modes_mod._KERNELS is COMPILED
        assert pairing_mod._KERNELS is COMPILED

    @needs_compiled
    def test_auto_prefers_compiled(self):
        state = accel.set_tier("auto")
        assert state.active == "compiled"
        assert state.reason is None

    def test_invalid_tier_rejected(self):
        with pytest.raises(ValueError, match="REPRO_CRYPTO_TIER"):
            accel.set_tier("turbo")

    def test_describe_shape(self):
        info = accel.describe()
        assert set(info) == {
            "tier",
            "requested",
            "library",
            "reason",
            "field_mulmod",
        }
        assert info["tier"] in ("pure", "compiled")

    def test_env_override_pure(self):
        """REPRO_CRYPTO_TIER=pure in a fresh process selects pure at import."""
        import os
        import subprocess
        import sys

        code = (
            "from repro.crypto import accel; s = accel.active(); "
            "assert s.active == 'pure' and s.requested == 'pure', s; "
            "print('ok')"
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env={**os.environ, "REPRO_CRYPTO_TIER": "pure"},
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "ok"

    @needs_compiled
    def test_fq2_pow_routes_through_kernel(self):
        accel.set_tier("compiled")
        x = Fq2(TOY.q, 1234, 5678)
        accel.set_tier("pure")
        expected = x ** (TOY.r - 3)
        accel.set_tier("compiled")
        assert x ** (TOY.r - 3) == expected
        # Small exponents stay on the native path but must agree too.
        assert x ** 5 == (x * x * x * x * x)
