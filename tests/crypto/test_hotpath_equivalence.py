"""Equivalence tests for the hot-path crypto optimizations.

Every optimized primitive must be *observably identical* to the naive
composition it replaces:

* ``Pairing.pair_product`` == the product of individual ``pair`` calls
  raised to their exponents;
* ``Pairing.gt_multi_exp`` == the fold of individual ``gt_exp`` calls;
* ``batch_modinv`` == element-wise ``modinv``;
* cached Lagrange coefficients == freshly computed ones;
* fused CP-ABE decryption == the recursive reference path.

Since the acceleration-tier layer landed, the whole module doubles as
the **cross-tier equivalence suite**: every test here runs once per
*available* tier (always ``pure``; ``compiled`` wherever the GMP kernels
probe successfully) via the autouse ``crypto_tier`` fixture, and
:class:`TestCrossTier` additionally pins pure and compiled results
against each other bit-for-bit within a single test.  The op-counter
contracts are asserted under both tiers — counters tick in the Python
wrappers, so they are tier-invariant by design.

All randomness is seeded so a failure replays deterministically.
"""

from __future__ import annotations

import functools
import random

import pytest

from repro.abe.access_tree import AccessTree
from repro.abe.cpabe import CPABE
from repro.crypto import accel
from repro.crypto.accel import CompiledBackendUnavailable
from repro.crypto.field import PrimeField
from repro.crypto.numbers import batch_modinv, legendre_symbol, modinv, sqrt_mod
from repro.crypto.pairing import Pairing
from repro.crypto.params import DEFAULT, SMALL, TOY
from repro.crypto.polynomial import lagrange_coefficients_at_zero

PAIRING = Pairing(TOY)
R = TOY.r


def _available_tiers() -> list[str]:
    tiers = ["pure"]
    try:
        accel._probe_compiled()
    except CompiledBackendUnavailable:
        pass
    else:
        tiers.append("compiled")
    return tiers


TIERS = _available_tiers()


@pytest.fixture(autouse=True, params=TIERS)
def crypto_tier(request):
    """Run every test in this module under each available tier."""
    prior = accel.active().requested
    accel.set_tier(request.param)
    yield request.param
    accel.set_tier(prior)


def _seeded_points(seed: int, count: int):
    """Deterministic order-r points: multiples of a fixed base."""
    rng = random.Random(seed)
    base = TOY.random_g0()
    return [base * (rng.randrange(1, R)) for _ in range(count)]


class TestPairProduct:
    @pytest.mark.parametrize("seed,count", [(1, 1), (2, 2), (3, 5), (4, 8)])
    def test_matches_product_of_pairs(self, seed, count):
        points = _seeded_points(seed, 2 * count)
        pairs = list(zip(points[:count], points[count:]))
        expected = PAIRING.pair(*pairs[0])
        for p, q in pairs[1:]:
            expected = expected * PAIRING.pair(p, q)
        assert PAIRING.pair_product(pairs) == expected

    @pytest.mark.parametrize("seed", [10, 11, 12])
    def test_matches_with_exponents(self, seed):
        rng = random.Random(seed)
        points = _seeded_points(seed, 8)
        pairs = [
            (points[i], points[i + 4], rng.randrange(-R + 1, R))
            for i in range(4)
        ]
        expected = PAIRING.pair(points[0], points[4]) ** pairs[0][2]
        for p, q, e in pairs[1:]:
            expected = expected * PAIRING.pair(p, q) ** e
        assert PAIRING.pair_product(pairs) == expected

    def test_negative_exponent_is_inverse(self):
        p, q = _seeded_points(20, 2)
        value = PAIRING.pair(p, q)
        assert PAIRING.pair_product([(p, q, -1)]) == value.inverse()

    def test_empty_product_is_identity(self):
        identity = PAIRING.pair_product([])
        assert identity.is_one()

    def test_empty_product_skips_final_exponentiation(self):
        PAIRING.reset_op_counts()
        PAIRING.pair_product([])
        assert PAIRING.op_counts["final_exps"] == 0

    def test_infinity_points_contribute_identity(self):
        p, q = _seeded_points(21, 2)
        infinity = p + (-p)
        assert infinity.infinity
        expected = PAIRING.pair(p, q)
        assert PAIRING.pair_product([(p, q), (infinity, q)]) == expected
        assert PAIRING.pair_product([(p, q), (p, infinity)]) == expected

    def test_zero_exponent_contributes_identity(self):
        p, q = _seeded_points(22, 2)
        expected = PAIRING.pair(p, q)
        assert PAIRING.pair_product([(p, q), (q, p, 0)]) == expected

    def test_single_final_exponentiation(self):
        points = _seeded_points(23, 6)
        pairs = list(zip(points[:3], points[3:]))
        PAIRING.reset_op_counts()
        PAIRING.pair_product(pairs)
        assert PAIRING.op_counts["final_exps"] == 1
        assert PAIRING.op_counts["miller_states"] == 3
        assert PAIRING.op_counts["miller_loops"] == 1

    def test_rejects_point_from_other_curve(self):
        from repro.crypto.params import SMALL

        p, q = _seeded_points(24, 2)
        other = SMALL.random_g0()
        with pytest.raises(ValueError):
            PAIRING.pair_product([(p, q), (other, other)])

    @pytest.mark.parametrize("side", ["both", "first", "second"])
    def test_rejects_lone_foreign_entry(self, side):
        """A product of one foreign entry is rejected on either side of
        the pair, even with a zero exponent: the curve check runs before
        identity entries are dropped."""
        from repro.crypto.params import SMALL

        (p,) = _seeded_points(25, 1)
        other = SMALL.random_g0()
        pair = {"both": (other, other), "first": (other, p), "second": (p, other)}[side]
        for entry in (pair, pair + (0,)):
            with pytest.raises(ValueError):
                PAIRING.pair_product([entry])


class TestGtMultiExp:
    @pytest.mark.parametrize("seed,count", [(30, 1), (31, 3), (32, 6)])
    def test_matches_folded_gt_exp(self, seed, count):
        rng = random.Random(seed)
        points = _seeded_points(seed, 2 * count)
        bases = [
            PAIRING.pair(points[i], points[count + i]) for i in range(count)
        ]
        exponents = [rng.randrange(-R + 1, R) for _ in range(count)]
        expected = bases[0] ** exponents[0]
        for base, e in zip(bases[1:], exponents[1:]):
            expected = expected * base ** e
        assert PAIRING.gt_multi_exp(bases, exponents) == expected

    def test_repeated_bases(self):
        p, q = _seeded_points(33, 2)
        base = PAIRING.pair(p, q)
        assert PAIRING.gt_multi_exp([base, base, base], [2, 3, 5]) == base ** 10

    def test_zero_exponents_and_empty(self):
        p, q = _seeded_points(34, 2)
        base = PAIRING.pair(p, q)
        assert PAIRING.gt_multi_exp([base], [0]).is_one()
        assert PAIRING.gt_multi_exp([], []).is_one()

    def test_length_mismatch_rejected(self):
        p, q = _seeded_points(35, 2)
        base = PAIRING.pair(p, q)
        with pytest.raises(ValueError):
            PAIRING.gt_multi_exp([base], [1, 2])


class TestBatchModinv:
    @pytest.mark.parametrize("seed", [40, 41, 42])
    def test_matches_elementwise_modinv(self, seed):
        rng = random.Random(seed)
        m = TOY.q
        values = [rng.randrange(1, m) for _ in range(17)]
        assert batch_modinv(values, m) == [modinv(v, m) for v in values]

    def test_single_element(self):
        assert batch_modinv([7], 11) == [modinv(7, 11)]

    def test_empty(self):
        assert batch_modinv([], 11) == []

    def test_values_reduced_first(self):
        m = 10_007
        assert batch_modinv([m + 3, -4], m) == [modinv(3, m), modinv(m - 4, m)]

    def test_zero_element_raises(self):
        with pytest.raises(ZeroDivisionError):
            batch_modinv([3, 0, 5], 11)


class TestLagrangeCache:
    def test_cached_equals_fresh(self):
        field = PrimeField(R)
        xs = [1, 4, 9, 16]
        fresh = lagrange_coefficients_at_zero(field, xs, use_cache=False)
        cached_cold = lagrange_coefficients_at_zero(field, xs)
        cached_warm = lagrange_coefficients_at_zero(field, xs)
        assert [int(c) for c in fresh] == [int(c) for c in cached_cold]
        assert [int(c) for c in fresh] == [int(c) for c in cached_warm]

    def test_k1_single_point(self):
        field = PrimeField(R)
        (coeff,) = lagrange_coefficients_at_zero(field, [5])
        assert int(coeff) == 1

    def test_coefficients_interpolate_a_secret(self):
        field = PrimeField(R)
        rng = random.Random(50)
        secret = rng.randrange(R)
        slope = rng.randrange(R)
        xs = [2, 7, 11]
        ys = [(secret + slope * x) % R for x in xs]
        coefficients = lagrange_coefficients_at_zero(field, xs)
        recovered = sum(
            int(c) * y for c, y in zip(coefficients, ys)
        ) % R
        assert recovered == secret

    def test_rejects_foreign_field_elements(self):
        field = PrimeField(R)
        other = PrimeField(10_007)
        with pytest.raises(ValueError):
            lagrange_coefficients_at_zero(field, [other(3), other(5)])


class TestFusedDecrypt:
    @pytest.fixture(scope="class")
    def abe(self):
        return CPABE(TOY)

    @pytest.fixture(scope="class")
    def keys(self, abe):
        return abe.setup()

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_fused_equals_naive_threshold(self, abe, keys, k):
        pk, mk = keys
        message = abe._random_gt()
        tree = AccessTree.k_of_n(k, ["a", "b", "c"])
        ct = abe.encrypt_element(pk, message, tree)
        sk = abe.keygen(pk, mk, {"a", "b", "c"})
        fused = abe.decrypt_element(pk, sk, ct)
        naive = abe.decrypt_element(pk, sk, ct, fused=False)
        assert fused == naive == message

    def test_fused_equals_naive_nested(self, abe, keys):
        pk, mk = keys
        message = abe._random_gt()
        tree = AccessTree.all_of(
            [AccessTree.k_of_n(2, ["a", "b", "c"]), AccessTree.single("d")]
        )
        ct = abe.encrypt_element(pk, message, tree)
        sk = abe.keygen(pk, mk, {"a", "c", "d"})
        fused = abe.decrypt_element(pk, sk, ct)
        naive = abe.decrypt_element(pk, sk, ct, fused=False)
        assert fused == naive == message

    def test_fused_uses_one_final_exponentiation(self, abe, keys):
        pk, mk = keys
        message = abe._random_gt()
        tree = AccessTree.k_of_n(3, ["a", "b", "c", "d", "e"])
        ct = abe.encrypt_element(pk, message, tree)
        sk = abe.keygen(pk, mk, {"a", "b", "c", "d", "e"})
        abe.pairing.reset_op_counts()
        assert abe.decrypt_element(pk, sk, ct) == message
        assert abe.pairing.op_counts["final_exps"] == 1


def _lift_oracle(params, x: int) -> "tuple[int, int] | None":
    """The point lift as first written: the Legendre symbol decides
    residuosity, then ``sqrt_mod`` takes the root (canonical y)."""
    q = params.q
    x %= q
    rhs = (x * x * x + x) % q
    if rhs == 0:
        return x, 0
    if legendre_symbol(rhs, q) != 1:
        return None
    y = sqrt_mod(rhs, q)
    return x, min(y, q - y)


@functools.cache
def _lift_cases(params) -> "tuple[list[int], list]":
    """x = 0 and 1,000 seeded random x, with the oracle's lifts."""
    rng = random.Random(params.q)
    xs = [0] + [rng.randrange(params.q) for _ in range(1000)]
    return xs, [_lift_oracle(params, x) for x in xs]


@pytest.mark.skipif(len(TIERS) < 2, reason="compiled tier unavailable")
class TestCrossTier:
    """Pure and compiled tiers must agree bit-for-bit on the same inputs.

    The autouse fixture already runs the whole module under each tier;
    these tests additionally hold the inputs fixed and flip the tier
    *within* one test, comparing results and op-counters directly.
    """

    def _both_tiers(self, compute):
        accel.set_tier("pure")
        pure = compute()
        accel.set_tier("compiled")
        compiled = compute()
        return pure, compiled

    @pytest.mark.parametrize("seed", [60, 61, 62])
    def test_pair_product_agrees(self, seed):
        rng = random.Random(seed)
        points = _seeded_points(seed, 10)
        pairs = [
            (points[i], points[i + 5], rng.randrange(-R + 1, R))
            for i in range(5)
        ]
        pure, compiled = self._both_tiers(lambda: PAIRING.pair_product(pairs))
        assert pure == compiled

    @pytest.mark.parametrize("seed", [63, 64])
    def test_gt_multi_exp_agrees(self, seed):
        rng = random.Random(seed)
        points = _seeded_points(seed, 6)
        bases = [PAIRING.pair(points[i], points[i + 3]) for i in range(3)]
        exponents = [rng.randrange(-R + 1, R) for _ in range(3)]
        pure, compiled = self._both_tiers(
            lambda: PAIRING.gt_multi_exp(bases, exponents)
        )
        assert pure == compiled

    @pytest.mark.parametrize("seed", [67, 68])
    def test_point_mul_agrees(self, seed):
        rng = random.Random(seed)
        base = _seeded_points(seed, 1)[0]
        raw = TOY.lift_x(next(x for x in range(2, 64) if TOY.lift_x(x)))
        scalars = [0, 1, 2, R - 1, R, R + 2, -rng.randrange(1, R), TOY.h]
        scalars += [rng.randrange(1 << 200) for _ in range(3)]

        def run():
            return ([base * k for k in scalars] + [raw * TOY.h, raw * -7]
                    + [TOY.point(0, 0) * k for k in (1, 2, 3)])

        pure, compiled = self._both_tiers(run)
        assert pure == compiled
        assert pure[4].infinity and pure[5] == base * 2

    @pytest.mark.parametrize("params", [TOY, SMALL, DEFAULT], ids=lambda p: p.name)
    def test_lift_x_matches_oracle(self, params):
        """One root on either tier == the Legendre-then-sqrt_mod lift, on
        x = 0 and on residues and non-residues alike."""
        xs, expected = _lift_cases(params)

        def run():
            return [None if p is None else (p.x, p.y) for p in map(params.lift_x, xs)]

        pure, compiled = self._both_tiers(run)
        assert pure == compiled == expected
        assert expected[0] == (0, 0)
        assert None in expected

    @pytest.mark.parametrize("seed", [65, 66])
    def test_batch_modinv_agrees(self, seed):
        rng = random.Random(seed)
        values = [rng.randrange(1, TOY.q) for _ in range(23)]
        pure, compiled = self._both_tiers(lambda: batch_modinv(values, TOY.q))
        assert pure == compiled

    def test_fused_decrypt_agrees(self):
        abe = CPABE(TOY)
        pk, mk = abe.setup()
        message = abe._random_gt()
        tree = AccessTree.k_of_n(2, ["a", "b", "c"])
        ct = abe.encrypt_element(pk, message, tree)
        sk = abe.keygen(pk, mk, {"a", "b"})
        pure, compiled = self._both_tiers(
            lambda: abe.decrypt_element(pk, sk, ct)
        )
        assert pure == compiled == message

    def test_symmetric_layer_agrees(self, monkeypatch):
        """seal/unseal, GibberishAES and CTR: byte-identical output per
        tier once the random IV and salt are fixed."""
        from repro.crypto import gibberish, modes

        monkeypatch.setattr(modes.secrets, "token_bytes", lambda n: bytes(range(n)))
        rng = random.Random(69)
        key = rng.randbytes(32)
        payloads = [b"", b"x", rng.randbytes(1000), rng.randbytes(32768)]

        def run():
            sealed = [modes.seal(key, p, b"post-7") for p in payloads]
            containers = [
                gibberish.encrypt(p, b"passphrase", salt=b"saltsalt") for p in payloads
            ]
            opened = [modes.unseal(key, s, b"post-7") for s in sealed]
            opened += [gibberish.decrypt(c, b"passphrase") for c in containers]
            stream = modes.ctr_transform(key, payloads[2], b"\xff" * 15 + b"\xfe")
            return sealed, containers, opened, stream

        pure, compiled = self._both_tiers(run)
        assert pure == compiled
        assert pure[2] == payloads * 2

    def test_op_counts_tier_invariant(self):
        points = _seeded_points(70, 8)
        pairs = list(zip(points[:4], points[4:]))

        def run():
            pairing = Pairing(TOY)
            pairing.pair_product(pairs)
            pairing.pair(points[0], points[1])
            pairing.gt_multi_exp(
                [pairing.pair(points[2], points[3])], [12345]
            )
            return dict(pairing.op_counts)

        pure, compiled = self._both_tiers(run)
        assert pure == compiled
