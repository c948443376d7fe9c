"""The hot-path pass, measured: merged Miller loops and one final exp.

A naive k-of-n CP-ABE decryption pays ``2k + 1`` pairings — each with
its own Miller loop bookkeeping and its own final exponentiation — plus
``2k`` GT exponentiations for the Lagrange recombination. The fused
path (:meth:`~repro.crypto.pairing.Pairing.pair_product`) folds the
Lagrange weights into Miller-loop exponent groups, batches every slope
inversion across the merged states, and finishes with exactly ONE final
exponentiation. This module pins both claims:

* the op-counter contract — ``2k + 1`` final exps naive, 1 fused;
* the wall-clock contract — fused decryption is at least 1.5x faster
  at the paper-relevant threshold k=5 (measured headroom is ~4.7x; the
  assertion keeps margin for slow CI machines).

The wall-clock comparison runs on the pure tier. The claim is about the
algorithm (one merged Miller loop and one final exponentiation instead
of 2k + 1 of each), and the pure tier is where both paths execute the
same reference arithmetic. On the compiled tier both paths hand their
Miller loops and exponentiations to the same GMP kernels, so the ratio
mostly measures the Python glue left around them.
"""

from __future__ import annotations

import time

import pytest

from repro.abe import CPABE, AccessTree
from repro.crypto import accel
from repro.crypto.params import SMALL

K = 5
ATTRIBUTES = ["ctx-%d" % i for i in range(K)]
TREE = AccessTree.k_of_n(K, ATTRIBUTES)
ROUNDS = 3


def _world():
    abe = CPABE(SMALL)
    pk, mk = abe.setup()
    message = abe._random_gt()
    ct = abe.encrypt_element(pk, message, TREE)
    sk = abe.keygen(pk, mk, set(ATTRIBUTES))
    return abe, pk, sk, ct, message


def test_final_exponentiation_count_2k_plus_1_to_1():
    abe, pk, sk, ct, message = _world()

    abe.pairing.reset_op_counts()
    assert abe.decrypt_element(pk, sk, ct, fused=False) == message
    naive = dict(abe.pairing.op_counts)

    abe.pairing.reset_op_counts()
    assert abe.decrypt_element(pk, sk, ct) == message
    fused = dict(abe.pairing.op_counts)

    # The naive recursion pays one final exp per pairing: 2k leaf
    # pairings plus the blinding pair e(C, D).
    assert naive["final_exps"] == 2 * K + 1
    # The fused path runs every pairing through one merged Miller loop
    # and shares a single final exponentiation across all of them.
    assert fused["final_exps"] == 1
    assert fused["miller_loops"] == 1
    assert fused["miller_states"] == 2 * K + 1


@pytest.fixture
def pure_tier():
    prior = accel.active().requested
    accel.set_tier("pure")
    yield
    accel.set_tier(prior)


def test_decrypt_wall_clock_speedup_at_k5(pure_tier):
    abe, pk, sk, ct, message = _world()
    # Warm both paths once (populates the e(g,g) and Lagrange caches so
    # the timed region measures steady-state decryption).
    assert abe.decrypt_element(pk, sk, ct, fused=False) == message
    assert abe.decrypt_element(pk, sk, ct) == message

    start = time.perf_counter()
    for _ in range(ROUNDS):
        abe.decrypt_element(pk, sk, ct, fused=False)
    naive_s = (time.perf_counter() - start) / ROUNDS

    start = time.perf_counter()
    for _ in range(ROUNDS):
        abe.decrypt_element(pk, sk, ct)
    fused_s = (time.perf_counter() - start) / ROUNDS

    speedup = naive_s / fused_s
    print("\n=== Hot-path decrypt, k=%d (%s, pure tier, %d rounds) ==="
          % (K, "SMALL", ROUNDS))
    print("%-24s %10s" % ("path", "ms"))
    print("%-24s %10.1f" % ("naive (2k+1 pairings)", naive_s * 1e3))
    print("%-24s %10.1f" % ("fused (1 final exp)", fused_s * 1e3))
    print("%-24s %9.2fx" % ("speedup", speedup))
    assert speedup >= 1.5, "fused decrypt regressed: %.2fx < 1.5x" % speedup
