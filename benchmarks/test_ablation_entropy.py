"""Ablation A10: answer entropy vs dictionary-attack outcome and cost.

The section VI analysis reduces the whole design to "the adversary cannot
guess the answers". This ablation makes that quantitative: sweep the
answer-domain size (the dictionary the SP must try), stage the actual
offline dictionary attack from :mod:`repro.analysis.security`, and record
whether it cracks the puzzle, how many candidate hashes it computed, and
what the entropy auditor predicted. The auditor's verdict and the attack's
outcome must agree on both ends of the sweep.
"""

from __future__ import annotations

import time

import pytest

from repro.analysis.security import sp_dictionary_attack_c1
from repro.core.construction1 import C1_FIELD_PRIME, SharerC1
from repro.core.context import Context, QAPair
from repro.core.entropy import audit_puzzle_strength
from repro.osn.storage import StorageHost
from repro.policy.model import PuzzlePolicy

K = 2
DOMAIN_SIZES = [4, 64, 1024]


def _build_puzzle(domain_size: int, seed_word: str):
    """A puzzle whose answers are index ``domain_size - 1`` of a known
    vocabulary — the attacker gets the full vocabulary."""
    vocabulary_by_question = {}
    pairs = []
    for i in range(3):
        question = "entropy question %d (domain %d)?" % (i, domain_size)
        vocabulary = [
            "%s-candidate-%d-%d" % (seed_word, i, j) for j in range(domain_size)
        ]
        pairs.append(QAPair(question, vocabulary[-1]))
        vocabulary_by_question[question] = vocabulary
    context = Context(pairs)
    storage = StorageHost()
    obj = b"entropy ablation object"
    policy = PuzzlePolicy.from_k_of_n(K, context.questions)
    puzzle = SharerC1("s", storage).upload_policy(obj, context, policy)
    return context, vocabulary_by_question, storage, puzzle, obj


def test_entropy_attack_report():
    print("\n=== Ablation A10 — dictionary attack vs answer-domain size (k=2) ===")
    print(f"{'domain':>8} {'audit bits':>11} {'audit verdict':>14} "
          f"{'attack':>9} {'attack ms':>10}")
    outcomes = []
    for domain_size in DOMAIN_SIZES:
        context, vocabulary, storage, puzzle, obj = _build_puzzle(
            domain_size, "w%d" % domain_size
        )
        report = audit_puzzle_strength(
            context,
            K,
            vocabulary_sizes={q: domain_size for q in context.questions},
            minimum_attack_bits=16.0,
        )
        start = time.perf_counter()
        outcome = sp_dictionary_attack_c1(
            puzzle, storage, vocabulary, C1_FIELD_PRIME, obj
        )
        elapsed_ms = (time.perf_counter() - start) * 1e3
        outcomes.append((domain_size, report, outcome, elapsed_ms))
        print(
            f"{domain_size:>8} {report.attack_cost_bits:>11.1f} "
            f"{'acceptable' if report.acceptable else 'WEAK':>14} "
            f"{'CRACKED' if outcome.succeeded else 'held':>9} {elapsed_ms:>10.1f}"
        )

    # Every vocabulary here CONTAINS the answers, so the attack always
    # cracks eventually — what changes is the cost, which must grow with
    # the domain (each guess is one keyed hash).
    times = [elapsed for _, _, _, elapsed in outcomes]
    assert times[-1] > times[0]
    for _, report, outcome, _ in outcomes:
        assert outcome.succeeded
    # The auditor flags the small domains as weak and the large as ok
    # (16-bit floor: 2 * log2(domain) crosses it between 64 and 1024).
    assert not outcomes[0][1].acceptable
    assert outcomes[-1][1].acceptable


def test_attack_fails_outside_vocabulary():
    """The other half of the story: with the answers NOT in the attacker's
    dictionary, no domain size helps."""
    context, _, storage, puzzle, obj = _build_puzzle(64, "real")
    wrong_vocabulary = {
        q: ["miss-%d" % j for j in range(64)] for q in context.questions
    }
    outcome = sp_dictionary_attack_c1(
        puzzle, storage, wrong_vocabulary, C1_FIELD_PRIME, obj
    )
    assert not outcome.succeeded


@pytest.mark.parametrize("domain_size", DOMAIN_SIZES)
def test_bench_dictionary_attack(benchmark, domain_size):
    context, vocabulary, storage, puzzle, obj = _build_puzzle(
        domain_size, "bench%d" % domain_size
    )
    outcome = benchmark.pedantic(
        lambda: sp_dictionary_attack_c1(
            puzzle, storage, vocabulary, C1_FIELD_PRIME, obj
        ),
        rounds=2,
        iterations=1,
    )
    assert outcome.succeeded
