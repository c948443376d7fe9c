"""Shared fixtures and hypothesis settings."""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, settings

from repro.core.context import Context
from repro.crypto.params import SMALL, TOY
from repro.policy.model import PuzzlePolicy

# Property tests run real crypto; keep examples modest and disable the
# per-example deadline (pairing operations are milliseconds each).
settings.register_profile(
    "repro",
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repro")


def k_of_n(k: int, context: Context, n: int | None = None) -> PuzzlePolicy:
    """The paper's flat puzzle: ``k`` of the first ``n`` context questions
    (all of them by default)."""
    return PuzzlePolicy.from_k_of_n(k, context.questions[:n])


@pytest.fixture(scope="session")
def toy_params():
    """Toy pairing parameters (32-bit group) for fast crypto tests."""
    return TOY


@pytest.fixture(scope="session")
def small_params():
    """80-bit pairing parameters for slower, more realistic tests."""
    return SMALL


@pytest.fixture()
def party_context() -> Context:
    """A four-question event context used across core tests.

    Answers deliberately avoid the usernames used in tests ("alice",
    "bob", ...) so audit-trail assertions cannot collide with metadata.
    """
    return Context.from_mapping(
        {
            "Where was the party held?": "Lake Tahoe",
            "Who brought the cake?": "Marguerite",
            "What color was the boat?": "Crimson",
            "Which song closed the night?": "Wonderwall",
        }
    )


@pytest.fixture()
def secret_object() -> bytes:
    return b"Here are the photos from Saturday night!"
