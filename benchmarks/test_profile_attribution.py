"""Per-span cost attribution: where each journey's wall time goes.

Runs one C1 and one C2 share+solve journey under an observability hub and
prints, per journey span, the profiled primitive costs charged to it —
the breakdown behind Figure 10's "local processing" bars. CP-ABE keygen
and decrypt dominate C2's receiver; the AES container and Shamir
interpolation are noise by comparison on C1.
"""

from __future__ import annotations

import random

from repro.apps.platform import SocialPuzzlePlatform
from repro.core.context import Context
from repro.crypto.params import SMALL
from repro.obs import Observability


def _journey(construction: int) -> Observability:
    obs = Observability()
    platform = SocialPuzzlePlatform(params=SMALL, observability=obs)
    alice = platform.join("alice")
    bob = platform.join("bob")
    platform.befriend(alice, bob)
    context = Context.from_mapping(
        {
            "Where was the party held?": "Lake Tahoe",
            "Who brought the cake?": "Marguerite",
            "Which song closed the night?": "Wonderwall",
        }
    )
    share = platform.share(alice, b"attribution run", context, k=2,
                           construction=construction)
    platform.solve(
        bob, share, context, construction=construction, rng=random.Random(7)
    )
    return obs


def _attribution_rows(obs: Observability) -> list[tuple[str, str, float, float]]:
    """(journey, primitive, cost_ms, share_of_span) rows, costed spans only."""
    rows = []
    for root in obs.tracer.finished:
        for span in root.walk():
            if not span.costs or span.wall_s is None:
                continue
            for primitive, seconds in sorted(span.costs.items()):
                rows.append(
                    (
                        "%s/%s" % (root.name, span.name),
                        primitive,
                        seconds * 1e3,
                        seconds / span.wall_s if span.wall_s else 0.0,
                    )
                )
    return rows


def _print_table(title: str, rows: list[tuple[str, str, float, float]]) -> None:
    print("\n%s" % title)
    print("%-28s %-22s %10s %8s" % ("span", "primitive", "cost (ms)", "of span"))
    for span_name, primitive, cost_ms, fraction in rows:
        print("%-28s %-22s %10.2f %7.0f%%" % (span_name, primitive, cost_ms,
                                              fraction * 100))


def test_c1_attribution_report():
    obs = _journey(construction=1)
    rows = _attribution_rows(obs)
    _print_table("C1 per-span primitive attribution", rows)
    primitives = {primitive for _, primitive, _, _ in rows}
    assert {"gibberish.encrypt", "gibberish.decrypt", "shamir.reconstruct"} <= primitives
    for _, _, cost_ms, fraction in rows:
        assert cost_ms >= 0
        assert 0 <= fraction <= 1.0 + 1e-9  # charged cost fits inside its span


def test_c2_attribution_report():
    obs = _journey(construction=2)
    rows = _attribution_rows(obs)
    _print_table("C2 per-span primitive attribution", rows)
    primitives = {primitive for _, primitive, _, _ in rows}
    assert {"cpabe.setup", "cpabe.encrypt", "cpabe.keygen", "cpabe.decrypt"} <= primitives
    # The paper's asymmetry: the receiver pays keygen + decrypt.
    receiver_costs = {
        primitive: cost_ms
        for span, primitive, cost_ms, _ in rows
        if span.endswith("receiver.recover")
    }
    assert "cpabe.keygen" in receiver_costs
    assert "cpabe.decrypt" in receiver_costs


def test_c2_attribution_fused_decrypt():
    """The fused decrypt path (merged Miller loops, one final exp) must
    attribute exactly like the recursive one: all of its cost lands on
    ``cpabe.decrypt`` inside the receiver's recover span — the merged
    loop does not orphan cost or double-charge a sibling primitive."""
    obs = _journey(construction=2)
    rows = _attribution_rows(obs)
    _print_table("C2 journey attribution (fused decrypt)", rows)
    recover_rows = [
        (primitive, cost_ms, fraction)
        for span, primitive, cost_ms, fraction in rows
        if span.endswith("receiver.recover")
    ]
    primitives = [primitive for primitive, _, _ in recover_rows]
    assert primitives.count("cpabe.decrypt") == 1  # charged exactly once
    assert "cpabe.keygen" in primitives
    for _, cost_ms, fraction in recover_rows:
        assert cost_ms >= 0
        assert 0 <= fraction <= 1.0 + 1e-9  # cost fits inside its span
