"""The metered steps of every app flow, pinned label by label.

The cost meter's records are what the Figure 10 reproduction adds up.
Each flow must charge the same steps in the same order for both
constructions, both file-size models and with or without the secure
transport. The expected lists are literal, so a change to the flows
that adds, drops or reorders a step fails here.
"""

from __future__ import annotations

import random

import pytest

from repro.apps.platform import SocialPuzzlePlatform
from repro.core.context import Context
from repro.crypto.params import TOY

_CONTEXT = {"ctx_a": "alpha", "ctx_b": "beta", "ctx_c": "gamma"}
_POLICY = "ctx_a and (ctx_b or ctx_c)"

_HANDSHAKE = [
    "secure-channel handshake (ECDH + BLS)",
    "secure-channel client hello",
    "secure-channel server hello",
]

_STEPS = {
    1: {
        "share": [
            "sharer crypto (secret, shares, hashes, AES)",
            "store encrypted object on DH",
            "upload puzzle Z_O to SP",
            "post hyperlink on profile",
        ],
        "solve": [
            "fetch puzzle page (questions)",
            "receiver crypto (hash answers)",
            "submit hashed answers",
            "receive released shares + URL",
            "download encrypted object",
            "receiver crypto (unblind, interpolate, AES)",
        ],
        "policy": [
            "sharer crypto (secret, shares, hashes, AES)",
            "store encrypted object on DH",
            "upload puzzle Z_O to SP",
            "attach policy text (SharePolicy)",
            "post hyperlink on profile",
        ],
    },
    2: {
        "share": [
            "sharer crypto (cpabe setup, encrypt, perturb)",
            "upload details.txt",
            "upload pub_key",
            "upload master_key",
            "upload message.txt.cpabe",
            "post hyperlink on profile",
        ],
        "solve": [
            "download details.txt (questions)",
            "receiver crypto (hash answers)",
            "submit hashed answers",
            "download message.txt.cpabe",
            "download master_key",
            "download pub_key",
            "receiver crypto (reconstruct, keygen, decrypt)",
        ],
        "policy": [
            "sharer crypto (cpabe setup, encrypt, perturb)",
            "upload details.txt",
            "upload pub_key",
            "upload master_key",
            "upload message.txt.cpabe",
            "attach policy text (SharePolicy)",
            "post hyperlink on profile",
        ],
    },
}


def _labels(result) -> list[str]:
    return [record.label for record in result.timing.records]


@pytest.mark.parametrize("secure", [False, True], ids=["plain", "secure"])
@pytest.mark.parametrize("model", ["actual", "paper"])
@pytest.mark.parametrize("construction", [1, 2])
def test_flows_charge_the_pinned_steps(construction, model, secure):
    platform = SocialPuzzlePlatform(
        params=TOY, file_size_model=model, secure_transport=secure
    )
    alice, bob = platform.join("alice"), platform.join("bob")
    platform.befriend(alice, bob)
    context = Context.from_mapping(_CONTEXT)

    share = platform.share(alice, b"obj", context, k=2, construction=construction)
    solved = platform.solve(
        bob, share, context, construction=construction, rng=random.Random(5)
    )
    nested = platform.share(
        alice, b"obj", context, construction=construction, policy=_POLICY
    )

    prefix = _HANDSHAKE if secure else []
    steps = _STEPS[construction]
    assert solved.plaintext == b"obj"
    assert _labels(share) == prefix + steps["share"]
    assert _labels(solved) == prefix + steps["solve"]
    assert _labels(nested) == prefix + steps["policy"]
