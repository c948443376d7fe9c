"""Fully remote user journeys, driven over one served connection.

Everything the demo does in-process — register, befriend, share, post,
solve, deny — here travels as SPW frames through a
:class:`~repro.serve.remote.RemoteProtocolClient`: the sharer's and
receiver's cryptography runs on the *client* side (as the paper's
browser/Qt implementations do) and every SP and DH interaction is a
round trip. This is the ``repro demo --connect`` flow, the serve-smoke
CI job, and the integration tests' golden path, so it deliberately
exercises both the happy path and the two denial gates (static ACL,
wrong puzzle answers).
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass

from repro.apps.roles import roles_for
from repro.core.context import Context
from repro.core.errors import AccessDeniedError
from repro.crypto.params import get_params
from repro.osn.provider import OsnError, User
from repro.policy import PuzzlePolicy
from repro.proto.client import ProtocolClient
from repro.serve.remote import RemoteStorageHost

__all__ = [
    "JourneyReport",
    "PolicyJourneyReport",
    "run_remote_journey",
    "run_policy_journey",
    "run_pipelined_probe",
]

_CONTEXT = {
    "Where was the party held?": "Lake Tahoe",
    "Who brought the cake?": "Marguerite",
    "Which song closed the night?": "Wonderwall",
}


class _RemoteRoles:
    """One construction's roles over ``client``: the sharer's and the
    receivers' crypto runs here, every SP and DH step is a round trip.
    C1 displays draw from ``random.Random(seed)``; C2 shows every
    question."""

    def __init__(
        self, client: ProtocolClient, construction: int, params_name: str, seed: int
    ):
        self.client = client
        self.roles = roles_for(construction, get_params(params_name))
        self.storage = RemoteStorageHost(client)
        self.seed = seed

    def share(
        self, user: User, obj: bytes, context: Context, policy: PuzzlePolicy
    ) -> int:
        sharer = self.roles.sharer(user.name, self.storage)
        return self.roles.store(
            self.client, self.roles.upload(sharer, obj, context, policy)
        )

    def answer(self, puzzle_id: int, name: str, knowledge: Context):
        """Display and answer: the start of every receiver journey."""
        receiver = self.roles.receiver(name, self.storage)
        displayed = self.roles.display(
            self.client, puzzle_id, random.Random(self.seed)
        )
        return receiver, displayed, receiver.answer_puzzle(displayed, knowledge)

    def solve(self, puzzle_id: int, name: str, knowledge: Context) -> bytes:
        receiver, displayed, answers = self.answer(puzzle_id, name, knowledge)
        reply = self.roles.submit(self.client, answers, name)
        return self.roles.recover(receiver, reply, displayed, knowledge)

    def explain(self, puzzle_id: int, name: str, knowledge: Context):
        _, _, answers = self.answer(puzzle_id, name, knowledge)
        return self.roles.explain(self.client, answers, name)


@dataclass(frozen=True)
class JourneyReport:
    """What a remote share→solve→deny journey established."""

    construction: int
    puzzle_id: int
    post_id: int
    recovered: bytes
    acl_denied: bool  # the stranger could not even read the post
    answers_denied: bool  # wrong answers did not release the object

    @property
    def ok(self) -> bool:
        return self.acl_denied and self.answers_denied


def run_remote_journey(
    client: ProtocolClient,
    construction: int = 1,
    params_name: str = "small",
    seed: int = 5,
    plaintext: bytes = b"party photos",
) -> JourneyReport:
    """Run the full journey through ``client``; raises on any deviation.

    Works over any ``dispatch``-shaped bus the client wraps — in-process,
    in-memory pipe, or TCP — because nothing here knows a transport
    exists. Returns a :class:`JourneyReport` with ``ok=True`` when both
    denial gates held.
    """
    remote = _RemoteRoles(client, construction, params_name, seed)
    context = Context.from_mapping(_CONTEXT)

    # Accounts and the social graph, entirely over the wire.
    alice = client.register_user("alice")
    bob = client.register_user("bob")
    carol = client.register_user("carol")
    client.befriend(alice, bob)

    # Alice shares: client-side crypto, blob to the DH, puzzle to the SP.
    puzzle_id = remote.share(
        alice, plaintext, context, PuzzlePolicy.from_k_of_n(2, context.questions)
    )
    post = client.publish_post(
        alice,
        "[social-puzzle] %s shared a protected object — solve puzzle #%d"
        % (alice.name, puzzle_id),
    )

    # Gate 1, the static ACL: carol never befriended alice, so the SP
    # refuses her the post itself.
    acl_denied = False
    try:
        client.get_post(carol, post.post_id)
    except OsnError:
        acl_denied = True

    # Bob follows the hyperlink and solves.
    assert client.get_post(bob, post.post_id).post_id == post.post_id
    recovered = remote.solve(puzzle_id, bob.name, context)
    if recovered != plaintext:
        raise AssertionError("recovered %r, expected %r" % (recovered, plaintext))

    # Gate 2, the puzzle: carol guesses wrong and stays locked out, even
    # with the AccessDeniedError having crossed the wire as a typed frame.
    wrong = Context.from_mapping(
        {"Where was the party held?": "Las Vegas",
         "Who brought the cake?": "Gordon"}
    )
    answers_denied = False
    try:
        _, _, guesses = remote.answer(puzzle_id, carol.name, wrong)
        remote.roles.submit(client, guesses, carol.name)
    except AccessDeniedError:
        answers_denied = True

    return JourneyReport(
        construction=construction,
        puzzle_id=puzzle_id,
        post_id=post.post_id,
        recovered=recovered,
        acl_denied=acl_denied,
        answers_denied=answers_denied,
    )


# The nested-policy journey: the trip group's puzzle sits inside an AND
# with a membership scope gate, and an escrow credential forms an OR
# branch around the context threshold — exactly the depth-3 shape the
# flat k-of-n form cannot express.
_POLICY_TEXT = "scope:group/trip and (2 of (ctx_a, ctx_b, ctx_c) or attr:escrow)"
_POLICY_CONTEXT = {
    "scope:group/trip": "trip-roster-secret",
    "ctx_a": "alpha",
    "ctx_b": "beta",
    "ctx_c": "gamma",
    "attr:escrow": "escrow-credential",
}


@dataclass(frozen=True)
class PolicyJourneyReport:
    """What a remote nested-policy share→grant→deny→explain run proved."""

    construction: int
    puzzle_id: int
    granted_context: bytes  # recovered via scope + 2 context answers
    granted_escrow: bytes  # recovered via scope + escrow branch
    denied: bool  # context answers without the scope gate stayed out
    explain_grant_ok: bool  # grant derivation names the satisfied leaves
    explain_deny_ok: bool  # deny derivation names the failed gate
    leak_free: bool  # no answer material in either explanation's bytes

    @property
    def ok(self) -> bool:
        return (
            self.denied
            and self.explain_grant_ok
            and self.explain_deny_ok
            and self.leak_free
        )


def run_policy_journey(
    client: ProtocolClient,
    construction: int = 1,
    params_name: str = "small",
    seed: int = 5,
    plaintext: bytes = b"trip photos",
) -> PolicyJourneyReport:
    """Run the nested-policy journey through ``client``, fully remote.

    Shares under :data:`_POLICY_TEXT`, then exercises every outcome the
    tree allows: a group member with two context answers (bob), a group
    member holding the escrow credential (carol), and an outsider who
    knows trip trivia but not the scope secret (dave) — plus the Explain
    verb for both a grant and a deny, asserting the derivations never
    carry answer material.
    """
    remote = _RemoteRoles(client, construction, params_name, seed)
    policy = PuzzlePolicy.from_text(_POLICY_TEXT)
    context = Context.from_mapping(_POLICY_CONTEXT)

    alice = client.register_user("p-alice")
    bob = client.register_user("p-bob")
    puzzle_id = remote.share(alice, plaintext, context, policy)
    client.share_policy(construction, puzzle_id, policy.text)

    member = context.subset(["scope:group/trip", "ctx_a", "ctx_b"])
    escrowed = context.subset(["scope:group/trip", "attr:escrow"])
    outsider = context.subset(["ctx_a", "ctx_b", "ctx_c"])

    granted_context = remote.solve(puzzle_id, bob.name, member)
    granted_escrow = remote.solve(puzzle_id, "p-carol", escrowed)
    denied = False
    try:
        remote.solve(puzzle_id, "p-dave", outsider)
    except AccessDeniedError:
        denied = True

    grant_exp = remote.explain(puzzle_id, bob.name, member)
    deny_exp = remote.explain(puzzle_id, "p-dave", outsider)
    explain_grant_ok = (
        grant_exp.granted
        and set(grant_exp.satisfied_leaves())
        == {"scope:group/trip", "ctx_a", "ctx_b"}
        and "0" in grant_exp.passed_gates()
    )
    explain_deny_ok = (
        not deny_exp.granted
        and "scope:group/trip" in deny_exp.failed_leaves()
        and "0" not in deny_exp.passed_gates()
    )
    wire = grant_exp.to_bytes() + deny_exp.to_bytes()
    leak_free = not any(
        answer.encode("utf-8") in wire for answer in _POLICY_CONTEXT.values()
    )

    return PolicyJourneyReport(
        construction=construction,
        puzzle_id=puzzle_id,
        granted_context=granted_context,
        granted_escrow=granted_escrow,
        denied=denied,
        explain_grant_ok=explain_grant_ok,
        explain_deny_ok=explain_deny_ok,
        leak_free=leak_free,
    )


def run_pipelined_probe(client: ProtocolClient, requests: int = 8) -> int:
    """Exercise pipelining on ``client``'s connection; returns the number
    of round trips that completed.

    Three shapes at once: a burst of puts fired by concurrent threads
    (many frames in flight on one connection), one ``BatchRequest``
    carrying all the gets (one big frame), and a read-back verification.
    Raises if any reply is wrong — which, given the FIFO reply contract,
    would mean frames were matched out of order.
    """
    blobs = {i: b"probe-blob-%d" % i for i in range(requests)}
    urls: dict[int, str] = {}
    url_lock = threading.Lock()
    failures: list[BaseException] = []

    def put_one(i: int) -> None:
        try:
            url = client.storage_put(blobs[i])
            with url_lock:
                urls[i] = url
        except BaseException as exc:  # re-raised below, with context
            failures.append(exc)

    threads = [
        threading.Thread(target=put_one, args=(i,), name="probe-put-%d" % i)
        for i in blobs
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if failures:
        raise failures[0]

    ordered = [urls[i] for i in sorted(urls)]
    fetched = client.storage_get_many(ordered)
    for i, data in zip(sorted(urls), fetched):
        if data != blobs[i]:
            raise AssertionError("pipelined reply mismatch for blob %d" % i)
    return len(blobs) * 2  # one put + one (batched) get each
