"""The benchmark's one adapter onto ``repro``.

Every call the benchmark makes into the program under test lives here:
the sharer/receiver roles, the ``ProtocolClient`` verbs, the wire codec
(``encode_message`` / ``decode_message``), the stream framing
(``send_frame`` / ``recv_frame``), the ``repro serve`` entry point and
the public functions the traced run wraps. A refactor of ``repro`` can
read this file to learn which names the benchmark needs kept.

Nothing here times anything; the workloads do.
"""

from __future__ import annotations

import gc
import random
import socket
import zlib
from dataclasses import dataclass

from repro import cli
from repro.abe.cpabe import CPABE
from repro.cluster.cluster import StorageCluster
from repro.core.construction1 import ReceiverC1, SharerC1
from repro.core.construction2 import ReceiverC2, SharerC2
from repro.core.context import Context
from repro.core.errors import AccessDeniedError
from repro.core.throttle import ThrottledError
from repro.crypto import accel
from repro.crypto.params import get_params
from repro.osn.provider import User
from repro.policy import PuzzlePolicy
from repro.proto import messages as wire
from repro.proto.client import ProtocolClient
from repro.proto.envelope import peek_type
from repro.serve.framing import recv_frame, send_frame
from repro.serve.remote import RemoteProtocolClient, RemoteStorageHost
from repro.serve.transport import TcpTransport
from repro.util.codec import CodecError

FLAT = "2 of (ctx_a, ctx_b, ctx_c)"
NESTED = "scope:group/trip and (2 of (ctx_a, ctx_b, ctx_c) or attr:escrow)"
QUESTIONS = ("scope:group/trip", "ctx_a", "ctx_b", "ctx_c", "attr:escrow")
PARAMS = "small"  # the `repro serve` default preset

# Which wire request is which verb, for the per-verb server metrics.
VERBS = {
    wire.StorePuzzleRequest.TYPE: "store",
    wire.StoreUploadRequest.TYPE: "store",
    wire.DisplayPuzzleRequest.TYPE: "display",
    wire.AnswerSubmission.TYPE: "verify",
    wire.ExplainRequest.TYPE: "explain",
    wire.FetchPostRequest.TYPE: "get_post",
    wire.StoragePutRequest.TYPE: "dh.put",
    wire.StorageGetRequest.TYPE: "dh.get",
    wire.StorageDeleteRequest.TYPE: "dh.delete",
}

DENIALS = (AccessDeniedError, ThrottledError)


class Mismatch(Exception):
    """A reply or a recovered object differs from what the inputs imply."""


def crypto_tier() -> str:
    """The active crypto tier; probing it builds the GMP kernel cache."""
    return accel.describe()["tier"]


def serve(argv: list[str]) -> int:
    """``repro serve`` with the given flags; blocks until signalled."""
    return cli.main(["serve", *argv])


def verb_of(frame: bytes) -> str:
    """The verb a request frame carries (``other`` for the rest)."""
    return VERBS.get(peek_type(frame), "other")


# -- layers the traced run wraps ---------------------------------------------------

def _methods(cls: type, names: tuple[str, ...] = ()) -> list:
    """The functions ``cls`` defines itself: ``names``, or else its
    public methods and ``__init__``."""
    return [value for name, value in vars(cls).items()
            if callable(value) and not isinstance(value, type)
            and (name in names if names else name == "__init__" or not name.startswith("_"))]


def _bytes_arg(index: int):
    def size(args, result):
        data = args[index] if len(args) > index else b""
        return len(data) if isinstance(data, (bytes, bytearray, memoryview)) else 0
    return size


def _frame_tag(args, result):
    return [len(args[1]) + len(result or b""), zlib.crc32(args[1])]


def _dispatch_tag(args, result):
    return [verb_of(args[1]), zlib.crc32(args[1])]


def client_layers() -> list[tuple[str, object, object]]:
    """``(layer, function, tag)`` for every public entry point the
    client-side layers are timed at. ``tag`` maps a call's arguments to
    a number recorded with its span (bytes hashed, frame checksum)."""
    from repro.crypto import gibberish, hashes, kdf, mac, modes, polynomial, shamir
    from repro.crypto.ec import Point
    from repro.crypto.pairing import Pairing
    from repro.policy import compile as policy_compile
    from repro.serve.remote import ConnectionBus

    layers: list[tuple[str, object, object]] = [
        ("client.wire", ConnectionBus.dispatch, _frame_tag),
    ]
    layers += [("client.codec", fn, None)
               for fn in _methods(ProtocolClient) + [ProtocolClient._roundtrip]]
    for cls in (SharerC1, ReceiverC1, SharerC2, ReceiverC2):
        layers += [("role", fn, None) for fn in _methods(cls)]
    layers += [
        ("policy", fn, None)
        for fn in (policy_compile.share_plan, policy_compile.solve_shape,
                   policy_compile.compile_tree_c2)
    ]
    layers += [
        ("hash", getattr(hashes, name), None)
        for name in ("new", "sha1", "sha256", "sha3_224", "sha3_256",
                     "sha3_384", "sha3_512")
    ]
    layers += [("hash", hashes.Keccak.update, _bytes_arg(1)),
               ("hash", hashes._MerkleDamgard.update, _bytes_arg(1)),
               ("hash", hashes.Keccak.digest, None),
               ("hash", hashes._MerkleDamgard.digest, None)]
    layers += [("hash", fn, None) for fn in _methods(mac.HMAC)]
    layers += [("hash", getattr(mac, n), None)
               for n in ("hmac_digest", "keyed_hash")]
    layers += [("hash", getattr(kdf, n), None)
               for n in ("hkdf", "hkdf_extract", "hkdf_expand", "evp_bytes_to_key")]
    layers += [("cipher", gibberish.encrypt, None), ("cipher", gibberish.decrypt, None),
               ("cipher", modes.cbc_encrypt, _bytes_arg(1)),
               ("cipher", modes.cbc_decrypt, _bytes_arg(1))]
    layers += [("shamir", getattr(shamir, n), None)
               for n in ("split_secret", "reconstruct_secret")]
    layers += [("shamir", fn, None) for fn in _methods(shamir.ShamirDealer)]
    layers += [("shamir", fn, None)
               for fn in _methods(polynomial.Polynomial, ("random", "__call__"))]
    layers += [("shamir", getattr(polynomial, n), None)
               for n in ("lagrange_coefficients_at_zero", "lagrange_interpolate_at")]
    layers += [("ec", Point.__mul__, None)]
    layers += [("pairing", fn, None) for fn in _methods(Pairing)]
    layers += [("pairing", fn, None) for fn in _methods(CPABE)]
    return layers


def server_layers() -> list[tuple[str, object, object]]:
    """The server-side layers: engine dispatch, the quorum cluster and
    the per-node blob engines."""
    from repro.proto.engine import PuzzleProtocolEngine
    from repro.store.dict_engine import DictBlobStore
    from repro.store.engine import SegmentBlobStore

    layers: list[tuple[str, object, object]] = [
        ("engine.dispatch", PuzzleProtocolEngine.dispatch, _dispatch_tag),
    ]
    layers += [("cluster", getattr(StorageCluster, n), None)
               for n in ("put", "get", "get_many", "exists", "delete")]
    for cls in (DictBlobStore, SegmentBlobStore):
        layers += [("store", getattr(cls, n), None) for n in ("put", "get", "discard")]
    return layers


def storage_stats() -> dict:
    """Aggregate engine stats of the cluster this process serves, or
    an empty dict when the DH is not a cluster."""
    clusters = [o for o in gc.get_objects() if isinstance(o, StorageCluster)]
    if not clusters:
        return {}
    stats = clusters[0].storage_stats()
    return {"objects": stats.objects, "physical_bytes": stats.physical_bytes,
            "segments": stats.segments, "tombstones": stats.tombstones}


# -- journeys ----------------------------------------------------------------------

@dataclass(frozen=True)
class Shared:
    """A puzzle as the benchmark knows it: where it is and its inputs."""

    construction: int
    nested: bool
    puzzle_id: int
    post_id: int
    answers: dict
    plaintext: bytes


class JourneyClient:
    """Users, sharer and receivers over one served connection.

    The roles run here, in the client process, as in the paper's
    browser prototype; every SP and DH interaction is a round trip on
    ``client``. ``final_exps`` counts the pairing final exponentiations
    the roles ran.
    """

    def __init__(self, client: ProtocolClient):
        self.client = client
        self.storage = RemoteStorageHost(client)
        self.params = get_params(PARAMS)
        self.policies = {False: PuzzlePolicy.from_text(FLAT),
                         True: PuzzlePolicy.from_text(NESTED)}
        self.final_exps = 0
        self.sharer = client.register_user("alice")
        self.friend = client.register_user("bob")
        self.guesser = client.register_user("dave")
        client.befriend(self.sharer, self.friend)
        client.befriend(self.sharer, self.guesser)

    @classmethod
    def connect(cls, host: str, port: int) -> "JourneyClient":
        return cls(RemoteProtocolClient(TcpTransport(host, port)))

    def close(self) -> None:
        self.client.close()

    def _count(self, role) -> None:
        self.final_exps += role.abe.pairing.op_counts["final_exps"]

    def share(self, construction: int, nested: bool, answers: dict,
              plaintext: bytes) -> Shared:
        policy = self.policies[nested]
        context = Context.from_mapping(answers)
        if construction == 1:
            sharer = SharerC1(self.sharer.name, self.storage)
            puzzle_id = self.client.store_puzzle(
                sharer.upload_policy(plaintext, context, policy))
        else:
            sharer = SharerC2(self.sharer.name, self.storage, self.params)
            record, _ = sharer.upload_policy(plaintext, context, policy)
            self._count(sharer)
            puzzle_id = self.client.store_upload(record)
        self.client.share_policy(construction, puzzle_id, policy.text)
        post = self.client.publish_post(
            self.sharer, "[social-puzzle] solve puzzle #%d" % puzzle_id)
        return Shared(construction, nested, puzzle_id, post.post_id, answers, plaintext)

    def _answers(self, shared: Shared, user: User, knowledge: dict, seed: int):
        """ACL read, display and answer: the start of every receiver journey."""
        self.client.get_post(user, shared.post_id)
        context = Context.from_mapping(knowledge)
        if shared.construction == 1:
            receiver = ReceiverC1(user.name, self.storage)
            displayed = self.client.display_puzzle_c1(
                shared.puzzle_id, rng=random.Random(seed))
            return receiver, displayed, receiver.answer_puzzle(displayed, context), context
        receiver = ReceiverC2(user.name, self.storage, self.params)
        displayed = self.client.display_puzzle_c2(shared.puzzle_id)
        return receiver, displayed, receiver.answer_puzzle(displayed, context), context

    def access(self, shared: Shared, knowledge: dict, seed: int) -> None:
        """A grant journey; raises :class:`Mismatch` unless the exact
        plaintext comes back."""
        receiver, displayed, answers, context = self._answers(
            shared, self.friend, knowledge, seed)
        if shared.construction == 1:
            release = self.client.submit_answers_c1(answers, self.friend.name)
            recovered = receiver.access(release, displayed, context)
        else:
            grant = self.client.submit_answers_c2(answers, self.friend.name)
            recovered = receiver.access(grant, context)
            self._count(receiver)
        if recovered != shared.plaintext:
            raise Mismatch("grant recovered the wrong plaintext")

    def deny(self, shared: Shared, knowledge: dict, seed: int) -> None:
        """A denied journey: must end in a typed denial, never plaintext."""
        _, _, answers, _ = self._answers(shared, self.guesser, knowledge, seed)
        try:
            if shared.construction == 1:
                self.client.submit_answers_c1(answers, self.guesser.name)
            else:
                self.client.submit_answers_c2(answers, self.guesser.name)
        except DENIALS:
            return
        raise Mismatch("a deny journey was granted")

    def explain(self, shared: Shared, knowledge: dict, seed: int) -> None:
        """A denied explain: a deny derivation carrying no answer."""
        _, _, answers, _ = self._answers(shared, self.guesser, knowledge, seed)
        try:
            if shared.construction == 1:
                explanation = self.client.explain_c1(answers, self.guesser.name)
            else:
                explanation = self.client.explain_c2(answers, self.guesser.name)
        except DENIALS:
            return
        if explanation.granted:
            raise Mismatch("a deny explain was granted")
        body = explanation.to_bytes()
        if any(answer.encode() in body for answer in shared.answers.values()):
            raise Mismatch("an explanation carried answer material")


# -- raw framed requests (the storms) ----------------------------------------------

class FramedConnection:
    """One raw framed TCP connection; ``dispatch`` makes it a
    synchronous bus for :class:`ProtocolClient` during set-up, and the
    storms then drive ``send``/``recv`` directly from two threads."""

    def __init__(self, host: str, port: int):
        self.sock = socket.create_connection((host, port), timeout=30.0)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def send(self, frame: bytes) -> None:
        send_frame(self.sock.send, frame)

    def recv(self) -> bytes:
        frame = recv_frame(self.sock.recv)
        if frame is None:
            raise ConnectionError("server closed the connection")
        return frame

    def dispatch(self, frame: bytes) -> bytes:
        self.send(frame)
        return self.recv()

    def close(self) -> None:
        """Close; a thread blocked in :meth:`recv` wakes with an error."""
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass  # the server already closed it
        self.sock.close()


def framed_journeys(conn: FramedConnection) -> JourneyClient:
    """A :class:`JourneyClient` whose round trips use ``conn``."""
    return JourneyClient(ProtocolClient(conn))


@dataclass(frozen=True)
class Request:
    """One pre-encoded storm request and what its reply must be."""

    frame: bytes
    expect: str  # display | grant | deny | explain | post | dh.get | dh.put | dh.delete
    data: bytes = b""  # the bytes a dh.get must return


def storm_requests(journeys: JourneyClient, shared: Shared, knowledge: dict,
                   granted: bool, seed: int) -> tuple[Request, Request, Request]:
    """Display, verify and explain frames for ``shared`` as ``knowledge``
    answers it; ``granted`` says whether that knowledge suffices."""
    user = journeys.friend if granted else journeys.guesser
    _, _, answers, _ = journeys._answers(shared, user, knowledge, seed)
    c = shared.construction
    digests = {q: d if c == 1 else d.encode("ascii") for q, d in answers.digests.items()}
    display = wire.DisplayPuzzleRequest(construction=c, puzzle_id=shared.puzzle_id)
    verify = wire.AnswerSubmission(construction=c, puzzle_id=shared.puzzle_id,
                                   requester=user.name, digests=digests)
    explain = wire.ExplainRequest(construction=c, puzzle_id=shared.puzzle_id,
                                  requester=user.name, digests=digests)
    return (Request(wire.encode_message(display), "display"),
            Request(wire.encode_message(verify), "grant" if granted else "deny"),
            Request(wire.encode_message(explain), "explain"))


def post_request(journeys: JourneyClient, shared: Shared) -> Request:
    message = wire.FetchPostRequest(viewer=journeys.friend, post_id=shared.post_id)
    return Request(wire.encode_message(message), "post")


def get_request(url: str, data: bytes) -> Request:
    return Request(wire.encode_message(wire.StorageGetRequest(url=url)), "dh.get", data)


def put_request(data: bytes) -> Request:
    return Request(wire.encode_message(wire.StoragePutRequest(data=data)), "dh.put", data)


def delete_request(url: str) -> Request:
    return Request(wire.encode_message(wire.StorageDeleteRequest(url=url)), "dh.delete")


def put_blob(journeys: JourneyClient, data: bytes) -> str:
    return journeys.client.storage_put(data)


def c2_ciphertext(journeys: JourneyClient, answers: dict,
                  plaintext: bytes) -> tuple[str, bytes]:
    """A CP-ABE ciphertext of ``plaintext`` under the flat policy, made
    by the sharer role and stored on the DH: ``(url, ciphertext)``."""
    sharer = SharerC2(journeys.sharer.name, journeys.storage, journeys.params)
    record, ct_bytes = sharer.upload_policy(
        plaintext, Context.from_mapping(answers), journeys.policies[False])
    return record.url, ct_bytes


def check_reply(request: Request, frame: bytes) -> str:
    """Decode a storm reply and check it against ``request``.

    Returns the URL a ``dh.put`` minted (``""`` for other verbs); raises
    :class:`Mismatch` for a wrong reply, including one that does not
    decode.
    """
    try:
        reply = wire.decode_message(frame)
    except CodecError as exc:
        raise Mismatch("reply does not decode: %s" % exc) from None
    expect = request.expect
    if isinstance(reply, wire.ErrorReply):
        if expect in ("deny", "explain") and reply.code in ("access-denied", "throttled"):
            return ""
        raise Mismatch("%s answered %s: %s" % (expect, reply.code, reply.message))
    ok = {
        "display": isinstance(reply, (wire.DisplayReplyC1, wire.DisplayReplyC2)),
        "grant": isinstance(reply, (wire.ReleaseReply, wire.GrantReply)),
        "explain": isinstance(reply, wire.ExplainReply)
        and not reply.explanation.granted,
        "post": isinstance(reply, wire.PostReply),
        "dh.get": isinstance(reply, wire.StorageGetReply)
        and reply.data == request.data,
        "dh.put": isinstance(reply, wire.StoragePutReply),
        "dh.delete": isinstance(reply, wire.StorageBoolReply)
        and reply.value is True,
    }.get(expect, False)
    if not ok:
        raise Mismatch("%s answered %s" % (expect, type(reply).__name__))
    return reply.url if expect == "dh.put" else ""
