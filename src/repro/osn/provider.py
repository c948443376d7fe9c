"""The OSN service provider SP (paper section IV-A).

A symmetric social-networking service in the style of Facebook: users
maintain profiles and friend lists (friendship is mutual), share posts, and
see friends' posts in a feed subject to static ACL audience rules — the
baseline access control the paper's social puzzles complement.

Like :class:`repro.osn.storage.StorageHost`, the provider keeps an
:class:`~repro.osn.storage.AuditTrail` of every byte it handles so the
surveillance-resistance property is testable: when social puzzles are in
use the SP stores puzzles and verifies hashed answers but must never
observe a plaintext answer or object.

Third-party applications (the paper's Facebook canvas app) register via
:meth:`ServiceProvider.host_service` and are looked up by name.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable

from repro.obs.runtime import count, maybe_span
from repro.osn.storage import AuditTrail
from repro.util.codec import (
    TEXT,
    U32,
    CodecError,
    Kind,
    Reader,
    WireRecord,
    record,
    text,
    u8,
    u32,
    wire,
)

__all__ = ["User", "Post", "AUDIENCE", "ServiceProvider", "OsnError"]


class OsnError(ValueError):
    """Raised for invalid OSN operations (unknown user, self-friending...)."""


@dataclass(frozen=True)
class User(WireRecord):
    """A registered account."""

    user_id: int = wire(U32)
    name: str = wire(TEXT)

    def __str__(self) -> str:
        return f"{self.name}#{self.user_id}"


def _write_audience(audience: str | frozenset[int]) -> bytes:
    if audience == "friends":
        return u8(0)
    if audience == "public":
        return u8(1)
    if isinstance(audience, str):
        # An invalid audience string is still representable — the
        # provider, not the codec, owns that validation.
        return u8(3) + text(audience)
    members = sorted(audience)
    return u8(2) + u32(len(members)) + b"".join(u32(uid) for uid in members)


def _read_audience(reader: Reader) -> str | frozenset[int]:
    tag = reader.u8()
    if tag == 0:
        return "friends"
    if tag == 1:
        return "public"
    if tag == 2:
        return frozenset(reader.u32() for _ in range(reader.u32()))
    if tag == 3:
        return reader.text()
    raise CodecError("unknown audience tag %d" % tag)


# A tagged union: friends, public, a sorted id list, or any other string.
AUDIENCE = Kind(_write_audience, _read_audience)


@dataclass(frozen=True)
class Post(WireRecord):
    """A feed item. ``audience`` is 'friends', 'public' or a frozenset of
    user ids (a custom ACL, Facebook-style)."""

    post_id: int = wire(U32)
    author: User = wire(record(User))
    content: str = wire(TEXT)
    audience: str | frozenset[int] = wire(AUDIENCE, default="friends")


@dataclass
class _Account:
    user: User
    profile: dict[str, str] = field(default_factory=dict)
    friends: set[int] = field(default_factory=set)


class ServiceProvider:
    """An in-memory symmetric OSN."""

    def __init__(self, name: str = "facebook-sim"):
        self.name = name
        self.audit = AuditTrail()
        self._accounts: dict[int, _Account] = {}
        self._posts: dict[int, Post] = {}
        self._user_serial = itertools.count(1)
        self._post_serial = itertools.count(1)
        self._services: dict[str, object] = {}
        self._frontend = None

    # -- accounts -----------------------------------------------------------------

    def register_user(self, name: str, profile: dict[str, str] | None = None) -> User:
        user = User(user_id=next(self._user_serial), name=name)
        self._accounts[user.user_id] = _Account(user=user, profile=dict(profile or {}))
        return user

    def _account(self, user: User) -> _Account:
        account = self._accounts.get(user.user_id)
        if account is None or account.user != user:
            raise OsnError("unknown user %s" % user)
        return account

    def profile_of(self, user: User) -> dict[str, str]:
        return dict(self._account(user).profile)

    def update_profile(self, user: User, **fields: str) -> None:
        self._account(user).profile.update(fields)

    def user_count(self) -> int:
        return len(self._accounts)

    # -- friendships (symmetric, per the paper's system model) ----------------------

    def befriend(self, a: User, b: User) -> None:
        if a.user_id == b.user_id:
            raise OsnError("users cannot befriend themselves")
        account_a = self._account(a)
        account_b = self._account(b)
        account_a.friends.add(b.user_id)
        account_b.friends.add(a.user_id)

    def unfriend(self, a: User, b: User) -> None:
        self._account(a).friends.discard(b.user_id)
        self._account(b).friends.discard(a.user_id)

    def are_friends(self, a: User, b: User) -> bool:
        return b.user_id in self._account(a).friends

    def friends_of(self, user: User) -> list[User]:
        account = self._account(user)
        return [self._accounts[uid].user for uid in sorted(account.friends)]

    # -- posts and feeds --------------------------------------------------------------

    def post(
        self,
        author: User,
        content: str,
        audience: str | Iterable[int] = "friends",
    ) -> Post:
        with maybe_span("sp.post.publish", author_id=author.user_id):
            self._account(author)
            self.audit.record(content.encode())
            if isinstance(audience, str):
                if audience not in ("friends", "public"):
                    raise OsnError(
                        "audience must be 'friends', 'public' or a set of ids"
                    )
                resolved: str | frozenset[int] = audience
            else:
                resolved = frozenset(audience)
            item = Post(
                post_id=next(self._post_serial),
                author=author,
                content=content,
                audience=resolved,
            )
            self._posts[item.post_id] = item
            count("osn.provider.posts")
            return item

    def can_view(self, viewer: User, post: Post) -> bool:
        """Static ACL check — the paper's 'additional layer of privacy
        control by means of Facebook's privacy settings'."""
        if post.author.user_id == viewer.user_id:
            return True
        if post.audience == "public":
            return True
        if post.audience == "friends":
            return self.are_friends(post.author, viewer)
        return viewer.user_id in post.audience  # custom ACL

    def feed(self, viewer: User) -> list[Post]:
        """All posts visible to ``viewer``, newest first."""
        self._account(viewer)
        visible = [p for p in self._posts.values() if self.can_view(viewer, p)]
        return sorted(visible, key=lambda p: -p.post_id)

    def get_post(self, viewer: User, post_id: int) -> Post:
        count("osn.provider.post_reads")
        post = self._posts.get(post_id)
        if post is None or not self.can_view(viewer, post):
            count("osn.provider.post_reads.denied")
            raise OsnError("post %d not visible to %s" % (post_id, viewer))
        return post

    # -- hosted third-party services -----------------------------------------------------

    def host_service(self, name: str, service: object) -> None:
        """Register a canvas application (e.g. the social-puzzle service)."""
        if name in self._services:
            raise OsnError("service %r already hosted" % name)
        self._services[name] = service

    def service(self, name: str) -> object:
        try:
            return self._services[name]
        except KeyError:
            raise OsnError("no hosted service %r" % name) from None

    # -- wire face ----------------------------------------------------------------

    def dispatch(self, request: bytes) -> bytes:
        """Serve one serialized post/read request (see :mod:`repro.proto`).

        The frontend is created lazily — and the import is local — so the
        substrate layer carries no import-time dependency on the protocol
        layer (which depends back on this module for ``User``/``Post``).
        """
        if self._frontend is None:
            from repro.proto.frontends import ProviderFrontend

            self._frontend = ProviderFrontend(self)
        return self._frontend.dispatch(request)
