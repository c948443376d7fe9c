"""World snapshots: serialize a running simulation to JSON and back.

Lets a deployment (or the CLI) span multiple processes: share a puzzle in
one invocation, snapshot the world, solve it in another. Captures the
service provider (users, profiles, friendships, posts), the storage host's
blobs, and both puzzle services' state. Audit trails are deliberately NOT
persisted — they are measurement instruments, not system state.

Everything binary rides base64 inside JSON; puzzles use their canonical
wire encodings (:meth:`repro.core.puzzle.Puzzle.to_bytes`,
:mod:`repro.abe.serialize`), so a snapshot is also a compatibility test of
those formats.
"""

from __future__ import annotations

import base64
import json

from repro.abe.serialize import decode_access_tree, encode_access_tree
from repro.apps.platform import SocialPuzzlePlatform
from repro.core.construction2 import C2Upload
from repro.core.puzzle import Puzzle
from repro.crypto.params import PRESETS
from repro.osn.provider import Post, User

__all__ = ["snapshot_platform", "restore_platform", "save_platform", "load_platform"]

_FORMAT_VERSION = 1


def _b64(data: bytes) -> str:
    return base64.b64encode(data).decode("ascii")


def _unb64(text: str) -> bytes:
    return base64.b64decode(text.encode("ascii"))


def snapshot_platform(platform: SocialPuzzlePlatform) -> dict:
    """Capture the full world state as a JSON-serializable dict."""
    provider = platform.provider
    param_name = next(
        (name for name, preset in PRESETS.items() if preset == platform.params),
        None,
    )
    if param_name is None:
        raise ValueError("only preset pairing parameters can be snapshotted")

    accounts = []
    for account in provider._accounts.values():
        accounts.append(
            {
                "user_id": account.user.user_id,
                "name": account.user.name,
                "profile": account.profile,
                "friends": sorted(account.friends),
            }
        )
    posts = []
    for post in provider._posts.values():
        posts.append(
            {
                "post_id": post.post_id,
                "author_id": post.author.user_id,
                "content": post.content,
                "audience": (
                    post.audience
                    if isinstance(post.audience, str)
                    else sorted(post.audience)
                ),
            }
        )
    blobs = {url: _b64(data) for url, data in platform.storage._blobs.items()}

    c1 = {
        str(puzzle_id): _b64(puzzle.to_bytes())
        for puzzle_id, (puzzle, _) in platform.app_c1.service._registrations.items()
    }
    c2 = {}
    for puzzle_id, (record, _) in platform.app_c2.service._registrations.items():
        c2[str(puzzle_id)] = {
            "tree": _b64(encode_access_tree(record.tree_perturbed)),
            "pk": _b64(record.pk_bytes),
            "mk": _b64(record.mk_bytes),
            "url": record.url,
            "sharer": record.sharer_name,
        }

    return {
        "version": _FORMAT_VERSION,
        "params": param_name,
        "user_serial": max((a["user_id"] for a in accounts), default=0),
        "post_serial": max((p["post_id"] for p in posts), default=0),
        "storage_serial": platform.storage.object_count(),
        "accounts": accounts,
        "posts": posts,
        "blobs": blobs,
        "c1_puzzles": c1,
        "c2_puzzles": c2,
    }


def restore_platform(snapshot: dict) -> SocialPuzzlePlatform:
    """Rebuild a platform from :func:`snapshot_platform` output."""
    if snapshot.get("version") != _FORMAT_VERSION:
        raise ValueError(
            "unsupported snapshot version %r" % snapshot.get("version")
        )
    from repro.crypto.params import get_params
    import itertools

    platform = SocialPuzzlePlatform(params=get_params(snapshot["params"]))
    provider = platform.provider

    users: dict[int, User] = {}
    for entry in snapshot["accounts"]:
        user = User(user_id=entry["user_id"], name=entry["name"])
        users[user.user_id] = user
        from repro.osn.provider import _Account

        provider._accounts[user.user_id] = _Account(
            user=user, profile=dict(entry["profile"]), friends=set(entry["friends"])
        )
    provider._user_serial = itertools.count(snapshot["user_serial"] + 1)

    for entry in snapshot["posts"]:
        audience = entry["audience"]
        provider._posts[entry["post_id"]] = Post(
            post_id=entry["post_id"],
            author=users[entry["author_id"]],
            content=entry["content"],
            audience=audience if isinstance(audience, str) else frozenset(audience),
        )
    provider._post_serial = itertools.count(snapshot["post_serial"] + 1)

    import itertools as _it

    platform.storage._blobs = {
        url: _unb64(data) for url, data in snapshot["blobs"].items()
    }
    platform.storage._serial = _it.count(snapshot["storage_serial"] + 1)

    c1_service = platform.app_c1.service
    for puzzle_id, encoded in snapshot["c1_puzzles"].items():
        c1_service._install(int(puzzle_id), Puzzle.from_bytes(_unb64(encoded)))
    c1_service._serial = max((int(i) for i in snapshot["c1_puzzles"]), default=0)

    c2_service = platform.app_c2.service
    for puzzle_id, entry in snapshot["c2_puzzles"].items():
        record = C2Upload(
            puzzle_id=int(puzzle_id),
            tree_perturbed=decode_access_tree(_unb64(entry["tree"])),
            pk_bytes=_unb64(entry["pk"]),
            mk_bytes=_unb64(entry["mk"]),
            url=entry["url"],
            sharer_name=entry["sharer"],
        )
        c2_service._install(int(puzzle_id), record)
    c2_service._serial = max((int(i) for i in snapshot["c2_puzzles"]), default=0)

    return platform


def save_platform(platform: SocialPuzzlePlatform, path: str) -> None:
    """Snapshot to a JSON file."""
    with open(path, "w") as handle:
        json.dump(snapshot_platform(platform), handle)


def load_platform(path: str) -> SocialPuzzlePlatform:
    """Restore from a JSON file."""
    with open(path) as handle:
        return restore_platform(json.load(handle))
