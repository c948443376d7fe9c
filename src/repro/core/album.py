"""Albums: many objects behind one social puzzle.

The paper's motivating example is "sharing messages or pictures of a past
social gathering" — usually a whole album, not one file. Rather than one
puzzle per photo (receivers would answer the same questions repeatedly),
an album shares ONE polynomial secret M_O: each item is encrypted under a
per-item key derived from M_O and the item's title, and the *manifest*
(the item titles and their DH URLs) is the puzzle's object O, sealed
under K_O = H(M_O) at URL_O. Solving the puzzle once unlocks the
manifest and every item.

Security is unchanged from Construction 1: the DH stores only ciphertexts
(manifest included), the SP sees only the puzzle, and per-item keys are
independent hashes of the secret, so a leaked item key reveals neither
M_O nor sibling keys.
"""

from __future__ import annotations

import secrets
from dataclasses import dataclass

from repro.core.construction1 import (
    DisplayedPuzzle,
    ReceiverC1,
    ShareRelease,
    SharerC1,
    _object_key,
)
from repro.core.context import Context
from repro.core.errors import PuzzleParameterError, TamperDetectedError
from repro.core.puzzle import Puzzle
from repro.crypto import gibberish
from repro.crypto.hashes import sha3_256
from repro.policy.model import PuzzlePolicy
from repro.util.codec import TEXT, WireRecord, pair, seq, wire

__all__ = ["AlbumManifest", "AlbumSharer", "AlbumReceiver"]


def _album_key(secret_m: int, label: bytes) -> bytes:
    """Per-item passphrase: H(M_O || label), domain-separated from the
    manifest's K_O = H(M_O)."""
    material = secret_m.to_bytes(32, "big") + b"\x1e" + label
    return sha3_256(material).hexdigest().encode()


@dataclass(frozen=True)
class AlbumManifest(WireRecord):
    """Titles and storage URLs of an album's items, in upload order."""

    items: tuple[tuple[str, str], ...] = wire(seq(pair(TEXT, TEXT)))  # (title, url)

    def titles(self) -> list[str]:
        return [title for title, _ in self.items]

    def url_for(self, title: str) -> str:
        for item_title, url in self.items:
            if item_title == title:
                return url
        raise KeyError("no album item titled %r" % title)


class AlbumSharer:
    """Wraps a :class:`SharerC1` to share multi-item albums."""

    def __init__(self, sharer: SharerC1):
        self.sharer = sharer

    def upload_album(
        self, items: dict[str, bytes], context: Context, policy: PuzzlePolicy
    ) -> Puzzle:
        """Encrypt every item + a manifest under one puzzle secret.

        ``items`` maps titles to contents; titles must be distinct and
        non-empty. M_O is drawn here, so that the item keys can be
        derived from it; the manifest is then the puzzle's object O.
        """
        if not items:
            raise PuzzleParameterError("an album needs at least one item")
        if any(not title.strip() for title in items):
            raise PuzzleParameterError("album item titles must be non-empty")

        secret_m = secrets.randbelow(self.sharer.field.p)
        manifest_items = []
        for title, content in items.items():
            encrypted = gibberish.encrypt(content, _album_key(secret_m, title.encode()))
            url = self.sharer.storage.put(encrypted)
            manifest_items.append((title, url))
        manifest = AlbumManifest(items=tuple(manifest_items))
        return self.sharer.upload_policy(
            manifest.to_bytes(), context, policy, secret=secret_m
        )


class AlbumReceiver:
    """Wraps a :class:`ReceiverC1` to open albums item by item."""

    def __init__(self, receiver: ReceiverC1):
        self.receiver = receiver
        self._secret: int | None = None
        self._manifest: AlbumManifest | None = None

    def open_album(
        self,
        release: ShareRelease,
        displayed: DisplayedPuzzle,
        knowledge: Context,
        expected_signature: Puzzle | None = None,
    ) -> AlbumManifest:
        """Solve the puzzle once; decrypt and cache the manifest."""
        self._secret = self.receiver.recover_object_secret(
            release, displayed, knowledge, expected_signature=expected_signature
        )
        encrypted_manifest = self.receiver.storage.get(release.url)
        try:
            manifest_bytes = gibberish.decrypt(
                encrypted_manifest, _object_key(self._secret)
            )
        except ValueError as exc:
            raise TamperDetectedError(
                "manifest decryption failed — wrong answers or tampered storage"
            ) from exc
        self._manifest = AlbumManifest.from_bytes(manifest_bytes)
        return self._manifest

    def fetch_item(self, title: str) -> bytes:
        """Download and decrypt one item (after :meth:`open_album`)."""
        if self._secret is None or self._manifest is None:
            raise PuzzleParameterError("open_album must succeed before fetching items")
        url = self._manifest.url_for(title)
        encrypted = self.receiver.storage.get(url)
        try:
            return gibberish.decrypt(encrypted, _album_key(self._secret, title.encode()))
        except ValueError as exc:
            raise TamperDetectedError(
                "album item decryption failed — tampered storage"
            ) from exc

    def fetch_all(self) -> dict[str, bytes]:
        if self._manifest is None:
            raise PuzzleParameterError("open_album must succeed before fetching items")
        return {title: self.fetch_item(title) for title in self._manifest.titles()}
