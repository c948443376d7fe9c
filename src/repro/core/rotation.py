"""Puzzle rotation — the paper's section VI-C collusion countermeasure.

"Sharers can periodically modify the puzzle Z_O and/or the encryption key
K_O (by re-encrypting the object) to partially protect against such
collusion attacks."

:func:`rotate_puzzle` re-runs the Upload pipeline for an existing object:
a fresh polynomial secret M_O' (hence a fresh object key K_O'), a fresh
puzzle key K_Z', fresh share points, a re-encrypted object at a *new*
URL, and removal of the old ciphertext. Everything an adversary may have
hoarded — released blinded shares, the old K_Z, the old URL — becomes
useless, while legitimate receivers simply solve the rotated puzzle with
the same answers (the context itself does not change).

:class:`RotationPolicy` decides *when* to rotate (after a number of
released-share events or a time budget), so a service can automate the
paper's "periodically".
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.core.construction1 import PuzzleServiceC1, SharerC1
from repro.core.construction2 import C2Upload, PuzzleServiceC2, SharerC2
from repro.core.context import Context
from repro.core.errors import PuzzleParameterError
from repro.core.puzzle import Puzzle

__all__ = [
    "rotate_puzzle",
    "rotate_upload_c2",
    "install_rotation_c2",
    "RotationPolicy",
    "RotatingPuzzleService",
]


def rotate_puzzle(
    sharer: SharerC1,
    old_puzzle: Puzzle,
    obj: bytes,
    context: Context,
    delete_old_object: bool = True,
) -> Puzzle:
    """Produce a freshly keyed replacement for ``old_puzzle``.

    The sharer must still hold the object and its context (the paper's
    sharer-side rotation). The new puzzle keeps the old one's policy, but
    every secret component is regenerated.
    """
    new_puzzle = sharer.upload_policy(obj, context, old_puzzle.policy())
    if delete_old_object:
        sharer.storage.delete(old_puzzle.url)
    if new_puzzle.puzzle_key == old_puzzle.puzzle_key:
        raise PuzzleParameterError("rotation failed to refresh the puzzle key")
    return new_puzzle


def rotate_upload_c2(
    sharer: SharerC2,
    old_record: C2Upload,
    obj: bytes,
    context: Context,
    delete_old_object: bool = True,
) -> tuple[C2Upload, bytes]:
    """Construction 2 rotation under the old record's policy: a fresh
    CP-ABE Setup (new alpha/beta, new PK/MK), fresh encryption
    randomness, a new ciphertext at a new URL.

    Hoarded master keys and ciphertexts from before the rotation become
    useless; the context (and therefore receivers' answers) stays put.
    """
    record, ct_bytes = sharer.upload_policy(obj, context, old_record.policy())
    if delete_old_object:
        sharer.storage.delete(old_record.url)
    if record.mk_bytes == old_record.mk_bytes:
        raise PuzzleParameterError("rotation failed to refresh the master key")
    return record, ct_bytes


def _install_rotated(service, puzzle_id: int, registration) -> None:
    """Swap a re-keyed registration in under an existing puzzle id, so
    existing hyperlinks keep working; it must keep the puzzle's policy."""
    if registration.policy() != service._policy(puzzle_id):
        raise PuzzleParameterError(
            "rotation must keep the puzzle's policy (the context is fixed)"
        )
    service._install(puzzle_id, registration)


def install_rotation_c2(
    service: PuzzleServiceC2, puzzle_id: int, new_record: C2Upload
) -> None:
    """Swap a rotated C2 upload in under an existing puzzle id."""
    if new_record.mk_bytes == service._lookup(puzzle_id).mk_bytes:
        raise PuzzleParameterError("replacement upload was not re-keyed")
    _install_rotated(service, puzzle_id, replace(new_record, puzzle_id=puzzle_id))


@dataclass
class RotationPolicy:
    """When to rotate: after ``max_releases`` successful share releases
    (each release leaks blinded shares to one receiver) — the quantity a
    colluding audience accumulates."""

    max_releases: int = 25

    def __post_init__(self) -> None:
        if self.max_releases < 1:
            raise ValueError("max_releases must be >= 1")

    def should_rotate(self, releases_since_rotation: int) -> bool:
        return releases_since_rotation >= self.max_releases


class RotatingPuzzleService(PuzzleServiceC1):
    """A PuzzleServiceC1 that tracks release counts and tells the sharer
    when rotation is due.

    The SP cannot rotate by itself (it never holds the object or the
    answers); it can only *signal*. ``due_for_rotation`` is that signal,
    and :meth:`install_rotation` applies a sharer-produced replacement
    under the same puzzle id so existing hyperlinks keep working.
    """

    def __init__(self, policy: RotationPolicy | None = None, **kwargs):
        super().__init__(**kwargs)
        self.policy = policy if policy is not None else RotationPolicy()
        self._releases: dict[int, int] = {}

    def _grant(self, answers, matched):
        release = super()._grant(answers, matched)
        self._releases[answers.puzzle_id] = (
            self._releases.get(answers.puzzle_id, 0) + 1
        )
        return release

    def releases_since_rotation(self, puzzle_id: int) -> int:
        self._lookup(puzzle_id)  # raises UnknownPuzzleError when absent
        return self._releases.get(puzzle_id, 0)

    def due_for_rotation(self, puzzle_id: int) -> bool:
        return self.policy.should_rotate(self.releases_since_rotation(puzzle_id))

    def install_rotation(self, puzzle_id: int, new_puzzle: Puzzle) -> None:
        """Swap in a rotated puzzle under the existing identifier."""
        if self._lookup(puzzle_id).puzzle_key == new_puzzle.puzzle_key:
            raise PuzzleParameterError("replacement puzzle was not re-keyed")
        _install_rotated(self, puzzle_id, new_puzzle)
        self.audit.record(new_puzzle.to_bytes())
        self._releases[puzzle_id] = 0
