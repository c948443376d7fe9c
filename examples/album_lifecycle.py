#!/usr/bin/env python3
"""Full album lifecycle: one puzzle, many photos, throttling and rotation.

Combines the library's extension features around the paper's core flow:

1. A curator shares a three-item album behind ONE puzzle (k = 2 of 4).
2. An attendee solves once and downloads every item.
3. An online guesser hammers the verifier and gets locked out (the
   service's guess budget, ``max_failures``).
4. After enough releases, the rotation policy fires; the curator re-keys
   the puzzle (section VI-C countermeasure) — hoarded shares die, but the
   same answers still work for legitimate friends.

Run:  python examples/album_lifecycle.py
"""

from __future__ import annotations

import random

from repro.core.album import AlbumReceiver, AlbumSharer
from repro.core.construction1 import ReceiverC1, SharerC1
from repro.core.context import Context, QAPair
from repro.core.errors import AccessDeniedError
from repro.core.rotation import RotatingPuzzleService, RotationPolicy
from repro.core.throttle import ThrottledError
from repro.osn.storage import StorageHost
from repro.policy.model import PuzzlePolicy


def solve_album(service, storage, puzzle_id, knowledge, who, seed):
    receiver = AlbumReceiver(ReceiverC1(who, storage))
    displayed = service.display_puzzle(puzzle_id, rng=random.Random(seed))
    answers = receiver.receiver.answer_puzzle(displayed, knowledge)
    release = service.verify(answers, requester=who)
    manifest = receiver.open_album(release, displayed, knowledge)
    return receiver, manifest


def main() -> None:
    context = Context.from_mapping(
        {
            "Where did the reunion end up?": "the rooftop greenhouse",
            "Who fell asleep during the speeches?": "uncle bartholomew",
            "What did the band refuse to play?": "the chicken dance",
            "What did we toast with at midnight?": "elderflower cordial",
        }
    )
    album = {
        "arrivals.jpg": b"<photo: everyone arriving>",
        "speeches.mp4": b"<video: the speeches, all 40 minutes>",
        "midnight.jpg": b"<photo: the cordial toast>",
    }

    storage = StorageHost()
    curator = SharerC1("curator", storage)
    service = RotatingPuzzleService(
        policy=RotationPolicy(max_releases=2), max_failures=3
    )
    policy = PuzzlePolicy.from_k_of_n(2, context.questions)
    puzzle = AlbumSharer(curator).upload_album(album, context, policy)
    puzzle_id = service.store_puzzle(puzzle)
    print(f"album shared as puzzle #{puzzle_id}: {sorted(album)} behind 1 puzzle")

    # 2. attendee solves once, gets everything
    receiver, manifest = solve_album(
        service, storage, puzzle_id, context, "attendee", seed=0
    )
    print("attendee unlocked:", manifest.titles())
    assert receiver.fetch_all() == album

    # 3. online guesser throttled
    guesser_knowledge = Context(
        QAPair(p.question, "wild guess " + str(i)) for i, p in enumerate(context)
    )
    for attempt in range(4):
        try:
            solve_album(service, storage, puzzle_id, guesser_knowledge, "guesser", attempt)
        except AccessDeniedError:
            print(f"guesser attempt {attempt + 1}: denied")
        except ThrottledError as exc:
            print(f"guesser attempt {attempt + 1}: THROTTLED ({exc})")
            break

    # 4. releases accumulate -> rotation due
    solve_album(service, storage, puzzle_id, context, "second-friend", seed=1)
    print("rotation due after %d releases: %s" % (
        service.releases_since_rotation(puzzle_id),
        service.due_for_rotation(puzzle_id),
    ))
    # NOTE: rotating an *album* re-encrypts the manifest; items stay put
    # (their keys derive from the old secret, so a full album rotation
    # re-uploads items too — done here via upload_album again).
    new_puzzle = AlbumSharer(curator).upload_album(album, context, policy)
    storage.delete(puzzle.url)
    service.install_rotation(puzzle_id, new_puzzle)
    print("curator rotated the album puzzle (fresh secret, key, shares)")

    receiver2, manifest2 = solve_album(
        service, storage, puzzle_id, context, "late-friend", seed=2
    )
    assert receiver2.fetch_all() == album
    print("late friend solved the ROTATED puzzle with the same answers")


if __name__ == "__main__":
    main()
