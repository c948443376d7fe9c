"""Social puzzles — the paper's core contribution.

Two constructions for context-based access control:

* :mod:`repro.core.construction1` — Shamir-secret-sharing based (Fig. 1):
  :class:`SharerC1`, :class:`PuzzleServiceC1`, :class:`ReceiverC1`.
* :mod:`repro.core.construction2` — CP-ABE based (Fig. 2) with the new
  Perturb/Reconstruct algorithms: :class:`SharerC2`,
  :class:`PuzzleServiceC2`, :class:`ReceiverC2`.

Both SP services derive from :class:`PuzzleService` (:mod:`repro.core.service`):
the registry, the retract saga, Explain and the optional guess budget
(``max_failures``, :mod:`repro.core.throttle`).

Shared vocabulary: :class:`Context` / :class:`QAPair` (section IV's
key-value context model) and :class:`Puzzle` (the Z_O object). Baselines
live in :mod:`repro.core.baseline`.
"""

from repro.core.context import Context, QAPair, normalize_answer
from repro.core.cookies import AnswerStore
from repro.core.construction1 import (
    DisplayedPuzzle,
    PuzzleAnswers,
    PuzzleServiceC1,
    ReceiverC1,
    ShareRelease,
    SharerC1,
)
from repro.core.construction2 import (
    AccessGrantC2,
    DisplayedPuzzleC2,
    PuzzleAnswersC2,
    PuzzleServiceC2,
    ReceiverC2,
    SharerC2,
    perturb_tree,
    reconstruct_tree,
)
from repro.core.errors import (
    AccessDeniedError,
    PuzzleParameterError,
    SocialPuzzleError,
    TamperDetectedError,
    UnknownPuzzleError,
)
from repro.core.entropy import (
    AnswerStrength,
    PuzzleStrengthReport,
    audit_puzzle_strength,
    estimate_answer_entropy_bits,
)
from repro.core.album import AlbumManifest, AlbumReceiver, AlbumSharer
from repro.core.picture import ImageRef, PicturePuzzleBuilder, PictureQuestion
from repro.core.service import PuzzleService
from repro.core.throttle import ThrottledError
from repro.core.puzzle import Puzzle, PuzzleEntry
from repro.core.recommend import CandidateQuestion, ContextRecommender
from repro.core.rotation import (
    RotatingPuzzleService,
    RotationPolicy,
    install_rotation_c2,
    rotate_puzzle,
    rotate_upload_c2,
)

__all__ = [
    "Context",
    "QAPair",
    "normalize_answer",
    "AnswerStore",
    "Puzzle",
    "PuzzleEntry",
    "audit_puzzle_strength",
    "estimate_answer_entropy_bits",
    "AnswerStrength",
    "PuzzleStrengthReport",
    "ContextRecommender",
    "CandidateQuestion",
    "rotate_puzzle",
    "rotate_upload_c2",
    "install_rotation_c2",
    "RotationPolicy",
    "RotatingPuzzleService",
    "ImageRef",
    "PictureQuestion",
    "PicturePuzzleBuilder",
    "AlbumSharer",
    "AlbumReceiver",
    "AlbumManifest",
    "PuzzleService",
    "ThrottledError",
    "SharerC1",
    "PuzzleServiceC1",
    "ReceiverC1",
    "DisplayedPuzzle",
    "PuzzleAnswers",
    "ShareRelease",
    "SharerC2",
    "PuzzleServiceC2",
    "ReceiverC2",
    "DisplayedPuzzleC2",
    "PuzzleAnswersC2",
    "AccessGrantC2",
    "perturb_tree",
    "reconstruct_tree",
    "SocialPuzzleError",
    "PuzzleParameterError",
    "AccessDeniedError",
    "TamperDetectedError",
    "UnknownPuzzleError",
]
