"""Storage-engine regression: bytes/blob, recovery time, and reclaim.

A social platform's blob population is *near-identical by construction*:
every CP-ABE puzzle for the same sharer shares the question framing, the
tree encoding, and the hybrid-ciphertext envelope — only the group
elements and the AES payload differ. The segment engine's groupcompress
pass (delta against a per-segment basis, then zlib over the sealed
block) is designed to exploit exactly that redundancy.

This benchmark generates 1k real Construction-2 uploads, loads them into
both engines, and pins three properties:

* bytes/blob on the segment engine is at least ``FLOOR_RATIO`` times
  better than the dict engine's serialized size (the regression floor —
  measured headroom is ~2.1x, limited by the incompressible group
  elements, so the floor is exactly the 2x the roadmap promises);
* a power-loss crash followed by ``reopen()`` recovers every record from
  bytes alone, quickly;
* compaction after churn reclaims real bytes and leaves no dead weight.
"""

from __future__ import annotations

import time

import pytest

from repro.core.construction2 import SharerC2
from repro.core.context import Context, QAPair
from repro.crypto.params import TOY
from repro.osn.storage import StorageHost
from repro.policy.model import PuzzlePolicy
from repro.store import DictBlobStore, SegmentBlobStore, VersionedBlob

NUM_BLOBS = 1000
K, N = 2, 5
FLOOR_RATIO = 2.0
SEGMENT_TARGET = 128 * 1024  # larger blocks -> more shared basis per seal

QUESTIONS = [
    (
        "Where did our graduating class end up holding the five-year "
        "reunion dinner after the first restaurant cancelled on us?",
        "harbor",
    ),
    (
        "What flavor was the three-tier cake that nearly collapsed at "
        "Maria's quinceanera before her uncle caught it?",
        "tres leches",
    ),
    (
        "Which song did the wedding band flatly refuse to play a second "
        "time no matter how many people kept requesting it?",
        "wonderwall",
    ),
    (
        "What piece of equipment died halfway through the conference "
        "talk and had to be replaced with a whiteboard?",
        "the projector",
    ),
    (
        "Which board game ended the Tuesday game night friendship for "
        "an entire winter after the infamous farm-scoring argument?",
        "carcassonne",
    ),
]


def generate_blobs(count: int) -> list[bytes]:
    """Near-identical hybrid ciphertexts from one sharer's context."""
    context = Context([QAPair(q, a) for q, a in QUESTIONS])
    policy = PuzzlePolicy.from_k_of_n(K, context.questions[:N])
    sharer = SharerC2("alice", StorageHost(), TOY)
    blobs = []
    for i in range(count):
        _, ciphertext = sharer.upload_policy(b"photo %04d" % i, context, policy)
        blobs.append(ciphertext)
    return blobs


@pytest.fixture(scope="module")
def cpabe_blobs() -> list[bytes]:
    return generate_blobs(NUM_BLOBS)


def _fill(store, blobs):
    for i, ciphertext in enumerate(blobs):
        store.put("obj-%04d" % i, VersionedBlob(i + 1, ciphertext))


def _loaded_segment_store(blobs) -> SegmentBlobStore:
    store = SegmentBlobStore(segment_target_bytes=SEGMENT_TARGET)
    _fill(store, blobs)
    store.flush()  # seal the tail so every byte is in deflated form
    return store


class TestBytesPerBlob:
    def test_segment_engine_halves_storage(self, cpabe_blobs):
        dict_store = DictBlobStore()
        _fill(dict_store, cpabe_blobs)
        segment_store = _loaded_segment_store(cpabe_blobs)

        dict_bytes = dict_store.stats().physical_bytes
        segment_bytes = segment_store.stats().physical_bytes
        ratio = dict_bytes / segment_bytes

        print()
        print("%22s  %12s  %12s" % ("engine", "physical", "bytes/blob"))
        for name, total in (("dict (serialized)", dict_bytes),
                            ("segment (sealed)", segment_bytes)):
            print("%22s  %11dB  %11.1fB" % (name, total, total / NUM_BLOBS))
        print("%22s  %12s  %11.2fx" % ("compression ratio", "", ratio))

        assert segment_store.object_count() == NUM_BLOBS
        assert ratio >= FLOOR_RATIO, (
            "segment engine must store near-identical CP-ABE blobs at "
            ">=%.1fx fewer bytes/blob than the dict engine; got %.2fx"
            % (FLOOR_RATIO, ratio)
        )

    def test_payload_fidelity_is_not_traded_away(self, cpabe_blobs):
        # Compression must be lossless down to the last group element.
        store = _loaded_segment_store(cpabe_blobs)
        for i in (0, 1, NUM_BLOBS // 2, NUM_BLOBS - 1):
            assert store.get("obj-%04d" % i).data == cpabe_blobs[i]


class TestRecoveryTime:
    def test_crash_reopen_recovers_everything_quickly(self, cpabe_blobs):
        store = _loaded_segment_store(cpabe_blobs)
        segments = store.stats().segments
        store.crash_volatile()

        before = time.perf_counter()
        recovered = store.reopen()
        elapsed = time.perf_counter() - before

        print()
        print(
            "recovery: %d blobs / %d segments reopened in %.1fms"
            % (recovered, segments, elapsed * 1e3)
        )
        assert recovered == NUM_BLOBS
        assert store.get("obj-0666").data == cpabe_blobs[666]
        # Index rebuild parses sealed headers + one tail scan; if this
        # ever approaches seconds, recovery has regressed to re-inflating
        # or re-deltaing the world.
        assert elapsed < 5.0, "reopen took %.2fs for %d blobs" % (
            elapsed,
            NUM_BLOBS,
        )


class TestCompactionReclaim:
    def test_churn_then_compact_reclaims_real_bytes(self, cpabe_blobs):
        store = _loaded_segment_store(cpabe_blobs)
        # Supersede half the population (re-share after an edit), then
        # tombstone-and-purge a tenth (retracts past the watermark).
        for i in range(0, NUM_BLOBS, 2):
            store.put(
                "obj-%04d" % i,
                VersionedBlob(NUM_BLOBS + i, cpabe_blobs[(i + 1) % NUM_BLOBS]),
            )
        purged = {"obj-%04d" % i for i in range(0, NUM_BLOBS, 10)}
        for key in sorted(purged):
            store.put(key, VersionedBlob(10 * NUM_BLOBS, None))
        store.flush()

        before = store.stats()
        assert before.dead_bytes > 0
        result = store.compact(purge=purged)
        after = store.stats()

        print()
        print(
            "compaction: reclaimed %dB (%.1f%% of %dB), %d tombstones purged"
            % (
                result.bytes_reclaimed,
                100.0 * result.bytes_reclaimed / before.physical_bytes,
                before.physical_bytes,
                result.tombstones_purged,
            )
        )
        assert result.bytes_reclaimed > 0
        assert result.tombstones_purged == len(purged)
        assert after.dead_bytes == 0
        assert after.tombstones == 0
        # Survivors still decode after the rewrite.
        assert store.get("obj-0001").data == cpabe_blobs[1]
        assert store.get("obj-0002").data == cpabe_blobs[3]
