"""The log-structured segment engine: compressed, append-only, compactable.

Every mutation is an append to the active *tail* segment's raw record
stream (write-through: the stream **is** the durable media). When the
tail reaches its target size it is sealed — delta-encoded against its
basis record and deflated as one zlib block, with a parsed-ahead index
so a later open never inflates a block just to find its keys
(:mod:`repro.store.segment`).

Reads go through a volatile in-memory index map (key -> segment +
record entry) plus a small LRU of inflated blocks. Both are rebuilt by
:meth:`reopen` after a crash — recovery is a scan of the surviving
segments, replaying records in log order so the last writer wins,
purge markers un-index, and dead-byte accounting comes out exactly as
it was.

Compaction is the garbage collector: it seals the tail, rewrites every
live record into fresh segments, and drops superseded versions, purge
markers, and any tombstone the cluster has proven converged (the
``purge`` set — see ``StorageCluster.purgeable_tombstones``). Dead
bytes fall to zero and ``bytes_reclaimed`` grows by exactly the raw
bytes dropped. Counters surface through ``repro.obs`` as
``store.compactions`` / ``store.bytes_reclaimed`` (counted here) and
``store.segments`` / ``store.live_bytes`` / ``store.dead_bytes``
(gauges the cluster publishes).

A served node dispatches on a thread pool, so every public data-path,
accounting and maintenance method holds one per-store re-entrant lock:
a reader never sees the tail, index or inflate cache halfway through a
writer's append, seal or compaction.
"""

from __future__ import annotations

import functools
import threading
from collections import OrderedDict

from repro.obs.runtime import count
from repro.store.interface import (
    BlobStore,
    CompactionResult,
    StoreStats,
    VersionedBlob,
    register_engine,
)
from repro.store.segment import (
    FLAG_TOMBSTONE,
    RecordEntry,
    SealedSegment,
    SegmentWriter,
    decode_body,
    FLAG_PURGE,
)

__all__ = ["SegmentBlobStore", "SNAPSHOT_MAGIC"]

SNAPSHOT_MAGIC = b"SPIM"
_SNAPSHOT_FORMAT = 1

# Seal the tail once its raw stream reaches this size. Small enough
# that a node with a handful of puzzle blobs still exercises sealed
# segments; large enough that a segment usually groups many records.
DEFAULT_SEGMENT_TARGET = 32 * 1024

# Inflated sealed blocks kept hot (LRU).
DEFAULT_CACHE_SEGMENTS = 8


def _serialized(method):
    """Run ``method`` under the store's lock."""

    @functools.wraps(method)
    def locked(self, *args, **kwargs):
        with self._lock:
            return method(self, *args, **kwargs)

    return locked


class SegmentBlobStore(BlobStore):
    """Append-only segments + in-memory index, per the module story."""

    engine_name = "segment"

    def __init__(
        self,
        segment_target_bytes: int = DEFAULT_SEGMENT_TARGET,
        cache_segments: int = DEFAULT_CACHE_SEGMENTS,
    ):
        if segment_target_bytes < 1:
            raise ValueError("segment_target_bytes must be positive")
        if cache_segments < 1:
            raise ValueError("cache_segments must be positive")
        self.segment_target_bytes = segment_target_bytes
        self.cache_segments = cache_segments
        self.compactions = 0
        self.bytes_reclaimed = 0
        self._next_segment_id = 0
        self._lock = threading.RLock()
        self._blank()

    def _blank(self) -> None:
        """Empty volatile + media state (fresh store or post-crash shell)."""
        self._sealed: "OrderedDict[int, SealedSegment]" = OrderedDict()
        self._tail = SegmentWriter(self._alloc_segment_id())
        self._index: dict[str, tuple[int, RecordEntry]] = {}
        self._dead: dict[int, int] = {}
        self._physical: dict[int, int] = {}
        self._cache: "OrderedDict[int, bytes]" = OrderedDict()
        self._crashed_media: tuple[list[bytes], bytes] | None = None

    def _alloc_segment_id(self) -> int:
        segment_id = self._next_segment_id
        self._next_segment_id += 1
        return segment_id

    @property
    def is_open(self) -> bool:
        return self._crashed_media is None

    def _require_open(self) -> None:
        if self._crashed_media is not None:
            raise RuntimeError(
                "segment store is crashed; reopen() or restore() it first"
            )

    # -- the data path -----------------------------------------------------------

    @_serialized
    def put(self, key: str, blob: VersionedBlob) -> None:
        self._require_open()
        flags = FLAG_TOMBSTONE if blob.data is None else 0
        self._supersede(key)
        entry = self._tail.append(key, blob.version, blob.data, flags)
        self._index[key] = (self._tail.segment_id, entry)
        count("store.put.records")
        self._maybe_seal()

    @_serialized
    def get(self, key: str) -> VersionedBlob | None:
        self._require_open()
        location = self._index.get(key)
        if location is None:
            return None
        segment_id, entry = location
        if entry.tombstone:
            return VersionedBlob(entry.version, None)
        if segment_id == self._tail.segment_id:
            body = self._tail.read_body(entry)
        else:
            sealed = self._sealed[segment_id]
            body = decode_body(
                self._inflated(sealed), entry, (sealed.basis_offset, sealed.basis_length)
            )
        return VersionedBlob(entry.version, body)

    @_serialized
    def discard(self, key: str) -> None:
        self._require_open()
        if key not in self._index:
            return
        self._supersede(key)
        del self._index[key]
        # The un-index must survive a crash: a purge marker rides the
        # log so the reopen scan drops the key again. The marker is
        # garbage the moment it lands; compaction sweeps it with the
        # rest.
        entry = self._tail.append(key, 0, None, FLAG_PURGE)
        self._bury(self._tail.segment_id, entry.stored_length)
        self._maybe_seal()

    @_serialized
    def keys(self):
        self._require_open()
        return list(self._index)

    # -- internals ---------------------------------------------------------------

    def _supersede(self, key: str) -> None:
        """The current record of ``key`` (if any) becomes dead bytes."""
        location = self._index.get(key)
        if location is not None:
            segment_id, entry = location
            self._bury(segment_id, entry.stored_length)

    def _bury(self, segment_id: int, stored_length: int) -> None:
        self._dead[segment_id] = self._dead.get(segment_id, 0) + stored_length

    def _maybe_seal(self) -> None:
        if self._tail.raw_length >= self.segment_target_bytes:
            self._seal_tail()

    def _seal_tail(self) -> None:
        if not self._tail.entries:
            return
        sealed = self._tail.seal()
        self._sealed[sealed.segment_id] = sealed
        self._physical[sealed.segment_id] = len(sealed.encode())
        self._tail = SegmentWriter(self._alloc_segment_id())
        count("store.segments.sealed")

    @_serialized
    def flush(self) -> None:
        """Seal the active tail now (if it holds records), regardless of
        size — benchmarks and shutdown paths use this so *every* byte is
        in deflated form before measuring or imaging."""
        self._require_open()
        self._seal_tail()

    def _inflated(self, sealed: SealedSegment) -> bytes:
        raw = self._cache.get(sealed.segment_id)
        if raw is not None:
            self._cache.move_to_end(sealed.segment_id)
            return raw
        raw = sealed.inflate()
        self._cache[sealed.segment_id] = raw
        while len(self._cache) > self.cache_segments:
            self._cache.popitem(last=False)
        return raw

    # -- accounting --------------------------------------------------------------

    def _raw_total(self) -> int:
        return sum(s.raw_length for s in self._sealed.values()) + self._tail.raw_length

    def _dead_total(self) -> int:
        return sum(self._dead.values())

    @_serialized
    def object_count(self) -> int:
        self._require_open()
        return sum(1 for _, e in self._index.values() if not e.tombstone)

    @_serialized
    def payload_bytes(self) -> int:
        self._require_open()
        return sum(
            e.payload_length for _, e in self._index.values() if not e.tombstone
        )

    @_serialized
    def segment_count(self) -> int:
        return len(self._sealed) + (1 if self._tail.entries else 0)

    @_serialized
    def physical_bytes(self) -> int:
        """On-media bytes: sealed (deflated + index) plus the raw tail."""
        return sum(self._physical.values()) + self._tail.raw_length

    @_serialized
    def stats(self) -> StoreStats:
        self._require_open()
        dead = self._dead_total()
        return StoreStats(
            engine=self.engine_name,
            segments=self.segment_count(),
            live_bytes=self._raw_total() - dead,
            dead_bytes=dead,
            physical_bytes=self.physical_bytes(),
            payload_bytes=self.payload_bytes(),
            objects=self.object_count(),
            tombstones=sum(1 for _, e in self._index.values() if e.tombstone),
            compactions=self.compactions,
            bytes_reclaimed=self.bytes_reclaimed,
        )

    # -- maintenance -------------------------------------------------------------

    @_serialized
    def compact(
        self, purge: "frozenset[str] | set[str]" = frozenset(), min_garbage: float = 0.0
    ) -> CompactionResult:
        """Rewrite the live set into fresh segments; see the module story."""
        self._require_open()
        purge_hits = sorted(
            key
            for key in purge
            if key in self._index and self._index[key][1].tombstone
        )
        dead = self._dead_total()
        total = self._raw_total()
        garbage_fraction = (dead / total) if total else 0.0
        if not purge_hits and (dead == 0 or garbage_fraction < min_garbage):
            return CompactionResult(0, 0, 0)
        live: list[tuple[str, VersionedBlob]] = [
            (key, self.get(key)) for key in sorted(self._index) if key not in purge_hits
        ]
        segments_rewritten = self.segment_count()
        before_raw = total
        saved = (
            self._sealed,
            self._tail,
            self._index,
            self._dead,
            self._physical,
            self._cache,
            self._next_segment_id,
        )
        self._sealed = OrderedDict()
        self._tail = SegmentWriter(self._alloc_segment_id())
        self._index = {}
        self._dead = {}
        self._physical = {}
        self._cache = OrderedDict()
        for key, blob in live:
            self.put(key, blob)
        self._dead = {}  # rewriting live records buries nothing
        reclaimed = before_raw - self._raw_total()
        if reclaimed <= 0 and not purge_hits:
            # Re-delta-ing against a fresh basis can lose more than the
            # garbage was worth. A rewrite that must not happen for GC
            # correctness and does not shrink the log is abandoned.
            (
                self._sealed,
                self._tail,
                self._index,
                self._dead,
                self._physical,
                self._cache,
                self._next_segment_id,
            ) = saved
            return CompactionResult(0, 0, 0)
        self.compactions += 1
        self.bytes_reclaimed += max(0, reclaimed)
        count("store.compactions")
        count("store.bytes_reclaimed", max(0, reclaimed))
        count("store.tombstones_purged", len(purge_hits))
        return CompactionResult(
            segments_rewritten=segments_rewritten,
            bytes_reclaimed=reclaimed,
            tombstones_purged=len(purge_hits),
        )

    # -- durability --------------------------------------------------------------

    @_serialized
    def crash_volatile(self) -> None:
        """Power loss: only the encoded media survives. The round trip
        through ``encode()`` is deliberate — recovery must work from the
        bytes alone, never from surviving Python objects."""
        media = (
            [sealed.encode() for sealed in self._sealed.values()],
            bytes(self._tail.raw),
        )
        self._blank()
        self._crashed_media = media

    @_serialized
    def reopen(self) -> int:
        """Rebuild the index by scanning surviving media; idempotent."""
        if self._crashed_media is None:
            return len(self._index)
        sealed_images, tail_raw = self._crashed_media
        self._crashed_media = None
        self._sealed = OrderedDict()
        for image in sealed_images:
            segment_id = self._alloc_segment_id()
            sealed = SealedSegment.decode(image, segment_id)
            self._sealed[segment_id] = sealed
            self._physical[segment_id] = len(image)
        self._tail = SegmentWriter.from_raw(self._alloc_segment_id(), tail_raw)
        self._replay_index()
        count("store.reopens")
        return len(self._index)

    def _replay_index(self) -> None:
        """Log-order replay: last writer wins, purge markers un-index."""
        self._index = {}
        self._dead = {}
        ordered: list[tuple[int, tuple[RecordEntry, ...]]] = [
            (s.segment_id, s.entries) for s in self._sealed.values()
        ]
        ordered.append((self._tail.segment_id, tuple(self._tail.entries)))
        for segment_id, entries in ordered:
            for entry in entries:
                if entry.purge:
                    self._supersede(entry.key)
                    self._index.pop(entry.key, None)
                    self._bury(segment_id, entry.stored_length)
                else:
                    self._supersede(entry.key)
                    self._index[entry.key] = (segment_id, entry)

    @_serialized
    def snapshot(self) -> bytes:
        """Image the durable media (works crashed or open)."""
        if self._crashed_media is not None:
            sealed_images, tail_raw = self._crashed_media
        else:
            sealed_images = [s.encode() for s in self._sealed.values()]
            tail_raw = bytes(self._tail.raw)
        out = bytearray()
        out += SNAPSHOT_MAGIC
        out.append(_SNAPSHOT_FORMAT)
        out += len(sealed_images).to_bytes(4, "big")
        for image in sealed_images:
            out += len(image).to_bytes(4, "big")
            out += image
        out += len(tail_raw).to_bytes(4, "big")
        out += tail_raw
        return bytes(out)

    @_serialized
    def restore(self, image: bytes) -> int:
        """Replace contents from a :meth:`snapshot` image."""
        if image[:4] != SNAPSHOT_MAGIC:
            raise ValueError("bad snapshot magic %r" % image[:4])
        if image[4] != _SNAPSHOT_FORMAT:
            raise ValueError("unknown snapshot format %d" % image[4])
        position = 5
        count_segments = int.from_bytes(image[position : position + 4], "big")
        position += 4
        sealed_images: list[bytes] = []
        for _ in range(count_segments):
            length = int.from_bytes(image[position : position + 4], "big")
            position += 4
            sealed_images.append(image[position : position + length])
            position += length
        tail_length = int.from_bytes(image[position : position + 4], "big")
        position += 4
        tail_raw = image[position : position + tail_length]
        if len(tail_raw) != tail_length:
            raise ValueError("truncated snapshot image")
        self._blank()
        self._crashed_media = (sealed_images, tail_raw)
        return self.reopen()


register_engine("segment", SegmentBlobStore)
