"""SegmentBlobStore under concurrent callers.

A served cluster dispatches requests on a thread pool, so one node's
store sees overlapping ``put``/``get``/``discard`` calls. Four threads
share one store here, with a small segment target (the tail seals
often), a two-block inflate cache, and a compaction every few hundred
operations, while the interpreter switches threads as often as it can.
Each thread writes only its own keys but also reads the others' keys,
so a torn read shows up as an exception or a foreign payload. Because
writes never cross threads, replaying each script serially must end in
the same state.
"""

import random
import sys
import threading

import pytest

from repro.store import SegmentBlobStore, VersionedBlob

THREADS = 4
OPS = 3000
KEYS_PER_THREAD = 12
BODY = bytes(range(256)) * 2


def _store() -> SegmentBlobStore:
    return SegmentBlobStore(segment_target_bytes=4096, cache_segments=2)


def _key(thread: int, slot: int) -> str:
    return "t%d-k%02d" % (thread, slot)


def _script(thread: int) -> list[tuple[str, str, "VersionedBlob | None"]]:
    rng = random.Random(1000 + thread)
    ops = []
    for i in range(OPS):
        roll = rng.random()
        if roll < 0.25:
            other = rng.choice([t for t in range(THREADS) if t != thread])
            ops.append(("peek", _key(other, rng.randrange(KEYS_PER_THREAD)), None))
            continue
        key = _key(thread, rng.randrange(KEYS_PER_THREAD))
        if roll < 0.6:
            data = None if rng.random() < 0.1 else key.encode() + b"|%d|" % i + BODY
            ops.append(("put", key, VersionedBlob(i, data)))
        elif roll < 0.9:
            ops.append(("get", key, None))
        else:
            ops.append(("discard", key, None))
    return ops


def _run(store, thread, ops, errors, compact_every=0):
    try:
        for n, (op, key, blob) in enumerate(ops, 1):
            if op == "put":
                store.put(key, blob)
            elif op == "discard":
                store.discard(key)
            else:
                got = store.get(key)
                if got is not None and got.data is not None:
                    assert got.data.startswith(key.encode() + b"|"), (key, got.data[:16])
            if compact_every and n % compact_every == 0:
                store.compact()
                store.stats()
    except Exception as exc:  # reported by the main thread
        errors.append((thread, repr(exc)))


@pytest.fixture
def busy_switching():
    prior = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    yield
    sys.setswitchinterval(prior)


def test_overlapping_threads_match_serial_replay(busy_switching):
    scripts = [_script(t) for t in range(THREADS)]
    store, errors = _store(), []
    workers = [
        threading.Thread(
            target=_run, args=(store, t, scripts[t], errors, 400 if t == 0 else 0)
        )
        for t in range(THREADS)
    ]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join(timeout=120)
    assert not any(worker.is_alive() for worker in workers)
    assert errors == []

    serial = _store()
    for t, ops in enumerate(scripts):
        _run(serial, t, [op for op in ops if op[0] != "peek"], errors)
    assert errors == []
    for t in range(THREADS):
        for slot in range(KEYS_PER_THREAD):
            key = _key(t, slot)
            assert store.get(key) == serial.get(key), key
    assert sorted(store.keys()) == sorted(serial.keys())
