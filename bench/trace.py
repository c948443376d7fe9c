"""Spans recorded from outside the program, and the self-time summariser.

The traced run rebinds public functions of ``repro`` to wrappers that
record one span per call: ``[layer, start, end, parent, tag]``. Spans
live in memory, one list per thread (``parent`` indexes the same list,
-1 for a root), and are written out as JSON when the run ends.

Wrapping is by object identity: every ``repro.*`` module attribute and
class attribute that *is* a target function is rebound, so a caller
that imported the function by name (``from ... import sha3_256``) is
wrapped too.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from collections import defaultdict

_SUPPRESSED = -2  # stack marker: this call tree is not being recorded


class Tracer:
    """In-memory span store with a per-thread stack of open spans.

    Once ``cap`` spans are held, new call trees are no longer recorded
    (trees already open finish normally), which bounds the memory
    tracing takes however fast the program gets.
    """

    def __init__(self, cap: int = 300_000):
        self.cap = cap
        self.count = 0
        self.threads: list[list[list]] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    @property
    def full(self) -> bool:
        return self.count >= self.cap

    def _state(self) -> tuple[list, list]:
        local = self._local
        if not hasattr(local, "spans"):
            local.spans, local.stack = [], []
            with self._lock:
                self.threads.append(local.spans)
        return local.spans, local.stack

    def open(self, layer: str, tag=None) -> list | None:
        """Start a span; ``None`` when this call tree is not recorded."""
        spans, stack = self._state()
        if (stack and stack[-1] == _SUPPRESSED) or (not stack and self.full):
            stack.append(_SUPPRESSED)
            return None
        span = [layer, time.perf_counter(), 0.0, stack[-1] if stack else -1, tag]
        stack.append(len(spans))
        spans.append(span)
        self.count += 1
        return span

    def close(self, span: list | None) -> None:
        if span is not None:
            span[2] = time.perf_counter()
        self._local.stack.pop()

    def wrap(self, layer: str, fn, tag=None):
        """``fn`` recording a ``layer`` span per call; ``tag(args,
        result)`` supplies the span's tag once the call returns."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(layer)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                if span is not None and tag is not None:
                    span[4] = tag(args, result)
                self.close(span)

        return traced

    def install(self, targets) -> dict[str, int]:
        """Rebind every ``repro`` reference to each ``(layer, fn, tag)``
        target; returns how many references each layer rebound."""
        wrappers = {id(fn): (fn, self.wrap(layer, fn, tag), layer)
                    for layer, fn, tag in targets}
        rebound: dict[str, int] = defaultdict(int)

        def rebind(owner, namespace: dict) -> None:
            for name, value in namespace.items():
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(owner, name, hit[1])
                    rebound[hit[2]] += 1

        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            namespace = dict(vars(module))
            rebind(module, namespace)
            for value in namespace.values():
                if isinstance(value, type) and value.__module__ == module_name:
                    rebind(value, dict(vars(value)))
        return dict(rebound)

    def dump(self, path: str, **extra) -> None:
        with open(path, "w") as handle:
            json.dump({"threads": self.threads, **extra}, handle)


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    ``spans`` is one thread's list; children nest inside their parent on
    that thread, so covered time is the sum of the children's durations.
    """
    own = [span[2] - span[1] for span in spans]
    for span in spans:
        if span[3] >= 0:
            own[span[3]] -= span[2] - span[1]
    return own


class Group:
    """What one kind of root (a journey kind, a server verb) spent."""

    def __init__(self):
        self.durations: list[float] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.amount: dict[str, float] = defaultdict(float)

    def add(self, layer: str, seconds: float, tag) -> None:
        self.self_s[layer] += seconds
        self.calls[layer] += 1
        value = tag[0] if isinstance(tag, list) else tag
        if isinstance(value, (int, float)):
            self.amount[layer] += value

    def per_root(self, table: dict, layer: str, scale: float = 1.0) -> float:
        return scale * table.get(layer, 0) / max(1, len(self.durations))


def spans_of(threads: list[list[list]], layer: str, since: float = 0.0):
    """Every ``layer`` span that started at or after ``since``."""
    for spans in threads:
        for span in spans:
            if span[0] == layer and span[1] >= since:
                yield span


def summarise(threads: list[list[list]], root_layer: str, key=lambda tag: tag,
              since: float = 0.0):
    """Per-root totals: ``{key(root tag): Group}``.

    A root is a span of ``root_layer`` that started at or after
    ``since``; every span below it is charged to its group by layer:
    self time, calls and the sum of numeric tags (the first element of a
    list tag). The root's own self time is the ``unattributed`` layer.
    Spans under no root are ignored.
    """
    groups: dict = defaultdict(Group)
    for spans in threads:
        own = self_times(spans)
        root_of = [-1] * len(spans)
        for i, span in enumerate(spans):
            if span[0] == root_layer:
                if span[1] >= since:
                    root_of[i] = i
            elif span[3] >= 0:
                root_of[i] = root_of[span[3]]
            if root_of[i] < 0:
                continue
            group = groups[key(spans[root_of[i]][4])]
            if root_of[i] == i:
                group.durations.append(span[2] - span[1])
                group.add("unattributed", own[i], None)
            else:
                group.add(span[0], own[i], span[4])
    return dict(groups)
