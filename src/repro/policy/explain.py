"""Audit-grade policy explanation: the gate-by-gate grant/deny derivation.

Given the question-level policy tree and the set of requirement labels a
viewer *proved* (their keyed/answer hashes matched), :func:`explain_tree`
produces an :class:`Explanation`: one :class:`NodeTrace` per tree node,
in depth-first order, recording which leaves matched and which threshold
gates passed. That is exactly the information an auditor needs to answer
"why was this granted/denied" — and nothing more:

* leaf labels are the puzzle's *questions*, which the SP already shows to
  every prospective receiver at DisplayPuzzle time;
* no answer, answer hash, share, key or digest ever enters a trace — the
  curious-SP test (`tests/policy/test_explain.py`) serializes
  explanations for both outcomes and asserts the absence of answer
  material byte-for-byte.

Explanations declare their wire fields so the SP can serve them over the
``Explain`` verb (:mod:`repro.proto.messages`), and a human rendering::

    deny (scope:group/trip and (2 of (ctx_a, ctx_b, ctx_c) or attr:escrow))
    - and [1/2]
      - scope:group/trip
      + or [1/1]
        + 2 of 3 [2/2]
          + ctx_a
          + ctx_b
          - ctx_c
        - attr:escrow
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.abe.access_tree import AccessTree, AttributeLeaf, Node, ThresholdGate
from repro.abe.policy import format_policy
from repro.util.codec import (
    BOOL,
    TEXT,
    U8,
    U32,
    Kind,
    WireRecord,
    record,
    seq,
    u8,
    wire,
)

__all__ = ["NodeTrace", "Explanation", "explain_tree"]


# ``NodeTrace.kind`` as one byte: 1 for a gate, 0 for a leaf.
_NODE_KIND = Kind(
    lambda kind: u8(1 if kind == "gate" else 0),
    lambda reader: "gate" if reader.u8() else "leaf",
)


@dataclass(frozen=True)
class NodeTrace(WireRecord):
    """One node of the derivation, addressed by its path from the root.

    ``path`` is dotted child positions (root = ``"0"``, its second child
    = ``"0.2"``); ``kind`` is ``"gate"`` or ``"leaf"``. For a gate,
    ``satisfied`` counts satisfied children against ``threshold``; for a
    leaf, ``satisfied`` is 1 iff the viewer's hash matched and the
    threshold is 1. ``passed`` is the node's own verdict.
    """

    path: str = wire(TEXT)
    kind: str = wire(_NODE_KIND)
    label: str = wire(TEXT)  # question for leaves, connective ("and"/"or"/"k of n") for gates
    threshold: int = wire(U32)
    child_count: int = wire(U32)
    satisfied: int = wire(U32)
    passed: bool = wire(BOOL)

    @property
    def depth(self) -> int:
        return self.path.count(".")


@dataclass(frozen=True)
class Explanation(WireRecord):
    """The full grant/deny derivation for one verification attempt."""

    construction: int = wire(U8)
    puzzle_id: int = wire(U32)
    granted: bool = wire(BOOL)
    policy_text: str = wire(TEXT)
    nodes: tuple[NodeTrace, ...] = wire(seq(record(NodeTrace)))

    def satisfied_leaves(self) -> tuple[str, ...]:
        """Questions the viewer proved, in policy leaf order."""
        return tuple(
            n.label for n in self.nodes if n.kind == "leaf" and n.passed
        )

    def failed_leaves(self) -> tuple[str, ...]:
        """Questions the viewer did not prove, in policy leaf order."""
        return tuple(
            n.label for n in self.nodes if n.kind == "leaf" and not n.passed
        )

    def passed_gates(self) -> tuple[str, ...]:
        """Paths of the threshold gates that cleared, depth-first."""
        return tuple(
            n.path for n in self.nodes if n.kind == "gate" and n.passed
        )

    def render(self) -> str:
        """Human-readable indented derivation (``+`` passed, ``-`` not)."""
        lines = [
            "%s %s" % ("grant" if self.granted else "deny", self.policy_text)
        ]
        for node in self.nodes:
            mark = "+" if node.passed else "-"
            detail = (
                "%s [%d/%d]" % (node.label, node.satisfied, node.threshold)
                if node.kind == "gate"
                else node.label
            )
            lines.append("%s%s %s" % ("  " * (node.depth + 1), mark, detail))
        return "\n".join(lines)


def _gate_label(gate: ThresholdGate) -> str:
    if gate.threshold == len(gate.children) and len(gate.children) > 1:
        return "and"
    if gate.threshold == 1 and len(gate.children) > 1:
        return "or"
    return "%d of %d" % (gate.threshold, len(gate.children))


def explain_tree(
    tree: AccessTree,
    matched: Iterable[str],
    *,
    construction: int,
    puzzle_id: int,
    policy_text: str | None = None,
) -> Explanation:
    """Evaluate the question-level tree and trace every node's verdict.

    ``matched`` is the set of requirement labels whose hashes verified —
    the only evidence the SP holds. ``policy_text`` defaults to the
    canonical rendering of ``tree`` (the sharer may attach a prettier
    one via the SharePolicy verb).
    """
    matched_set = set(matched)
    nodes: list[NodeTrace] = []

    def walk(node: Node, path: str) -> bool:
        if isinstance(node, AttributeLeaf):
            passed = node.attribute in matched_set
            nodes.append(
                NodeTrace(
                    path=path,
                    kind="leaf",
                    label=node.attribute,
                    threshold=1,
                    child_count=0,
                    satisfied=int(passed),
                    passed=passed,
                )
            )
            return passed
        placeholder = len(nodes)
        nodes.append(None)  # type: ignore[arg-type]  # reserve DFS slot
        satisfied = 0
        for position, child in enumerate(node.children, start=1):
            if walk(child, "%s.%d" % (path, position)):
                satisfied += 1
        passed = satisfied >= node.threshold
        nodes[placeholder] = NodeTrace(
            path=path,
            kind="gate",
            label=_gate_label(node),
            threshold=node.threshold,
            child_count=len(node.children),
            satisfied=satisfied,
            passed=passed,
        )
        return passed

    granted = walk(tree.root, "0")
    return Explanation(
        construction=construction,
        puzzle_id=puzzle_id,
        granted=granted,
        policy_text=policy_text if policy_text is not None else format_policy(tree),
        nodes=tuple(nodes),
    )
