"""Compile the policy IR down to both constructions.

One policy, two targets:

* **Construction 2** is the easy direction: CP-ABE natively encrypts
  under arbitrary monotone trees, so :func:`compile_tree_c2` just
  relabels every requirement leaf into the ``question || answer``
  attribute form and hands the tree to ``Encrypt`` unchanged.

* **Construction 1** needs the new machinery: the paper's flat puzzle
  splits the object secret M_O with ONE Shamir polynomial. A nested
  policy becomes a *share-of-shares* recursion (:func:`share_plan`):
  every gate with threshold t over m children draws a fresh degree-(t-1)
  polynomial P with the gate's value as P(0), and child j receives
  P(j). Leaf values are blinded into puzzle entries exactly like flat
  shares; gate values are never stored anywhere — they are recomputed
  by Lagrange interpolation on the way back up (:func:`solve_shape`).

  Child x-coordinates are the deterministic positions 1..m. That is
  safe for the same reason the flat construction may reveal its random
  x-coordinates: Shamir's secrecy is over the y-values, and the
  positions are independent of every secret. What the SP stores beyond
  the flat artifact is only the gate *shape* (thresholds and arities —
  :func:`encode_shape`), which it must know anyway to run Verify.

The shape codec is deliberately label-free: leaves encode as a single
byte and are identified by depth-first position, so the wire shape
carries no question text, no answers and no hashes.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.abe.access_tree import AccessTree, AttributeLeaf, Node, ThresholdGate
from repro.core.context import Context, normalize_answer
from repro.crypto.field import PrimeField
from repro.crypto.polynomial import Polynomial
from repro.crypto.shamir import Share, reconstruct_secret
from repro.policy.model import PolicyError, PuzzlePolicy
from repro.util.codec import CodecError, Reader, u8, u32

__all__ = [
    "encode_shape",
    "decode_shape",
    "shape_tree",
    "shape_leaf_count",
    "share_plan",
    "solve_shape",
    "compile_tree_c2",
]

_SHAPE_LEAF = 0
_SHAPE_GATE = 1


# -- the label-free shape codec ------------------------------------------------


def encode_shape(tree: AccessTree) -> bytes:
    """Serialize gate structure only: thresholds, arities, leaf slots.

    Leaves carry no payload — their identity is their depth-first
    position, which is also the puzzle-entry index in Construction 1.
    """

    def walk(node: Node) -> bytes:
        if isinstance(node, AttributeLeaf):
            return u8(_SHAPE_LEAF)
        out = u8(_SHAPE_GATE) + u32(node.threshold) + u32(len(node.children))
        for child in node.children:
            out += walk(child)
        return out

    return walk(tree.root)


def decode_shape(shape: bytes) -> Node:
    """Rebuild the gate structure; leaves are labeled by DFS index."""
    reader = Reader(shape)
    counter = [0]

    def read_node() -> Node:
        kind = reader.u8()
        if kind == _SHAPE_LEAF:
            index = counter[0]
            counter[0] += 1
            return AttributeLeaf(str(index))
        if kind != _SHAPE_GATE:
            raise CodecError("unknown shape node kind %d" % kind)
        threshold = reader.u32()
        count = reader.u32()
        if count > reader.remaining():
            # Each child costs at least one byte; reject before allocating.
            raise CodecError("shape gate claims more children than bytes remain")
        children = tuple(read_node() for _ in range(count))
        try:
            return ThresholdGate(threshold, children)
        except ValueError as exc:
            raise CodecError(str(exc)) from exc

    root = read_node()
    reader.done()
    return root


def shape_leaf_count(shape: bytes) -> int:
    """Number of leaf slots in an encoded shape."""
    return len(AccessTree(decode_shape(shape)).leaves())


def shape_tree(shape: bytes, labels: Sequence[str]) -> AccessTree:
    """An encoded shape re-hydrated with requirement labels, DFS order.

    The SP calls this with the puzzle's question list to evaluate and
    explain nested policies — questions are exactly what it already
    stores, so no new information reaches it.
    """
    root = decode_shape(shape)
    tree = AccessTree(root)
    leaves = tree.leaves()
    if len(leaves) != len(labels):
        raise PolicyError(
            "shape has %d leaf slots but %d labels were supplied"
            % (len(leaves), len(labels))
        )
    mapping = {leaf.attribute: label for leaf, label in zip(leaves, labels)}
    return tree.relabel(lambda slot: mapping[slot])


# -- construction 1: share-of-shares -------------------------------------------


def share_plan(tree: AccessTree, field: PrimeField, secret: int) -> list[Share]:
    """Split ``secret`` down the gate tree; one share per leaf, DFS order.

    Gate child j (1-based position) receives P_gate(j) where P_gate is a
    fresh random degree-(threshold-1) polynomial with the gate's own
    value at 0. A leaf's share is ``Share(x=position, y=value)``; a gate
    child recurses with its value as the sub-secret. The flat policy
    degenerates to a single polynomial — the paper's construction.
    """
    if isinstance(tree.root, AttributeLeaf):
        raise PolicyError("share plan needs a gate at the root")
    shares: list[Share] = []

    def walk(gate: ThresholdGate, value: int) -> None:
        polynomial = Polynomial.random(
            field, gate.threshold - 1, constant_term=value
        )
        for position, child in enumerate(gate.children, start=1):
            child_value = int(polynomial(position))
            if isinstance(child, AttributeLeaf):
                shares.append(Share(x=position, y=child_value))
            else:
                walk(child, child_value)

    walk(tree.root, secret % field.p)
    return shares


def solve_shape(
    shape: bytes, leaf_values: Mapping[int, int], field: PrimeField
) -> int | None:
    """Recover the root secret from unblinded leaf shares, or ``None``.

    ``leaf_values`` maps DFS leaf index -> unblinded y-value. Each gate
    interpolates its own value at 0 from any ``threshold`` recovered
    children (at positions 1..m); gates below threshold contribute
    nothing, exactly mirroring CP-ABE's DecryptNode recursion.
    """
    root = decode_shape(shape)
    if isinstance(root, AttributeLeaf):
        raise PolicyError("policy shape must have a gate at the root")

    def solve(node: Node) -> int | None:
        if isinstance(node, AttributeLeaf):
            return leaf_values.get(int(node.attribute))
        recovered: list[Share] = []
        for position, child in enumerate(node.children, start=1):
            value = solve(child)
            if value is not None:
                recovered.append(Share(x=position, y=value % field.p))
            if len(recovered) == node.threshold:
                break
        if len(recovered) < node.threshold:
            return None
        return int(reconstruct_secret(field, recovered, node.threshold))

    return solve(root)


# -- construction 2: straight into CP-ABE --------------------------------------


def compile_tree_c2(policy: PuzzlePolicy, context: Context) -> AccessTree:
    """Relabel requirement leaves into (question, answer) attributes.

    ``SharerC2.upload_policy`` encrypts under the resulting tree —
    ``Encrypt`` and the SP's one release rule already handle arbitrary
    monotone trees, so C2's compiler is exactly this relabeling.
    """
    # Imported lazily: construction2 is a higher layer that imports this
    # module at module scope.
    from repro.core.construction2 import leaf_attribute

    policy.require_answerable(context)
    return policy.tree.relabel(
        lambda question: leaf_attribute(
            question, normalize_answer(context.answer_for(question))
        )
    )
