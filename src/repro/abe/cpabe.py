"""Ciphertext-Policy Attribute-Based Encryption (Bethencourt–Sahai–Waters,
IEEE S&P 2007), as summarized in the paper's section III-C.

Implemented over the from-scratch type-A symmetric pairing:

* ``Setup``  -> PK = (G0, g, h = g^beta, f = g^(1/beta), e(g,g)^alpha),
               MK = (beta, g^alpha), with fresh alpha and beta over the
               parameter set's one generator g (hashed into G0 once, its
               e(g,g) memoized with it)
* ``Encrypt(PK, M, tau)`` — shares a random exponent s down the access
  tree tau with per-node polynomials; CT carries C~ = M * e(g,g)^(alpha s),
  C = h^s and per-leaf (C_y = g^(q_y(0)), C'_y = H(att(y))^(q_y(0))).
* ``KeyGen(MK, S)`` — SK = (D = g^((alpha + r) / beta),
               {D_j = g^r * H(j)^(r_j), D'_j = g^(r_j)}).
* ``Decrypt`` — recursive DecryptNode with Lagrange recombination in the
  exponent, then M = C~ / (e(C, D) / e(g,g)^(r s)).
* ``Delegate`` — re-randomized subordinate key for a subset of attributes
  (BSW07's optional algorithm; an extension beyond the paper's use).

Messages are elements of GT; :meth:`CPABE.encrypt_bytes` /
:meth:`CPABE.decrypt_bytes` provide the hybrid KEM-DEM wrapper (random GT
element -> HKDF -> AES-CBC) that real payloads use.
"""

from __future__ import annotations

import secrets
from dataclasses import dataclass, replace

from repro.abe.access_tree import AccessTree, AttributeLeaf, Node
from repro.crypto.ec import CurveParams, Point
from repro.crypto.field import PrimeField
from repro.crypto.fq2 import Fq2
from repro.crypto.hash_to_group import hash_to_g0
from repro.crypto.kdf import hkdf
from repro.crypto.modes import seal, unseal
from repro.crypto.pairing import Pairing
from repro.crypto.polynomial import Polynomial, lagrange_coefficients_at_zero
from repro.obs.profile import profiled

__all__ = [
    "PublicKey",
    "MasterKey",
    "SecretKey",
    "Ciphertext",
    "HybridCiphertext",
    "CPABE",
    "AbeError",
    "PolicyNotSatisfiedError",
]


class AbeError(Exception):
    """Base class for CP-ABE failures."""


class PolicyNotSatisfiedError(AbeError):
    """The key's attributes do not satisfy the ciphertext's access tree."""


@dataclass(frozen=True)
class PublicKey:
    """PK: generator g, h = g^beta, f = g^(1/beta) and e(g,g)^alpha."""

    params: CurveParams
    g: Point
    h: Point
    f: Point
    e_gg_alpha: Fq2


@dataclass(frozen=True)
class MasterKey:
    """MK = (beta, g^alpha). Held only by the key authority (the sharer,
    in the social-puzzle setting)."""

    beta: int
    g_alpha: Point


@dataclass(frozen=True)
class SecretKey:
    """SK for an attribute set S."""

    d: Point
    components: dict[str, tuple[Point, Point]]  # j -> (D_j, D'_j)

    @property
    def attributes(self) -> set[str]:
        return set(self.components)


@dataclass(frozen=True)
class Ciphertext:
    """CT = (tau, C~, C, {C_y, C'_y}). Leaf components are stored in the
    tree's depth-first leaf order so relabeling the tree (Perturb /
    Reconstruct) keeps the association intact."""

    tree: AccessTree
    c_tilde: Fq2
    c: Point
    leaf_c: tuple[Point, ...]
    leaf_c_prime: tuple[Point, ...]

    def with_tree(self, tree: AccessTree) -> "Ciphertext":
        """Same components under a relabeled tree (must keep the shape)."""
        if not self.tree.same_shape_as(tree):
            raise ValueError("replacement tree must have the same shape")
        return replace(self, tree=tree)

    def byte_size(self) -> int:
        """Wire size of this ciphertext (used by the network model)."""
        size = len(self.c_tilde.to_bytes()) + len(self.c.to_bytes())
        for point in self.leaf_c + self.leaf_c_prime:
            size += len(point.to_bytes())
        for attribute in self.tree.attributes():
            size += len(attribute.encode()) + 4
        return size


@dataclass(frozen=True)
class HybridCiphertext:
    """KEM-DEM bundle: CP-ABE header encapsulating an AES payload key."""

    header: Ciphertext
    body: bytes

    def with_tree(self, tree: AccessTree) -> "HybridCiphertext":
        return replace(self, header=self.header.with_tree(tree))

    def byte_size(self) -> int:
        return self.header.byte_size() + len(self.body)


# One generator of G0 per parameter set, with e(g, g). BSW07 needs a
# generator, not a fresh one per Setup (alpha and beta stay fresh), so g
# is hashed from a fixed input and every Setup and KEM encapsulation on
# the parameter set shares one pairing, across CPABE instances. The
# input starts with a byte that no UTF-8 text has, so no attribute
# string hashes to g. Two threads that fill a cold entry at once compute
# the same value twice, which is harmless.
_GENERATOR_INPUT = b"\xffrepro.cpabe.generator.v1"
_GENERATORS: dict[CurveParams, tuple[Point, Fq2]] = {}


class CPABE:
    """A CP-ABE instance over fixed pairing parameters."""

    def __init__(self, params: CurveParams):
        self.params = params
        self.pairing = Pairing(params)
        self.zr = PrimeField(params.r, check_prime=False)
        # hash_to_g0 is deterministic and dominated by cofactor clearing;
        # memoize attribute points (recur across Encrypt/KeyGen calls).
        self._attr_point_cache: dict[str, Point] = {}

    def _attr_point(self, attribute: str) -> Point:
        point = self._attr_point_cache.get(attribute)
        if point is None:
            point = hash_to_g0(self.params, attribute.encode())
            self._attr_point_cache[attribute] = point
        return point

    def _generator(self) -> tuple[Point, Fq2]:
        """The parameter set's generator g and e(g, g), from the memo."""
        entry = _GENERATORS.get(self.params)
        if entry is None:
            g = hash_to_g0(self.params, _GENERATOR_INPUT)
            entry = (g, self.pairing.pair(g, g))
            _GENERATORS[self.params] = entry
        return entry

    # -- Setup -------------------------------------------------------------------

    @profiled(name="cpabe.setup")
    def setup(self) -> tuple[PublicKey, MasterKey]:
        r = self.params.r
        g, e_gg = self._generator()
        alpha = secrets.randbelow(r - 1) + 1
        beta = secrets.randbelow(r - 1) + 1
        beta_inv = pow(beta, -1, r)
        pk = PublicKey(
            params=self.params,
            g=g,
            h=g * beta,
            f=g * beta_inv,
            e_gg_alpha=self.pairing.gt_exp(e_gg, alpha),
        )
        mk = MasterKey(beta=beta, g_alpha=g * alpha)
        return pk, mk

    # -- Encrypt -----------------------------------------------------------------

    @profiled(name="cpabe.encrypt")
    def encrypt_element(
        self, pk: PublicKey, message: Fq2, tree: AccessTree
    ) -> Ciphertext:
        """Encrypt a GT element under the policy ``tree``."""
        if message.q != self.params.q:
            raise ValueError("message is not a GT element for these parameters")
        s = secrets.randbelow(self.params.r)
        leaf_shares = self._share_down_tree(tree.root, s)
        leaf_c: list[Point] = []
        leaf_c_prime: list[Point] = []
        for leaf, share in leaf_shares:
            leaf_c.append(pk.g * share)
            leaf_c_prime.append(self._attr_point(leaf.attribute) * share)
        return Ciphertext(
            tree=tree,
            c_tilde=message * self.pairing.gt_exp(pk.e_gg_alpha, s),
            c=pk.h * s,
            leaf_c=tuple(leaf_c),
            leaf_c_prime=tuple(leaf_c_prime),
        )

    def _share_down_tree(self, root: Node, secret: int) -> list[tuple[AttributeLeaf, int]]:
        """Assign q_x polynomials top-down; return (leaf, q_leaf(0)) pairs
        in depth-first leaf order."""
        shares: list[tuple[AttributeLeaf, int]] = []

        def walk(node: Node, node_secret: int) -> None:
            if isinstance(node, AttributeLeaf):
                shares.append((node, node_secret))
                return
            polynomial = Polynomial.random(
                self.zr, node.threshold - 1, constant_term=node_secret
            )
            for index, child in enumerate(node.children, start=1):
                walk(child, int(polynomial(index)))

        walk(root, secret)
        return shares

    # -- KeyGen ------------------------------------------------------------------

    @profiled(name="cpabe.keygen")
    def keygen(self, pk: PublicKey, mk: MasterKey, attributes: set[str] | list[str]) -> SecretKey:
        order = self.params.r
        r_blind = secrets.randbelow(order)
        beta_inv = pow(mk.beta, -1, order)
        g_r_blind = pk.g * r_blind
        d = (mk.g_alpha + g_r_blind) * beta_inv
        components: dict[str, tuple[Point, Point]] = {}
        for attribute in set(attributes):
            r_j = secrets.randbelow(order)
            d_j = g_r_blind + self._attr_point(attribute) * r_j
            d_j_prime = pk.g * r_j
            components[attribute] = (d_j, d_j_prime)
        return SecretKey(d=d, components=components)

    # -- Delegate ----------------------------------------------------------------

    def delegate(
        self, pk: PublicKey, sk: SecretKey, attributes: set[str] | list[str]
    ) -> SecretKey:
        """BSW07 Delegate: derive a re-randomized key for a subset of
        ``sk``'s attributes without the master key."""
        subset = set(attributes)
        missing = subset - sk.attributes
        if missing:
            raise AbeError("cannot delegate attributes not in the source key: %s" % sorted(missing))
        order = self.params.r
        r_tilde = secrets.randbelow(order)
        d = sk.d + pk.f * r_tilde
        components: dict[str, tuple[Point, Point]] = {}
        for attribute in subset:
            r_j_tilde = secrets.randbelow(order)
            d_j, d_j_prime = sk.components[attribute]
            components[attribute] = (
                d_j + pk.g * r_tilde + self._attr_point(attribute) * r_j_tilde,
                d_j_prime + pk.g * r_j_tilde,
            )
        return SecretKey(d=d, components=components)

    # -- Decrypt -----------------------------------------------------------------

    @profiled(name="cpabe.decrypt")
    def decrypt_element(
        self, pk: PublicKey, sk: SecretKey, ct: Ciphertext, fused: bool = True
    ) -> Fq2:
        """Recover the GT message, or raise :class:`PolicyNotSatisfiedError`.

        The default *fused* path flattens the DecryptNode recursion into a
        single multi-pairing: every satisfied leaf contributes its
        (D_j, C_y) / (D'_j, C'_y) pair weighted by the product of Lagrange
        coefficients along its root path, the blinding term e(C, D) joins
        with exponent -1, and :meth:`Pairing.pair_product` evaluates the
        whole product with ONE final exponentiation instead of the naive
        2k+1. ``fused=False`` runs the textbook recursion — kept as the
        verification baseline for the equivalence tests and benchmarks.
        """
        chosen = ct.tree.minimal_satisfying_leaves(sk.attributes)
        if chosen is None:
            raise PolicyNotSatisfiedError(
                "key attributes do not satisfy the ciphertext policy"
            )
        if not fused:
            a = self._decrypt_node(pk, sk, ct, ct.tree.root, 0, set(chosen))[1]
            if a is None:
                raise PolicyNotSatisfiedError(
                    "decryption failed despite satisfiability"
                )
            # A = e(g,g)^(r s); e(C, D) = e(g,g)^(s (alpha + r)).
            e_c_d = self.pairing.pair(ct.c, sk.d)
            return ct.c_tilde * (e_c_d * a.inverse()).inverse()
        pairs = self._fused_pairs(sk, ct, chosen)
        # M = C~ * A / e(C, D), all under one final exponentiation.
        return ct.c_tilde * self.pairing.pair_product(pairs)

    def _fused_pairs(
        self, sk: SecretKey, ct: Ciphertext, chosen: "frozenset[int] | set[int]"
    ) -> "list[tuple[Point, Point, int]]":
        """The (P, Q, e) list whose product (times C~) is the message."""
        terms = self._gather_terms(sk, ct, ct.tree.root, 0, set(chosen))[1]
        if terms is None:
            raise PolicyNotSatisfiedError("decryption failed despite satisfiability")
        pairs: list[tuple[Point, Point, int]] = []
        for d_j, c_y, d_j_prime, c_y_prime, weight in terms:
            pairs.append((d_j, c_y, weight))
            pairs.append((d_j_prime, c_y_prime, -weight))
        pairs.append((ct.c, sk.d, -1))
        return pairs

    def _gather_terms(
        self,
        sk: SecretKey,
        ct: Ciphertext,
        node: Node,
        leaf_cursor: int,
        chosen_leaves: set[int],
    ) -> tuple[int, list[tuple[Point, Point, Point, Point, int]] | None]:
        """Flatten DecryptNode into per-leaf pairing terms.

        Returns (next_leaf_cursor, terms) where each term is
        (D_j, C_y, D'_j, C'_y, weight): the leaf's key/ciphertext points
        and the mod-r product of the Lagrange coefficients on its path, so

            A = prod_y [ e(D_j, C_y) * e(D'_j, C'_y)^-1 ] ^ weight_y.

        Mirrors :meth:`_decrypt_node` exactly (same first-`threshold`
        child selection) but defers every pairing to the caller.
        """
        if isinstance(node, AttributeLeaf):
            index = leaf_cursor
            cursor = leaf_cursor + 1
            if index not in chosen_leaves:
                return cursor, None
            pair_components = sk.components.get(node.attribute)
            if pair_components is None:
                return cursor, None
            d_j, d_j_prime = pair_components
            return cursor, [
                (d_j, ct.leaf_c[index], d_j_prime, ct.leaf_c_prime[index], 1)
            ]

        child_terms: list[tuple[int, list[tuple[Point, Point, Point, Point, int]]]] = []
        cursor = leaf_cursor
        for child_index, child in enumerate(node.children, start=1):
            cursor, terms = self._gather_terms(sk, ct, child, cursor, chosen_leaves)
            if terms is not None:
                child_terms.append((child_index, terms))
        if len(child_terms) < node.threshold:
            return cursor, None
        selected = child_terms[: node.threshold]
        indices = [i for i, _ in selected]
        coefficients = lagrange_coefficients_at_zero(self.zr, indices)
        order = self.params.r
        combined: list[tuple[Point, Point, Point, Point, int]] = []
        for coefficient, (_, terms) in zip(coefficients, selected):
            scale = int(coefficient)
            for d_j, c_y, d_j_prime, c_y_prime, weight in terms:
                combined.append(
                    (d_j, c_y, d_j_prime, c_y_prime, weight * scale % order)
                )
        return cursor, combined

    def _decrypt_node(
        self,
        pk: PublicKey,
        sk: SecretKey,
        ct: Ciphertext,
        node: Node,
        leaf_cursor: int,
        chosen_leaves: set[int],
    ) -> tuple[int, Fq2 | None]:
        """DecryptNode restricted to the precomputed minimal leaf set.

        Returns (next_leaf_cursor, value) where value is
        e(g,g)^(r_blind * q_x(0)) or None when the subtree is not used.
        """
        if isinstance(node, AttributeLeaf):
            index = leaf_cursor
            cursor = leaf_cursor + 1
            if index not in chosen_leaves:
                return cursor, None
            pair_components = sk.components.get(node.attribute)
            if pair_components is None:
                return cursor, None
            d_j, d_j_prime = pair_components
            numerator = self.pairing.pair(d_j, ct.leaf_c[index])
            denominator = self.pairing.pair(d_j_prime, ct.leaf_c_prime[index])
            return cursor, numerator * denominator.inverse()

        child_values: list[tuple[int, Fq2]] = []
        cursor = leaf_cursor
        for child_index, child in enumerate(node.children, start=1):
            cursor, value = self._decrypt_node(
                pk, sk, ct, child, cursor, chosen_leaves
            )
            if value is not None:
                child_values.append((child_index, value))
        if len(child_values) < node.threshold:
            return cursor, None
        selected = child_values[: node.threshold]
        indices = [i for i, _ in selected]
        result = self.pairing.identity()
        for i, value in selected:
            coefficient = self._lagrange_at_zero(i, indices)
            result = result * self.pairing.gt_exp(value, coefficient)
        return cursor, result

    def _lagrange_at_zero(self, i: int, indices: list[int]) -> int:
        """Delta_{i,S}(0) over Z_r for integer index set ``indices``.

        Backed by the shared (batch-inverted, memoized) coefficient cache
        in :func:`repro.crypto.polynomial.lagrange_coefficients_at_zero`,
        so CP-ABE and Shamir reconstruction reuse the same vectors.
        """
        coefficients = lagrange_coefficients_at_zero(self.zr, indices)
        return int(coefficients[indices.index(i)])

    # -- Hybrid KEM-DEM ------------------------------------------------------------

    def encrypt_bytes(
        self, pk: PublicKey, payload: bytes, tree: AccessTree
    ) -> HybridCiphertext:
        """Encrypt arbitrary bytes: random GT KEM key -> HKDF -> AES-CBC
        with an encrypt-then-MAC tag, so body tampering (a malicious DH,
        section VI-B) is detected rather than silently flipping bits."""
        kem_element = self._random_gt()
        header = self.encrypt_element(pk, kem_element, tree)
        key = hkdf(kem_element.to_bytes(), 32, info=b"repro.cpabe.dem")
        return HybridCiphertext(header=header, body=seal(key, payload))

    def decrypt_bytes(self, pk: PublicKey, sk: SecretKey, ct: HybridCiphertext) -> bytes:
        """Inverse of :meth:`encrypt_bytes`; raises
        :class:`repro.crypto.modes.IntegrityError` on a tampered body."""
        kem_element = self.decrypt_element(pk, sk, ct.header)
        key = hkdf(kem_element.to_bytes(), 32, info=b"repro.cpabe.dem")
        return unseal(key, ct.body)

    def _random_gt(self) -> Fq2:
        """A random element of GT, the order-r subgroup of GF(q^2)*.

        e(g, g) generates GT for every generator g of G0, so the
        parameter set's memoized one serves keys made over any g."""
        exponent = secrets.randbelow(self.params.r - 1) + 1
        return self.pairing.gt_exp(self._generator()[1], exponent)
