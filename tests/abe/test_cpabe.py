"""Tests for the BSW07 CP-ABE implementation (toy parameters)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.abe import cpabe
from repro.abe.access_tree import AccessTree
from repro.abe.cpabe import CPABE, AbeError, MasterKey, PolicyNotSatisfiedError, PublicKey
from repro.abe.serialize import decode_public_key
from repro.crypto.params import SMALL, TOY
from tests.conftest import k_of_n


@pytest.fixture(scope="module")
def abe():
    return CPABE(TOY)


@pytest.fixture(scope="module")
def keys(abe):
    return abe.setup()


class TestSetup:
    def test_public_key_structure(self, abe, keys):
        pk, mk = keys
        assert pk.g.has_order_r()
        assert pk.h.has_order_r()
        assert pk.f.has_order_r()
        assert not pk.e_gg_alpha.is_one()
        assert 0 < mk.beta < TOY.r

    def test_f_is_g_to_inverse_beta(self, abe, keys):
        pk, mk = keys
        assert pk.f * mk.beta == pk.g

    def test_h_is_g_to_beta(self, abe, keys):
        pk, mk = keys
        assert pk.g * mk.beta == pk.h

    def test_setups_differ(self, abe):
        pk1, _ = abe.setup()
        pk2, _ = abe.setup()
        assert pk1.g != pk2.g or pk1.h != pk2.h

    def test_attribute_point_memoized(self, abe):
        from repro.crypto.hash_to_group import hash_to_g0

        point = abe._attr_point("pa")
        assert point == hash_to_g0(TOY, b"pa")
        assert abe._attr_point("pa") is point


class TestGeneratorMemo:
    """One generator, with one e(g, g), per parameter set: Setups on one
    instance and shares through fresh sharers all reuse the memo entry,
    and it does not grow."""

    def test_setups_and_shares_share_one_entry(self):
        from repro.core.construction2 import SharerC2
        from repro.core.context import Context
        from repro.osn.storage import StorageHost

        before = set(cpabe._GENERATORS)
        abe = CPABE(SMALL)
        generators = {abe.setup()[0].g for _ in range(50)}
        context = Context.from_mapping({"Where?": "Lisbon", "Who?": "Teodora"})
        storage = StorageHost()
        for _ in range(50):
            sharer = SharerC2("alice", storage, SMALL)
            record, _ = sharer.upload_policy(b"object", context, k_of_n(1, context))
            generators.add(decode_public_key(SMALL, record.pk_bytes).g)
        assert set(cpabe._GENERATORS) - before <= {SMALL}
        (g,) = generators
        assert g == cpabe._GENERATORS[SMALL][0]
        assert g.has_order_r()

    def test_warm_share_runs_no_final_exponentiation(self):
        from repro.core.construction2 import SharerC2
        from repro.core.context import Context
        from repro.osn.storage import StorageHost

        context = Context.from_mapping({"Where?": "Lisbon", "Who?": "Teodora"})
        SharerC2("alice", StorageHost(), SMALL).upload_policy(
            b"warm", context, k_of_n(1, context)
        )
        sharer = SharerC2("alice", StorageHost(), SMALL)
        sharer.upload_policy(b"object", context, k_of_n(2, context))
        assert sharer.abe.pairing.op_counts["final_exps"] == 0
        assert sharer.abe.pairing.op_counts["miller_loops"] == 0

    def test_no_per_instance_cache(self):
        assert not hasattr(CPABE(TOY), "_gt_base_cache")

    def test_key_from_another_generator_still_encrypts(self, abe):
        """A public key made over a random generator, as Setup did before
        the generator was fixed, still encrypts and decrypts: every
        generator's e(g, g) generates the same GT."""
        g = TOY.random_g0()
        alpha, beta = 5, 7
        pk = PublicKey(
            params=TOY, g=g, h=g * beta, f=g * pow(beta, -1, TOY.r),
            e_gg_alpha=abe.pairing.gt_exp(abe.pairing.pair(g, g), alpha),
        )
        mk = MasterKey(beta=beta, g_alpha=g * alpha)
        tree = AccessTree.k_of_n(1, ["a", "b"])
        ct = abe.encrypt_bytes(pk, b"old key", tree)
        assert abe.decrypt_bytes(pk, abe.keygen(pk, mk, {"b"}), ct) == b"old key"


class TestKeyGen:
    def test_g_r_blind_multiplied_once(self, abe, keys, monkeypatch):
        """g^r is shared by D and every D_j, so KeyGen computes it once:
        g^r and D's 1/beta, then H(j)^(r_j) and g^(r_j) per attribute."""
        from repro.crypto.ec import Point

        pk, mk = keys
        attributes = {"ka", "kb", "kc"}
        for attribute in attributes:
            abe._attr_point(attribute)  # warm: hash_to_g0 multiplies too
        calls = []
        original = Point.__mul__

        def counting_mul(self, scalar):
            calls.append(scalar)
            return original(self, scalar)

        monkeypatch.setattr(Point, "__mul__", counting_mul)
        sk = abe.keygen(pk, mk, attributes)
        monkeypatch.undo()
        assert len(calls) == 2 + 2 * len(attributes)
        message = abe._random_gt()
        ct = abe.encrypt_element(pk, message, AccessTree.k_of_n(2, sorted(attributes)))
        assert abe.decrypt_element(pk, sk, ct) == message


class TestElementRoundTrip:
    def test_simple_threshold(self, abe, keys):
        pk, mk = keys
        message = abe._random_gt()
        tree = AccessTree.k_of_n(2, ["a", "b", "c"])
        ct = abe.encrypt_element(pk, message, tree)
        sk = abe.keygen(pk, mk, {"a", "c"})
        assert abe.decrypt_element(pk, sk, ct) == message

    def test_single_attribute_policy(self, abe, keys):
        pk, mk = keys
        message = abe._random_gt()
        ct = abe.encrypt_element(pk, message, AccessTree.single("only"))
        sk = abe.keygen(pk, mk, {"only"})
        assert abe.decrypt_element(pk, sk, ct) == message

    def test_all_of_policy(self, abe, keys):
        pk, mk = keys
        message = abe._random_gt()
        ct = abe.encrypt_element(pk, message, AccessTree.all_of(["a", "b", "c"]))
        sk = abe.keygen(pk, mk, {"a", "b", "c"})
        assert abe.decrypt_element(pk, sk, ct) == message
        with pytest.raises(PolicyNotSatisfiedError):
            abe.decrypt_element(pk, abe.keygen(pk, mk, {"a", "b"}), ct)

    def test_nested_policy(self, abe, keys):
        pk, mk = keys
        message = abe._random_gt()
        tree = AccessTree.any_of(
            [AccessTree.all_of(["dept:eng", "level:senior"]),
             AccessTree.threshold(2, ["ctx:a", "ctx:b", "ctx:c"])]
        )
        ct = abe.encrypt_element(pk, message, tree)
        via_and = abe.keygen(pk, mk, {"dept:eng", "level:senior"})
        via_threshold = abe.keygen(pk, mk, {"ctx:a", "ctx:c"})
        assert abe.decrypt_element(pk, via_and, ct) == message
        assert abe.decrypt_element(pk, via_threshold, ct) == message
        mixed = abe.keygen(pk, mk, {"dept:eng", "ctx:b"})
        with pytest.raises(PolicyNotSatisfiedError):
            abe.decrypt_element(pk, mixed, ct)

    def test_extra_attributes_harmless(self, abe, keys):
        pk, mk = keys
        message = abe._random_gt()
        ct = abe.encrypt_element(pk, message, AccessTree.k_of_n(1, ["x", "y"]))
        sk = abe.keygen(pk, mk, {"x", "unrelated", "another"})
        assert abe.decrypt_element(pk, sk, ct) == message

    @settings(max_examples=8)
    @given(st.integers(1, 4), st.integers(0, 3))
    def test_random_thresholds(self, abe, keys, k, extra):
        pk, mk = keys
        n = k + extra
        attrs = ["attr-%d" % i for i in range(n)]
        message = abe._random_gt()
        ct = abe.encrypt_element(pk, message, AccessTree.k_of_n(k, attrs))
        sk = abe.keygen(pk, mk, set(attrs[:k]))
        assert abe.decrypt_element(pk, sk, ct) == message
        if k > 1:
            weak = abe.keygen(pk, mk, set(attrs[: k - 1]))
            with pytest.raises(PolicyNotSatisfiedError):
                abe.decrypt_element(pk, weak, ct)


class TestCollusionResistance:
    def test_two_keys_cannot_combine(self, abe, keys):
        """CP-ABE's core guarantee: users cannot pool attributes across
        separately issued keys (each key has its own blinding r)."""
        pk, mk = keys
        message = abe._random_gt()
        ct = abe.encrypt_element(pk, message, AccessTree.all_of(["a", "b"]))
        alice = abe.keygen(pk, mk, {"a"})
        bob = abe.keygen(pk, mk, {"b"})
        # Frankenstein key: D from alice, components merged.
        from repro.abe.cpabe import SecretKey

        merged = SecretKey(d=alice.d, components={**alice.components, **bob.components})
        result_ok = False
        try:
            recovered = abe.decrypt_element(pk, merged, ct)
            result_ok = recovered == message
        except PolicyNotSatisfiedError:
            result_ok = False
        assert not result_ok


class TestBytesHybrid:
    def test_roundtrip(self, abe, keys):
        pk, mk = keys
        tree = AccessTree.k_of_n(2, ["q1", "q2", "q3"])
        payload = b"the full payload " * 20
        ct = abe.encrypt_bytes(pk, payload, tree)
        sk = abe.keygen(pk, mk, {"q1", "q3"})
        assert abe.decrypt_bytes(pk, sk, ct) == payload

    def test_empty_payload(self, abe, keys):
        pk, mk = keys
        ct = abe.encrypt_bytes(pk, b"", AccessTree.single("a"))
        sk = abe.keygen(pk, mk, {"a"})
        assert abe.decrypt_bytes(pk, sk, ct) == b""

    def test_below_threshold_rejected(self, abe, keys):
        pk, mk = keys
        ct = abe.encrypt_bytes(pk, b"secret", AccessTree.k_of_n(2, ["a", "b", "c"]))
        sk = abe.keygen(pk, mk, {"a"})
        with pytest.raises(PolicyNotSatisfiedError):
            abe.decrypt_bytes(pk, sk, ct)

    def test_byte_size_accounts_components(self, abe, keys):
        pk, mk = keys
        small = abe.encrypt_bytes(pk, b"x", AccessTree.k_of_n(1, ["a", "b"]))
        large = abe.encrypt_bytes(pk, b"x", AccessTree.k_of_n(1, ["a", "b", "c", "d"]))
        assert large.byte_size() > small.byte_size()


class TestDelegate:
    def test_delegate_subset_decrypts(self, abe, keys):
        pk, mk = keys
        message = abe._random_gt()
        ct = abe.encrypt_element(pk, message, AccessTree.k_of_n(2, ["a", "b", "c"]))
        parent = abe.keygen(pk, mk, {"a", "b", "c"})
        child = abe.delegate(pk, parent, {"a", "b"})
        assert abe.decrypt_element(pk, child, ct) == message

    def test_delegate_cannot_add_attributes(self, abe, keys):
        pk, mk = keys
        parent = abe.keygen(pk, mk, {"a"})
        with pytest.raises(AbeError):
            abe.delegate(pk, parent, {"a", "b"})

    def test_delegated_key_still_threshold_bound(self, abe, keys):
        pk, mk = keys
        message = abe._random_gt()
        ct = abe.encrypt_element(pk, message, AccessTree.k_of_n(2, ["a", "b", "c"]))
        parent = abe.keygen(pk, mk, {"a", "b", "c"})
        child = abe.delegate(pk, parent, {"a"})
        with pytest.raises(PolicyNotSatisfiedError):
            abe.decrypt_element(pk, child, ct)

    def test_chained_delegation(self, abe, keys):
        pk, mk = keys
        message = abe._random_gt()
        ct = abe.encrypt_element(pk, message, AccessTree.k_of_n(1, ["a", "b"]))
        k1 = abe.keygen(pk, mk, {"a", "b"})
        k2 = abe.delegate(pk, k1, {"a", "b"})
        k3 = abe.delegate(pk, k2, {"a"})
        assert abe.decrypt_element(pk, k3, ct) == message


class TestWithTree:
    def test_relabeled_tree_swap(self, abe, keys):
        pk, mk = keys
        message = abe._random_gt()
        tree = AccessTree.k_of_n(1, ["a", "b"])
        ct = abe.encrypt_element(pk, message, tree)
        renamed = tree.relabel(lambda s: "hash-of-" + s)
        ct2 = ct.with_tree(renamed)
        # Original attributes no longer match...
        sk = abe.keygen(pk, mk, {"a"})
        with pytest.raises(PolicyNotSatisfiedError):
            abe.decrypt_element(pk, sk, ct2)
        # ...but swapping the true tree back restores decryptability.
        ct3 = ct2.with_tree(tree)
        assert abe.decrypt_element(pk, sk, ct3) == message

    def test_shape_mismatch_rejected(self, abe, keys):
        pk, _ = keys
        ct = abe.encrypt_element(
            pk, abe._random_gt(), AccessTree.k_of_n(1, ["a", "b"])
        )
        with pytest.raises(ValueError):
            ct.with_tree(AccessTree.k_of_n(1, ["a", "b", "c"]))


class TestValidation:
    def test_foreign_message_rejected(self, abe, keys):
        pk, _ = keys
        from repro.crypto.fq2 import Fq2

        with pytest.raises(ValueError):
            abe.encrypt_element(pk, Fq2(7, 1, 1), AccessTree.single("a"))
