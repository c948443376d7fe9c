"""Tests for hashing into G0."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.crypto import accel
from repro.crypto.hash_to_group import hash_to_g0
from repro.crypto.params import SMALL, TOY


class TestHashToG0:
    def test_deterministic(self):
        assert hash_to_g0(TOY, b"attribute") == hash_to_g0(TOY, b"attribute")

    def test_distinct_inputs_distinct_points(self):
        points = {hash_to_g0(TOY, b"attr%d" % i).to_bytes() for i in range(30)}
        assert len(points) == 30

    def test_never_infinity_and_order_r(self):
        for i in range(10):
            point = hash_to_g0(TOY, b"x%d" % i)
            assert not point.infinity
            assert point.is_on_curve()
            assert point.has_order_r()

    @given(st.binary(max_size=100))
    def test_arbitrary_bytes(self, data):
        point = hash_to_g0(TOY, data)
        assert point.has_order_r()

    def test_empty_input(self):
        assert hash_to_g0(TOY, b"").has_order_r()

    def test_sign_bit_varies(self):
        """The y-sign must be hash-derived, not always canonical."""
        low = 0
        for i in range(40):
            point = hash_to_g0(TOY, b"sign-test-%d" % i)
            if point.y < TOY.q - point.y:
                low += 1
        assert 0 < low < 40


# hash_to_g0 outputs pinned across versions and tiers: H(attribute) must
# not move between the Encrypt that made a stored C2 ciphertext and a
# later KeyGen, or the ciphertext stops decrypting. The inputs reach the
# first, second and third candidate x and both signs of y.
KNOWN_ANSWERS = {
    "toy": (TOY, [
        (b"", 0x3DFAD472DC33E760089F5754F94A4511,
         0x2BE4A5B7A72FEFBF650342F61D52CB0D),
        (b"attribute", 0x9BBFD16A1F1E10CD825052F2BBA89E29,
         0xB045EB9B0BDCB1B0DC8016D9F3A6E3E1),
        (b"ctx_a=Lisbon", 0x14B7DDE582229F9AE14A44845327AFB7,
         0xAB5D0DC835B18163B25736E23477EC57),
        ("Où?=été".encode(), 0x55B5400135DEF1F67CA67768A5D3A866,
         0x29D62E4A2AEC5AC08F71D23F2A090FD0),
    ]),
    "small": (SMALL, [
        (b"", 0x459F042CB999784C7AB3F1E678F3D8A12448EE1BD37729845A172E1775267112,
         0x6A7618C566F5C0F03DCD1ECE5D8CF62AD3F348167E7ACA5D806E7DEC580578B4),
        (b"attribute",
         0x10541C037BBEFE0B6D59B00F495AC1260C2588749FD46CA1B5D20695ADB32D11,
         0x56A6E0C8DAB71C35826946738B53CE1F6622C2A907A657A81C5C51A6939F0608),
        (b"ctx_a=Lisbon",
         0x0F4520DA58A13F73EFD6E97D3CDFC28AF646FC7FA97DD4E95D91E62B67B6C456,
         0x0D2DF5175F16F64B44F6FA0893E2640D660E375EE7577B18924BEA797B204438),
        ("Où?=été".encode(),
         0x85F7B8D108EB6C813C8E3A813FE032DB5A0CE5F76E0E45C45FFEDABF20AFB01D,
         0x6170837B05833FDA77954C51F4B413EA925AFA30F885977F7EB596FCDD815928),
    ]),
}


@pytest.fixture(params=["pure", "compiled"])
def tier(request):
    prior = accel.active().requested
    try:
        accel.set_tier(request.param)
    except accel.CompiledBackendUnavailable:
        pytest.skip("compiled tier unavailable on this machine")
    yield request.param
    accel.set_tier(prior)


@pytest.mark.parametrize("preset", sorted(KNOWN_ANSWERS))
def test_known_answers(tier, preset):
    params, answers = KNOWN_ANSWERS[preset]
    for data, x, y in answers:
        assert hash_to_g0(params, data) == params.point(x, y), data
