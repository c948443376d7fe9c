"""The supersingular (PBC "type A") elliptic curve E: y^2 = x^3 + x.

Over GF(q) with q ≡ 3 (mod 4) this curve is supersingular with exactly
q + 1 points, embedding degree 2, and admits the distortion map
phi(x, y) = (-x, i*y) into E(GF(q^2)) — the classical setting for a
*symmetric* bilinear pairing e: G0 x G0 -> GF(q^2), which is what the
paper's CP-ABE construction (section III-A/C) assumes.

G0 is the order-r subgroup of E(GF(q)), reached by multiplying random
curve points by the cofactor h = (q + 1) / r. Scalar multiplication uses
Jacobian coordinates internally to avoid per-step modular inversions; on
the compiled tier the whole ladder runs in the GMP kernel.
"""

from __future__ import annotations

import secrets
from dataclasses import dataclass

from repro.crypto.numbers import is_prime, modinv

__all__ = ["CurveParams", "Point"]

# Installed by repro.crypto.accel: the compiled kernel table (its ec_mul
# replaces ec_mul_pure, its powmod the builtin pow in lift_x), or None on
# the pure tier.
_KERNELS = None


@dataclass(frozen=True)
class CurveParams:
    """Parameters of a type-A pairing group.

    ``q``  — base-field prime, q ≡ 3 (mod 4);
    ``r``  — prime order of G0, with r | q + 1;
    ``h``  — cofactor, h = (q + 1) / r.
    """

    q: int
    r: int
    h: int
    name: str = "custom"

    def __post_init__(self) -> None:
        if self.q % 4 != 3:
            raise ValueError("type-A base prime must satisfy q ≡ 3 (mod 4)")
        if self.h * self.r != self.q + 1:
            raise ValueError("cofactor mismatch: h * r != q + 1")

    def validate(self) -> None:
        """Full (slow) validation including primality checks."""
        if not is_prime(self.q):
            raise ValueError("q is not prime")
        if not is_prime(self.r):
            raise ValueError("r is not prime")

    # -- point constructors ------------------------------------------------------

    def infinity(self) -> "Point":
        return Point(self, 0, 0, infinity=True)

    def point(self, x: int, y: int) -> "Point":
        p = Point(self, x % self.q, y % self.q)
        if not p.is_on_curve():
            raise ValueError("(%d, %d) is not on y^2 = x^3 + x" % (x, y))
        return p

    def lift_x(self, x: int) -> "Point | None":
        """The curve point with this x (canonical y), or None if x^3+x is a
        non-residue.

        Since q ≡ 3 (mod 4), y = rhs^((q+1)/4) is a square root of rhs
        whenever rhs has one, so one exponentiation (the kernel's GMP
        ``powmod`` on the compiled tier) both finds the root and, squared
        back, decides residuosity. The canonical root is min(y, q - y).
        """
        q = self.q
        x %= q
        rhs = (x * x * x + x) % q
        powmod = _KERNELS.powmod if _KERNELS is not None else pow
        y = powmod(rhs, (q + 1) >> 2, q)
        if y * y % q != rhs:
            return None
        return Point(self, x, min(y, q - y))

    def random_point(self) -> "Point":
        """Uniformly random point of E(GF(q)) (any order)."""
        while True:
            x = secrets.randbelow(self.q)
            p = self.lift_x(x)
            if p is not None:
                if secrets.randbelow(2):
                    p = -p
                return p

    def random_g0(self) -> "Point":
        """Uniformly random point of the prime-order subgroup G0, never O."""
        while True:
            p = self.random_point() * self.h
            if not p.infinity:
                return p

    def __repr__(self) -> str:
        return (
            f"CurveParams(name={self.name!r}, |q|={self.q.bit_length()} bits, "
            f"|r|={self.r.bit_length()} bits)"
        )


def ec_mul_pure(q: int, x: int, y: int, k: int) -> "tuple[int, int] | None":
    """``k * (x, y)`` on y^2 = x^3 + x over GF(q); ``None`` is infinity.

    Double-and-add in Jacobian coordinates (X/Z^2, Y/Z^3) with mixed
    addition of the affine base, so the whole ladder costs one inversion.
    This is the reference tier; the compiled tier runs the same ladder
    in ``_kernel.c`` (``spx_ec_mul``).
    """
    if k == 0:
        return None
    x, y, k = x % q, (y if k > 0 else -y) % q, abs(k)

    def jdouble(X: int, Y: int, Z: int) -> tuple[int, int, int]:
        if Z == 0 or Y == 0:
            return 0, 1, 0
        YY = Y * Y % q
        S = 4 * X * YY % q
        ZZ = Z * Z % q
        # M = 3 X^2 + a Z^4 with a = 1
        M = (3 * X * X + ZZ * ZZ) % q
        X2 = (M * M - 2 * S) % q
        Y2 = (M * (S - X2) - 8 * YY * YY) % q
        Z2 = 2 * Y * Z % q
        return X2, Y2, Z2

    def jadd(X1: int, Y1: int, Z1: int) -> tuple[int, int, int]:
        """(X1, Y1, Z1) + (x, y, 1)."""
        if Z1 == 0:
            return x, y, 1
        Z1Z1 = Z1 * Z1 % q
        U2 = x * Z1Z1 % q
        S2 = y * Z1 * Z1Z1 % q
        if X1 == U2:
            if Y1 != S2:
                return 0, 1, 0  # P + (-P)
            return jdouble(X1, Y1, Z1)
        H = (U2 - X1) % q
        HH = H * H % q
        HHH = H * HH % q
        Rv = (S2 - Y1) % q
        V = X1 * HH % q
        X3 = (Rv * Rv - HHH - 2 * V) % q
        Y3 = (Rv * (V - X3) - Y1 * HHH) % q
        Z3 = Z1 * H % q
        return X3, Y3, Z3

    Xr, Yr, Zr = 0, 1, 0  # point at infinity
    for bit in bin(k)[2:]:
        Xr, Yr, Zr = jdouble(Xr, Yr, Zr)
        if bit == "1":
            Xr, Yr, Zr = jadd(Xr, Yr, Zr)

    if Zr == 0:
        return None
    z_inv = modinv(Zr, q)
    z_inv2 = z_inv * z_inv % q
    return Xr * z_inv2 % q, Yr * z_inv2 * z_inv % q


class Point:
    """An affine point on a type-A curve (or the point at infinity)."""

    __slots__ = ("curve", "x", "y", "infinity")

    def __init__(self, curve: CurveParams, x: int, y: int, infinity: bool = False):
        object.__setattr__(self, "curve", curve)
        object.__setattr__(self, "x", 0 if infinity else x % curve.q)
        object.__setattr__(self, "y", 0 if infinity else y % curve.q)
        object.__setattr__(self, "infinity", infinity)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Point is immutable")

    # -- predicates ----------------------------------------------------------------

    def is_on_curve(self) -> bool:
        if self.infinity:
            return True
        q = self.curve.q
        return (self.y * self.y - (self.x * self.x * self.x + self.x)) % q == 0

    def has_order_r(self) -> bool:
        """True for points of exact order r (i.e. nontrivial G0 members)."""
        return not self.infinity and (self * self.curve.r).infinity

    # -- group law -------------------------------------------------------------------

    def __neg__(self) -> "Point":
        if self.infinity:
            return self
        return Point(self.curve, self.x, -self.y)

    def __add__(self, other: "Point") -> "Point":
        if not isinstance(other, Point):
            return NotImplemented
        if self.curve is not other.curve and self.curve != other.curve:
            raise ValueError("points on different curves")
        if self.infinity:
            return other
        if other.infinity:
            return self
        q = self.curve.q
        if self.x == other.x:
            if (self.y + other.y) % q == 0:
                return self.curve.infinity()
            # doubling; curve is y^2 = x^3 + a x with a = 1
            slope = (3 * self.x * self.x + 1) * modinv(2 * self.y, q) % q
        else:
            slope = (other.y - self.y) * modinv(other.x - self.x, q) % q
        x3 = (slope * slope - self.x - other.x) % q
        y3 = (slope * (self.x - x3) - self.y) % q
        return Point(self.curve, x3, y3)

    def __sub__(self, other: "Point") -> "Point":
        if not isinstance(other, Point):
            return NotImplemented
        return self + (-other)

    def __mul__(self, scalar: int) -> "Point":
        if not isinstance(scalar, int):
            return NotImplemented
        return self._scalar_mul(scalar)

    __rmul__ = __mul__

    def _scalar_mul(self, scalar: int) -> "Point":
        """``scalar * self`` on the installed tier's ladder."""
        if self.infinity:
            return self
        ec_mul = _KERNELS.ec_mul if _KERNELS is not None else ec_mul_pure
        xy = ec_mul(self.curve.q, self.x, self.y, scalar)
        if xy is None:
            return self.curve.infinity()
        return Point(self.curve, xy[0], xy[1])

    # -- encoding --------------------------------------------------------------------

    def to_bytes(self) -> bytes:
        """Uncompressed encoding: 0x00 for infinity, else 0x04 || x || y."""
        if self.infinity:
            return b"\x00"
        width = (self.curve.q.bit_length() + 7) // 8
        return b"\x04" + self.x.to_bytes(width, "big") + self.y.to_bytes(width, "big")

    @classmethod
    def from_bytes(cls, curve: CurveParams, data: bytes) -> "Point":
        if data == b"\x00":
            return curve.infinity()
        width = (curve.q.bit_length() + 7) // 8
        if len(data) != 1 + 2 * width or data[0] != 0x04:
            raise ValueError("malformed point encoding")
        x = int.from_bytes(data[1 : 1 + width], "big")
        y = int.from_bytes(data[1 + width :], "big")
        return curve.point(x, y)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Point):
            return NotImplemented
        if self.curve != other.curve:
            return False
        if self.infinity or other.infinity:
            return self.infinity and other.infinity
        return self.x == other.x and self.y == other.y

    def __hash__(self) -> int:
        return hash((self.curve.q, self.curve.r, self.infinity, self.x, self.y))

    def __repr__(self) -> str:
        if self.infinity:
            return "Point(infinity)"
        return f"Point({self.x}, {self.y})"
