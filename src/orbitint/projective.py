"""Points of the projective line over Q in normalized integer coordinates.

Normalization: coprime integer coordinates with the last nonzero coordinate
positive.  Infinity is [1:0].  With these coordinates the chordal
distance of two points at a prime p is |a0*b1 - a1*b0|_p, so integrality
reads the cross term alone (``integrality.cross_term``).
"""

from __future__ import annotations

import math
from fractions import Fraction

from .exactarith import Record, decimal_str, parse_rational


class ProjectiveError(ValueError):
    pass


class ProjPoint(Record):
    """Normalized point [a0:a1] of P1(Q)."""

    __slots__ = _fields = ("a0", "a1")

    def __init__(self, a0: int, a1: int):
        if a0 == 0 and a1 == 0:
            raise ProjectiveError("not a projective point")
        g = math.gcd(a0, a1)
        self._set_signed(a0 // g, a1 // g)

    def _set_signed(self, a0: int, a1: int) -> None:
        if a1 < 0 or (a1 == 0 and a0 < 0):
            a0, a1 = -a0, -a1
        self.a0 = a0
        self.a1 = a1

    @classmethod
    def _from_coprime(cls, a0: int, a1: int) -> "ProjPoint":
        """[a0:a1] for coprime a0, a1, not both zero: only the sign is
        fixed, with no gcd.  The caller vouches for coprimality."""
        pt = object.__new__(cls)
        pt._set_signed(a0, a1)
        return pt

    def to_affine(self) -> Fraction | None:
        """Affine value a0/a1, or None for the point at infinity."""
        if self.a1 == 0:
            return None
        return Fraction(self.a0, self.a1)

    def serialize(self) -> str:
        return f"[{decimal_str(self.a0)}:{decimal_str(self.a1)}]"

    def __repr__(self) -> str:
        return f"ProjPoint({decimal_str(self.a0)}, {decimal_str(self.a1)})"


INFINITY = ProjPoint(1, 0)


def normalize(x0: Fraction | int, x1: Fraction | int) -> ProjPoint:
    """The unique normalized representative of [x0:x1], rational inputs ok."""
    x0, x1 = Fraction(x0), Fraction(x1)
    if x0 == 0 and x1 == 0:
        raise ProjectiveError("not a projective point")
    m = x0.denominator * x1.denominator
    return ProjPoint(int(x0 * m), int(x1 * m))


def from_affine(x: Fraction | int | None) -> ProjPoint:
    """Affine rational -> [num:den]; None -> [1:0]."""
    if x is None:
        return INFINITY
    x = Fraction(x)
    return ProjPoint(x.numerator, x.denominator)


def parse_point(text: str) -> ProjPoint:
    """Parse "[a0:a1]", affine shorthand "x" (rational), or "inf"."""
    text = text.strip()
    if text in ("inf", "oo", "infinity"):
        return INFINITY
    if text.startswith("["):
        if not text.endswith("]") or text.count(":") != 1:
            raise ProjectiveError(f"cannot parse projective point: {text!r}")
        left, right = text[1:-1].split(":")
        return normalize(parse_rational(left), parse_rational(right))
    return from_affine(parse_rational(text))
