"""Foundation types: exact rationals, prime place sets, prime-power
splitting and S-free parts, decimal strings of any length, and ``log_int``,
the one float here, behind the escape certificate's diagnostic constants.

Rationals are ``fractions.Fraction`` throughout -- already canonical
(reduced, positive denominator).  A :class:`PlaceSet` holds finite rational
primes only; the archimedean place is always implicitly a member and is
never stored.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Decimal, Inexact, localcontext
from fractions import Fraction
from typing import Iterable

from .primes import is_prime

Rational = Fraction

_LOG2 = math.log(2)


class ExactArithError(ValueError):
    pass


@dataclass(frozen=True)
class PlaceSet:
    """A finite sorted set of rational primes (archimedean place implicit)."""

    primes: tuple[int, ...] = ()

    def __post_init__(self):
        ps = tuple(sorted(set(self.primes)))
        for p in ps:
            if not is_prime(p):
                raise ExactArithError(f"{p} is not prime")
        object.__setattr__(self, "primes", ps)

    def __contains__(self, p: int) -> bool:
        return p in self.primes

    def __iter__(self):
        return iter(self.primes)

    def __len__(self) -> int:
        return len(self.primes)

    def union(self, other: "PlaceSet | Iterable[int]") -> "PlaceSet":
        other_primes = other.primes if isinstance(other, PlaceSet) else tuple(other)
        return PlaceSet(self.primes + other_primes)

    @classmethod
    def parse(cls, text: str) -> "PlaceSet":
        """Parse comma-separated primes, e.g. ``"2,3,7"``; "" is empty."""
        text = text.strip()
        if not text:
            return cls()
        return cls(tuple(int(tok) for tok in text.split(",")))

    def serialize(self) -> str:
        return ",".join(str(p) for p in self.primes)


def decimal_str(n: int) -> str:
    """Decimal string of an integer of any length: ``str(n)`` within
    Python's int-to-str limit (4300 digits by default since 3.11), and past
    it through ``Decimal``, which has no limit on digits."""
    try:
        return str(n)
    except ValueError:
        return str(_to_decimal(n))


# below this many bits ``Decimal(n)``'s quadratic conversion is cheap
_SPLIT_BITS = 128


def _to_decimal(n: int) -> Decimal:
    """``Decimal(n)``, exactly, in subquadratic time (CPython 3.12's
    ``_pylong.int_to_decimal``): n = hi * 2^k + lo with k half its bit
    length, each half converted recursively, and the halves recombined in
    ``Decimal`` arithmetic at full precision, whose multiplication is
    subquadratic.  ``Decimal(n)`` itself converts in quadratic time."""
    powers: dict[int, Decimal] = {}

    def pow2(k: int) -> Decimal:
        result = powers.get(k)
        if result is None:
            if k <= _SPLIT_BITS:
                result = Decimal(1 << k)
            elif k - 1 in powers:
                result = powers[k - 1] * 2
            else:
                # the smaller half first, so the larger one is its double
                half = k >> 1
                result = pow2(half) * pow2(k - half)
            powers[k] = result
        return result

    def convert(m: int, bits: int) -> Decimal:
        if bits <= _SPLIT_BITS:
            return Decimal(m)
        half = bits >> 1
        hi = m >> half
        return convert(m - (hi << half), half) + convert(hi, bits - half) * pow2(half)

    with localcontext() as ctx:
        ctx.prec = MAX_PREC
        ctx.Emax = MAX_EMAX
        ctx.Emin = MIN_EMIN
        ctx.traps[Inexact] = True
        result = convert(abs(n), abs(n).bit_length())
        return -result if n < 0 else result


# ``Fraction(text)``'s grammar in Python 3.11
_RATIONAL = re.compile(
    r"""\A\s*(?P<sign>[-+]?)(?=\d|\.\d)(?P<num>\d*|\d+(_\d+)*)
    (?:/(?P<den>\d+(_\d+)*)
    |(?:\.(?P<dec>\d*|\d+(_\d+)*))?(?:E(?P<exp>[-+]?\d+(_\d+)*))?)\s*\Z""",
    re.VERBOSE | re.IGNORECASE,
)


def parse_rational(text: str) -> Fraction:
    """Parse a rational as ``Fraction(text)`` does ("p/q", "n", "-1.5e3",
    "1_000", ...), with no limit on the number of digits: the digits are
    read through ``Decimal``, as ``str(int)`` refuses more than 4300."""
    m = _RATIONAL.match(text)
    if m is None:
        raise ExactArithError(f"Invalid literal for Fraction: {text!r}")
    if m["den"] is None:
        return Fraction(Decimal(text.strip().replace("_", "")))
    num, den = (int(Decimal(m[g].replace("_", ""))) for g in ("num", "den"))
    if den == 0:
        raise ExactArithError(f"zero denominator: {text!r}")
    return Fraction(-num if m["sign"] == "-" else num, den)


def split_prime_power(n: int, p: int) -> tuple[int, int]:
    """(v, rest) with |n| = p^v * rest and p not dividing rest, for n != 0.

    Divides by p, p^2, p^4, ... while they divide, then by the same powers
    in descending order, so the cost is near-linear in the size of p^v.
    Each trial is one ``divmod``, whose quotient is kept when it divides."""
    if n == 0:
        raise ExactArithError("valuation of zero undefined")
    if p < 2:
        raise ExactArithError(f"{p} is not prime")
    n = abs(n)
    powers, q = [], p
    while True:
        quo, r = divmod(n, q)
        if r:
            break
        n = quo
        powers.append(q)
        q *= q
    v = (1 << len(powers)) - 1
    for k in reversed(range(len(powers))):
        quo, r = divmod(n, powers[k])
        if not r:
            n = quo
            v += 1 << k
    return v, n


def s_free_part(n: int, s: PlaceSet) -> int:
    """|n| with all factors of primes in S removed, for n != 0."""
    if n == 0:
        raise ExactArithError("S-free part of zero undefined")
    n = abs(n)
    for p in s:
        n = split_prime_power(n, p)[1]
    return n


def is_s_unit(q: Fraction | int, s: PlaceSet) -> bool:
    """True iff v_p(q) = 0 for every prime p outside S (q nonzero)."""
    q = Fraction(q)
    if q == 0:
        raise ExactArithError("zero is not an S-unit")
    return s_free_part(q.numerator, s) == 1 and s_free_part(q.denominator, s) == 1


def log_int(n: int) -> float:
    """log of a positive integer, safe for values far beyond float range."""
    if n <= 0:
        raise ExactArithError("log of non-positive integer")
    if n.bit_length() <= 900:
        return math.log(n)
    shift = n.bit_length() - 64
    return math.log(n >> shift) + shift * _LOG2
