"""Foundation types: the value-record base class, exact rationals, prime
place sets, prime-power splitting and S-free parts, and decimal strings of
any length (read and written).  Everything here is exact: no floats.

Rationals are ``fractions.Fraction`` throughout -- already canonical
(reduced, positive denominator).  A :class:`PlaceSet` holds finite rational
primes only; the archimedean place is always implicitly a member and is
never stored.
"""

from __future__ import annotations

import re
import sys
from collections.abc import Iterable
from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Decimal, Inexact, localcontext
from fractions import Fraction
from operator import attrgetter

from .primes import factor, is_prime


class ExactArithError(ValueError):
    pass


class Record:
    """Value semantics over the attribute names in ``_fields``: equal to an
    instance of the same class with equal fields (``NotImplemented`` for any
    other class), hashed as the field values, shown as ``Name(field=value,
    ...)`` with ints in full.  A subclass that writes no ``__init__`` gets
    one that takes and stores its ``__slots__`` (or fields) in order, with
    the immutable defaults in ``_defaults``.  Only ``__init__`` assigns a
    slot, so instances are immutable values by convention."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _defaults: dict[str, object] = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # one C getter per class reads the field values: points key the
        # classifier's seen dict, so a Python loop over _fields would cost
        # the pair search a few percent per op
        cls._values = staticmethod(attrgetter(*cls._fields))
        if "__init__" not in cls.__dict__:
            # compiled once, as namedtuple builds its __new__: the signature
            # and stores of a hand-written __init__, with no loop per call
            names, defaults = cls.__dict__.get("__slots__", cls._fields), cls._defaults
            params = "".join(f", {f}=_d[{f!r}]" if f in defaults else f", {f}" for f in names)
            stores = "".join(f"\n self.{f} = {f}" for f in names)
            namespace = {"_d": defaults, "__name__": cls.__module__}
            exec(f"def __init__(self{params}):{stores}", namespace)
            namespace["__init__"].__qualname__ = f"{cls.__qualname__}.__init__"
            cls.__init__ = namespace["__init__"]

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        values = self._values
        return values(self) == values(other)

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={_repr(getattr(self, name))}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


def _repr(v) -> str:
    """``repr(v)``, with each int, also inside tuples, written by
    :func:`decimal_str`: ``repr`` refuses an int past the int-to-str limit."""
    if type(v) is int:
        return decimal_str(v)
    if type(v) is tuple:
        items = ", ".join(map(_repr, v))
        return f"({items},)" if len(v) == 1 else f"({items})"
    return repr(v)


class PlaceSet(Record):
    """A finite sorted set of rational primes (archimedean place implicit)."""

    __slots__ = _fields = ("primes",)

    def __init__(self, primes: tuple[int, ...] = ()):
        ps = tuple(sorted(set(primes)))
        for p in ps:
            try:  # is_prime's time grows as the cube of p's length, and serialize writes p by str
                str(p)
            except ValueError:
                raise ExactArithError(f"{int_text(p)} is past the int-to-str limit of "
                                      f"{sys.get_int_max_str_digits()} digits") from None
            if not is_prime(p):
                raise ExactArithError(f"{int_text(p)} is not prime")
        self.primes = ps

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
    def dividing(cls, *ns: int) -> "PlaceSet":
        """The primes that divide any of the nonzero integers ``ns``."""
        return cls(tuple(p for n in ns for p in factor(n)))

    @classmethod
    def parse(cls, text: str) -> "PlaceSet":
        """Parse comma-separated primes, e.g. ``"2,3,7"``; "" is empty."""
        text = text.strip()
        if not text:
            return cls()
        primes = []
        for tok in text.split(","):
            try:
                primes.append(read_int(tok))
            except ValueError:
                raise ExactArithError(
                    f"cannot parse prime {quoted(tok)} in {quoted(text)}") from None
        return cls(tuple(primes))

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


def quoted(text: str) -> str:
    """``repr(text)``, or past ``ELISION_DIGITS`` characters its head and length."""
    return repr(text) if len(text) <= ELISION_DIGITS else f"{text[:12]!r}...[{len(text)} chars]"


def int_text(n: int) -> str:
    """``str(n)`` below 2^64 in magnitude, else n named by its digit count."""
    return str(n) if abs(n) < 2**64 else "-" * (n < 0) + f"[{len(decimal_str(abs(n)))} digits]"


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


# ``int(s)`` reads at most this many digits: fewer than any int-to-str
# limit Python accepts (640 or more), and cheap in its quadratic conversion
_READ_DIGITS = 512


def read_digits(s: str) -> int:
    """``int(s)`` for a string of decimal digits of any length, in
    subquadratic time: s splits at a power of ten into two halves, each
    read recursively, and the halves are recombined by one integer
    multiplication.  ``int(s)`` refuses more than 4300 digits, and
    ``int(Decimal(s))`` converts in quadratic time."""
    powers: dict[int, int] = {}

    def read(t: str) -> int:
        if len(t) <= _READ_DIGITS:
            return int(t)
        k = len(t) >> 1
        if k not in powers:
            powers[k] = 10**k
        return read(t[:-k]) * powers[k] + read(t[-k:])

    return read(s)


def read_int(text: str) -> int:
    """``int(text)``, with no digit limit: past Python's int-to-str limit, ``int`` reads
    the text with 0 for the digits of ``_RATIONAL``'s match, which :func:`read_digits` reads."""
    try:
        return int(text)
    except ValueError:
        m = _RATIONAL.match(text)
        if m is None:
            raise
    int(text[: m.start("num")] + "0" + text[m.end("num") :])  # int's grammar around the digits
    return read_digits(m["num"].replace("_", "")) * (-1 if m["sign"] == "-" else 1)


# the most decimal digits that a power written in an input (an exponent
# form of a rational, a constant power in a map expression) may build
POWER_DIGIT_CAP = 10**6
ELISION_DIGITS = 80  # the most digits a report writes, or characters an error quotes, whole


def parse_rational(text: str) -> Fraction:
    """Parse a rational as ``Fraction(text)`` does ("p/q", "n", "-1.5e3",
    "1_000", ...), with no limit on the number of digits, and build it as
    ``Fraction`` does, a decimal form as its digits over a power of ten, from
    integers read by :func:`read_int`.  An exponent past ``POWER_DIGIT_CAP``
    is refused by its digits, before it is read."""
    m = _RATIONAL.match(text)
    if m is None:
        raise ExactArithError(f"Invalid literal for Fraction: {quoted(text)}")
    dec = (m["dec"] or "").replace("_", "")
    num, den = read_int(m["num"] + dec), read_int(m["den"] or "1") * 10 ** len(dec)
    if den == 0:
        raise ExactArithError(f"zero denominator: {quoted(text)}")
    if (exp := m["exp"]) is not None:
        digits = exp.lstrip("+-").replace("_", "")
        # a nonzero digit (of any script) ahead of the last len(str(cap)) is past it
        over = any(map(int, set(digits[: -len(str(POWER_DIGIT_CAP))])))
        if over or abs(e := read_int(exp)) > POWER_DIGIT_CAP:
            sign = "-" if exp.startswith("-") else ""
            shown = exp if len(exp) <= ELISION_DIGITS else f"{sign}[{len(digits)} digits]"
            raise ExactArithError(f"exponent {shown} of {quoted(text.strip())} is past the "
                                  f"power digit cap {POWER_DIGIT_CAP}")
        num, den = (num * 10**e, den) if e >= 0 else (num, den * 10**-e)
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
