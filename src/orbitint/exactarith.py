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
            if not is_prime(p):
                raise ExactArithError(f"{p} is not prime")
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
                primes.append(int(tok))
            except ValueError:
                raise ExactArithError(f"cannot parse prime {tok!r} in {text!r}") from None
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


# the most decimal digits that a power written in an input (an exponent
# form of a rational, a constant power in a map expression) may build
POWER_DIGIT_CAP = 10**6


def parse_rational(text: str) -> Fraction:
    """Parse a rational as ``Fraction(text)`` does ("p/q", "n", "-1.5e3",
    "1_000", ...), with no limit on the number of digits: integers and
    "p/q" are read by :func:`read_digits`, decimal and exponent forms
    through ``Decimal``.  An exponent past ``POWER_DIGIT_CAP`` is refused
    before the power of ten is built."""
    m = _RATIONAL.match(text)
    if m is None:
        raise ExactArithError(f"Invalid literal for Fraction: {text!r}")
    if m["exp"] is not None and abs(int(m["exp"])) > POWER_DIGIT_CAP:
        raise ExactArithError(
            f"exponent {m['exp']} of {text.strip()!r} is past the power digit "
            f"cap {POWER_DIGIT_CAP}"
        )
    if m["dec"] is not None or m["exp"] is not None:
        return Fraction(Decimal(text.strip().replace("_", "")))
    num = read_digits(m["num"].replace("_", ""))
    den = 1 if m["den"] is None else read_digits(m["den"].replace("_", ""))
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
