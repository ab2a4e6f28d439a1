import enum
import hashlib
import json
import random
import sys
from collections import OrderedDict
from decimal import Decimal

import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from sympy import isprime as sympy_isprime

from orbitint.primes import factor, factor_partial, is_prime, prime_factors
from orbitint.report import format_big_int, format_fraction, render_json
from fractions import Fraction


def unlimited_str(n: int) -> str:
    """str(n) with the int-to-str digit limit lifted for this call only."""
    if not hasattr(sys, "set_int_max_str_digits"):  # Python without the limit
        return str(n)
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(n)
    finally:
        sys.set_int_max_str_digits(old)


class TestPrimality:
    def test_small_range_against_sympy(self):
        for n in range(-2, 2000):
            assert is_prime(n) == bool(sympy_isprime(n))

    @given(st.integers(min_value=2, max_value=10**12))
    def test_matches_sympy(self, n):
        assert is_prime(n) == bool(sympy_isprime(n))

    def test_large_prime(self):
        assert is_prime(2**89 - 1)  # Mersenne prime
        assert not is_prime(2**89 + 1)


class TestFactor:
    def test_examples(self):
        assert factor(360) == {2: 3, 3: 2, 5: 1}
        assert factor(-17) == {17: 1}
        assert factor(1) == {}
        assert list(prime_factors(360)) == [2, 3, 5]

    def test_reconstruction_random(self):
        rng = random.Random(5)
        for _ in range(200):
            n = rng.randint(2, 10**12)
            fs = factor(n)
            prod = 1
            for p, e in fs.items():
                assert is_prime(p)
                prod *= p**e
            assert prod == n

    def test_partial_is_consistent(self):
        n = 2**5 * 10**20 + 1  # arbitrary composite
        found, leftover = factor_partial(n)
        prod = leftover
        for p, e in found.items():
            assert is_prime(p)
            prod *= p**e
        assert prod == n


class TestBigIntFormat:
    def test_small_passthrough(self):
        assert format_big_int(0) == "0"
        assert format_big_int(-(10**79)) == str(-(10**79))

    def test_elision(self):
        n = 10**100 + 7
        s = format_big_int(n)
        assert s.startswith(str(n)[:12])
        assert "[101 digits, sha256:" in s
        h = hashlib.sha256(str(n).encode()).hexdigest()[:16]
        assert h in s

    def test_beyond_int_str_limit(self):
        # 5926 digits, past the default 4300-digit int-to-str limit
        n = 2**19683
        body = unlimited_str(n)
        h = hashlib.sha256(body.encode()).hexdigest()[:16]
        assert format_big_int(n) == f"{body[:12]}...[{len(body)} digits, sha256:{h}]"
        h = hashlib.sha256(("-" + body).encode()).hexdigest()[:16]
        assert format_big_int(-n) == f"-{body[:12]}...[{len(body)} digits, sha256:{h}]"

    def test_negative_elision(self):
        s = format_big_int(-(10**100))
        assert s.startswith("-")
        assert "101 digits" in s

    def test_fraction(self):
        assert format_fraction(Fraction(-3, 7)) == "-3/7"
        assert format_fraction(Fraction(5)) == "5"


def stdlib_json(doc):
    """The reference: json.dumps(doc, indent=2, sort_keys=True), or the
    type of the exception it raises."""
    try:
        return json.dumps(doc, indent=2, sort_keys=True)
    except (TypeError, ValueError) as exc:
        return type(exc)


def written_json(doc):
    try:
        return render_json(doc)
    except (TypeError, ValueError) as exc:
        return type(exc)


class _Int(enum.IntEnum):
    SEVEN = 7


class _Str(str):
    def __str__(self):
        return "not this"


class _Float(float):
    def __repr__(self):
        return "not this"


class _List(list):
    pass


SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(-(10**120), 10**120),
    st.floats(),
    st.sampled_from([0.0, -0.0, 1e16, 1e-7, float("nan"), float("inf"), float("-inf")]),
    # non-ASCII, control characters, quotes, backslashes, lone surrogates
    st.text(),
    st.text(st.sampled_from('\x00\x1f\x7f"\\/\u00e9\u2028\ud800\U0001f600 aZ')),
)
KEYS = st.one_of(st.text(), st.sampled_from(["", "a", "A", "\u00e9", "\x00", "body"]))
DOCS = st.recursive(
    SCALARS,
    lambda kids: st.one_of(
        st.lists(kids, max_size=4),
        st.lists(kids, max_size=4).map(tuple),
        st.dictionaries(KEYS, kids, max_size=4),
        # one key type per dict: mixed types are unsortable in both
        st.dictionaries(st.integers(), kids, max_size=3),
        st.dictionaries(st.floats(), kids, max_size=3),
        st.dictionaries(st.sampled_from([True, False, None]), kids, max_size=1),
    ),
    max_leaves=24,
)


class TestRenderJson:
    @given(DOCS)
    @example({})
    @example([])
    @example({"a": [], "b": {}, "c": [{}], "d": ()})
    @example([0.0, -0.0, 1e16, 1e-7, float("nan"), float("inf"), float("-inf")])
    @example({float("inf"): [-(10**100), True, None], -0.0: "\u00e9\x00"})
    @example({"pairs": [{"m": 0, "n": 1, "witness": {"cross_term": "-12", "verdict": True}}]})
    def test_equals_stdlib(self, doc):
        assert written_json(doc) == stdlib_json(doc)

    def test_subclasses_render_as_their_base(self):
        doc = {
            "int": _Int.SEVEN,
            "str": _Str("s\u00e9"),
            "float": _Float(0.5),
            "list": _List([1, _Float(-0.0)]),
            "dict": OrderedDict([("b", 1), ("a", 2)]),
            _Str("key"): None,
        }
        assert render_json(doc) == json.dumps(doc, indent=2, sort_keys=True)
        assert render_json({1.5: 1, 2: 2.5}) == json.dumps({1.5: 1, 2: 2.5}, indent=2)

    @pytest.mark.parametrize(
        "doc", [{1, 2}, [Decimal(1)], {"a": object()}, {(1, 2): 3}, {b"k": 1}]
    )
    def test_unsupported_objects_raise_stdlib_type_error(self, doc):
        with pytest.raises(TypeError) as expected:
            json.dumps(doc, indent=2, sort_keys=True)
        with pytest.raises(TypeError) as got:
            render_json(doc)
        assert str(got.value) == str(expected.value)

    @pytest.mark.skipif(
        not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str limit"
    )
    def test_int_past_str_limit_raises_like_stdlib(self):
        doc = {"n": [10**5000]}
        with pytest.raises(ValueError) as expected:
            json.dumps(doc, indent=2, sort_keys=True)
        with pytest.raises(ValueError) as got:
            render_json(doc)
        assert str(got.value) == str(expected.value)
