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

from orbitint import PairWindow, PlaceSet, find_integral_pairs, parse_map, parse_point
from orbitint import report
from orbitint.primes import factor, factor_partial, is_prime
from orbitint.report import format_big_int, format_fraction, pair_report_doc, render_json
from fractions import Fraction

from conftest import unlimited_str


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
    pass


class _List(list):
    pass


class _Dict(dict):
    pass


# the values reports hold: dicts with str keys, lists, tuples, str, int, bool
# and None, each of exactly that type
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(-(10**120), 10**120),
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
    ),
    max_leaves=24,
)

# values a report never holds: floats, subclasses of str, int, list and
# dict, and other objects
NOT_REPORT_VALUES = st.one_of(
    st.floats(),
    st.builds(_Str, st.text(max_size=3)),
    st.just(_Int.SEVEN),
    st.builds(_List, st.lists(st.integers(), max_size=2)),
    st.builds(_Dict, st.dictionaries(KEYS, st.integers(), max_size=2)),
    st.builds(OrderedDict, st.dictionaries(KEYS, st.integers(), max_size=2)),
    st.sampled_from([{1, 2}, frozenset(), Decimal(1), Fraction(1, 2), 1j, b"k", object()]),
)
NON_STR_KEYS = st.one_of(
    st.integers(), st.floats(), st.booleans(), st.none(),
    st.tuples(st.integers()), st.binary(),
)


@st.composite
def tainted_docs(draw):
    """A report document with one value it may not hold, or one dict with a
    non-str key, at any depth among report values."""
    if draw(st.booleans()):
        bad = draw(NOT_REPORT_VALUES)
    else:
        bad = draw(st.dictionaries(KEYS, DOCS, max_size=2))
        bad[draw(NON_STR_KEYS)] = draw(DOCS)
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["list", "tuple", "dict"]))
        if kind == "dict":
            outer = draw(st.dictionaries(KEYS, DOCS, max_size=2))
            outer[draw(KEYS)] = bad
        else:
            outer = draw(st.lists(DOCS, max_size=2))
            outer.insert(draw(st.integers(0, len(outer))), bad)
            if kind == "tuple":
                outer = tuple(outer)
        bad = outer
    return bad


@st.composite
def shared_docs(draw):
    """Documents in which dict objects recur: as list siblings, at different
    depths and inside each other."""
    pool = []
    for i in range(draw(st.integers(1, 4))):
        kids = st.one_of(DOCS, st.sampled_from(pool)) if pool else DOCS
        pool.append(draw(st.dictionaries(KEYS, kids, min_size=1, max_size=3)))
    shared = st.sampled_from(pool)
    node = st.recursive(
        st.one_of(shared, SCALARS),
        lambda kids: st.one_of(
            st.lists(kids, max_size=5),
            st.lists(kids, max_size=3).map(tuple),
            st.dictionaries(KEYS, kids, max_size=3),
        ),
        max_leaves=16,
    )
    return draw(st.lists(node, min_size=1, max_size=4))


# any character, with those a JSON string may not hold as they are drawn
# often: quotes, backslashes, control characters, DEL, non-ASCII and lone
# surrogates
SPECIAL_CHARS = st.one_of(
    st.characters(exclude_categories=()),
    st.sampled_from('"\\\x00\x1f\x7f\u00e9\u2028\ud800\udfff\U0001f600'),
)


@st.composite
def long_strings(draw):
    """Strings of at least ``report._SCAN_MIN`` characters: printable ASCII
    other than '"' and '\\', which the writer copies as it is, with up to
    three characters from anywhere in Unicode put in, which send it to the
    escaper."""
    text = draw(st.text(
        st.characters(min_codepoint=0x20, max_codepoint=0x7E, exclude_characters='"\\'),
        min_size=report._SCAN_MIN, max_size=report._SCAN_MIN + 64,
    ))
    for c in draw(st.lists(SPECIAL_CHARS, max_size=3)):
        i = draw(st.integers(0, len(text)))
        text = text[:i] + c + text[i:]
    return text


@pytest.fixture
def sentinel_renders(monkeypatch):
    """(sentinel, renders): a value to put in a dict, and the list that
    records each time the writer renders it, so each render of the dict."""
    sentinel, renders = ["sentinel"], []
    json_value = report._json_value

    def counting(o, newline, memo, *rest):
        if o is sentinel:
            renders.append(newline)
        return json_value(o, newline, memo, *rest)

    monkeypatch.setattr(report, "_json_value", counting)
    return sentinel, renders


class TestRenderJson:
    @given(DOCS)
    @example({})
    @example([])
    @example({"a": [], "b": {}, "c": [{}], "d": ()})
    @example({"n": [-(10**100), True, None], "\u00e9": "\u00e9\x00"})
    @example({"pairs": [{"m": 0, "n": 1, "witness": {"cross_term": "-12", "verdict": True}}]})
    def test_equals_stdlib(self, doc):
        assert written_json(doc) == stdlib_json(doc)

    @given(long_strings())
    @example("a" * report._SCAN_MIN)
    @example("a" * (report._SCAN_MIN - 1) + '"')
    @example("\\" + "a" * report._SCAN_MIN)
    @example("a" * report._SCAN_MIN + "\x7f")
    @example("\x1f" + "a" * report._SCAN_MIN)
    @example("\u00e9" * report._SCAN_MIN)
    @example("a" * report._SCAN_MIN + "\ud800")
    def test_long_strings_equal_stdlib(self, text):
        for doc in (text, {"k": [text, text[::-1]]}):
            assert render_json(doc) == json.dumps(doc, indent=2, sort_keys=True)

    @given(tainted_docs())
    @example([0.5])
    @example({"a": {1: None}})
    @example(({"b": [_Str("s")]},))
    def test_values_outside_reports_raise_type_error(self, doc):
        with pytest.raises(TypeError):
            render_json(doc)

    @given(shared_docs())
    @example([{"a": 1}] * 3)
    @example([{"b": [1]}, [{"b": [1]}]])
    def test_shared_dicts_equal_stdlib(self, doc):
        assert written_json(doc) == stdlib_json(doc)

    def test_explicit_sharing_equals_stdlib(self):
        leaf = {"cross_term": "-12", "verdict": True}
        sub = dict(z=leaf, a=[leaf, leaf])
        doc = {"pairs": [{"m": m, "witness": leaf} for m in range(4)],
               "deep": [[[sub, leaf]], sub], "sub": sub}
        assert render_json(doc) == json.dumps(doc, indent=2, sort_keys=True)

    @pytest.mark.parametrize("k", [1, 2, 3, 10])
    def test_dict_shared_k_times_renders_at_most_twice(self, k, sentinel_renders):
        sentinel, renders = sentinel_renders
        d = {"b": [1, {"c": None}], "a": "x", "s": sentinel}
        assert render_json([d] * k) == json.dumps([d] * k, indent=2, sort_keys=True)
        assert len(renders) == min(k, 2)

    def test_memo_is_per_indent(self, sentinel_renders):
        sentinel, renders = sentinel_renders
        d = {"a": [1, 2], "s": sentinel}
        doc = {"x": [d, d, d, d], "y": d, "z": [[d]]}
        assert render_json(doc) == json.dumps(doc, indent=2, sort_keys=True)
        assert len(renders) == 2 + 1 + 1  # twice at x's indent, once at y's, once at z's
        renders.clear()
        render_json(doc)
        assert len(renders) == 4  # the memo lives inside one call

    def test_subclasses_are_refused(self):
        # json.dumps writes each of these as its base; a report holds none
        for value in (_Int.SEVEN, _Str("s\u00e9"), _List([1]), _Dict(a=1),
                      OrderedDict(a=1), 0.5):
            json.dumps({"v": value}, indent=2, sort_keys=True)
            with pytest.raises(TypeError):
                render_json({"v": value})

    @pytest.mark.parametrize(
        "doc", [{1, 2}, [Decimal(1)], {"a": object()}, {(1, 2): 3}, {b"k": 1}]
    )
    def test_unsupported_objects_raise_stdlib_type_error(self, doc):
        with pytest.raises(TypeError):
            json.dumps(doc, indent=2, sort_keys=True)
        with pytest.raises(TypeError):
            render_json(doc)

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


class TestPairReportDoc:
    def test_cells_share_the_dict_of_their_witness_object(self):
        # x^2+1 from 1/2 against the fixed point inf: the 49 cells of the 6x6
        # window hold 7 witness objects, one per point of u's orbit
        report = find_integral_pairs(
            parse_map("x^2+1"), parse_point("1/2"), parse_point("inf"),
            PlaceSet.parse("2"), PairWindow(6, 6),
        )
        cells = pair_report_doc(report)["pairs"]
        assert len(cells) == 49
        wits = [report.witnesses[(c["m"], c["n"])] for c in cells]
        assert len({id(w) for w in wits}) == 7
        for cell, wit in zip(cells, wits):
            assert cell["witness"] == {
                "verdict": True,
                "cross_term": format_big_int(wit.cross_term),
                "violating_primes": [],
                "factorization_complete": True,
            }
        for ci, wi in zip(cells, wits):
            for cj, wj in zip(cells, wits):
                assert (ci["witness"] is cj["witness"]) == (wi is wj)
