import time
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from orbitint import mapexpr
from orbitint.exactarith import POWER_DIGIT_CAP
from orbitint.mapexpr import (
    ParseError,
    parse_coefficient_format,
    parse_map,
    parse_rational_function,
)
from orbitint.ratmap import MAP_DEGREE_CAP, make_map

from conftest import CORPUS_EXPRS


class TestExpressionParsing:
    def test_polynomial(self):
        num, den = parse_rational_function("x^2 + 1")
        assert num == [Fraction(1), Fraction(0), Fraction(1)]
        assert den == [Fraction(1)]

    def test_rational_constant_coefficient(self):
        f = parse_map("x^2 + 1/2")
        assert f.p == (2, 0, 1) and f.q == (0, 0, 2)

    def test_adjacency_multiplies(self):
        assert parse_map("2x^2+3x+1") == make_map([2, 3, 1], [1])
        assert parse_map("2(x^2+1) - x^2") == make_map([1, 0, 2], [1])

    def test_quotient(self):
        f = parse_map("(x^2+1)/x")
        assert f.p == (1, 0, 1) and f.q == (0, 1, 0)

    def test_unary_minus(self):
        assert parse_map("-x^2 + 2x + 3") == make_map([-1, 2, 3], [1])

    def test_power_binds_tightest(self):
        # 2x^3 is 2*(x^3), and -x^2 is -(x^2)
        assert parse_map("2x^3") == make_map([2, 0, 0, 0], [1])

    def test_cancellation_reduces(self):
        # (x^3 - x) / (x - 1) = x^2 + x after cancelling
        f = parse_map("(x^3 - x)/(x - 1)")
        assert f == make_map([1, 1, 0], [1])

    def test_negative_denominator_normalized(self):
        f = parse_map("x^2/(-1)")
        g = parse_map("-x^2")
        assert f == g


class TestParseErrors:
    def test_position_reported(self):
        # "\u00b2" (superscript two) is a digit to str.isdigit, but not to int
        for text in ("x^2 @ 1", "x^2+\u00b2"):
            with pytest.raises(ParseError, match="position 4"):
                parse_map(text)

    def test_trailing_input(self):
        for text in ("x^2)", "x^2^3"):
            with pytest.raises(ParseError, match="trailing"):
                parse_map(text)

    def test_bad_exponent(self):
        with pytest.raises(ParseError, match="exponent"):
            parse_map("x^x")

    def test_unbalanced_paren(self):
        with pytest.raises(ParseError):
            parse_map("(x^2 + 1")

    def test_division_by_zero(self):
        with pytest.raises(ParseError):
            parse_map("x^2 / 0")

    @pytest.mark.parametrize(
        "text, error",
        [
            ("(x+1)^2048", "power at position 5 has degree 2048"),
            ("(x+1)^1024*(x+1)^1024", "power at position 5 has degree 1024"),
            ("(x+1)^40 (x+1)^40", "product at position 9 has degree 80"),
            ("1/(x+1)^40 + 1/(x+2)^40", "sum at position 11 has degree 80"),
            # the cap holds for the unreduced pair: this is 1/(x-1)^25
            ("(x+1)^40/((x+1)^40*(x-1)^25)", "product at position 18 has degree 65"),
        ],
    )
    def test_map_degree_cap_refuses_before_building(self, text, error):
        # (x+1)^2048 took 1.7 s to build, and the product 2.8 s, before
        # RatMap refused the map by its degree
        start = time.perf_counter()
        with pytest.raises(ParseError) as err:
            parse_rational_function(text)
        assert time.perf_counter() - start < 0.1
        assert str(err.value).startswith(error)

    def test_map_degree_cap_counts_the_unreduced_pair(self):
        # a degree-2 map, but its numerator is built to degree 102 first
        text = "(x+1)^100*x^2/(x+1)^100"
        with pytest.raises(ParseError, match=f"past the map degree cap {MAP_DEGREE_CAP}"):
            parse_map(text)
        # at the cap the same cancellation is read
        assert parse_rational_function("(x+1)^62*x^2/(x+1)^62") == ([1, 0, 0], [1])
        assert parse_rational_function("x^64") == ([1] + [0] * 64, [1])

    @pytest.mark.parametrize("digits", [4000, 5000])
    @pytest.mark.parametrize("base", ["x", "(x+1)"])
    def test_huge_exponent_names_the_map_degree_cap(self, base, digits):
        # an exponent is read as an integer atom is, with no digit limit:
        # int() printed the 4000-digit degree, and refused 5000 digits with
        # Python's int-to-str message, which names no cap
        with pytest.raises(ParseError) as err:
            parse_rational_function(f"{base}^{'9' * digits}")
        assert str(err.value) == (
            f"power at position {len(base)} has a {digits}-digit exponent, past the map "
            f"degree cap {MAP_DEGREE_CAP}"
        )
        assert len(str(err.value)) < 200

    def test_degree_is_spelled_below_two_to_the_64(self):
        with pytest.raises(ParseError, match=f"has degree {2**64 - 1}, past"):
            parse_rational_function(f"x^{2**64 - 1}")
        with pytest.raises(ParseError, match="has a 20-digit exponent, past"):
            parse_rational_function(f"x^{2**64}")

    @pytest.mark.parametrize(
        "text", ["(" * 2000 + "x^2" + ")" * 2000, "x^2+" + "-" * 2000 + "1"],
        ids=["parentheses", "signs"],
    )
    def test_nesting_past_the_recursion_limit_is_named(self, text):
        # each parenthesis and each sign is one frame of the recursive
        # descent; past Python's recursion limit the parse raised
        # RecursionError, which no caller reports
        with pytest.raises(ParseError, match="nested too deeply"):
            parse_rational_function(text)
        # a nesting within the limit still parses to what it spells
        assert parse_rational_function("(" * 50 + "x^2" + ")" * 50) == ([1, 0, 0], [1])
        assert parse_rational_function("x^2+" + "-" * 50 + "1") == ([1, 0, 1], [1])

    def test_degree_below_two_from_expression(self):
        from orbitint.ratmap import RatMapError

        with pytest.raises(RatMapError, match="degree below 2"):
            parse_map("x + 1")


class TestCoefficientFormat:
    def test_parse(self):
        f = parse_coefficient_format("num=1,0,1;den=1,0")
        assert f == parse_map("(x^2+1)/x")

    def test_dispatch(self):
        assert parse_map("num=1,0,0;den=1") == parse_map("x^2")

    def test_malformed(self):
        with pytest.raises(ParseError):
            parse_coefficient_format("1,0,0;1")
        with pytest.raises(ParseError):
            parse_map("num=1,0,0")


class TestRoundTrip:
    def test_corpus_roundtrips_bit_exactly(self):
        for expr in CORPUS_EXPRS:
            f = parse_map(expr)
            text = f.serialize_coefficients()
            g = parse_map(text)
            assert g == f
            assert g.serialize_coefficients() == text


class TestIntegerParser:
    def test_corpus_matches_make_map(self):
        # an oracle outside orbitint: sympy reads the expression, and the
        # reduced numerator and denominator go through make_map
        from sympy import Poly, Symbol, cancel, fraction
        from sympy.parsing.sympy_parser import (
            convert_xor,
            implicit_multiplication_application,
            parse_expr,
            standard_transformations,
        )

        x = Symbol("x")
        transformations = standard_transformations + (
            convert_xor,
            implicit_multiplication_application,
        )
        for expr in CORPUS_EXPRS:
            num, den = fraction(cancel(parse_expr(expr, {"x": x}, transformations)))
            ref = make_map(Poly(num, x).all_coeffs(), Poly(den, x).all_coeffs())
            assert parse_map(expr) == ref, expr

    def test_integer_lists(self):
        num, den = parse_rational_function("(x^2 + 1/2)/(-3x)")
        assert all(type(c) is int for c in num + den)
        assert den[0] > 0
        assert Fraction(num[0], num[-1]) == 2 and len(den) == 2 and den[1] == 0

    def test_constant_powers_within_the_power_digit_cap(self):
        # each constant power is one int ** (2^3333333 has 1003434 digits)
        assert parse_rational_function("x^2+10^4400") == ([1, 0, 10**4400], [1])
        assert parse_rational_function("x^3+10^5000x") == ([1, 0, 10**5000, 0], [1])
        assert parse_rational_function("(-3)^5x^2+(2/3)^3") == ([-6561, 0, 8], [27])
        assert parse_rational_function("0^0+0^7x+1^99999999")[0] == [2]
        # a zero base is a constant too, though its numerator is (): one int
        # power, where the product loop would run 10^8 times
        start = time.perf_counter()
        assert parse_rational_function("0^99999999*x^2+x^3") == ([1, 0, 0, 0], [1])
        assert parse_rational_function("(x-x)^99999999+x^2") == ([1, 0, 0], [1])
        # an exponent is read as an atom is: int() refused past 4300 digits
        assert parse_rational_function(f"1^{'9' * 5000}*x^2") == ([1, 0, 0], [1])
        assert time.perf_counter() - start < 0.1
        num, den = parse_rational_function("2^3333333")
        assert num == [2**3333333] and den == [1]

    @pytest.mark.parametrize(
        "text, caret", [(f"2^{'9' * 5000}*x^2", 1), ("(10^100000x)^64", 12)], ids=["2^e", "c*x^64"]
    )
    def test_power_past_the_power_digit_cap(self, text, caret):
        # int() refused an exponent past 4300 digits, naming no cap; and
        # (10^100000)^64 has 6400065 digits, which the reader spent about
        # 26 s building by 64 products
        start = time.perf_counter()
        with pytest.raises(ParseError) as err:
            parse_rational_function(text)
        assert time.perf_counter() - start < 0.1
        assert str(err.value) == (
            f"power at position {caret} has more than {POWER_DIGIT_CAP} digits"
        )

    @pytest.mark.parametrize("text", ["0", "x-x", "(x-x)*x", "-(x-x)", "0/x", "(x-x)/(x+1)"])
    def test_zero_numerator_is_empty(self, text):
        # every route to a zero numerator: a constant, a cancelled sum, a
        # product, a negation, and the gcd of a quotient
        assert parse_rational_function(text) == ([], [1])

    def test_literal_past_int_str_limit(self):
        big = 10**4400 + 7
        digits = "1" + "0" * 4399 + "7"
        f = parse_map(f"x^2 + {digits}")
        assert f.p == (1, 0, big) and f.q == (0, 0, 1)

    def test_literal_of_900000_digits_parses_in_subquadratic_time(self):
        # the bound tells quadratic reading from subquadratic: on a 2-vCPU
        # host int(Decimal(s)) takes about 30 s here, read_digits about 1 s
        digits = "7" * 900_000
        start = time.perf_counter()
        f = parse_map(f"num=1,0,{digits};den=1")
        assert time.perf_counter() - start < 2
        assert f.p[2] == 7 * (10**900_000 - 1) // 9


class TestMonomialPowers:
    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(-10**6, 10**6), st.integers(0, 8), st.integers(-10**6, 10**6),
        st.integers(0, 64),
    )
    @example(0, 0, 1, 0)
    @example(0, 3, -7, 5)
    def test_rule_matches_repeated_products(self, c, k, d, e):
        # (c*x^k/d)^e is one int power each and a shift, as repeated _mul builds it
        assume(d != 0 and k * e <= MAP_DEGREE_CAP)
        base = (c,) + (0,) * k if c else ()
        num, den = (1,), (1,)
        for _ in range(e):
            num, den = mapexpr._mul(num, base, "power", 0), mapexpr._mul(den, (d,), "power", 0)
        if den[0] < 0:
            num, den = tuple(-a for a in num), tuple(-a for a in den)
        assert parse_rational_function(f"({c}x^{k}/({d}))^{e}") == (list(num), list(den))

    @pytest.mark.parametrize(
        "text, products",
        [("x^3", 0), ("(2x^2)^5", 0), ("(x/2)^3", 0), ("(-3)^4x^2", 0), ("(x-x)^9+x^2", 0),
         ("(1/x)^3", 3), ("(x+1)^3", 3)],
    )
    def test_monomial_power_runs_no_product_loop(self, monkeypatch, text, products):
        calls, mul = [], mapexpr._mul

        def counted(a, b, what, pos):
            calls.append(what)
            return mul(a, b, what, pos)

        monkeypatch.setattr(mapexpr, "_mul", counted)
        parse_rational_function(text)
        assert calls.count("power") == 2 * products  # numerator and denominator


# Expression trees: ("int", n), ("x",), ("neg" | "pos", a), ("^", a, k) and
# (op, a, b) for op in "+-*/" and "adj" (adjacency multiplies).
_trees = st.recursive(
    st.one_of(st.integers(0, 10**6).map(lambda n: ("int", n)), st.just(("x",))),
    lambda sub: st.one_of(
        st.tuples(st.sampled_from(["neg", "pos"]), sub),
        st.tuples(st.just("^"), sub, st.integers(0, 4)),
        st.tuples(st.sampled_from(["+", "-", "*", "/", "adj"]), sub, sub),
    ),
    max_leaves=10,
)

# the grammar's levels: expr 0, term 1, factor 2, power 3, atom 4
_LEVEL = {"+": 0, "-": 0, "*": 1, "/": 1, "adj": 1, "neg": 2, "pos": 2, "^": 3}


def _render(tree) -> str:
    """Text the grammar reads back as tree, with parentheses only where
    a child's level is below what its place in the grammar needs."""

    def at(child, level: int) -> str:
        text = _render(child)
        return text if _LEVEL.get(child[0], 4) >= level else f"({text})"

    op = tree[0]
    if op == "int":
        return str(tree[1])
    if op == "x":
        return "x"
    if op in ("neg", "pos"):
        return ("-" if op == "neg" else "+") + at(tree[1], 2)
    if op == "^":
        return f"{at(tree[1], 4)}^{tree[2]}"
    if op == "adj":  # the right factor must start with "x" or "("
        right = at(tree[2], 3)
        return at(tree[1], 1) + (right if right[0] in "x(" else f"({right})")
    left, right = at(tree[1], _LEVEL[op]), at(tree[2], _LEVEL[op] + 1)
    return f"{left} {op} {right}"


def _value(tree, x: Fraction) -> Fraction:
    """The tree's value at x; ZeroDivisionError where a divisor vanishes."""
    op = tree[0]
    if op == "int":
        return Fraction(tree[1])
    if op == "x":
        return x
    if op in ("neg", "pos"):
        return -_value(tree[1], x) if op == "neg" else _value(tree[1], x)
    if op == "^":
        return _value(tree[1], x) ** tree[2]
    a, b = _value(tree[1], x), _value(tree[2], x)
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    return a / b if op == "/" else a * b


def _degree_bound(tree) -> tuple[int, int, int]:
    """Upper bounds on the degrees of the unreduced numerator and
    denominator the parser builds for tree, and the largest bound met in
    any subtree."""
    op = tree[0]
    if op == "int":
        return 0, 0, 0
    if op == "x":
        return 1, 0, 1
    if op in ("neg", "pos"):
        return _degree_bound(tree[1])
    if op == "^":
        n, d, peak = _degree_bound(tree[1])
        n, d = n * tree[2], d * tree[2]
        return n, d, max(peak, n, d)
    an, ad, ap = _degree_bound(tree[1])
    bn, bd, bp = _degree_bound(tree[2])
    if op in "+-":
        n, d = max(an + bd, bn + ad), ad + bd
    elif op == "/":
        n, d = an + bd, ad + bn
    else:
        n, d = an + bn, ad + bd
    return n, d, max(ap, bp, n, d)


def _divisors(tree):
    if tree[0] == "/":
        yield tree[2]
    for child in tree[1:]:
        if isinstance(child, tuple):
            yield from _divisors(child)


_POINTS = [Fraction(n, d) for n, d in [(1, 3), (-2, 5), (7, 2), (2, 1), (-3, 1),
           (5, 11), (-13, 7), (17, 19), (4, 9), (10, 1), (-1, 6), (23, 8)]]


def _defined(tree, x: Fraction) -> bool:
    try:
        _value(tree, x)
    except ZeroDivisionError:
        return False
    return True


def _horner(cs, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in cs:
        acc = acc * x + c
    return acc


class TestRandomTrees:
    @settings(max_examples=300, deadline=None)
    @given(_trees)
    # degree 65 unreduced: refused by the map degree cap
    @example(("*", ("^", ("^", ("^", ("x",), 4), 4), 4), ("x",)))
    def test_value_matches_tree(self, tree):
        # a divisor that vanishes at every point is taken for the zero
        # polynomial, which the parser refuses ("division by zero")
        for div in _divisors(tree):
            assume(any(_defined(div, x) and _value(div, x) != 0 for x in _POINTS))
        points = [x for x in _POINTS if _defined(tree, x)][:5]
        assume(len(points) == 5)
        text = _render(tree)
        try:
            num, den = parse_rational_function(text)
        except ParseError as err:
            # only a tree whose unreduced degree may pass the cap is refused
            assert "past the map degree cap" in str(err), text
            assert _degree_bound(tree)[2] > MAP_DEGREE_CAP, text
            return
        # no leading zero, so a zero numerator is []
        assert num[:1] != [0] and den[0] > 0, text
        for x in points:
            assert Fraction(_horner(num, x), _horner(den, x)) == _value(tree, x), text
