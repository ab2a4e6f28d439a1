import re
import sys
import time
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from orbitint.exactarith import (
    _READ_DIGITS,
    _SPLIT_BITS,
    ExactArithError,
    PlaceSet,
    decimal_str,
    is_s_unit,
    parse_rational,
    read_digits,
    read_int,
    s_free_part,
    split_prime_power,
    _to_decimal,
)

PRIMES = [2, 3, 5, 7, 11, 13]

nonzero_rationals = st.fractions(
    min_value=-10**6, max_value=10**6, max_denominator=10**6
).filter(lambda q: q != 0)
nonzero_ints = st.integers(-(10**12), 10**12).filter(bool)


def format_rational(q: Fraction) -> str:
    """The canonical text of a rational, "-3/7" and "5": the oracle that
    ``parse_rational`` is checked against."""
    if q.denominator == 1:
        return decimal_str(q.numerator)
    return f"{decimal_str(q.numerator)}/{decimal_str(q.denominator)}"


class TestPlaceSet:
    def test_parse_serialize_roundtrip(self):
        s = PlaceSet.parse("7,2,3,3")
        assert s.primes == (2, 3, 7)
        assert s.serialize() == "2,3,7"
        assert PlaceSet.parse(s.serialize()) == s

    def test_empty(self):
        assert PlaceSet.parse("").primes == ()
        assert PlaceSet().serialize() == ""

    def test_rejects_composite(self):
        with pytest.raises(ExactArithError):
            PlaceSet((4,))
        with pytest.raises(ExactArithError):
            PlaceSet.parse("2,9")

    @pytest.mark.skipif(
        not hasattr(sys, "get_int_max_str_digits"), reason="no int-to-str limit"
    )
    def test_huge_integer_named_by_its_digits(self):
        # read with no digit limit; a prime past the int-to-str limit is
        # refused untested, in a short error that names the limit.  The
        # last has no factor up to 47, so is_prime would run its Miller-Rabin
        # rounds on 5000 digits for tens of seconds
        limit = sys.get_int_max_str_digits()
        for text in ("2," + "9" * 5000, "9" * 5000, " 3 , " + "1" * 4400, "1" + "0" * 4998 + "7"):
            digits = len(text.rpartition(",")[2].strip())
            start = time.perf_counter()
            with pytest.raises(ExactArithError, match=rf"^\[{digits} digits\] is past the "
                               rf"int-to-str limit of {limit} digits$"):
                PlaceSet.parse(text)
            assert time.perf_counter() - start < 1.0
        with pytest.raises(ExactArithError, match="int-to-str limit"):
            PlaceSet((2, 10**4999 + 7))
        # at the limit the prime is tested: a run of nines is a multiple of 3
        with pytest.raises(ExactArithError, match=rf"^\[{limit} digits\] is not prime$"):
            PlaceSet.parse("9" * limit)
        with pytest.raises(ExactArithError) as err:
            PlaceSet.parse("2," + "9" * 5000 + "x")
        assert len(str(err.value)) < 200

    def test_union_and_superset(self):
        a = PlaceSet((2, 3))
        b = PlaceSet((3, 5))
        u = a.union(b)
        assert u.primes == (2, 3, 5)
        assert set(a) <= set(u) and set(b) <= set(u)
        assert 5 in u and 7 not in u


class TestRationalFormat:
    def test_roundtrip(self):
        for text in ["5", "-3/7", "0", "22/7"]:
            assert format_rational(parse_rational(text)) == text

    def test_reduces(self):
        assert format_rational(parse_rational("6/4")) == "3/2"

    def test_fraction_syntax(self):
        assert parse_rational(" -1.5e3 ") == -1500
        assert parse_rational("1_000/3") == Fraction(1000, 3)
        assert parse_rational(".25") == Fraction(1, 4)
        assert parse_rational("+7E-2") == Fraction(7, 100)
        for bad in ["", "1 / 2", "1/-2", "1__0", "_1", "1/2.5", "0x10", "inf"]:
            with pytest.raises(ExactArithError):
                parse_rational(bad)

    def test_zero_denominator_rejected_by_name(self):
        with pytest.raises(ExactArithError, match="zero denominator"):
            parse_rational("1/0")

    def test_past_int_str_limit(self):
        for text in ["9" * 4400, "-1/" + "3" * 4400, "1" + "0" * 4400 + "/7"]:
            assert format_rational(parse_rational(text)) == text

    @given(
        st.one_of(
            # near-literals: runs that may break the underscore, sign and
            # exponent rules, unicode digits and whitespace included
            st.from_regex(
                r"\s?[-+]?[\d_]{0,4}(\.[\d_]{0,3})?([eE/]\s?[-+]?[\d_]{0,3})?\s?",
                fullmatch=True,
            ),
            st.lists(
                st.sampled_from([" ", "+", "-", "0", "1", "7", "_", ".", "/", "e", "d", "x"]),
                max_size=10,
            ).map("".join),
        )
    )
    def test_agrees_with_fraction(self, text):
        # exponents of four digits or more are left out: 10**exp is huge
        assume(not re.search(r"[eE][-+]?[\d_]{4}", text))
        # the grammar is Python 3.11's: 3.10's Fraction rejects underscores
        # and 3.12's allows spaces around "/", so elsewhere these are left out
        if sys.version_info[:2] != (3, 11):
            assume("_" not in text and not re.search(r"\s/|/\s", text))
        try:
            expected = Fraction(text)
        except (ValueError, ZeroDivisionError):
            expected = None
        try:
            got = parse_rational(text)
        except ExactArithError:
            got = None
        assert got == expected


    # digit runs with single underscores, in ASCII and in two other scripts
    RUNS = st.lists(
        st.text(st.sampled_from("0123456789\u0663\u0660\uff11"), min_size=1, max_size=12),
        min_size=1, max_size=4,
    ).map("_".join)
    # an exponent of at most three significant digits, after up to a dozen
    # zeros: the cap is decided by the digits ahead of its own seven
    EXPONENTS = st.builds(
        lambda e, sign, zeros, digits: f"{e}{sign}{zeros}{digits}",
        st.sampled_from("eE"), st.sampled_from(["", "-", "+"]),
        st.sampled_from(["", "0", "0" * 12, "\u0660" * 9, "0_0"]),
        st.text(st.sampled_from("0123456789"), min_size=1, max_size=3),
    )
    FORMS = st.builds(
        lambda lead, sign, num, tail, trail: f"{lead}{sign}{num}{tail}{trail}",
        st.sampled_from(["", " ", "\t"]),
        st.sampled_from(["", "-", "+"]),
        st.one_of(st.just(""), RUNS),
        st.one_of(
            st.just(""),
            RUNS.map("/".__add__),
            st.builds(lambda dec, exp: f".{dec}{exp}", st.one_of(st.just(""), RUNS),
                      st.one_of(st.just(""), EXPONENTS)),
            EXPONENTS,
        ),
        st.sampled_from(["", " ", "\u3000"]),
    )

    @given(FORMS)
    @example("1_000.5e-3")
    @example("-.5e0_0")
    @example("1e" + "\u0660" * 10 + "5")
    def test_built_as_fraction_builds_it(self, text):
        # integer, p/q, decimal and exponent forms, signed and underscored
        if sys.version_info < (3, 11):  # 3.10's Fraction rejects underscores
            assume("_" not in text)
        try:
            expected = Fraction(text)
        except (ValueError, ZeroDivisionError):
            expected = None
        try:
            got = parse_rational(text)
        except ExactArithError:
            got = None
        assert got == expected

    def test_long_decimal_in_subquadratic_time(self):
        # through Decimal this took 6.6 s: int(Decimal) converts in quadratic time
        start = time.perf_counter()
        q = parse_rational("0." + "7" * 400000)
        assert time.perf_counter() - start < 1.0
        assert q.denominator == 10**400000 and q.numerator % 10**12 == 777777777777

    @pytest.mark.skipif(
        not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str limit"
    )
    @given(st.integers(600, 1400), st.integers(0, 20), st.sampled_from(["", "-"]), st.data())
    def test_decimal_forms_past_the_limit(self, digits, exp, sign, data):
        # the digits before and after the point are read past a lowered
        # limit, against Fraction with the limit lifted
        cut = data.draw(st.integers(0, digits))
        run = "".join(data.draw(st.lists(st.sampled_from("0123456789"), min_size=digits,
                                         max_size=digits)))
        text = f"{sign}{run[:cut]}.{run[cut:]}e-{exp}"
        old = sys.get_int_max_str_digits()
        try:
            sys.set_int_max_str_digits(0)
            expected = Fraction(text)
            sys.set_int_max_str_digits(640)
            assert parse_rational(text) == expected
        finally:
            sys.set_int_max_str_digits(old)

    def test_long_inputs_named_by_their_length(self):
        for text in ("1e" + "9" * 4000, "1e" + "9" * 5000, " 1e-0" + "9" * 4999 + " "):
            with pytest.raises(ExactArithError, match="power digit cap 1000000") as err:
                parse_rational(text)
            assert len(str(err.value)) < 200
            digits = len(text.strip()) - 2 - ("-" in text)
            assert f"exponent {'-' * ('-' in text)}[{digits} digits] of" in str(err.value)
        for text in ("1.2." + "3" * 5000, "1/" + "0" * 5000, "x" * 100):
            with pytest.raises(ExactArithError) as err:
                parse_rational(text)
            assert len(str(err.value)) < 200 and f"[{len(text)} chars]" in str(err.value)
        # a short exponent of a long input is written as it is, sign and all
        with pytest.raises(ExactArithError) as err:
            parse_rational("0." + "1" * 90 + "e-12345678")
        assert str(err.value).startswith("exponent -12345678 of '0.1111111111'...[102 chars] ")
        # an input of at most 80 characters keeps the message it had
        with pytest.raises(ExactArithError) as err:
            parse_rational(" 1e+0_9999999 ")
        assert str(err.value) == (
            "exponent +0_9999999 of '1e+0_9999999' is past the power digit cap 1000000"
        )

    def test_exponent_forms_up_to_the_power_digit_cap(self):
        assert parse_rational("1e1000000") == 10**1000000
        assert parse_rational("-2.5E-1_000_000") == Fraction(-25, 10**1000001)
        for text in ("1e1000001", "1e-9999999999", " 7.5e+1_000_001 "):
            with pytest.raises(ExactArithError, match="power digit cap 1000000"):
                parse_rational(text)


class TestReadDigits:
    # the reader splits at powers of ten down to _READ_DIGITS-digit leaves:
    # lengths at the leaf size and its doublings, where the split changes
    # shape, with leading zeros, under the lowest int-to-str limit Python
    # accepts; the reference is the Decimal reading it replaces
    @pytest.mark.skipif(
        not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str limit"
    )
    @given(
        st.integers(0, 3),
        st.integers(-2, 2),
        st.integers(0, 2),
        st.sampled_from(["", "-", "+"]),
        st.data(),
    )
    def test_split_reading(self, doublings, offset, zeros, sign, data):
        length = (_READ_DIGITS << doublings) + offset
        n = data.draw(st.integers(0, 10 ** (length - zeros) - 1))
        digits = decimal_str(n).rjust(length, "0")
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            assert read_digits(digits) == int(Decimal(digits))
            assert parse_rational(sign + digits) == Fraction(Decimal(sign + digits))
            assert parse_rational(f"{sign}{digits}/{digits}1") == Fraction(
                int(Decimal(sign + digits)), int(Decimal(digits + "1"))
            )
            assert sys.get_int_max_str_digits() == 640  # never lifted
        finally:
            sys.set_int_max_str_digits(old)


class TestReadInt:
    # int's grammar: surrounding whitespace, a sign, digits of any script
    # with single underscores; and the texts just outside it
    TEXTS = st.one_of(
        st.from_regex(r"\s?[-+]?[\d_]{0,6}\s?", fullmatch=True),
        st.lists(
            st.sampled_from([" ", "\u3000", "\xa0", "+", "-", "_", "0", "7", "\u0663",
                             "\uff11", "x", ".", "e", "/", "\u00b2"]),
            max_size=9,
        ).map("".join),
    )

    @given(TEXTS)
    @example("")
    @example(" -0_7 ")
    @example("\u00b2")
    def test_agrees_with_int(self, text):
        try:
            expected = int(text)
        except ValueError:
            expected = None
        try:
            got = read_int(text)
        except ValueError:
            got = None
        assert got == expected

    @pytest.mark.skipif(
        not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str limit"
    )
    @given(
        st.lists(st.text(st.sampled_from("0123456789\u0663"), min_size=1, max_size=400),
                 min_size=1, max_size=8),
        st.sampled_from(["", "-", "+"]),
        st.sampled_from(["", " ", "\u3000\t"]),
        st.sampled_from(["x", "__", "_", ".", ".5", "/7", "e3", "-"]),
    )
    def test_past_the_limit(self, groups, sign, space, bad):
        # past a lowered limit, against int with the limit lifted; a text
        # int refuses is refused there too
        text = f"{space}{sign}{'_'.join(groups)}{space}"
        old = sys.get_int_max_str_digits()
        try:
            sys.set_int_max_str_digits(0)
            expected = int(text)
            sys.set_int_max_str_digits(640)
            assert read_int(text) == expected
            with pytest.raises(ValueError):
                read_int(text.strip() + bad)
            assert sys.get_int_max_str_digits() == 640  # never lifted
        finally:
            sys.set_int_max_str_digits(old)


class TestDecimalStr:
    # signs, zero, small ints, and sizes on both sides of the default
    # 4300-digit limit of int-to-str conversion
    INTS = st.one_of(
        st.integers(-(10**30), 10**30),
        st.builds(
            lambda sign, digits, low: sign * (10 ** (digits - 1) + low),
            st.sampled_from([-1, 1]),
            st.integers(4290, 4310),
            st.integers(0, 10**9),
        ),
    )

    @given(INTS)
    def test_agrees_with_decimal(self, n):
        assert decimal_str(n) == str(Decimal(n))

    @pytest.mark.skipif(
        not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str limit"
    )
    @given(st.integers(630, 650), st.sampled_from([-1, 1]), st.integers(0, 10**9))
    def test_lowered_limit(self, digits, sign, low):
        n = sign * (10 ** (digits - 1) + low)
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            assert decimal_str(n) == str(Decimal(n))
            assert sys.get_int_max_str_digits() == 640  # never lifted
        finally:
            sys.set_int_max_str_digits(old)

    # past the limit the conversion splits at powers of two down to
    # _SPLIT_BITS-bit leaves: bit lengths at the leaf size and its doublings,
    # where the split changes shape, through a lowered limit
    @pytest.mark.skipif(
        not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str limit"
    )
    @given(st.sampled_from([-1, 0, 1]), st.integers(0, 7), st.integers(-2, 2), st.data())
    def test_split_conversion(self, sign, doublings, offset, data):
        bits = (_SPLIT_BITS << doublings) + offset
        n = sign * data.draw(st.integers(1 << (bits - 1), (1 << bits) - 1))
        assert str(_to_decimal(n)) == str(Decimal(n))
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            assert decimal_str(n) == str(Decimal(n))
        finally:
            sys.set_int_max_str_digits(old)


class TestValuation:
    """The p-adic valuation of a nonzero integer is the ``v`` of
    ``split_prime_power``."""

    def test_known_values(self):
        assert split_prime_power(12, 2) == (2, 3)
        assert split_prime_power(12, 3) == (1, 4)
        assert split_prime_power(-50, 5) == (2, 2)
        assert split_prime_power(-27, 3) == (3, 1)
        assert split_prime_power(7, 5) == (0, 7)

    def test_zero_rejected(self):
        with pytest.raises(ExactArithError, match="zero"):
            split_prime_power(0, 2)

    def test_nonprime_rejected(self):
        for p in (1, 0, -3):
            with pytest.raises(ExactArithError, match="not prime"):
                split_prime_power(5, p)

    @given(nonzero_ints, nonzero_ints, st.sampled_from(PRIMES))
    def test_additivity(self, a, b, p):
        va, ra = split_prime_power(a, p)
        vb, rb = split_prime_power(b, p)
        assert split_prime_power(a * b, p) == (va + vb, ra * rb)

    @given(st.integers(min_value=1, max_value=10**6))
    def test_product_formula(self, n):
        # |n| equals the product of p^v_p(n) over the (small) primes of n.
        prod = 1
        m = n
        p = 2
        while m > 1:
            if m % p == 0:
                prod *= p ** split_prime_power(n, p)[0]
                while m % p == 0:
                    m //= p
            p += 1
        assert prod == n


def mod_then_floordiv_split(n, p):
    """The split that one divmod per power replaced, kept as the reference:
    ``%`` to test each power of p, then ``//`` to divide by it."""
    if n == 0:
        raise ExactArithError("valuation of zero undefined")
    if p < 2:
        raise ExactArithError(f"{p} is not prime")
    n = abs(n)
    powers, q = [], p
    while n % q == 0:
        n //= q
        powers.append(q)
        q *= q
    v = (1 << len(powers)) - 1
    for k in reversed(range(len(powers))):
        if n % powers[k] == 0:
            n //= powers[k]
            v += 1 << k
    return v, n


class TestSplitPrimePower:
    @given(
        st.integers(-10**30, 10**30).filter(bool),
        st.sampled_from(PRIMES + [97, 2**61 - 1]),
        st.integers(0, 400),
    )
    def test_matches_one_factor_at_a_time(self, n, p, k):
        n *= p**k
        m, v = abs(n), 0
        while m % p == 0:
            m //= p
            v += 1
        assert split_prime_power(n, p) == (v, m)

    @given(
        st.sampled_from([2, 3, 5]),
        st.integers(0, 3000),
        st.one_of(st.integers(1, 10**6), st.integers(1, 2**4000)),
        st.booleans(),
    )
    @example(3, 3000, 1, False)
    @example(2, 2048, 3, True)
    @example(5, 1023, 5**7 + 1, False)
    def test_matches_modulo_then_floor_division(self, p, k, r, negative):
        n = p**k * r * (-1 if negative else 1)
        assert split_prime_power(n, p) == mod_then_floordiv_split(n, p)

    def test_errors_match_modulo_then_floor_division(self):
        for n, p in [(0, 2), (0, 3), (12, 1), (12, 0), (-12, -3), (0, 1)]:
            with pytest.raises(ExactArithError) as expected:
                mod_then_floordiv_split(n, p)
            with pytest.raises(ExactArithError) as got:
                split_prime_power(n, p)
            assert str(got.value) == str(expected.value)

    def test_zero_raises(self):
        # s_free_part and the prime-power split looped forever on zero
        with pytest.raises(ExactArithError):
            s_free_part(0, PlaceSet((2,)))
        with pytest.raises(ExactArithError):
            split_prime_power(0, 3)
        with pytest.raises(ExactArithError):
            split_prime_power(12, 1)


class TestSUnits:
    def test_examples(self):
        s = PlaceSet((2, 3))
        assert is_s_unit(Fraction(12), s)
        assert is_s_unit(Fraction(-8, 9), s)
        assert not is_s_unit(Fraction(10), s)
        assert is_s_unit(Fraction(1), PlaceSet())
        assert not is_s_unit(Fraction(2), PlaceSet())

    def test_zero_rejected(self):
        with pytest.raises(ExactArithError):
            is_s_unit(Fraction(0), PlaceSet((2,)))

    def test_s_free_part(self):
        s = PlaceSet((2, 5))
        assert s_free_part(400, s) == 1
        assert s_free_part(-2400, s) == 3
        assert s_free_part(7, PlaceSet()) == 7

    @given(nonzero_rationals, nonzero_rationals)
    def test_multiplicative_closure(self, a, b):
        s = PlaceSet((2, 3, 5, 7))
        if is_s_unit(a, s) and is_s_unit(b, s):
            assert is_s_unit(a * b, s)
            assert is_s_unit(a / b, s)

    @given(nonzero_rationals)
    def test_monotone_in_s(self, a):
        small = PlaceSet((2,))
        big = PlaceSet((2, 3, 5, 7, 11, 13))
        if is_s_unit(a, small):
            assert is_s_unit(a, big)

