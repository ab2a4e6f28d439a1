import hashlib
import random
import sys

from hypothesis import given
from hypothesis import strategies as st
from sympy import isprime as sympy_isprime

from orbitint.primes import factor, factor_partial, is_prime, prime_factors
from orbitint.report import format_big_int, format_fraction
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
