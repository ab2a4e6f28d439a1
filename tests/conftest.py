import sys

import pytest

from orbitint import parse_map

# Degree-2 and degree-3 polynomial maps with coefficients in [-3, 3],
# plus five non-polynomial maps.
POLY_DEG2_EXPRS = [
    "x^2",
    "x^2+1",
    "x^2-1",
    "x^2+x+1",
    "x^2-2x+2",
    "2x^2+3x+1",
    "3x^2-x-3",
    "x^2+2x+3",
    "x^2+3",
    "2x^2-1",
]

POLY_DEG3_EXPRS = [
    "x^3",
    "x^3+1",
    "x^3-x",
    "2x^3+x+1",
    "x^3+2x^2+3",
    "3x^3-2x+1",
    "x^3-3x^2+2x-1",
    "2x^3+3x-2",
]

NONPOLY_EXPRS = [
    "(x^2+1)/x",
    "(x^2-1)/x",
    "1/x^2",
    "(x^3+1)/x",
    "(x^2+2)/(2x+1)",
]

CORPUS_EXPRS = POLY_DEG2_EXPRS + POLY_DEG3_EXPRS + NONPOLY_EXPRS


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


@pytest.fixture(scope="session")
def corpus():
    maps = [parse_map(e) for e in CORPUS_EXPRS]
    assert len(maps) >= 20
    return maps


@pytest.fixture(scope="session")
def poly_corpus():
    return [parse_map(e) for e in POLY_DEG2_EXPRS + POLY_DEG3_EXPRS]


@pytest.fixture(scope="session")
def nonpoly_corpus():
    return [parse_map(e) for e in NONPOLY_EXPRS]
