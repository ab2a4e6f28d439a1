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


def _pairs(*args: str) -> list[str]:
    return ["--no-timestamp", "pairs", "--map", "x^2+1", "--u", "1", "--w", "2",
            "--window", "1x1", *args]


# argvs whose numbers run to thousands of digits, each with its exit status:
# every number is read with no digit limit (a prime past the int-to-str
# limit is then refused untested), and an error names a long input or a
# number of 2^64 or more by its length.  The last three are short malformed
# inputs, whose errors keep their bytes.
LONG_INPUT_ARGVS = [
    (_pairs("--S", "2," + "9" * 5000), 2),
    (_pairs("--S", "9" * 5000), 2),
    (_pairs("--S", "1" + "0" * 4998 + "7"), 2),  # no factor up to 47
    (_pairs("--window", "9" * 5000 + "x1"), 2),
    (_pairs("--u", "1e" + "9" * 4000), 2),
    (_pairs("--u", "1e" + "9" * 5000), 2),
    (_pairs("--u", "0." + "7" * 20000), 0),
    (_pairs("--u", "1_000.5e-3"), 0),
    (_pairs("--u", "[1:" + "9" * 5000 + "]"), 0),
    (_pairs("--u", "[1:" + "9" * 5000 + ":2]"), 2),
    (["--no-timestamp", "orbit", "--map", "x^2", "--point", "0", "--n", "9" * 4000], 2),
    (["--no-timestamp", "analyze", "--map", "num=1,0," + "9" * 100000 + ";xyz=1"], 2),
    (["--no-timestamp", "analyze", "--map", "num=1,0,1e" + "9" * 5000 + ";den=1"], 2),
    (["--no-timestamp", "divisor", "--map", "x^2", "--n", "9" * 4000], 2),
    (_pairs("--S", "2,x"), 2),
    (_pairs("--window", "3y4"), 2),
    (_pairs("--u", "1.2.3"), 2),
]


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
