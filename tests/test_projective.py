from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from orbitint.exactarith import PlaceSet, split_prime_power
from orbitint.integrality import cross_term, is_integral_pair
from orbitint.projective import (
    INFINITY,
    ProjPoint,
    ProjectiveError,
    from_affine,
    normalize,
    parse_point,
)

def _points():
    return st.tuples(
        st.integers(min_value=-200, max_value=200),
        st.integers(min_value=-200, max_value=200),
    ).filter(lambda t: t != (0, 0)).map(lambda t: ProjPoint(*t))


class TestProjPoint:
    def test_normalization(self):
        assert ProjPoint(4, 6) == ProjPoint(2, 3)
        assert ProjPoint(-2, -3) == ProjPoint(2, 3)
        assert ProjPoint(3, -1).a1 == 1  # last nonzero coordinate positive
        assert ProjPoint(-5, 0) == ProjPoint(1, 0)
        assert ProjPoint(0, -7) == ProjPoint(0, 1)

    def test_zero_rejected(self):
        with pytest.raises(ProjectiveError, match="not a projective point"):
            ProjPoint(0, 0)

    def test_infinity(self):
        assert (INFINITY.a0, INFINITY.a1) == (1, 0)
        assert INFINITY.to_affine() is None
        assert from_affine(None) == INFINITY

    def test_affine_roundtrip(self):
        x = Fraction(-3, 7)
        assert from_affine(x).to_affine() == x
        assert from_affine(5) == ProjPoint(5, 1)

    def test_normalize_rational_inputs(self):
        assert normalize(Fraction(1, 2), Fraction(1, 3)) == ProjPoint(3, 2)
        with pytest.raises(ProjectiveError):
            normalize(0, 0)

    def test_parse(self):
        assert parse_point("inf") == INFINITY
        assert parse_point("[4:6]") == ProjPoint(2, 3)
        assert parse_point("-3/7") == ProjPoint(-3, 7)
        assert parse_point("[1/2 : 1/3]") == ProjPoint(3, 2)
        for bad in ("[1,2]", "[1:2:3]"):
            with pytest.raises(ProjectiveError):
                parse_point(bad)

    def test_serialize(self):
        assert ProjPoint(4, 6).serialize() == "[2:3]"
        big = ProjPoint(-(10**4400), 3)
        assert big.serialize() == f"[-1{'0' * 4400}:3]"
        assert repr(big) == f"ProjPoint(-1{'0' * 4400}, 3)"
        assert parse_point(ProjPoint(-3, 7).serialize()) == ProjPoint(-3, 7)


def _v(x, p):
    """p-adic valuation of a rational, None for zero (infinite)."""
    x = Fraction(x)
    if x == 0:
        return None
    return split_prime_power(x.numerator, p)[0] - split_prime_power(x.denominator, p)[0]


def _chordal_v(p, q, place):
    """v with chordal distance place^-v at a prime: the valuation of the
    cross term of the normalized points, None when they are equal."""
    return _v(cross_term(p, q), place)


class TestChordal:
    """At a prime, the chordal distance of two normalized points is
    |cross term|_p, so integrality decides on the cross term alone."""

    def test_identity_is_zero(self):
        p = ProjPoint(2, 3)
        assert cross_term(p, p) == 0
        assert not is_integral_pair(p, p, PlaceSet((2, 3, 5))).verdict

    def test_finite_place_exact(self):
        # cross([0:1],[1:1]) = -1: distance 1 at every finite place.
        assert _chordal_v(ProjPoint(0, 1), ProjPoint(1, 1), 3) == 0
        # cross([9:1],[0:1]) = 9: v_3 = 2.
        assert _chordal_v(ProjPoint(9, 1), ProjPoint(0, 1), 3) == 2
        assert _chordal_v(ProjPoint(9, 1), ProjPoint(0, 1), 2) == 0

    @given(_points(), _points(), st.sampled_from([2, 3, 5, 7]))
    def test_symmetry_and_bounds(self, p, q, place):
        assert cross_term(p, q) == -cross_term(q, p)
        v = _chordal_v(p, q, place)
        assert (v is None) == (p == q)
        assert v is None or v >= 0  # normalized coordinates: distance <= 1
        s = PlaceSet((place,))
        assert is_integral_pair(p, q, s).verdict == is_integral_pair(q, p, s).verdict

    @given(
        _points(),
        _points(),
        st.fractions(min_value=-50, max_value=50, max_denominator=50).filter(bool),
        st.fractions(min_value=-50, max_value=50, max_denominator=50).filter(bool),
        st.sampled_from([2, 3, 5, 7, 11]),
    )
    def test_nonarchimedean_matches_valuation(self, p, q, k, l, place):
        # the distance of any coordinates [x0:x1], [y0:y1] is
        # |x0 y1 - x1 y0|_p / (max(|x0|_p, |x1|_p) max(|y0|_p, |y1|_p));
        # normalizing makes both maxima 1
        x0, x1, y0, y1 = k * p.a0, k * p.a1, l * q.a0, l * q.a1
        cross = _v(x0 * y1 - x1 * y0, place)

        def norm(a, b):
            return min(v for v in (_v(a, place), _v(b, place)) if v is not None)

        want = None if cross is None else cross - norm(x0, x1) - norm(y0, y1)
        got = _chordal_v(normalize(x0, x1), normalize(y0, y1), place)
        assert got == want

    @given(_points(), _points(), _points(), st.sampled_from([2, 3, 5, 7]))
    def test_ultrametric(self, p, q, r, place):
        inf = float("inf")
        vpq, vqr, vpr = (
            inf if v is None else v
            for v in (_chordal_v(p, q, place), _chordal_v(q, r, place), _chordal_v(p, r, place))
        )
        assert vpr >= min(vpq, vqr)
