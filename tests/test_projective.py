import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from orbitint.exactarith import valuation
from orbitint.projective import (
    ARCHIMEDEAN,
    INFINITY,
    ChordalValue,
    ProjPoint,
    ProjectiveError,
    chordal_distance,
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
        assert INFINITY.is_infinity
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


class TestChordal:
    def test_identity_is_zero(self):
        p = ProjPoint(2, 3)
        assert chordal_distance(p, p, 5).value == 0
        assert chordal_distance(p, p, ARCHIMEDEAN).value == 0.0

    def test_finite_place_exact(self):
        # cross([0:1],[1:1]) = -1: distance 1 at every finite place.
        assert chordal_distance(ProjPoint(0, 1), ProjPoint(1, 1), 3).value == 1
        # cross([9:1],[0:1]) = 9: v_3 = 2.
        got = chordal_distance(ProjPoint(9, 1), ProjPoint(0, 1), 3).value
        assert got == Fraction(1, 9)
        assert chordal_distance(ProjPoint(9, 1), ProjPoint(0, 1), 2).value == 1

    def test_out_of_range_value_raises(self):
        for place, value in ((3, Fraction(3, 2)), (2, Fraction(-1, 4)),
                             (ARCHIMEDEAN, 1.5), (ARCHIMEDEAN, float("nan"))):
            with pytest.raises(ProjectiveError, match="outside"):
                ChordalValue(place, value)

    def test_archimedean_known_value(self):
        # d_inf(0, inf) = 1; d_inf(0, 1) = 1/sqrt(2).
        assert chordal_distance(ProjPoint(0, 1), INFINITY, ARCHIMEDEAN).value == 1.0
        got = chordal_distance(ProjPoint(0, 1), ProjPoint(1, 1), ARCHIMEDEAN).value
        assert math.isclose(got, 1 / math.sqrt(2), rel_tol=1e-12)

    @given(_points(), _points(), st.sampled_from([2, 3, 5, 7, ARCHIMEDEAN]))
    def test_symmetry_and_bounds(self, p, q, place):
        d1 = chordal_distance(p, q, place).value
        d2 = chordal_distance(q, p, place).value
        assert d1 == d2
        assert 0 <= d1 <= 1
        assert (d1 == 0) == (p == q)

    @given(_points(), _points(), st.sampled_from([2, 3, 5, 7, 11]))
    def test_nonarchimedean_matches_valuation(self, p, q, place):
        cross = p.a0 * q.a1 - p.a1 * q.a0
        d = chordal_distance(p, q, place).value
        if cross == 0:
            assert d == 0
        else:
            v = valuation(Fraction(cross), place)
            assert d == Fraction(1, place**v)
            assert v >= 0  # normalized coordinates: distance is p^-v <= 1

    @given(_points(), _points(), _points(), st.sampled_from([2, 3, 5, 7]))
    def test_ultrametric(self, p, q, r, place):
        dpq = chordal_distance(p, q, place).value
        dqr = chordal_distance(q, r, place).value
        dpr = chordal_distance(p, r, place).value
        assert dpr <= max(dpq, dqr)
