import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitint import exactarith, integrality
from orbitint.exactarith import PlaceSet
from orbitint.integrality import (
    IntegralityError,
    check_functoriality,
    cross_term,
    d_n_cross_form_value,
    is_integral_pair,
    is_integral_rel_dn,
    monotonicity_check,
)
from orbitint.primes import factor_partial
from orbitint.projective import INFINITY, ProjPoint, from_affine
from orbitint.ratmap import bad_reduction_primes, iterate, make_map

SMALL_POINTS = [
    ProjPoint(0, 1),
    ProjPoint(1, 1),
    ProjPoint(-1, 1),
    ProjPoint(2, 1),
    ProjPoint(-2, 3),
    ProjPoint(5, 2),
    INFINITY,
]


class TestCrossTerm:
    def test_values(self):
        assert cross_term(ProjPoint(2, 1), ProjPoint(3, 1)) == -1
        assert cross_term(ProjPoint(8, 1), ProjPoint(-8, 1)) == 16
        assert cross_term(ProjPoint(1, 2), INFINITY) == -2
        assert cross_term(ProjPoint(3, 1), ProjPoint(3, 1)) == 0

    def test_antisymmetric(self):
        for p in SMALL_POINTS:
            for q in SMALL_POINTS:
                assert cross_term(p, q) == -cross_term(q, p)


class TestIsIntegralPair:
    def test_examples(self):
        s2 = PlaceSet((2,))
        w = is_integral_pair(ProjPoint(8, 1), ProjPoint(-8, 1), s2)
        assert w.verdict and w.cross_term == 16 and w.violating_primes == ()
        w = is_integral_pair(ProjPoint(2, 1), ProjPoint(3, 1), PlaceSet())
        assert w.verdict and w.cross_term == -1
        w = is_integral_pair(ProjPoint(5, 1), ProjPoint(2, 1), PlaceSet())
        assert not w.verdict and w.violating_primes == (3,)
        assert w.factorization_complete

    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(min_value=-(10**40), max_value=10**40),
        st.lists(st.integers(min_value=0, max_value=12), min_size=4, max_size=4),
        st.sets(st.sampled_from([2, 3, 5, 7, 11, 13])),
    )
    def test_lazy_diagnosis_matches_eager_factoring(self, c, exps, primes):
        cross = c * 2 ** exps[0] * 3 ** exps[1] * 5 ** exps[2] * 7 ** exps[3]
        s = PlaceSet(tuple(primes))
        w = is_integral_pair(ProjPoint(cross, 1), ProjPoint(0, 1), s)
        assert w.cross_term == cross
        rest = abs(cross)
        for p in primes:
            while rest and rest % p == 0:
                rest //= p
        if cross == 0:
            expected = ((), True)
        else:
            found, leftover = factor_partial(rest, rho_iters=1 << 12)
            expected = (tuple(sorted(found)), leftover == 1)
        assert w.verdict == (cross != 0 and rest == 1)
        assert (w.violating_primes, w.factorization_complete) == expected

    def test_verdict_eq_hash_repr_do_not_factor(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("factored")

        monkeypatch.setattr(integrality, "factor_partial", refuse)
        w1 = is_integral_pair(ProjPoint(5, 1), ProjPoint(2, 1), PlaceSet())
        w2 = is_integral_pair(ProjPoint(7, 1), ProjPoint(4, 1), PlaceSet())
        assert not w1.verdict and w1 == w2 and hash(w1) == hash(w2)
        assert "cross_term=3" in repr(w1)
        with pytest.raises(AssertionError, match="factored"):
            w1.violating_primes

    def test_same_cross_term_other_places_differ(self):
        # 6 with S={2} leaves 3; with S={3} it leaves 2
        w2 = is_integral_pair(ProjPoint(6, 1), ProjPoint(0, 1), PlaceSet((2,)))
        w3 = is_integral_pair(ProjPoint(6, 1), ProjPoint(0, 1), PlaceSet((3,)))
        assert w2 != w3
        assert (w2.violating_primes, w3.violating_primes) == ((3,), (2,))

    def test_equal_points_not_integral(self):
        w = is_integral_pair(ProjPoint(3, 7), ProjPoint(3, 7), PlaceSet((2, 3)))
        assert not w.verdict and w.cross_term == 0

    def test_infinity_integrality_is_denominator_units(self):
        # [a:b] integral relative to infinity iff b is an S-unit.
        s = PlaceSet((3,))
        assert is_integral_pair(from_affine(Fraction(5, 9)), INFINITY, s).verdict
        assert not is_integral_pair(from_affine(Fraction(5, 2)), INFINITY, s).verdict

    def test_symmetry_of_verdict(self):
        s = PlaceSet((2, 5))
        for p in SMALL_POINTS:
            for q in SMALL_POINTS:
                if p == q:
                    continue
                assert (
                    is_integral_pair(p, q, s).verdict
                    == is_integral_pair(q, p, s).verdict
                )

    def test_monotone_in_s(self):
        small = PlaceSet((2,))
        big = PlaceSet((2, 3, 7))
        for p in SMALL_POINTS:
            for q in SMALL_POINTS:
                if p == q:
                    continue
                if is_integral_pair(p, q, small).verdict:
                    assert is_integral_pair(p, q, big).verdict


class TestDnCrossForm:
    def test_n_zero_is_plain_cross(self):
        f = make_map([1, 0, 1], [1])
        a, b = ProjPoint(2, 1), ProjPoint(3, 1)
        assert d_n_cross_form_value(f, a, b, 0) == cross_term(a, b)

    def test_matches_image_cross_for_good_reduction(self):
        # x^2+1 has good reduction everywhere: D_1 cross value equals the
        # cross term of normalized images up to sign/content conventions --
        # here the forms are already the normalized image coordinates.
        f = make_map([1, 0, 1], [1])
        a, b = ProjPoint(2, 1), ProjPoint(3, 1)
        v = d_n_cross_form_value(f, a, b, 1)
        assert v == cross_term(iterate(f, a, 1), iterate(f, b, 1))

    def test_negative_n_rejected(self):
        f = make_map([1, 0, 1], [1])
        with pytest.raises(IntegralityError):
            d_n_cross_form_value(f, ProjPoint(1, 1), ProjPoint(2, 1), -1)


class TestRelDn:
    def test_requires_bad_primes(self):
        f = make_map([1, 0, Fraction(1, 2)], [1])  # bad reduction at 2
        with pytest.raises(IntegralityError, match="bad-reduction prime 2"):
            is_integral_rel_dn(f, ProjPoint(1, 1), ProjPoint(3, 1), 1, PlaceSet())

    def test_bad_prime_check_does_not_factor(self, monkeypatch):
        def refuse(n):
            raise AssertionError("factored")

        monkeypatch.setattr(exactarith, "factor", refuse)
        f = make_map([1, 0, Fraction(1, 2)], [1])
        w = is_integral_rel_dn(f, ProjPoint(1, 1), ProjPoint(3, 1), 1, PlaceSet((2,)))
        assert w.cross_term == d_n_cross_form_value(f, ProjPoint(1, 1), ProjPoint(3, 1), 1)

    def test_diagonal_example(self):
        # x^3, u = 2, w = -2: images under f agree up to sign, cross term
        # 2^3*(-2)^3 difference = -2*8*8... the m=n=1 cell is 2-integral.
        f = make_map([1, 0, 0, 0], [1])
        w = is_integral_rel_dn(f, ProjPoint(2, 1), ProjPoint(-2, 1), 1, PlaceSet((2,)))
        assert w.verdict

    def test_functoriality_randomized(self, corpus):
        rng = random.Random(7)
        extra = PlaceSet((2, 3, 5, 7, 11, 13))
        checks = 0
        for f in corpus:
            s = bad_reduction_primes(f).union(extra)
            for _ in range(4):
                a = SMALL_POINTS[rng.randrange(len(SMALL_POINTS))]
                b = SMALL_POINTS[rng.randrange(len(SMALL_POINTS))]
                n = rng.randint(0, 3)
                assert check_functoriality(f, a, b, n, s)
                checks += 1
        assert checks >= 80

    def test_monotonicity_randomized(self, corpus):
        rng = random.Random(11)
        for f in corpus:
            s = bad_reduction_primes(f).union((2, 3, 5))
            for _ in range(4):
                a = SMALL_POINTS[rng.randrange(len(SMALL_POINTS))]
                b = SMALL_POINTS[rng.randrange(len(SMALL_POINTS))]
                n = rng.randint(0, 3)
                m = rng.randint(0, n)
                assert monotonicity_check(f, a, b, m, n, s)

    def test_monotonicity_order_enforced(self):
        f = make_map([1, 0, 1], [1])
        with pytest.raises(IntegralityError):
            monotonicity_check(f, ProjPoint(1, 1), ProjPoint(2, 1), 2, 1, PlaceSet())

    def test_witness_fields(self):
        w = is_integral_pair(ProjPoint(5, 1), ProjPoint(2, 1), PlaceSet())
        assert w.verdict is False
        assert w.cross_term == 3
        assert w.violating_primes == (3,)
        assert w.factorization_complete is True
