import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st

from orbitint import binforms
from orbitint.projective import INFINITY, ProjPoint, from_affine
from orbitint.ratmap import (
    FormDegreeCapError,
    RatMap,
    RatMapError,
    bad_reduction_primes,
    certify_wandering,
    critical_data,
    eval_map,
    exceptional_points,
    is_powering_conjugate,
    iterate,
    iterated_forms,
    make_map,
    mobius_conjugate,
    preimage_count,
)

SAMPLE_POINTS = [
    ProjPoint(0, 1),
    ProjPoint(1, 1),
    ProjPoint(-1, 1),
    ProjPoint(2, 1),
    ProjPoint(-3, 2),
    ProjPoint(5, 3),
    INFINITY,
]


def _gfp_gcd_degree(a, b, p):
    """Degree of gcd over GF(p) of coefficient lists (descending)."""

    def trim(u):
        u = [c % p for c in u]
        while u and u[0] == 0:
            u.pop(0)
        return u

    a, b = trim(list(a)), trim(list(b))
    while b:
        # a mod b over GF(p)
        inv = pow(b[0], -1, p)
        while len(a) >= len(b):
            f = a[0] * inv % p
            for i in range(len(b)):
                a[i] = (a[i] - f * b[i]) % p
            a.pop(0)
            while a and a[0] == 0:
                a.pop(0)
        a, b = b, a
    return len(a) - 1


def _has_bad_reduction_oracle(f, p):
    """Common projective root of (P mod p, Q mod p): gcd over GF(p) or a
    shared root at infinity (both leading coefficients divisible by p)."""
    if f.p[0] % p == 0 and f.q[0] % p == 0:
        return True
    return _gfp_gcd_degree(f.p, f.q, p) > 0


class TestMakeMap:
    def test_basic(self):
        f = make_map([1, 0, 0], [1])  # x^2
        assert f.p == (1, 0, 0) and f.q == (0, 0, 1)
        assert f.degree == 2 and f.is_polynomial

    def test_rational_coefficients_cleared(self):
        # x^2 + 1/2 -> [2x0^2 + x1^2 : 2x1^2]
        f = make_map([1, 0, Fraction(1, 2)], [1])
        assert f.p == (2, 0, 1) and f.q == (0, 0, 2)
        assert f.resultant == 16

    def test_degree_below_two_rejected(self):
        with pytest.raises(RatMapError, match="degree below 2"):
            make_map([1, 0], [1])

    def test_common_factor_rejected(self):
        with pytest.raises(RatMapError, match="not coprime"):
            make_map([1, 0, -1], [1, -1])  # (x^2-1)/(x-1)

    def test_zero_denominator_rejected(self):
        with pytest.raises(RatMapError):
            make_map([1, 0, 0], [0])

    def test_joint_normalization_sign(self):
        f = make_map([-1, 0, 0], [-2])  # -x^2 / -2 has positive lead after norm
        assert f.p[0] > 0

    def test_serialize_coefficients(self):
        f = make_map([1, 0, Fraction(1, 2)], [1])
        assert f.serialize_coefficients() == "num=2,0,1;den=2"
        g = make_map([1, 0, 1], [1, 0])  # (x^2+1)/x
        assert g.serialize_coefficients() == "num=1,0,1;den=1,0"


class TestEvalIterate:
    def test_orbit_values(self):
        f = make_map([1, 0, 1], [1])  # x^2+1
        assert eval_map(f, ProjPoint(1, 1)) == ProjPoint(2, 1)
        assert iterate(f, ProjPoint(1, 1), 3) == ProjPoint(26, 1)
        assert eval_map(f, INFINITY) == INFINITY

    def test_pole_goes_to_infinity(self):
        f = make_map([1, 0, 1], [1, 0])  # (x^2+1)/x
        assert eval_map(f, ProjPoint(0, 1)) == INFINITY
        assert eval_map(f, INFINITY) == INFINITY
        assert eval_map(f, ProjPoint(2, 1)) == from_affine(Fraction(5, 2))

    @settings(max_examples=300, deadline=None)
    @given(st.integers(2, 4), st.data())
    @example(2, None)  # [x0^2 + x1^2 : 2 x1^2] at [1:1]: content 2
    def test_gcd_against_resultant_matches_full_gcd(self, d, data):
        """eval_map normalizes by gcd(Res, P(a), Q(a)); the reference takes
        the gcd of the full coordinates.  When the map has a bad prime
        below 60, half the points are drawn on a common root of P and Q
        modulo one, where the image loses content."""
        if data is None:
            f, pt = make_map([1, 0, 1], [2]), ProjPoint(1, 1)
        else:
            coeffs = st.integers(-6, 6)
            try:
                f = make_map(
                    data.draw(st.lists(coeffs, min_size=d + 1, max_size=d + 1)),
                    data.draw(st.lists(coeffs, min_size=1, max_size=d + 1)),
                )
            except RatMapError:
                assume(False)
            a0, a1 = data.draw(st.integers(-10**6, 10**6)), data.draw(st.integers(0, 10**6))
            bad = [p for p in range(2, 60) if f.resultant % p == 0
                   and all(p % q for q in range(2, p))]
            if bad and data.draw(st.booleans()):
                p = data.draw(st.sampled_from(bad))
                roots = [(r, 1) for r in range(p) if binforms.evaluate(f.p, r, 1) % p == 0
                         and binforms.evaluate(f.q, r, 1) % p == 0]
                if f.p[0] % p == 0 and f.q[0] % p == 0:
                    roots.append((1, 0))
                if roots:
                    r0, r1 = data.draw(st.sampled_from(roots))
                    a0, a1 = r0 + p * a0, r1 + p * a1
            assume((a0, a1) != (0, 0))
            pt = ProjPoint(a0, a1)
        v0 = binforms.evaluate(f.p, pt.a0, pt.a1)
        v1 = binforms.evaluate(f.q, pt.a0, pt.a1)
        image = eval_map(f, pt)
        assert image == ProjPoint(v0, v1)
        assert f.resultant % math.gcd(v0, v1) == 0
        event("image loses content" if math.gcd(v0, v1) > 1 else "coprime image")

    def test_negative_iterate_rejected(self):
        f = make_map([1, 0, 0], [1])
        with pytest.raises(RatMapError):
            iterate(f, ProjPoint(2, 1), -1)


class TestIteratedForms:
    def test_known_second_iterate(self):
        f = make_map([1, 0, 1], [1])  # x^2+1 -> (x^2+1)^2+1
        p2, q2 = iterated_forms(f, 2)
        assert p2 == (1, 0, 2, 0, 2)
        assert q2 == (0, 0, 0, 0, 1)

    def test_degree_and_normalization(self, corpus):
        for f in corpus:
            for n in (1, 2):
                pn, qn = iterated_forms(f, n)
                assert len(pn) == len(qn) == f.degree**n + 1
                g = math.gcd(binforms.content(pn), binforms.content(qn))
                assert g == 1

    def test_coherence_with_pointwise_iteration(self, corpus):
        for f in corpus:
            for n in (1, 2, 3):
                if f.degree**n > 64:
                    continue
                pn, qn = iterated_forms(f, n)
                for pt in SAMPLE_POINTS:
                    v0 = binforms.evaluate(pn, pt.a0, pt.a1)
                    v1 = binforms.evaluate(qn, pt.a0, pt.a1)
                    assert ProjPoint(v0, v1) == iterate(f, pt, n)

    def test_composition_of_forms(self):
        # forms of f^(m+n) equal forms of f^m composed with forms of f^n
        f = make_map([1, 1, 0, 1], [1])  # x^3+x^2+1
        p3, q3 = iterated_forms(f, 3)
        p1, q1 = f.p, f.q
        p2, q2 = iterated_forms(f, 2)
        comp_p = binforms.compose_pair(p1, p2, q2)
        comp_q = binforms.compose_pair(q1, p2, q2)
        assert binforms.primitive(comp_p) == p3
        assert binforms.primitive(comp_q) == q3

    def test_degree_cap(self):
        f = make_map([1, 0, 0], [1])
        with pytest.raises(FormDegreeCapError, match="form degree cap"):
            iterated_forms(f, 13)  # 2^13 > 4096

    def test_n_below_one_rejected(self):
        f = make_map([1, 0, 0], [1])
        with pytest.raises(RatMapError):
            iterated_forms(f, 0)


class TestBadReduction:
    def test_examples(self):
        assert bad_reduction_primes(make_map([1, 0, 0], [1])).primes == ()
        f = make_map([1, 0, Fraction(1, 2)], [1])
        assert bad_reduction_primes(f).primes == (2,)

    def test_mod_p_oracle(self, corpus):
        small_primes = [p for p in range(2, 100) if all(p % q for q in range(2, p))]
        for f in corpus:
            bad = set(bad_reduction_primes(f))
            for p in small_primes:
                assert (p in bad) == _has_bad_reduction_oracle(f, p)

    def test_iterate_bad_primes_subset(self, corpus):
        for f in corpus:
            if f.degree > 2:
                continue
            f2 = RatMap(*iterated_forms(f, 2))
            assert set(bad_reduction_primes(f2)) <= set(bad_reduction_primes(f))


class TestCriticalData:
    def test_riemann_hurwitz(self, corpus):
        for f in corpus:
            total = sum(
                (c.ramification_index - 1) * c.factor_degree for c in critical_data(f)
            )
            assert total == 2 * f.degree - 2

    def test_squaring_map(self):
        data = {c.point: c for c in critical_data(make_map([1, 0, 0], [1]))}
        assert set(data) == {ProjPoint(0, 1), INFINITY}
        for c in data.values():
            assert c.totally_ramified and c.ramification_index == 2
            assert c.periodic and c.period == 1

    def test_cube_map(self):
        data = {c.point: c for c in critical_data(make_map([1, 0, 0, 0], [1]))}
        assert set(data) == {ProjPoint(0, 1), INFINITY}
        assert all(c.ramification_index == 3 for c in data.values())

    def test_plus_inverse_map(self):
        # (x^2+1)/x: critical points +-1, each simple doubling, hence
        # totally ramified in degree 2.
        data = {c.point: c for c in critical_data(make_map([1, 0, 1], [1, 0]))}
        assert set(data) == {ProjPoint(1, 1), ProjPoint(-1, 1)}
        for c in data.values():
            assert c.ramification_index == 2 and c.totally_ramified

    def test_irrational_critical_points_tagged(self):
        # x^3 - 3x has critical points +-1... use x^3+x: W ~ 3x^2+1 irreducible
        f = make_map([1, 0, 1, 0], [1])
        tags = [c for c in critical_data(f) if c.point is None]
        assert len(tags) == 1
        assert tags[0].factor_degree == 2
        assert tags[0].factor == (3, 0, 1)


class TestExceptional:
    def test_examples(self):
        assert exceptional_points(make_map([1, 0, 1], [1])) == [INFINITY]
        assert set(exceptional_points(make_map([1, 0, 0], [1]))) == {
            INFINITY,
            ProjPoint(0, 1),
        }
        assert exceptional_points(make_map([1, 0, 1], [1, 0])) == []

    def test_swapped_pair_is_exceptional(self):
        # 1/x^2 swaps 0 and infinity; both are fixed by the square.
        assert set(exceptional_points(make_map([1], [1, 0, 0]))) == {
            INFINITY,
            ProjPoint(0, 1),
        }

    def test_quadratic_exceptional_pair(self):
        # (x^2+2)/(2x) fixes +-sqrt(2), each totally ramified: the pair is
        # reported as its irreducible form x0^2 - 2 x1^2.
        exc = exceptional_points(make_map([1, 0, 2], [2, 0]))
        assert exc == [(1, 0, -2)]

    def test_at_most_two_counted_with_degree(self, corpus):
        for f in corpus:
            total = 0
            for item in exceptional_points(f):
                total += 2 if isinstance(item, tuple) else 1
            assert total <= 2


class TestPowering:
    def test_fixed_and_swapped(self):
        w = is_powering_conjugate(make_map([1, 0, 0], [1]))
        assert w.is_powering and w.kind == "fixed"
        assert set(w.pair) == {ProjPoint(0, 1), INFINITY}
        w = is_powering_conjugate(make_map([1], [1, 0, 0]))  # 1/x^2
        assert w.is_powering and w.kind == "swapped"

    def test_quadratic_pair_powering(self):
        w = is_powering_conjugate(make_map([1, 0, 2], [2, 0]))
        assert w.is_powering and w.kind == "fixed"
        assert w.pair == (1, 0, -2)

    def test_non_powering(self):
        for coeffs in ([1, 0, 1], [1, 0, -1]):
            assert not is_powering_conjugate(make_map(coeffs, [1])).is_powering
        assert not is_powering_conjugate(make_map([1, 0, 1], [1, 0])).is_powering

    def test_powering_maps_have_two_exceptional(self, corpus):
        for f in corpus:
            if is_powering_conjugate(f).is_powering:
                total = sum(
                    2 if isinstance(item, tuple) else 1
                    for item in exceptional_points(f)
                )
                assert total == 2


class TestMobiusConjugate:
    def test_conjugation_identity(self):
        f = make_map([1, 0, 0, 0], [1])  # x^3
        mat = ((2, 1), (1, 1))
        g = mobius_conjugate(f, mat)

        def sigma(pt):
            return ProjPoint(2 * pt.a0 + pt.a1, pt.a0 + pt.a1)

        for pt in SAMPLE_POINTS:
            assert eval_map(g, sigma(pt)) == sigma(eval_map(f, pt))

    def test_singular_matrix_rejected(self):
        with pytest.raises(RatMapError):
            mobius_conjugate(make_map([1, 0, 0], [1]), ((1, 1), (1, 1)))

    def test_conjugate_preserves_powering(self):
        f = make_map([1, 0, 0], [1])
        g = mobius_conjugate(f, ((1, -2), (3, -5)))
        assert is_powering_conjugate(g).is_powering


class TestPreimageCount:
    def test_examples(self):
        f = make_map([1, 0, 0], [1])  # x^2
        assert preimage_count(f, ProjPoint(1, 1), 2) == 4
        assert preimage_count(f, ProjPoint(0, 1), 4) == 1  # exceptional
        assert preimage_count(f, INFINITY, 4) == 1  # exceptional
        g = make_map([1, 0, 1], [1])  # x^2+1: only infinity exceptional
        assert preimage_count(g, INFINITY, 4) == 1
        assert preimage_count(g, ProjPoint(0, 1), 4) >= 3

    def test_k_positive(self):
        with pytest.raises(RatMapError):
            preimage_count(make_map([1, 0, 0], [1]), ProjPoint(1, 1), 0)


class TestCertifyWandering:
    def test_escape_for_squaring(self):
        r = certify_wandering(make_map([1, 0, 0], [1]), ProjPoint(2, 1))
        assert r.kind == "wandering"
        assert r.certificate is not None
        assert r.certificate.achieved_at <= 3

    def test_preperiodic(self):
        r = certify_wandering(make_map([1, 0, -1], [1]), ProjPoint(0, 1))
        assert r.kind == "preperiodic"
        assert r.tail == 0 and r.period == 2

    def test_strictly_preperiodic_tail(self):
        # x^2: -1 -> 1 -> 1 (tail 1, period 1)
        r = certify_wandering(make_map([1, 0, 0], [1]), ProjPoint(-1, 1))
        assert r.kind == "preperiodic" and r.tail == 1 and r.period == 1

    def test_escape_soundness_random(self, corpus):
        rng = random.Random(20260823)
        for f in corpus[:6]:
            for _ in range(20):
                num = rng.randint(10**4, 10**7)
                den = rng.randint(1, 99)
                pt = ProjPoint(num, den)
                if max(abs(pt.a0), abs(pt.a1)) ** (f.degree - 1) <= f.escape_bound:
                    continue
                img = eval_map(f, pt)
                assert max(abs(img.a0), abs(img.a1)) > max(abs(pt.a0), abs(pt.a1))

    def test_periodic_multiplier(self):
        # x^2 - 1: the critical point 0 lies on the 2-cycle 0 -> -1 -> 0,
        # and infinity is fixed
        data = {c.point: c for c in critical_data(make_map([1, 0, -1], [1]))}
        assert {p: (c.periodic, c.period) for p, c in data.items()} == {
            ProjPoint(0, 1): (True, 2),
            INFINITY: (True, 1),
        }


class TestEscapeByIntegers:
    def test_integer_test_decides_at_the_bound(self):
        # f = x^2 + 10^20: Res = 1, cofactor_max = 10^20, so the escape
        # bound is 2 * 1 * 4 * 10^20.  As floats, log(B) and log(B + 1) are
        # equal, so only the integer test can tell H = B from H = B + 1.
        f = make_map([1, 0, 10**20], [1])
        bound = f.escape_bound
        assert bound == 8 * 10**20
        assert math.log(bound) == math.log(bound + 1)
        at = certify_wandering(f, ProjPoint(bound, 1)).certificate.achieved_at
        above = certify_wandering(f, ProjPoint(bound + 1, 1)).certificate.achieved_at
        assert (at, above) == (1, 0)


def orbit_classify(f, pt, max_iter=64):
    """The classifier ``certify_wandering`` absorbed, kept as its oracle:
    ('preperiodic', tail, period), ('wandering', escape_index, height), or
    ('undecided', None, None), by exact cycle detection over the iterates
    0..max_iter and the escape test H^(d-1) > ``f.escape_bound``."""
    seen = {}
    cur = pt
    bound, e = f.escape_bound, f.degree - 1
    for i in range(max_iter + 1):
        if cur in seen:
            tail = seen[cur]
            return "preperiodic", tail, i - tail
        height = max(abs(cur.a0), abs(cur.a1))
        if height**e > bound:
            return "wandering", i, height
        seen[cur] = i
        cur = eval_map(f, cur)
    return "undecided", None, None


# (map, start) pairs with a preperiodic orbit: x^2 - 1 at 0 and -1 (the
# 2-cycle), x^2 at 0, 1, -1 and infinity
KNOWN_PREPERIODIC = [
    (make_map([1, 0, -1], [1]), pt) for pt in (ProjPoint(0, 1), ProjPoint(-1, 1))
] + [
    (make_map([1, 0, 0], [1]), pt)
    for pt in (ProjPoint(0, 1), ProjPoint(1, 1), ProjPoint(-1, 1), INFINITY)
]


@st.composite
def small_maps(draw):
    """Maps of degree 2 or 3 with coefficients in -9..9."""
    d = draw(st.integers(2, 3))
    coeffs = st.lists(st.integers(-9, 9), min_size=d + 1, max_size=d + 1)
    try:
        return make_map(draw(coeffs), draw(coeffs))
    except RatMapError:
        assume(False)


@st.composite
def map_and_start(draw):
    """A known preperiodic start, or a small map at a small rational, at
    infinity, or at an integer next to the escape threshold (the largest
    h with h^(d-1) <= escape_bound, and h +- 1)."""
    if draw(st.booleans()):
        return draw(st.sampled_from(KNOWN_PREPERIODIC))
    f = draw(small_maps())
    small = st.builds(
        lambda a, b: from_affine(Fraction(a, b)), st.integers(-9, 9), st.integers(1, 9)
    )
    h = f.escape_bound if f.degree == 2 else math.isqrt(f.escape_bound)
    edge = st.builds(lambda k: ProjPoint(h + k, 1), st.integers(-1, 1))
    return f, draw(st.one_of(small, st.just(INFINITY), edge))


class TestCertifyAgainstOracle:
    @settings(max_examples=400, deadline=None)
    @given(map_and_start(), st.integers(1, 64))
    def test_matches_orbit_classify(self, f_pt, max_iter):
        f, pt = f_pt
        kind, index, value = orbit_classify(f, pt, max_iter)
        r = certify_wandering(f, pt, max_iter)
        event(kind)
        assert r.kind == kind
        if kind == "preperiodic":
            assert (r.tail, r.period, r.certificate) == (index, value, None)
        elif kind == "wandering":
            assert (r.tail, r.period) == (None, None)
            cert = r.certificate
            assert (cert.achieved_at, cert.height, cert.bound) == (index, value, f.escape_bound)
        else:
            assert (r.tail, r.period, r.certificate) == (None, None, None)

    def test_critical_data_matches_oracle(self, corpus):
        for f in corpus:
            for c in critical_data(f):
                if c.point is None:
                    assert c.factor_degree >= 2 and (c.periodic, c.period) == (None, None)
                    continue
                assert c.factor is None and c.factor_degree == 1
                kind, tail, period = orbit_classify(f, c.point)
                periodic = kind == "preperiodic" and tail == 0
                assert c.periodic == (periodic if kind != "undecided" else None)
                assert c.period == (period if periodic else None)

    def test_max_iter_below_one_refused(self):
        with pytest.raises(RatMapError, match="max_iter"):
            certify_wandering(make_map([1, 0, 0], [1]), ProjPoint(2, 1), 0)


class TestIteratedFormsCache:
    def test_cache_stays_bounded(self):
        from orbitint import ratmap

        for c in range(1, 3 * ratmap.ITERATED_FORMS_CACHE_SIZE):
            f = make_map([1, 0, c], [1])
            iterated_forms(f, 3)
        info = ratmap._iterated_forms.cache_info()
        assert info.currsize <= ratmap.ITERATED_FORMS_CACHE_SIZE
        assert info.maxsize == ratmap.ITERATED_FORMS_CACHE_SIZE

    def test_spellings_of_one_map_share_an_entry(self):
        from orbitint import ratmap

        ratmap._iterated_forms.cache_clear()
        first = iterated_forms(make_map([1, 0, 7], [1]), 3)
        hits = ratmap._iterated_forms.cache_info().hits
        assert iterated_forms(make_map([3, 0, 21], [3]), 3) is first
        assert ratmap._iterated_forms.cache_info().hits == hits + 1

    def test_cap_checked_before_the_cache(self, monkeypatch):
        from orbitint import ratmap

        f = make_map([1, 0, 1], [1])
        iterated_forms(f, 3)  # cached under the default cap
        monkeypatch.setattr(ratmap, "DEFAULT_FORM_DEGREE_CAP", 4)
        with pytest.raises(FormDegreeCapError):
            iterated_forms(f, 3)
