import random

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitint import binforms

_t = sympy.Symbol("t")

polys = st.lists(st.integers(-6, 6), min_size=1, max_size=6)


def _sympy_gcd(a, b):
    g = sympy.gcd(sympy.Poly(a, _t, domain="ZZ"), sympy.Poly(b, _t, domain="ZZ"))
    return binforms.primitive(tuple(int(c) for c in sympy.Poly(g, _t).all_coeffs()))


class TestGcd:
    @settings(max_examples=60, deadline=None)
    @given(polys, polys, polys)
    def test_matches_sympy(self, f, g, h):
        a, b = binforms.mul(f, h), binforms.mul(g, h)
        if not any(a) or not any(b):
            return
        a, b = binforms.strip(a), binforms.strip(b)
        assert binforms.gcd(a, b) == _sympy_gcd(a, b)

    def test_examples(self):
        assert binforms.gcd((1, 0, -1), (1, -2, 1)) == (1, -1)
        assert binforms.gcd((2, 4), (3, 6)) == (1, 2)
        assert binforms.gcd((-4, 0, 4), ()) == (1, 0, -1)
        assert binforms.gcd((1, 0, 1), (1, 1)) == (1,)

    def test_high_degree_squarefree_part(self):
        # (t-1)^40 (t+2)^41: gcd with the derivative is (t-1)^39 (t+2)^40
        rng = random.Random(3)
        for _ in range(3):
            r, s = rng.randint(1, 5), rng.randint(-5, -1)
            f = (1,)
            for _ in range(40):
                f = binforms.mul(f, (1, -r))
            for _ in range(41):
                f = binforms.mul(f, (1, -s))
            g = binforms.gcd(f, binforms.dx0(f))
            assert binforms.degree(g) == 79
            assert binforms.distinct_root_count(f) == 2


class TestPseudoDivision:
    @settings(max_examples=50, deadline=None)
    @given(polys, polys, polys)
    def test_prem_zero_iff_divisible(self, f, g, r):
        if not any(f) or not any(g):
            return
        a = binforms.mul(f, g)
        assert binforms.prem(a, g) == ()
        assert binforms.quotient(a, g) == binforms.strip(f)
        s = binforms.add(*_padded(a, r))
        if any(s):
            ref = sympy.rem(sympy.Poly(s, _t, domain="QQ"), sympy.Poly(g, _t, domain="QQ"))
            assert (binforms.prem(s, g) == ()) == ref.is_zero

    def test_divides(self):
        x2m1 = (1, 0, -1)
        assert binforms.divides((1, -1), x2m1)
        assert not binforms.divides((1, 1, 1), x2m1)
        # x1 | x0 x1 but x1^2 does not
        assert binforms.divides((0, 1), (0, 1, 0))
        assert not binforms.divides((0, 0, 1), (0, 1, 0))

    @settings(max_examples=50, deadline=None)
    @given(polys, polys, st.integers(0, 2), st.integers(0, 2))
    def test_form_quotient(self, f, g, mf, mg):
        # forms with x1 factors: leading zeros
        f, g = (0,) * mf + tuple(f), (0,) * mg + tuple(g)
        if not any(g):
            return
        assert binforms.form_quotient(binforms.mul(f, g), g) == f
        assert binforms.form_quotient((0,) * len(f), (1,)) == (0,) * len(f)

    def test_form_quotient_needs_the_x1_power(self):
        # x0 / x1: the affine parts divide, the x1 powers do not
        with pytest.raises(binforms.FormError):
            binforms.form_quotient((1, 0), (0, 1))
        with pytest.raises(binforms.FormError):
            binforms.form_quotient((1, 2, 1), (1, 3))


def _padded(a, b):
    n = max(len(a), len(b))
    return [0] * (n - len(a)) + list(a), [0] * (n - len(b)) + list(b)


def sylvester_resultant(p, q):
    """Res(p, q) of two forms of one degree d: the determinant of the
    2d x 2d Sylvester matrix, rows of p shifted 0..d-1, then those of q."""
    d = len(p) - 1
    rows = [[0] * i + list(cs) + [0] * (d - 1 - i) for cs in (p, q) for i in range(d)]
    return int(sympy.Matrix(rows).det())


class TestBezoutCofactors:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 4), st.data())
    def test_identities(self, d, data):
        p = tuple(data.draw(st.lists(st.integers(-9, 9), min_size=d + 1, max_size=d + 1)))
        q = tuple(data.draw(st.lists(st.integers(-9, 9), min_size=d + 1, max_size=d + 1)))
        res = sylvester_resultant(p, q)
        if res == 0:
            return
        r, g1, g2, h1, h2 = binforms.bezout_cofactors(p, q)
        assert r == res
        top = (res,) + (0,) * (2 * d - 1)
        bot = (0,) * (2 * d - 1) + (res,)
        assert binforms.add(binforms.mul(g1, p), binforms.mul(g2, q)) == top
        assert binforms.add(binforms.mul(h1, p), binforms.mul(h2, q)) == bot


def power_table_evaluate(cs, a0, a1):
    """The power-table evaluation that Horner's rule replaced, kept as the
    reference: a table of a0 powers and two products per nonzero term."""
    d = len(cs) - 1
    pows0 = [1] * (d + 1)
    for i in range(1, d + 1):
        pows0[i] = pows0[i - 1] * a0
    acc = 0
    p1 = 1
    for k, c in enumerate(cs):
        if c:
            acc += c * pows0[d - k] * p1
        p1 *= a1
    return acc


coordinates = st.one_of(
    st.integers(-50, 50),
    st.integers(-(2**10_000), 2**10_000),
    st.sampled_from([0, 1, -1, 2**10_000 - 1, -(2**10_000) + 1, 3**6300]),
)


class TestEvaluate:
    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.one_of(st.just(0), st.integers(-10**6, 10**6), st.integers()),
            min_size=0,
            max_size=7,
        ),
        coordinates,
        coordinates,
    )
    def test_matches_power_table(self, cs, a0, a1):
        assert binforms.evaluate(tuple(cs), a0, a1) == power_table_evaluate(cs, a0, a1)

    def test_examples(self):
        assert binforms.evaluate((), 5, 7) == 0
        assert binforms.evaluate((4,), 0, 0) == 4  # degree 0: the constant
        assert binforms.evaluate((0, 0, 1), 3, 5) == 25  # x1^2
        assert binforms.evaluate((0, 0, 0), 3, 5) == 0
        assert binforms.evaluate((1, 0, 0), 3, 5) == 9  # x0^2
        assert binforms.evaluate((0, 2, -1), -3, 5) == -30 - 25
        assert binforms.evaluate((1, 2, 3, 4), 2, -1) == 8 - 8 + 6 - 4
        assert binforms.evaluate((1, 0, 1), 0, 0) == 0


def dense_mul(a, b):
    """Convolution over every pair of entries, zeros included: the reference
    for ``mul``, which skips zero terms."""
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return tuple(out)


def monomials_reference(p, q, e):
    """p^(e-j) q^j for j = 0..e, each multiplied up from (1,): the
    reference for ``monomials``, which builds no product with a unit."""
    out = []
    for j in range(e + 1):
        m = (1,)
        for f in [p] * (e - j) + [q] * j:
            m = dense_mul(m, f)
        out.append(m)
    return out


def dense_combine(cs, forms):
    """sum_j cs[j] * forms[j] entry by entry, from a zero accumulator: the
    reference for ``combine``."""
    out = [0] * len(forms[0])
    for c, f in zip(cs, forms):
        for k, x in enumerate(f):
            out[k] += c * x
    return tuple(out)


def shaped_forms(length):
    """Forms of a given length that are all zero, a single term, sparse
    (mostly zeros) or dense (no zeros), with small and big entries."""
    entry = st.one_of(st.integers(-9, 9).filter(bool), st.integers(2**70, 2**90))
    single = st.tuples(st.integers(0, length - 1), entry).map(
        lambda t: tuple(t[1] if k == t[0] else 0 for k in range(length))
    )
    return st.one_of(
        st.just((0,) * length),
        single,
        st.lists(st.one_of(st.just(0), st.just(0), entry), min_size=length,
                 max_size=length).map(tuple),
        st.lists(entry, min_size=length, max_size=length).map(tuple),
    )


class TestSparseKernels:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_mul_matches_dense_reference(self, data):
        a = data.draw(shaped_forms(data.draw(st.integers(1, 9))))
        b = data.draw(shaped_forms(data.draw(st.integers(1, 9))))
        assert binforms.mul(a, b) == dense_mul(a, b)
        assert binforms.mul(b, a) == dense_mul(a, b)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_combine_matches_dense_reference(self, data):
        n = data.draw(st.integers(1, 5))
        length = data.draw(st.integers(1, 8))
        forms = [data.draw(shaped_forms(length)) for _ in range(n)]
        cs = data.draw(shaped_forms(n))
        assert binforms.combine(cs, forms) == dense_combine(cs, forms)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_monomials_match_products_from_one(self, data):
        length = data.draw(st.integers(1, 5))
        p, q = data.draw(shaped_forms(length)), data.draw(shaped_forms(length))
        e = data.draw(st.integers(0, 4))
        if data.draw(st.booleans()):
            p, q = list(p), list(q)
        ms = binforms.monomials(p, q, e)
        assert ms == monomials_reference(p, q, e)
        assert all(type(m) is tuple for m in ms)

    def test_combine_term_counts(self):
        forms = [(1, 2, 3), (0, 5, 0), (7, 0, 0)]
        assert binforms.combine((0, 0, 0), forms) == (0, 0, 0)
        assert binforms.combine((0, 2, 0), forms) == (0, 10, 0)
        assert binforms.combine((1, 0, -1), forms) == (-6, 2, 3)
        assert binforms.combine((1, 1, 1), forms) == (8, 7, 3)
