"""Differential tests against sympy's ``factor_list``: of ``factor_form``,
output order included, and of the gcd-only totally ramified path against
the factorization it replaced, of W(f) for powering conjugacy and of W(f^2)
for exceptional points."""

from math import comb

import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from orbitint import binforms
from orbitint.projective import INFINITY, ProjPoint
from orbitint.ratmap import (
    RatMap,
    RatMapError,
    eval_map,
    exceptional_points,
    is_powering_conjugate,
    iterated_forms,
    make_map,
    mobius_conjugate,
)

_t = sympy.Symbol("t")


def _factor(form):
    """(x1 multiplicity, [(primitive factor, multiplicity)]) in sympy's order."""
    m = binforms.x1_multiplicity(form)
    uni = form[m:]
    if len(uni) <= 1:
        return m, []
    _, factors = sympy.factor_list(sympy.Poly(uni, _t, domain="QQ"))
    out = []
    for fac, mult in factors:
        cs = tuple(int(c) for c in sympy.Poly(fac, _t, domain="QQ").all_coeffs())
        out.append((binforms.primitive(cs), int(mult)))
    return m, out


def _divides(div, num):
    md, mn = binforms.x1_multiplicity(div), binforms.x1_multiplicity(num)
    if md > mn:
        return False
    rem = sympy.rem(
        sympy.Poly(num[mn:], _t, domain="QQ"), sympy.Poly(div[md:], _t, domain="QQ")
    )
    return rem.is_zero


def _quadratic_image(f, fac):
    qa, qb, qc = fac
    return binforms.add(
        binforms.add(
            binforms.scale(binforms.mul(f.p, f.p), qa),
            binforms.scale(binforms.mul(f.p, f.q), qb),
        ),
        binforms.scale(binforms.mul(f.q, f.q), qc),
    )


def reference_exceptional(f):
    """Roots of multiplicity d^2 - 1 of W(f^2) fixed by f^2."""
    d2 = f.degree**2
    f2 = RatMap(*iterated_forms(f, 2))
    fix2 = binforms.sub((0,) + f2.p, f2.q + (0,))
    m, factors = _factor(f2.wronskian)
    out = []
    if m == d2 - 1 and eval_map(f2, INFINITY) == INFINITY:
        out.append(INFINITY)
    for fac, mult in factors:
        if mult != d2 - 1:
            continue
        if len(fac) == 2:
            z = ProjPoint(-fac[1], fac[0])
            if eval_map(f2, z) == z:
                out.append(z)
        elif len(fac) == 3 and _divides(fac, fix2):
            out.append(fac)
    return out


def reference_powering(f):
    """(is_powering, pair, kind) from the roots of multiplicity d - 1 of W(f)."""
    d = f.degree
    m, factors = _factor(f.wronskian)
    rational = [INFINITY] if m == d - 1 else []
    rational += [ProjPoint(-fac[1], fac[0]) for fac, e in factors if len(fac) == 2 and e == d - 1]
    quadratic = [fac for fac, e in factors if len(fac) == 3 and e == d - 1]
    if len(rational) == 2:
        a, b = rational
        fa, fb = eval_map(f, a), eval_map(f, b)
        if {fa, fb} == {a, b}:
            return True, (a, b), "fixed" if fa == a else "swapped"
    elif not rational and len(quadratic) == 1:
        fac = quadratic[0]
        if _divides(fac, _quadratic_image(f, fac)):
            fix1 = binforms.sub((0,) + f.p, f.q + (0,))
            return True, fac, "fixed" if _divides(fac, fix1) else "swapped"
    return False, None, None


def _check(f):
    assert exceptional_points(f) == reference_exceptional(f)
    w = is_powering_conjugate(f)
    assert (w.is_powering, w.pair, w.kind) == reference_powering(f)


def _sqrt_powering(d, root, sign):
    """sign * sqrt(D) * phi^-1(phi(x)^d) for phi = (x - sqrt D)/(x + sqrt D):
    x^(+d) (sign 1) or x^(-d) (sign -1) conjugated over Q(sqrt D), a map
    defined over Q whose totally ramified points are +-sqrt(D)."""
    num = [comb(d, k) * root ** (k // 2) if k % 2 == 0 else 0 for k in range(d + 1)]
    den = [comb(d, k) * root ** (k // 2) if k % 2 == 1 else 0 for k in range(1, d + 1)]
    return make_map([sign * c for c in num], den)


# factors of degree 1 to 5 with multiplicities, up to 2^64 in size
_factors = st.lists(
    st.tuples(
        st.lists(st.integers(-(2**64), 2**64), min_size=2, max_size=6).filter(
            lambda cs: cs[0] != 0
        ),
        st.integers(1, 3),
    ),
    min_size=1,
    max_size=4,
)


@settings(max_examples=150, deadline=None)
@given(_factors, st.integers(0, 3))
# quadratic parts, which split by their discriminant with no prime: a square
# discriminant, a non-square one, a negative one, a non-monic split, a
# content of 6 beside a factor x0, and a squared quadratic
@example([([1, -3, 2], 1)], 0)
@example([([1, 0, -2], 1)], 0)
@example([([1, 1, 1], 1)], 0)
@example([([6, -5, 1], 1)], 0)
@example([([6, 6, -12], 1)], 1)
@example([([1, 0, -3], 2)], 0)
def test_factor_form_matches_sympy(factors, x1_mult):
    form = (1,)
    for cs, mult in factors:
        if len(form) - 1 + mult * (len(cs) - 1) <= 14:  # affine degree at most 14
            for _ in range(mult):
                form = binforms.mul(form, cs)
    form = form + (0,) * x1_mult
    assert binforms.factor_form(form) == _factor(form)


@pytest.mark.parametrize(
    "form",
    [
        (1, -6, 11, -6),  # (t - 1)(t - 2)(t - 3): three roots mod 3, split at degree 1
        (1, 1, 1, 3, 1, 1, 1),  # two cubics, both irreducible mod 5: split at degree 3
        (1, 1, 3, 3, 1, 1, 3),  # irreducible; two linear and two quadratic factors mod 3
        (1, 0, -10, 0, 1),  # Swinnerton-Dyer, of sqrt 2 + sqrt 3: reducible mod every p
        (1,) + (0,) * 23 + (-1,),  # t^24 - 1: eight cyclotomic factors
        binforms.mul((1, -1, 0, 2), (3, 0, 0, 0, -7)),  # leading coefficient 3
    ],
)
def test_factor_form_hard_cases(form):
    assert binforms.factor_form(form) == _factor(form)


def test_factor_form_order():
    # sympy's order compares primitive coefficient tuples, so 6t - 5
    # comes after t + 1; the square t^2 comes last, by its multiplicity
    assert binforms.factor_form((6, -5, -6, 5, 0, 0)) == (
        0,
        [((1, -1), 1), ((1, 1), 1), ((6, -5), 1), ((1, 0), 2)],
    )


coeffs = st.integers(-5, 5)
matrices = st.tuples(
    st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
    st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
).filter(lambda m: m[0][0] * m[1][1] - m[0][1] * m[1][0] != 0)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 4), st.data())
def test_random_maps(d, data):
    num = data.draw(st.lists(coeffs, min_size=1, max_size=d + 1))
    den = data.draw(st.lists(coeffs, min_size=d + 1, max_size=d + 1))
    try:
        f = make_map(num, den)
    except RatMapError:
        assume(False)
    _check(f)


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 4), st.sampled_from([1, -1]), matrices)
def test_conjugates_over_q(d, sign, matrix):
    base = make_map([1] + [0] * d, [1]) if sign == 1 else make_map([1], [1] + [0] * d)
    f = mobius_conjugate(base, matrix)
    assert is_powering_conjugate(f).is_powering
    _check(f)


@settings(max_examples=30, deadline=None)
@given(
    st.integers(2, 4),
    st.integers(-7, 7).filter(lambda v: v != 0),
    st.sampled_from([1, -1]),
    matrices,
)
def test_conjugates_over_quadratic_fields(d, root, sign, matrix):
    f = mobius_conjugate(_sqrt_powering(d, root, sign), matrix)
    assert is_powering_conjugate(f).is_powering
    _check(f)
