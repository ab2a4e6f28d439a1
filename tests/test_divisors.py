import math
from functools import reduce

import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from orbitint import binforms, divisors
from orbitint.divisors import (
    BiForm,
    DivisorError,
    build_tower,
    diagonal_critical_intersections,
    diagonal_form,
    exact_divide,
    g_form,
    leading_form_check,
    pullback,
)
from orbitint.exactarith import decimal_str
from orbitint.mapexpr import parse_map
from orbitint.projective import INFINITY, ProjPoint
from orbitint.ratmap import (
    FormDegreeCapError,
    RatMapError,
    critical_data,
    iterate,
    iterated_forms,
    make_map,
)

from conftest import unlimited_str


def from_dict(coeffs, bidegree):
    """The biform with the sparse coefficients {(i, k): c} of
    x0^i x1^(dx-i) y0^k y1^(dy-k)."""
    dx, dy = bidegree
    rows = [[0] * (dy + 1) for _ in range(dx + 1)]
    for (i, k), c in coeffs.items():
        rows[dx - i][dy - k] = c
    return BiForm(tuple(map(tuple, rows)))


def multiply(a, b):
    """The product of two biforms, row by row: the oracle that the tower's
    layers multiply back to G_n under."""
    zero = (0,) * (len(a.rows[0]) + len(b.rows[0]) - 1)
    out = [zero] * (len(a.rows) + len(b.rows) - 1)
    for i, r1 in enumerate(a.rows):
        for j, r2 in enumerate(b.rows):
            out[i + j] = binforms.add(out[i + j], binforms.mul(r1, r2))
    return BiForm(tuple(out))


def restrict_to_diagonal(form):
    """form(x; x), a binary form of degree dx+dy: the sum of the rows, row
    a times x0^(dx-a) x1^a."""
    dx = form.bidegree[0]
    return reduce(
        binforms.add,
        ((0,) * a + r + (0,) * (dx - a) for a, r in enumerate(form.rows)),
    )


def swap_xy(form):
    """form(y; x): the transpose of the rows."""
    return BiForm(tuple(zip(*form.rows)))


@st.composite
def sparse_biforms(draw, max_degree=3):
    """(bidegree, {(i, k): c}) with small coefficients, zeros included."""
    dx = draw(st.integers(0, max_degree))
    dy = draw(st.integers(0, max_degree))
    keys = [(i, k) for i in range(dx + 1) for k in range(dy + 1)]
    coeffs = draw(st.dictionaries(st.sampled_from(keys), st.integers(-3, 3)))
    return (dx, dy), coeffs


@st.composite
def divisor_biforms(draw):
    """Nonzero biforms times a power of x1 (leading rows zero) and a power
    of y1 (every row divisible by y1), either power possibly 1."""
    (dx, dy), coeffs = draw(sparse_biforms(max_degree=2))
    assume(any(coeffs.values()))
    mx, my = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    # the monomial x1^mx y1^my is the key (0, 0) of bidegree (mx, my)
    shift = from_dict({(0, 0): 1}, (mx, my))
    return multiply(from_dict(coeffs, (dx, dy)), shift)


@st.composite
def rational_maps(draw):
    """Maps of degree 2 to 4 with small integer coefficients."""
    d = draw(st.integers(2, 4))
    num = [draw(st.integers(1, 3))] + draw(st.lists(st.integers(-3, 3), min_size=d, max_size=d))
    den = draw(st.lists(st.integers(-3, 3), min_size=1, max_size=d + 1))
    try:
        return make_map(num, den)
    except RatMapError:
        assume(False)


@st.composite
def diagonal_maps(draw):
    """Maps of degree 2 to 4, polynomial or rational, with coefficients in
    -9..9."""
    d = draw(st.integers(2, 4))
    num = draw(st.lists(st.integers(-9, 9), min_size=d + 1, max_size=d + 1))
    if draw(st.booleans()):
        den = [draw(st.integers(-9, 9).filter(bool))]
    else:
        den = draw(st.lists(st.integers(-9, 9), min_size=1, max_size=d + 1))
    try:
        return make_map(num, den)
    except RatMapError:
        assume(False)


def rational_roots(form):
    """The rational projective roots of a nonzero binary form, by sympy's
    factorization of its affine part."""
    t = sympy.Symbol("t")
    m = binforms.x1_multiplicity(form)
    roots = {INFINITY} if m else set()
    for fac, _ in sympy.factor_list(sympy.Poly(form[m:], t))[1]:
        if fac.degree() == 1:
            a, b = map(int, fac.all_coeffs())
            roots.add(ProjPoint(-b, a))
    return roots


# the second iterate of 2(x^2+1)/x, and of 2(x^4+x^3+x^2+x+1)/x, has content 2
CONTENT_MAPS = [make_map([2, 0, 2], [1, 0]), make_map([2, 2, 2, 2, 2], [1, 0])]

TOWER_DEPTH = {2: 4, 3: 3, 4: 2}


def check_layers(tower):
    """Every B_k is the exact quotient G_k / G_(k-1), and B_0...B_k = +-G_k."""
    gs = (diagonal_form(),) + tower.g_forms
    prod = tower.b_forms[0]
    for k in range(1, tower.depth + 1):
        assert exact_divide(gs[k], gs[k - 1]) == tower.b_forms[k]
        prod = multiply(prod, tower.b_forms[k])
        assert prod in (gs[k], gs[k].negate())


SAMPLE_POINTS = [
    ProjPoint(0, 1),
    ProjPoint(1, 1),
    ProjPoint(-1, 1),
    ProjPoint(2, 1),
    ProjPoint(-3, 2),
    INFINITY,
]


def primitive_reference(form):
    """``normalized`` as ``binforms.primitive`` on the entries read row by
    row, cut back into rows."""
    flat = binforms.primitive([c for r in form.rows for c in r])
    w = len(form.rows[0])
    return BiForm(tuple(flat[j : j + w] for j in range(0, len(flat), w)))


def serialize_reference(form):
    """``BiForm.serialize`` as one f-string per coefficient."""
    dx, dy = form.bidegree
    return " ".join(
        f"({dx - a},{a},{dy - b},{b}):{decimal_str(c)}"
        for a, r in enumerate(form.rows)
        for b, c in enumerate(r)
        if c
    )


class TestBiForm:
    def test_normalized(self):
        f = from_dict({(1, 0): -4, (0, 1): 4}, (1, 1))
        g = f.normalized()
        # lex-leading key (1, 0) made positive, content divided out
        assert dict(g.coefficients) == {(1, 0): 1, (0, 1): -1}

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_normalized_matches_primitive(self, data):
        bd, coeffs = data.draw(sparse_biforms())
        assume(any(coeffs.values()))
        form = from_dict(coeffs, bd)
        # scaled by -1, by a content > 1, or left alone
        k = data.draw(st.sampled_from([1, -1, 6, -6, 2**80]))
        form = BiForm(tuple(tuple(k * c for c in r) for r in form.rows))
        assert form.normalized() == primitive_reference(form)

    def test_normalized_cases(self):
        # content 1, leading entry positive: the form itself, not a copy
        f = BiForm(((0, 0, 0), (0, 2, 3), (-5, 0, 0)))
        assert f.normalized() is f
        # content 1, leading entry negative: negated
        assert f.negate().normalized() == f
        # content > 1 with either sign of the leading entry: divided out
        g = BiForm(((0, 0, 0), (0, -4, -6), (10, 0, 0)))
        assert g.normalized() == f
        assert g.negate().normalized() == f
        with pytest.raises(DivisorError, match="zero form"):
            BiForm(((0, 0), (0, 0))).normalized()

    def test_multiply_degree_and_values(self):
        d = diagonal_form()
        sq = multiply(d, d)
        assert sq.bidegree == (2, 2)
        for x in SAMPLE_POINTS:
            for y in SAMPLE_POINTS:
                assert sq.evaluate(x, y) == d.evaluate(x, y) ** 2

    def test_swap_antisymmetry_of_diagonal(self):
        d = diagonal_form()
        assert swap_xy(d) == d.negate()

    def test_restrict_to_diagonal(self):
        d = diagonal_form()
        assert restrict_to_diagonal(d) == (0, 0, 0)
        f = from_dict({(1, 1): 1, (0, 0): -1}, (1, 1))  # x*y - 1
        assert restrict_to_diagonal(f) == (1, 0, -1)

    def test_serialize_sorted(self):
        d = diagonal_form()
        assert d.serialize() == "(1,0,0,1):1 (0,1,1,0):-1"

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_serialize_matches_reference(self, data):
        (dx, dy), coeffs = data.draw(sparse_biforms(max_degree=5))
        form = from_dict(coeffs, (dx, dy))
        assert form.serialize() == serialize_reference(form)
        f = data.draw(rational_maps())
        tower = build_tower(f, 2)
        for layer in tower.g_forms + tower.b_forms:
            assert layer.serialize() == serialize_reference(layer)

    def test_serialize_rows_past_the_digit_limit(self):
        # the rows holding 5000-digit entries are filled from decimal_str
        # strings, the others by a plain %; the zero row writes nothing
        big = 7 * 10**4999 + 1
        rows = ((big, 0, -3, 0), (0, 0, 0, 0), (0, 5, 0, 0), (-big, 0, 0, big), (0, 0, 0, 1))
        form = BiForm(rows)
        text = form.serialize()
        assert text == serialize_reference(form)
        assert text.startswith(f"(4,0,3,0):{unlimited_str(big)} (4,0,1,2):-3 (2,2,2,1):5 ")
        assert text.count(unlimited_str(big)) == 3
        assert "(3,1," not in text

    @pytest.mark.parametrize("expr, n", [("(-3x^2+2x-2)/(2x^2+x-3)", 6), ("x^3+x+1", 4)])
    def test_serialize_deep_towers(self, expr, n):
        tower = build_tower(parse_map(expr), n)
        for layer in tower.g_forms + tower.b_forms:
            assert layer.serialize() == serialize_reference(layer)

    @given(st.data())
    def test_dict_conversions_roundtrip(self, data):
        # the sparse views are conversions of the rows; the benchmark's
        # tracer counts terms with len(form.coefficients)
        (dx, dy), coeffs = data.draw(sparse_biforms())
        form = from_dict(coeffs, (dx, dy))
        nonzero = {k: c for k, c in coeffs.items() if c}
        assert dict(form.coefficients) == nonzero
        assert form.coefficients == tuple(sorted(nonzero.items()))
        assert from_dict(dict(form.coefficients), form.bidegree) == form
        entries = sorted(
            (((i, dx - i, k, dy - k), c) for (i, k), c in nonzero.items()), reverse=True
        )
        assert form.serialize() == " ".join(
            f"({i},{j},{k},{l}):{c}" for (i, j, k, l), c in entries
        )


class TestPullback:
    @given(st.data())
    def test_substitution(self, data):
        bd, coeffs = data.draw(sparse_biforms())
        form = from_dict(coeffs, bd)
        deg = data.draw(st.integers(1, 3))
        forms = st.lists(st.integers(-3, 3), min_size=deg + 1, max_size=deg + 1)
        p, q = tuple(data.draw(forms)), tuple(data.draw(forms))
        pb = pullback(form, p, q)
        assert pb.bidegree == (bd[0] * deg, bd[1] * deg)
        for x in SAMPLE_POINTS:
            for y in SAMPLE_POINTS:
                fx = [binforms.evaluate(c, x.a0, x.a1) for c in (p, q)]
                fy = [binforms.evaluate(c, y.a0, y.a1) for c in (p, q)]
                inner = [binforms.evaluate(r, *fy) for r in form.rows]
                assert pb.evaluate(x, y) == binforms.evaluate(inner, *fx)

    @staticmethod
    def substitution_reference(form, p, q):
        """form(P(x), Q(x); P(y), Q(y)) expanded term by term with dense
        products: sum over (a, b) of c_ab P^(ex-a) Q^a (x) P^(ey-b) Q^b (y)."""

        def mul(a, b):
            out = [0] * (len(a) + len(b) - 1)
            for i, ai in enumerate(a):
                for j, bj in enumerate(b):
                    out[i + j] += ai * bj
            return out

        def power(f, e):
            out = [1]
            for _ in range(e):
                out = mul(out, f)
            return out

        ex, ey = form.bidegree
        deg = len(p) - 1
        rows = [[0] * (ey * deg + 1) for _ in range(ex * deg + 1)]
        for a, row in enumerate(form.rows):
            u = mul(power(p, ex - a), power(q, a))
            for b, c in enumerate(row):
                v = mul(power(p, ey - b), power(q, b))
                for i, ui in enumerate(u):
                    for j, vj in enumerate(v):
                        rows[i][j] += c * ui * vj
        return BiForm(tuple(map(tuple, rows)))

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_monomial_q_matches_substitution(self, data):
        # a polynomial map's Q_n is c*x1^D; here any monomial c*x0^(D-k) x1^k,
        # so every power of Q pulls back to a single-term row; forms with
        # zero rows, single-term rows and dense rows all occur
        bd, coeffs = data.draw(sparse_biforms())
        form = from_dict(coeffs, bd)
        deg = data.draw(st.integers(1, 4))
        p = tuple(data.draw(st.lists(st.integers(-3, 3), min_size=deg + 1, max_size=deg + 1)))
        k = data.draw(st.integers(0, deg))
        c = data.draw(st.sampled_from([1, -2, 3]))
        q = tuple(c if j == k else 0 for j in range(deg + 1))
        assert pullback(form, p, q) == self.substitution_reference(form, p, q)
        assert pullback(form, q, p) == self.substitution_reference(form, q, p)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_dense_matches_substitution(self, data):
        bd, coeffs = data.draw(sparse_biforms())
        form = from_dict(coeffs, bd)
        deg = data.draw(st.integers(1, 3))
        nonzero = st.integers(-3, 3).filter(bool)
        p, q = (tuple(data.draw(st.lists(nonzero, min_size=deg + 1, max_size=deg + 1)))
                for _ in range(2))
        assert pullback(form, p, q) == self.substitution_reference(form, p, q)

    def test_diagonal_pulls_back_to_g(self, corpus):
        # B_0(P(x), Q(x); P(y), Q(y)) = P(x) Q(y) - P(y) Q(x): row a is
        # P[a] Q(y) - Q[a] P(y)
        for f in corpus:
            p, q = iterated_forms(f, 2)
            rows = tuple(
                binforms.sub(binforms.scale(q, pa), binforms.scale(p, qa))
                for pa, qa in zip(p, q)
            )
            assert pullback(diagonal_form(), p, q) == BiForm(rows)


# depth of the deepest tower with d^n <= 81
DEEPEST = {2: 6, 3: 4, 4: 3}


class TestTriangle:
    """g_form builds the minors above the diagonal and mirrors them; the
    full pullback of B_0, normalized, is its oracle."""

    @settings(max_examples=60, deadline=None)
    @given(diagonal_maps())
    @example(make_map([2, 0, 2], [1, 0]))
    @example(make_map([1, 0, -3], [2, 0]))
    @example(make_map([1, 0, 1], [1]))
    def test_g_forms_match_the_pullback(self, f):
        n = DEEPEST[f.degree]
        tower = build_tower(f, n)
        for k, g in enumerate(tower.g_forms, 1):
            assert g == pullback(diagonal_form(), *iterated_forms(f, k)).normalized()
            assert swap_xy(g) == g.negate()
        for b in tower.b_forms[1:]:
            assert b.rows == tuple(zip(*b.rows))

    @pytest.mark.parametrize("text, contents", [
        ("(2x^2+2)/x", [2, 1, 2, 1]),
        ("(x^2-3)/(2x)", [2, 4, 8, 16]),
    ])
    def test_content_above_one(self, text, contents):
        # the minors of these G_n have content above 1, which g_form divides
        # out; the property above holds the result to the oracle
        f = parse_map(text)
        for k, want in enumerate(contents, 1):
            assert pullback(diagonal_form(), *iterated_forms(f, k)).content() == want
            assert g_form(f, k).content() == 1

    @given(st.integers(1, 5).flatmap(lambda width: st.lists(
        st.one_of(
            st.just((0,) * width),
            st.tuples(*[st.integers(-12, 12)] * width),
            st.tuples(*[st.sampled_from([-6, 0, 4, 9])] * width),
        ),
        min_size=1, max_size=6,
    )))
    @example([(0, 0), (0, 0)])
    @example([(0, 0), (0, 0), (-4, 6)])
    @example([(0, 0), (-3, 0), (1, 9)])
    @example([(-6, 0), (0, -9), (0, 0)])
    def test_content_is_the_gcd_of_every_entry(self, rows):
        # zero rows, leading zero rows and negative entries
        assert BiForm(tuple(rows)).content() == math.gcd(*(c for r in rows for c in r))


class TestGForms:
    def test_g1_squaring(self):
        g1 = g_form(make_map([1, 0, 0], [1]), 1)
        # x^2 y^2 antisymmetrization: x0^2 y1^2 - y0^2 x1^2
        assert dict(g1.coefficients) == {(2, 0): 1, (0, 2): -1}
        assert g1.bidegree == (2, 2)

    def test_antisymmetry(self, corpus):
        for f in corpus:
            for n in (1, 2):
                g = g_form(f, n)
                assert swap_xy(g) == g.negate()
                assert g.content() == 1

    def test_vanishes_iff_images_agree(self, corpus):
        from orbitint.ratmap import iterate

        for f in corpus[:8]:
            g = g_form(f, 2)
            for x in SAMPLE_POINTS:
                for y in SAMPLE_POINTS:
                    same = iterate(f, x, 2) == iterate(f, y, 2)
                    assert (g.evaluate(x, y) == 0) == same

    def test_requires_positive_n(self):
        with pytest.raises(DivisorError):
            g_form(make_map([1, 0, 0], [1]), 0)


class TestTower:
    def test_squaring_layers(self):
        tower = build_tower(make_map([1, 0, 0], [1]), 2)
        assert tower.b_forms[0] == diagonal_form()
        # B_1 = x0 y1 + x1 y0 (affine x + y), B_2 = x0^2 y1^2 + x1^2 y0^2
        assert dict(tower.b_forms[1].coefficients) == {(1, 0): 1, (0, 1): 1}
        assert dict(tower.b_forms[2].coefficients) == {(2, 0): 1, (0, 2): 1}

    def test_telescoping(self, corpus):
        for f in corpus:
            tower = build_tower(f, 2)
            prod = tower.b_forms[0]
            for b in tower.b_forms[1:]:
                prod = multiply(prod, b)
            gn = tower.g_forms[-1]
            assert prod.normalized() == gn
            # sign: the product is +-G_n exactly
            assert prod in (gn, gn.negate())

    def test_bidegree_bookkeeping(self, corpus):
        for f in corpus:
            d = f.degree
            tower = build_tower(f, 2)
            assert tower.b_forms[0].bidegree == (1, 1)
            assert tower.b_forms[1].bidegree == (d - 1, d - 1)
            assert tower.b_forms[2].bidegree == (d * d - d, d * d - d)
            assert tower.g_forms[1].bidegree == (d * d, d * d)

    def test_effectivity_exact_division(self, corpus):
        # G_{k-1} | G_k exactly, with quotient B_k, for k <= 3
        for f in corpus:
            check_layers(build_tower(f, 2 if f.degree**3 > 27 else 3))

    @settings(max_examples=40, deadline=None)
    @given(rational_maps())
    @example(CONTENT_MAPS[0])
    @example(CONTENT_MAPS[1])
    def test_pullback_layers_are_quotients(self, f):
        check_layers(build_tower(f, TOWER_DEPTH[f.degree]))

    def test_content_in_iterates(self):
        for f in CONTENT_MAPS:
            p2 = binforms.compose_pair(f.p, f.p, f.q)
            q2 = binforms.compose_pair(f.q, f.p, f.q)
            assert binforms.content(p2 + q2) == 2

    def test_degree_cap_before_any_form(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("built a G form")

        monkeypatch.setattr(divisors, "g_form", refuse)
        with pytest.raises(FormDegreeCapError):
            build_tower(make_map([1, 0, 1], [1]), 13)

    def test_non_exact_division_raises(self):
        num = from_dict({(1, 1): 1, (0, 0): 1}, (1, 1))
        with pytest.raises(DivisorError, match="non-exact"):
            exact_divide(num, diagonal_form())

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_divide_product(self, data):
        bd, coeffs = data.draw(sparse_biforms())
        a = from_dict(coeffs, bd)
        b = data.draw(divisor_biforms())
        prod = multiply(a, b)
        assert exact_divide(prod, b) == a
        # b has two terms or more, so it divides no monomial: adding one
        # leaves a remainder
        assume(len(b.coefficients) >= 2)
        dx, dy = prod.bidegree
        key = (data.draw(st.integers(0, dx)), data.draw(st.integers(0, dy)))
        shifted = dict(prod.coefficients)
        shifted[key] = shifted.get(key, 0) + data.draw(st.sampled_from([-1, 1, 5]))
        with pytest.raises(DivisorError, match="non-exact"):
            exact_divide(from_dict(shifted, prod.bidegree), b)

    def test_index_bounds(self):
        # layers are indexed 0..depth, and the depth starts at 1
        for depth in (0, -1):
            with pytest.raises(DivisorError, match="depth"):
                build_tower(make_map([1, 0, 0], [1]), depth)
        for depth in (1, 2, 5):
            tower = build_tower(make_map([1, 0, 1], [1]), depth)
            assert tower.depth == depth == len(tower.b_forms) - 1


class TestLeadingForm:
    def test_polynomial_corpus(self, poly_corpus):
        for f in poly_corpus:
            for n in (1, 2):
                assert leading_form_check(f, n)

    def test_rejects_non_polynomial(self):
        with pytest.raises(DivisorError):
            leading_form_check(make_map([1, 0, 1], [1, 0]), 1)


class TestDiagonalIntersections:
    def test_squaring(self):
        tower = build_tower(make_map([1, 0, 0], [1]), 1)
        got = diagonal_critical_intersections(tower)
        assert set(got) == {ProjPoint(0, 1), INFINITY}

    def test_plus_inverse(self):
        tower = build_tower(make_map([1, 0, 1], [1, 0]), 1)
        got = diagonal_critical_intersections(tower)
        assert set(got) == {ProjPoint(1, 1), ProjPoint(-1, 1)}

    def test_matches_critical_points_on_b1(self, corpus):
        for f in corpus:
            tower = build_tower(f, 1)
            got = set(diagonal_critical_intersections(tower))
            b1 = tower.b_forms[1]
            expected = {
                c.point
                for c in critical_data(f)
                if c.point is not None and b1.evaluate(c.point, c.point) == 0
            }
            assert got == expected


    @settings(max_examples=80, deadline=None)
    @given(diagonal_maps())
    @example(make_map([1, 0, -3, 0], [1]))  # x^3 - 3x: roots [1:0], [-1:1], [1:1]
    @example(make_map([1, 0, -3], [2, 0]))  # no rational critical point
    def test_b1_on_the_diagonal_is_the_wronskian(self, f):
        tower = build_tower(f, 1)
        diag = restrict_to_diagonal(tower.b_forms[1])
        assert binforms.primitive(diag) == f.wronskian
        got = diagonal_critical_intersections(tower)
        assert got == sorted(rational_roots(diag), key=lambda p: (p.a1, p.a0))

    @settings(max_examples=80, deadline=None)
    @given(rational_maps())
    def test_roots_are_the_rational_critical_points(self, f):
        got = diagonal_critical_intersections(build_tower(f, 1))
        points = [c.point for c in critical_data(f) if c.point is not None]
        assert got == sorted(points, key=lambda p: (p.a1, p.a0))


def vanishing_layers(tower, xi, eta):
    return tuple(i for i, b in enumerate(tower.b_forms) if b.evaluate(xi, eta) == 0)


class TestProbe:
    """Which layers B_i vanish at a point (xi, eta); where two or more do,
    each common image f^(i-1)(xi) = f^(i-1)(eta), i > 0, is critical."""

    def test_generic_diagonal_point_vanishes_only_on_b0(self):
        f = make_map([1, 0, 0], [1])
        tower = build_tower(f, 2)
        p = ProjPoint(3, 1)
        assert vanishing_layers(tower, p, p) == (0,)

    def test_single_layer_has_no_chain(self):
        # x^2: B_1 = x + y vanishes at (1, -1) but B_0 and B_2 do not.
        f = make_map([1, 0, 0], [1])
        tower = build_tower(f, 2)
        assert vanishing_layers(tower, ProjPoint(1, 1), ProjPoint(-1, 1)) == (1,)

    def test_multi_layer_critical_chain(self):
        # x^2 at (0, 0): every layer vanishes and each common image is the
        # critical point 0.
        f = make_map([1, 0, 0], [1])
        tower = build_tower(f, 2)
        zero = ProjPoint(0, 1)
        assert vanishing_layers(tower, zero, zero) == (0, 1, 2)
        images = [iterate(f, zero, i - 1) for i in (1, 2)]
        assert images == [zero, zero]
        assert set(images) <= {c.point for c in critical_data(f)}
