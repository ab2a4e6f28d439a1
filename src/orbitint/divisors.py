"""Bihomogeneous divisor machinery on P1 x P1.

The antisymmetric forms G_n = P_n(x) Q_n(y) - P_n(y) Q_n(x) cut out the
pullbacks D_n of the diagonal; the layer forms B_n = G_n / G_{n-1} are
exact integer quotients (effectivity), with B_0 the diagonal form
x0*y1 - x1*y0.  G_n is B_0 pulled back under the iterate forms
F_n = (P_n, Q_n) on both factors; being antisymmetric, it is built as its
minors above the diagonal, P_n[i] Q_n[j] - Q_n[i] P_n[j] for j > i, and
mirrored with negation.  B_n for n >= 2 is B_1 pulled back under F_(n-1).
A biform is a binary form in x whose coefficients are binary
forms in y, so all its arithmetic is ``binforms`` arithmetic.  The exact
quotient ``exact_divide`` is long division in x over Z[y0, y1]; it builds
B_1 = G_1 / B_0, the base case of the tower, and the tests hold every B_n
against it.
"""

from __future__ import annotations

import math
from itertools import compress
from operator import neg

from . import binforms
from .binforms import Form
from .exactarith import Record, decimal_str
from .projective import ProjPoint
from .ratmap import RatMap, check_degree_cap, critical_factors, iterated_forms

# largest degree D of G_n and B_n in x and in y that ``build_tower`` builds:
# a biform has (D+1)^2 coefficients, and a degree-4 rational tower at
# D = 1024 took about 30 s and wrote a 751 MB report
BIFORM_DEGREE_CAP = 256


class DivisorError(ValueError):
    pass


class BiForm(Record):
    """A bihomogeneous integer form in (x0, x1; y0, y1) of bidegree (dx, dy).

    ``rows[a][b]`` is the coefficient of x0^(dx-a) x1^a y0^(dy-b) y1^b.
    ``coefficients`` lists the nonzero ones under the sparse keys (i, k) of
    x0^i x1^(dx-i) y0^k y1^(dy-k).
    """

    __slots__ = _fields = ("rows",)

    @property
    def bidegree(self) -> tuple[int, int]:
        return len(self.rows) - 1, len(self.rows[0]) - 1

    @property
    def coefficients(self) -> tuple[tuple[tuple[int, int], int], ...]:
        """The nonzero coefficients as ((i, k), c), ascending in (i, k)."""
        dx, dy = self.bidegree
        return tuple(
            ((dx - a, dy - b), c)
            for a in reversed(range(dx + 1))
            for b in reversed(range(dy + 1))
            if (c := self.rows[a][b])
        )

    @property
    def is_zero(self) -> bool:
        return not any(map(any, self.rows))

    def content(self) -> int:
        return _content(self.rows)

    def normalized(self) -> "BiForm":
        """Content 1, lexicographically leading coefficient positive (the
        first nonzero entry of the rows, read row by row); ``self`` when it
        is so already."""
        if self.is_zero:
            raise DivisorError("zero form")
        g = self.content()
        if next(filter(None, next(filter(any, self.rows)))) < 0:
            g = -g
        if g == 1:
            return self
        if g == -1:
            return self.negate()
        return BiForm(tuple(tuple([c // g for c in r]) if any(r) else r
                            for r in self.rows))

    def negate(self) -> "BiForm":
        return BiForm(tuple(tuple([-c for c in r]) for r in self.rows))

    def evaluate(self, x: ProjPoint, y: ProjPoint) -> int:
        inner = [binforms.evaluate(r, y.a0, y.a1) for r in self.rows]
        return binforms.evaluate(inner, x.a0, x.a1)

    def serialize(self) -> str:
        """Sparse monomial list "(i,j,k,l):coefficient" sorted
        lexicographically on the exponent quadruple, descending.

        Each nonzero row is one ``%`` template, its terms joined with a
        ``%s`` for each nonzero coefficient, filled by one ``%`` over them;
        a zero row writes nothing.  ``%s`` raises the int-to-str
        ``ValueError`` past Python's digit limit, and only a row that
        raises it fills the same template with ``decimal_str`` strings."""
        dx, dy = self.bidegree
        cols = [f"{dy - b},{b}):%s" for b in range(dy + 1)]
        texts: list[str] = []
        for a, r in enumerate(self.rows):
            if any(r):
                row = f"({dx - a},{a},"
                template = row + (" " + row).join(compress(cols, r))
                values = tuple(filter(None, r))
                try:
                    texts.append(template % values)
                except ValueError:
                    texts.append(template % tuple(map(decimal_str, values)))
        return " ".join(texts)


def _content(rows) -> int:
    """The gcd of every entry of ``rows``, read row by row until it is 1."""
    g = 0
    for r in rows:
        g = math.gcd(g, *r)
        if g == 1:
            break
    return g


def diagonal_form() -> BiForm:
    """B_0 = x0*y1 - x1*y0."""
    return BiForm(((0, 1), (-1, 0)))


def pullback(form: BiForm, p: Form, q: Form) -> BiForm:
    """form(P(x), Q(x); P(y), Q(y)) for forms P, Q of one degree D: the
    pullback under (P, Q) x (P, Q), of bidegree (ex*D, ey*D).

    Row a of ``form`` pulls back to u_a(x) v_a(y), with u_a = P^(ex-a) Q^a
    and v_a = sum_b c_ab P^(ey-b) Q^b; so row i of the result is
    sum_a u_a[i] v_a.  Each v_a enters a row through the span from its
    first to its last nonzero term alone: for a polynomial map Q = c*x1^D,
    so a v_a that is a power of Q is one term, and most rows of the result
    are a single term."""
    ex, ey = form.bidegree
    us = binforms.monomials(p, q, ex)
    ms = us if ey == ex else binforms.monomials(p, q, ey)
    width = len(ms[0])
    # (lo, v_a[lo:hi]) for the nonzero span [lo, hi) of v_a; None for v_a = 0
    spans = []
    for row in form.rows:
        v = binforms.combine(row, ms)
        lo = binforms.x1_multiplicity(v)
        hi = width - binforms.x1_multiplicity(v[::-1])
        spans.append((lo, v[lo:hi]) if lo < hi else None)
    zero = (0,) * width
    rows = []
    for col in zip(*us):
        terms = [(u, s) for u, s in zip(col, spans) if u and s]
        if not terms:
            rows.append(zero)
            continue
        (u, (lo, v)), *rest = terms
        out = [0] * lo + [u * c for c in v] + [0] * (width - lo - len(v))
        for u, (lo, v) in rest:
            hi = lo + len(v)
            out[lo:hi] = [o + u * c for o, c in zip(out[lo:hi], v)]
        rows.append(tuple(out))
    return BiForm(tuple(rows))


def g_form(f: RatMap, n: int) -> BiForm:
    """The normalized antisymmetric form of bidegree (d^n, d^n),
    P_n(x) Q_n(y) - P_n(y) Q_n(x): the pullback of B_0 under the iterate
    forms.

    Entry (i, j) is the minor P_n[i] Q_n[j] - Q_n[i] P_n[j], so the form is
    built as the minors above the diagonal and mirrored with negation, the
    diagonal 0.  Its content is theirs, and its first nonzero entry, read
    row by row, lies above the diagonal: the entries left of it mirror
    entries of earlier rows, which are zero.  Row i of the minors is
    nonzero only over the span of Q_n when P_n[i] != 0 and of P_n when
    Q_n[i] != 0; for a polynomial map Q_n = c*x1^D, so all but one row of
    the minors is a single term."""
    if n < 1:
        raise DivisorError("g_form requires n >= 1")
    p, q = iterated_forms(f, n)
    width = len(p)
    (plo, phi), (qlo, qhi) = [
        (binforms.x1_multiplicity(v), width - binforms.x1_multiplicity(v[::-1])) for v in (p, q)
    ]
    # (lo, [minor (i, j) for lo <= j < hi]) for row i, with lo > i
    minors = []
    for i, (a, b) in enumerate(zip(p, q)):
        lo = max(i + 1, min(qlo if a else width, plo if b else width))
        hi = max(qhi if a else 0, phi if b else 0)
        minors.append((lo, [a * y - b * x for x, y in zip(p[lo:hi], q[lo:hi])]))
    upper = [m for _, m in minors]
    g = _content(upper)
    if not g:
        raise DivisorError("degenerate G form")
    if next(filter(None, next(filter(any, upper)))) < 0:
        g = -g
    flat = [0] * (width * width)
    for i, (lo, m) in enumerate(minors):
        if m:
            if g != 1:
                m = [c // g for c in m]
            start = i * width + lo
            flat[start:start + len(m)] = m
            start = lo * width + i
            flat[start:start + len(m) * width:width] = map(neg, m)
    return BiForm(tuple(tuple(flat[k:k + width]) for k in range(0, len(flat), width)))


def exact_divide(numerator: BiForm, divisor: BiForm) -> BiForm:
    """Exact quotient of biforms; raises DivisorError on nonzero remainder.

    Long division in x over Z[y0, y1]: each quotient row is an exact
    quotient of binary forms in y by the divisor's first nonzero row, and
    no numerator row may be left over.
    """
    if divisor.is_zero:
        raise DivisorError("division by zero form")
    num, drows = list(numerator.rows), divisor.rows
    if len(num) < len(drows) or len(num[0]) < len(drows[0]):
        raise DivisorError("non-exact biform division")
    terms = [(t, r) for t, r in enumerate(drows) if any(r)]
    lead, lead_row = terms[0]
    quo = []
    try:
        for j in range(len(num) - len(drows) + 1):
            q = binforms.form_quotient(num[j + lead], lead_row)
            quo.append(q)
            if any(q):
                for t, r in terms:
                    num[j + t] = binforms.sub(num[j + t], binforms.mul(q, r))
    except binforms.FormError:
        raise DivisorError("non-exact biform division") from None
    if any(map(any, num)):
        raise DivisorError("non-exact biform division")
    return BiForm(tuple(quo))


class DivisorTower(Record):
    """G_1..G_n and the layer forms B_0..B_n for one map: ``g_forms[i]`` is
    G_(i+1) and ``b_forms[i]`` is B_i, with B_0 the diagonal."""

    __slots__ = _fields = ("map", "g_forms", "b_forms")

    @property
    def depth(self) -> int:
        return len(self.g_forms)


def build_tower(f: RatMap, depth: int) -> DivisorTower:
    """Build the divisor tower to the given depth.

    B_1 = G_1 / B_0 is the one checked exact division (effectivity of B_1).
    Every higher layer is a pullback, B_k = (F_(k-1) x F_(k-1))^* B_1 with
    F_j = (P_j, Q_j), normalized: composing G_1 = B_0 B_1 with F_(k-1) gives
    G_k = +-G_(k-1) B_k by Gauss's lemma, so B_k is the exact quotient
    G_k / G_(k-1). The biform degree cap, d^depth <= ``BIFORM_DEGREE_CAP``,
    is checked before any form is built.
    """
    if depth < 1:
        raise DivisorError("depth must be >= 1")
    check_degree_cap(f.degree, depth, BIFORM_DEGREE_CAP, "biform", "biform")
    # the iterate forms F_1..F_depth in one pass, before any biform, so
    # that the traced spans of g_form time the biforms alone
    iterated_forms(f, depth)
    gs = [g_form(f, k) for k in range(1, depth + 1)]
    b0 = diagonal_form()
    b1 = exact_divide(gs[0], b0)
    bs = [b0, b1] + [
        pullback(b1, *iterated_forms(f, k - 1)).normalized() for k in range(2, depth + 1)
    ]
    return DivisorTower(map=f, g_forms=tuple(gs), b_forms=tuple(bs))


def leading_form_check(f: RatMap, n: int) -> bool:
    """For polynomial maps: the top homogeneous part of B_n equals, up to a
    nonzero rational scalar, (x^(d^n) - y^(d^n)) / (x^(d^(n-1)) - y^(d^(n-1))),
    the form whose roots are the roots of unity of order dividing d^n but
    not d^(n-1)."""
    if not f.is_polynomial:
        raise DivisorError("requires polynomial map")
    if n < 1:
        raise DivisorError("n must be positive")
    tower = build_tower(f, n)
    bn = dict(tower.b_forms[n].coefficients)
    total = max(i + k for i, k in bn)
    lead = {key: c for key, c in bn.items() if sum(key) == total}
    d, step = f.degree, f.degree ** (n - 1)
    # the target keys all have total degree (d-1)*step
    target = {(j * step, (d - 1 - j) * step) for j in range(d)}
    return set(lead) == target and len(set(lead.values())) == 1


def diagonal_critical_intersections(tower: DivisorTower) -> list[ProjPoint]:
    """Rational points c with the B_1 form vanishing at (c, c).

    These are the rational roots of the Wronskian W of the map: by Euler's
    identity, B_1(x, x) = W(x)/d for W = dP/dx0 dQ/dx1 - dP/dx1 dQ/dx0 and
    B_1 = (P(x)Q(y) - P(y)Q(x)) / B_0, and the tower's B_1 is a constant
    multiple of that quotient.  W is never zero for a map of degree >= 2.
    The roots are read off the linear factors of
    ``ratmap.critical_factors``, as ``ratmap.critical_data`` reads them."""
    factors = critical_factors(tower.map)
    points = (ProjPoint(-fac[1], fac[0]) for fac, _ in factors if len(fac) == 2)
    return sorted(points, key=lambda p: (p.a1, p.a0))
