"""Bihomogeneous divisor machinery on P1 x P1.

The antisymmetric forms G_n = P_n(x) Q_n(y) - P_n(y) Q_n(x) cut out the
pullbacks D_n of the diagonal; the layer forms B_n = G_n / G_{n-1} are
exact integer quotients (effectivity), with B_0 the diagonal form
x0*y1 - x1*y0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from . import binforms
from .binforms import Form
from .projective import ProjPoint
from .ratmap import RatMap, critical_data, iterate, iterated_forms


class DivisorError(ValueError):
    pass


@dataclass(frozen=True)
class BiForm:
    """A bihomogeneous integer form in (x0, x1; y0, y1).

    Coefficients are keyed by (i, k): the coefficient of
    x0^i x1^(bidegree_x - i) y0^k y1^(bidegree_y - k).
    """

    coefficients: tuple[tuple[tuple[int, int], int], ...]
    bidegree: tuple[int, int]

    @classmethod
    def from_dict(cls, coeffs: dict[tuple[int, int], int], bidegree: tuple[int, int]) -> "BiForm":
        items = tuple(sorted((k, v) for k, v in coeffs.items() if v != 0))
        return cls(items, bidegree)

    @cached_property
    def as_dict(self) -> dict[tuple[int, int], int]:
        return dict(self.coefficients)

    @property
    def is_zero(self) -> bool:
        return not self.coefficients

    def content(self) -> int:
        g = 0
        for _, c in self.coefficients:
            g = math.gcd(g, c)
        return g

    def normalized(self) -> "BiForm":
        """Content 1, lexicographically leading coefficient positive."""
        if self.is_zero:
            raise DivisorError("zero form")
        g = self.content()
        lead_key = max(k for k, _ in self.coefficients)
        sign = 1 if self.as_dict[lead_key] > 0 else -1
        return BiForm.from_dict(
            {k: sign * c // g for k, c in self.coefficients}, self.bidegree
        )

    def multiply(self, other: "BiForm") -> "BiForm":
        out: dict[tuple[int, int], int] = {}
        for (i1, k1), c1 in self.coefficients:
            for (i2, k2), c2 in other.coefficients:
                key = (i1 + i2, k1 + k2)
                out[key] = out.get(key, 0) + c1 * c2
        bd = (
            self.bidegree[0] + other.bidegree[0],
            self.bidegree[1] + other.bidegree[1],
        )
        return BiForm.from_dict(out, bd)

    def negate(self) -> "BiForm":
        return BiForm.from_dict({k: -c for k, c in self.coefficients}, self.bidegree)

    def evaluate(self, x: ProjPoint, y: ProjPoint) -> int:
        dx, dy = self.bidegree
        acc = 0
        for (i, k), c in self.coefficients:
            acc += (
                c
                * x.a0**i
                * x.a1 ** (dx - i)
                * y.a0**k
                * y.a1 ** (dy - k)
            )
        return acc

    def swap_xy(self) -> "BiForm":
        return BiForm.from_dict(
            {(k, i): c for (i, k), c in self.coefficients},
            (self.bidegree[1], self.bidegree[0]),
        )

    def restrict_to_diagonal(self) -> Form:
        """Substitute (y0, y1) := (x0, x1); a binary form of degree dx+dy."""
        dx, dy = self.bidegree
        total = dx + dy
        out = [0] * (total + 1)
        for (i, k), c in self.coefficients:
            # monomial becomes x0^(i+k) x1^(total-i-k); descending index:
            out[total - (i + k)] += c
        return tuple(out)

    def serialize(self) -> str:
        """Sparse monomial list "(i,j,k,l):coefficient" sorted
        lexicographically on the exponent quadruple."""
        dx, dy = self.bidegree
        entries = []
        for (i, k), c in self.coefficients:
            entries.append(((i, dx - i, k, dy - k), c))
        entries.sort(reverse=True)
        return " ".join(f"({i},{j},{k},{l}):{c}" for (i, j, k, l), c in entries)


def diagonal_form() -> BiForm:
    """B_0 = x0*y1 - x1*y0."""
    return BiForm.from_dict({(1, 0): 1, (0, 1): -1}, (1, 1))


def g_form(f: RatMap, n: int) -> BiForm:
    """The normalized antisymmetric form of bidegree (d^n, d^n) built from
    the iterate forms: P_n(x) Q_n(y) - P_n(y) Q_n(x)."""
    if n < 1:
        raise DivisorError("g_form requires n >= 1")
    pn, qn = iterated_forms(f, n)
    deg = len(pn) - 1
    out: dict[tuple[int, int], int] = {}
    for a, pa in enumerate(pn):
        if pa == 0:
            continue
        for b, qb in enumerate(qn):
            if qb == 0:
                continue
            v = pa * qb
            k1 = (deg - a, deg - b)  # P_n(x) Q_n(y)
            k2 = (deg - b, deg - a)  # P_n(y) Q_n(x)
            out[k1] = out.get(k1, 0) + v
            out[k2] = out.get(k2, 0) - v
    form = BiForm.from_dict(out, (deg, deg))
    if form.is_zero:
        raise DivisorError("degenerate G form")
    return form.normalized()


def exact_divide(numerator: BiForm, divisor: BiForm) -> BiForm:
    """Exact quotient of biforms; raises DivisorError on nonzero remainder.

    Performed on the (injective) dehomogenizations in lex order; the
    quotient is rehomogenized to the bidegree difference.
    """
    num = dict(numerator.coefficients)
    div = divisor.coefficients
    if not div:
        raise DivisorError("division by zero form")
    lead_key, lead_c = max(div)
    lead_c = divisor.as_dict[lead_key]
    quo: dict[tuple[int, int], int] = {}
    while num:
        nk = max(num)
        nc = num[nk]
        qi, qk = nk[0] - lead_key[0], nk[1] - lead_key[1]
        if qi < 0 or qk < 0 or nc % lead_c != 0:
            raise DivisorError("non-exact biform division")
        qc = nc // lead_c
        quo[(qi, qk)] = quo.get((qi, qk), 0) + qc
        for (i, k), c in div:
            key = (i + qi, k + qk)
            nv = num.get(key, 0) - qc * c
            if nv:
                num[key] = nv
            else:
                num.pop(key, None)
    bd = (
        numerator.bidegree[0] - divisor.bidegree[0],
        numerator.bidegree[1] - divisor.bidegree[1],
    )
    for (i, k) in quo:
        if i > bd[0] or k > bd[1]:
            raise DivisorError("quotient exceeds expected bidegree")
    return BiForm.from_dict(quo, bd)


@dataclass(frozen=True)
class DivisorTower:
    """G_1..G_n and the layer forms B_0..B_n for one map."""

    map: RatMap
    depth: int
    g_forms: tuple[BiForm, ...]
    b_forms: tuple[BiForm, ...]  # index i holds B_i, with B_0 the diagonal


def build_tower(f: RatMap, depth: int) -> DivisorTower:
    """Build the divisor tower to the given depth, asserting that every
    division G_k / G_{k-1} is exact (effectivity of each B_k)."""
    if depth < 1:
        raise DivisorError("depth must be >= 1")
    gs = [g_form(f, k) for k in range(1, depth + 1)]
    bs = [diagonal_form()]
    prev = bs[0]
    for k in range(1, depth + 1):
        bs.append(exact_divide(gs[k - 1], prev))
        prev = gs[k - 1]
    return DivisorTower(map=f, depth=depth, g_forms=tuple(gs), b_forms=tuple(bs))


def b_component(tower: DivisorTower, i: int) -> BiForm:
    """The effective layer form B_i (B_0 is the diagonal)."""
    if i < 0 or i > tower.depth:
        raise DivisorError("index outside tower depth")
    return tower.b_forms[i]


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
    bn = tower.b_forms[n].as_dict
    total = max(i + k for i, k in bn)
    lead = {key: c for key, c in bn.items() if key[0] + key[1] == total}
    d = f.degree
    step = d ** (n - 1)
    expected_total = (d - 1) * step
    if total != expected_total:
        return False
    target = {(j * step, (d - 1 - j) * step): 1 for j in range(d)}
    if set(lead) != set(target):
        return False
    ref = lead[next(iter(target))]
    return all(c == ref for c in lead.values())


def diagonal_critical_intersections(tower: DivisorTower) -> list[ProjPoint]:
    """Rational points c with the B_1 form vanishing at (c, c)."""
    diag = tower.b_forms[1].restrict_to_diagonal()
    if all(c == 0 for c in diag):
        raise DivisorError("B_1 vanishes identically on the diagonal")
    roots = binforms.rational_projective_roots(diag)
    return sorted((ProjPoint(a0, a1) for a0, a1 in roots), key=lambda p: (p.a1, p.a0))


@dataclass(frozen=True)
class ChainCheck:
    index: int
    image: ProjPoint | None
    images_equal: bool
    image_is_critical: bool


@dataclass(frozen=True)
class MembershipReport:
    point: tuple[ProjPoint, ProjPoint]
    vanishing_indices: tuple[int, ...]
    chain: tuple[ChainCheck, ...]


def multi_intersection_probe(
    tower: DivisorTower, xi: ProjPoint, eta: ProjPoint, indices: list[int]
) -> MembershipReport:
    """Report which B_i forms vanish at (xi, eta); when at least two vanish,
    verify that for each vanishing index i > 0 the common image
    f^(i-1)(xi) = f^(i-1)(eta) is a critical point."""
    for i in indices:
        if i < 0 or i > tower.depth:
            raise DivisorError("index outside tower depth")
    vanishing = tuple(
        i for i in indices if tower.b_forms[i].evaluate(xi, eta) == 0
    )
    chain: list[ChainCheck] = []
    if len(vanishing) >= 2:
        crit_points = {
            c.point for c in critical_data(tower.map) if c.point is not None
        }
        for i in vanishing:
            if i == 0:
                continue
            a = iterate(tower.map, xi, i - 1)
            b = iterate(tower.map, eta, i - 1)
            chain.append(
                ChainCheck(
                    index=i,
                    image=a if a == b else None,
                    images_equal=(a == b),
                    image_is_critical=(a == b and a in crit_points),
                )
            )
    return MembershipReport(
        point=(xi, eta), vanishing_indices=vanishing, chain=tuple(chain)
    )
