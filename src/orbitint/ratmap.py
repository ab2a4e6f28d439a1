"""Rational self-maps of the projective line as coprime integer binary forms.

Iteration, critical/ramification structure, exceptional points,
powering-conjugacy detection, good reduction, preimage counting, and
certified non-preperiodicity.

All of it is integer arithmetic on ``binforms``.  The two hypotheses of the
finiteness theorem (exceptional points, powering conjugacy) come from the
totally ramified points, found with gcds of the Wronskian and its
derivatives; only ``critical_data``, which lists every critical point,
factors over Q (``binforms.factor_form``, by the package's own Zassenhaus
code in ``modp``).
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from fractions import Fraction
from functools import cached_property

from . import binforms
from .binforms import Form
from .exactarith import PlaceSet, Record, decimal_str, int_text
from .projective import INFINITY, ProjPoint

DEFAULT_FORM_DEGREE_CAP = 4096
# largest map degree: the resultant that RatMap computes first is an O(d^3)
# elimination over growing integers, and the Wronskian that critical data
# factors has degree 2d - 2
MAP_DEGREE_CAP = 64


class RatMapError(ValueError):
    pass


class FormDegreeCapError(RatMapError):
    pass


def _normalize_pair(p: Sequence[int], q: Sequence[int]) -> tuple[Form, Form]:
    """Joint content-1 normalization with deterministic sign (first nonzero
    coefficient of the concatenated pair positive)."""
    try:
        pq = binforms.primitive(tuple(p) + tuple(q))
    except binforms.FormError:
        raise RatMapError("zero map") from None
    return pq[: len(p)], pq[len(p) :]


class RatMap(Record):
    """A degree-d >= 2 rational map [P(x0,x1) : Q(x0,x1)] with integer
    coprime-content forms and nonzero resultant."""

    _fields = ("p", "q")  # no __slots__: each cached_property keeps its value in __dict__

    def __init__(self, p: Form, q: Form):
        if len(p) != len(q):
            raise RatMapError("numerator and denominator forms must have equal degree")
        if len(p) < 3:
            raise RatMapError("degree below 2")
        if len(p) - 1 > MAP_DEGREE_CAP:
            raise RatMapError(
                f"map degree {len(p) - 1} exceeds the map degree cap {MAP_DEGREE_CAP}"
            )
        self.p, self.q = _normalize_pair(p, q)
        self._bezout  # the cofactors exist exactly when Res(P, Q) != 0

    @property
    def degree(self) -> int:
        return len(self.p) - 1

    @cached_property
    def _bezout(self) -> tuple[int, Form, Form, Form, Form]:
        """Res(P, Q) and the Sylvester cofactors, from one elimination."""
        try:
            return binforms.bezout_cofactors(self.p, self.q)
        except binforms.FormError:
            raise RatMapError("p and q not coprime") from None

    @cached_property
    def resultant(self) -> int:
        return self._bezout[0]

    @cached_property
    def wronskian(self) -> Form:
        """Primitive part of dP/dx0 * dQ/dx1 - dP/dx1 * dQ/dx0 (deg 2d-2)."""
        w = binforms.sub(
            binforms.mul(binforms.dx0(self.p), binforms.dx1(self.q)),
            binforms.mul(binforms.dx1(self.p), binforms.dx0(self.q)),
        )
        return binforms.primitive(w)

    @cached_property
    def is_polynomial(self) -> bool:
        """True when the denominator form is c * x1^d (f fixes no finite
        pole; affine f is a polynomial)."""
        return all(c == 0 for c in self.q[:-1])

    @cached_property
    def cofactor_max(self) -> int:
        """Largest absolute coefficient (at least 1) of the Sylvester
        cofactors g1*P + g2*Q = Res * x0^(2d-1), h1*P + h2*Q = Res * x1^(2d-1)."""
        return max(1, max(abs(c) for cs in self._bezout[1:] for c in cs))

    @cached_property
    def escape_bound(self) -> int:
        """2^(d-1) * |Res| * 2d * cofactor_max.  By the Sylvester cofactor
        identity the image of a point of height H has height at least
        H^d / (|Res| * 2d * cofactor_max), so once H^(d-1) > escape_bound
        the heights of the later iterates strictly increase."""
        d = self.degree
        return 2 ** (d - 1) * abs(self.resultant) * 2 * d * self.cofactor_max

    @cached_property
    def _iterates(self) -> list[tuple[Form, Form]]:
        """(P_k, Q_k) for k = 1, 2, ..., as far as ``iterated_forms`` has
        built them."""
        return [(self.p, self.q)]

    @cached_property
    def _exceptional(self) -> tuple[ProjPoint | Form, ...]:
        """The exceptional set, computed once per map; see
        ``exceptional_points``."""
        points, quad = _totally_ramified(self)
        out: list[ProjPoint | Form] = []
        for c in points:
            fc = eval_map(self, c)
            if fc in points and eval_map(self, fc) == c:
                out.append(c)
        if quad is not None and binforms.divides(
            quad, binforms.compose_pair(quad, self.p, self.q)
        ):
            out.append(quad)
        return tuple(out)

    def serialize_coefficients(self) -> str:
        """Canonical coefficient-list format "num=c_k,...,c_0;den=...";
        coefficients of the dehomogenized p, q descending."""
        num = ",".join(map(decimal_str, binforms.strip(self.p)))
        den = ",".join(map(decimal_str, binforms.strip(self.q)))
        return f"num={num};den={den}"


def make_map(
    num_coeffs: Sequence[Fraction | int], den_coeffs: Sequence[Fraction | int]
) -> RatMap:
    """Build a RatMap from rational coefficient lists (descending powers)
    of the affine numerator p and denominator q."""
    num = list(binforms.strip(num_coeffs))
    den = list(binforms.strip(den_coeffs))
    if not num:
        raise RatMapError("numerator is zero")
    if not den:
        raise RatMapError("denominator is zero")
    deg_p, deg_q = len(num) - 1, len(den) - 1
    d = max(deg_p, deg_q)
    lcm = math.lcm(*(c.denominator for c in num + den))
    p_form = [0] * (d - deg_p) + [int(c * lcm) for c in num]
    q_form = [0] * (d - deg_q) + [int(c * lcm) for c in den]
    return RatMap(tuple(p_form), tuple(q_form))


def eval_map(f: RatMap, pt: ProjPoint) -> ProjPoint:
    """Image of a point: [P(a) : Q(a)], normalized.

    The common factor of P(a) and Q(a) divides Res(P, Q), so it is found
    by a gcd against the resultant, not against the full-size coordinates.
    Proof: the Sylvester cofactors give g1*P + g2*Q = Res * x0^(2d-1) and
    h1*P + h2*Q = Res * x1^(2d-1) as forms, so any common divisor of P(a)
    and Q(a) divides Res * a0^(2d-1) and Res * a1^(2d-1), hence divides
    Res * gcd(a0, a1)^(2d-1) = Res, the coordinates of a normalized point
    being coprime."""
    v0 = binforms.evaluate(f.p, pt.a0, pt.a1)
    v1 = binforms.evaluate(f.q, pt.a0, pt.a1)
    g = math.gcd(math.gcd(f.resultant, v0), v1)
    if g > 1:
        v0, v1 = v0 // g, v1 // g
    return ProjPoint._from_coprime(v0, v1)


def iterate(f: RatMap, pt: ProjPoint, n: int) -> ProjPoint:
    """f applied n times (n >= 0), normalizing after each step."""
    if n < 0:
        raise RatMapError("negative iterate")
    for _ in range(n):
        pt = eval_map(f, pt)
    return pt


def check_degree_cap(d: int, n: int, cap: int, form: str, cap_form: str) -> None:
    """Refuse the n-th iterate's forms of degree d^n (d >= 2) when d^n > cap,
    with no d^n past the cap built: 2^n > cap once n reaches the cap's bit
    length.  The error spells d^n in digits below 2^64, else as "d^n" with
    n by :func:`int_text`."""
    if n >= cap.bit_length() or d**n > cap:
        degree = d**n if n * d.bit_length() <= 64 else f"{d}^{int_text(n)}"
        raise FormDegreeCapError(
            f"{form} degree {degree} exceeds the {cap_form} degree cap {cap}"
        )


def iterated_forms(f: RatMap, n: int) -> tuple[Form, Form]:
    """Coprime content-1 forms (P_n, Q_n) of degree d^n with P_n/Q_n = f^n.

    The degree cap is checked first; the forms are kept on f, built once
    each and freed with it."""
    if n < 1:
        raise RatMapError("iterated_forms requires n >= 1")
    check_degree_cap(f.degree, n, DEFAULT_FORM_DEGREE_CAP, "iterate form", "form")
    forms = f._iterates
    while len(forms) < n:
        # P_n = P(P_(n-1), Q_(n-1)) and Q_n = Q(P_(n-1), Q_(n-1)) share the
        # degree-d monomials in (P_(n-1), Q_(n-1))
        ms = binforms.monomials(*forms[-1], f.degree)
        forms.append(_normalize_pair(binforms.combine(f.p, ms), binforms.combine(f.q, ms)))
    return forms[n - 1]


def bad_reduction_primes(f: RatMap) -> PlaceSet:
    """Primes dividing Res(P, Q): exactly the primes of bad reduction."""
    return PlaceSet.dividing(abs(f.resultant))


class CriticalDatum(Record):
    """One critical point (rational, or an irreducible-factor tag)."""

    __slots__ = _fields = ("point", "factor", "factor_degree", "ramification_index",
                           "totally_ramified", "periodic", "period")


class EscapeCertificate(Record):
    """Witness that an orbit escapes, in integers: iterate ``achieved_at``
    has height ``height`` with height^(d-1) > ``bound`` (the map's
    ``RatMap.escape_bound``), so the heights strictly increase from there
    on and no point repeats."""

    __slots__ = _fields = ("achieved_at", "height", "bound")


class WanderingResult(Record):
    """An orbit's class: ``kind`` is 'preperiodic' (with its ``tail`` and
    ``period``), 'wandering' (with its escape ``certificate``) or
    'undecided'."""

    __slots__ = _fields = ("kind", "tail", "period", "certificate")
    _defaults = {"tail": None, "period": None, "certificate": None}


def certify_wandering(
    f: RatMap, u: ProjPoint, max_iter: int = 64, orbit: Sequence[ProjPoint] = ()
) -> WanderingResult:
    """Classify u over the iterates 0..max_iter, at whichever comes first:
    'preperiodic' at the first repeat f^(tail+period)(u) = f^tail(u), or
    'wandering' at the first iterate of height H (its larger absolute
    coordinate) with H^(d-1) > ``f.escape_bound``, as heights then strictly
    increase; 'undecided' means no repeat among those iterates.  ``orbit``
    holds u, f(u), ... already computed (any length); later ones are computed."""
    if max_iter < 1:
        raise RatMapError("max_iter must be >= 1")
    seen: dict[ProjPoint, int] = {}
    cur = u
    bound, e = f.escape_bound, f.degree - 1
    for i in range(max_iter + 1):
        if cur in seen:
            tail = seen[cur]
            return WanderingResult("preperiodic", tail=tail, period=i - tail)
        height = max(abs(cur.a0), abs(cur.a1))
        if height**e > bound:
            cert = EscapeCertificate(achieved_at=i, height=height, bound=bound)
            return WanderingResult("wandering", certificate=cert)
        seen[cur] = i
        cur = orbit[i + 1] if i + 1 < len(orbit) else eval_map(f, cur)
    return WanderingResult("undecided")


def critical_factors(f: RatMap) -> list[tuple[Form, int]]:
    """The irreducible factors of the Wronskian with their multiplicities,
    the factor x1 (the critical point infinity) first: one per critical
    point or conjugate set of them, a linear factor (a, b) for the
    rational point [-b:a]."""
    x1_mult, factors = binforms.factor_form(f.wronskian)
    return [((0, 1), x1_mult)] + factors if x1_mult else factors


def critical_data(f: RatMap) -> list[CriticalDatum]:
    """All critical points with ramification indices from Wronskian
    multiplicities, in the order of :func:`critical_factors`; periodicity
    resolved for rational critical points."""
    d = f.degree
    out: list[CriticalDatum] = []
    for fac, mult in critical_factors(f):
        e = mult + 1
        if len(fac) == 2:
            point = ProjPoint(-fac[1], fac[0])
            result = certify_wandering(f, point)
        else:  # an irrational critical point is not classified
            point, result = None, WanderingResult("undecided")
        periodic = result.kind == "preperiodic" and result.tail == 0
        out.append(
            CriticalDatum(
                point=point,
                factor=None if point is not None else fac,
                factor_degree=len(fac) - 1,
                ramification_index=e,
                totally_ramified=(e == d),
                periodic=periodic if result.kind != "undecided" else None,
                period=result.period if periodic else None,
            )
        )
    return out


def _totally_ramified(f: RatMap) -> tuple[list[ProjPoint], Form | None]:
    """The totally ramified points of f: the roots of multiplicity d-1 of
    the Wronskian W, which are the roots of gcd(W, W', ..., W^(d-2)) (a
    squarefree gcd of degree <= 2), with infinity when x1^(d-1) divides W.

    Returns the rational ones (infinity first, then by primitive linear
    factor) and the irreducible quadratic form of a conjugate pair, if any."""
    d = f.degree
    m = binforms.x1_multiplicity(f.wronskian)
    points = [INFINITY] if m == d - 1 else []
    g = der = f.wronskian[m:]
    for _ in range(d - 2):
        der = binforms.dx0(der)
        g = binforms.gcd(g, der)
    if binforms.degree(g) == 1:
        points.append(ProjPoint(-g[1], g[0]))
    elif binforms.degree(g) == 2:
        factors = binforms.split_quadratic(g)
        if factors is None:
            return points, g
        points += [ProjPoint(-fb, fa) for fa, fb in factors]
    return points, None


def exceptional_points(f: RatMap) -> list[ProjPoint | Form]:
    """Totally ramified fixed points of f^2 (at most two; a conjugate
    quadratic pair is reported as its irreducible form tag).

    f^2 is totally ramified at c exactly when f is at c and at f(c), so
    these are the totally ramified points c of f with f(c) totally
    ramified and f(f(c)) = c; a quadratic pair is kept when f maps its
    roots into themselves, i.e. the tag divides tag(P, Q).  The set is
    computed once per map; each call returns a fresh list."""
    return list(f._exceptional)


class PoweringWitness(Record):
    """Classification of f as (not) conjugate to x^(+/-d), with the
    invariant totally ramified ``pair`` when it exists: two points, or the
    quadratic form whose roots they are.  ``kind`` is 'fixed' (x^d type),
    'swapped' (x^-d type) or None."""

    __slots__ = _fields = ("is_powering", "pair", "kind")


def is_powering_conjugate(f: RatMap) -> PoweringWitness:
    """True iff f has two distinct totally ramified points whose unordered
    pair is f-invariant (conjugacy over the algebraic closure).

    By Riemann–Hurwitz f has at most two totally ramified points, so this
    holds exactly when ``exceptional_points`` holds two points: two
    rational ones, or one quadratic tag.  The kind is 'fixed' when f fixes
    each point of the pair (a tag: when it divides the fixed-point form
    x1*P - x0*Q), else 'swapped'."""
    exceptional = exceptional_points(f)
    if len(exceptional) == 2:
        a, b = exceptional
        return PoweringWitness(True, (a, b), "fixed" if eval_map(f, a) == a else "swapped")
    if exceptional and not isinstance(exceptional[0], ProjPoint):
        quad = exceptional[0]
        fix1 = binforms.sub((0,) + f.p, f.q + (0,))
        kind = "fixed" if binforms.divides(quad, fix1) else "swapped"
        return PoweringWitness(True, quad, kind)
    return PoweringWitness(False, None, None)


def preimage_count(f: RatMap, b: ProjPoint, k: int) -> int:
    """Number of distinct points of f^{-k}(b) over the algebraic closure."""
    if k < 1:
        raise RatMapError("k must be positive")
    pk, qk = iterated_forms(f, k)
    form = binforms.sub(binforms.scale(pk, b.a1), binforms.scale(qk, b.a0))
    return binforms.distinct_root_count(form)


def mobius_conjugate(f: RatMap, matrix: tuple[tuple[int, int], tuple[int, int]]) -> RatMap:
    """Conjugate f by the Moebius map x -> (a x + b) / (c x + d) given as an
    invertible integer matrix ((a, b), (c, d))."""
    (a, b), (c, d) = matrix
    if a * d - b * c == 0:
        raise RatMapError("conjugation matrix is singular")
    inv0, inv1 = (d, -b), (-c, a)
    comp_p = binforms.compose_pair(f.p, inv0, inv1)
    comp_q = binforms.compose_pair(f.q, inv0, inv1)
    new_p = binforms.add(binforms.scale(comp_p, a), binforms.scale(comp_q, b))
    new_q = binforms.add(binforms.scale(comp_p, c), binforms.scale(comp_q, d))
    return RatMap(new_p, new_q)
