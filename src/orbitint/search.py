"""Enumeration and structural analysis of the set of integral index pairs
(m, n) over a finite search window, with the powering-map and
exceptional-point special cases.

Global finiteness is not re-proved here: a pair search is an exhaustive
window enumeration plus hypothesis certificates, and every pair report
says so.  The exceptional case is answered for all of N^2 without a
window: :func:`exceptional_case_enlarge` builds the S' that a
good-reduction argument proves sufficient.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .exactarith import PlaceSet, Record, is_s_unit
from .integrality import IntegralityWitness, is_integral_pair
from .projective import INFINITY, ProjPoint
from .ratmap import (
    PoweringWitness,
    RatMap,
    WanderingResult,
    bad_reduction_primes,
    certify_wandering,
    eval_map,
    exceptional_points,
    is_powering_conjugate,
)

DEFAULT_ORBIT_CAP = 12
DEFAULT_DIGIT_BUDGET = 10**6


class SearchError(ValueError):
    pass


class PairWindow(Record):
    """Inclusive search window 0..m_max x 0..n_max over N^2."""

    __slots__ = _fields = ("m_max", "n_max")

    def __init__(self, m_max: int, n_max: int):
        if m_max < 0 or n_max < 0:
            raise SearchError("window bounds must be nonnegative")
        self.m_max = m_max
        self.n_max = n_max

    def __contains__(self, pair: tuple[int, int]) -> bool:
        m, n = pair
        return 0 <= m <= self.m_max and 0 <= n <= self.n_max


class Hypotheses(Record):
    """Status of the finiteness theorem's hypotheses for this instance."""

    __slots__ = _fields = ("u_status", "w_status", "powering", "exceptional",
                           "theorem_applies")

    def __init__(self, u_status: WanderingResult, w_status: WanderingResult,
                 powering: PoweringWitness, exceptional: tuple, theorem_applies: bool):
        self.u_status = u_status
        self.w_status = w_status
        self.powering = powering
        self.exceptional = exceptional
        self.theorem_applies = theorem_applies


class PairReport(Record):
    """The window's cells, decided on the orbits ``u_orbit`` and ``w_orbit``;
    a digit budget may have cut either orbit short, and the cells then span
    ``effective_window``, a sub-window of ``window``.  ``witnesses`` is left
    out of equality, hashing and repr."""

    _fields = ("map", "u", "w", "places", "window", "pairs", "u_orbit", "w_orbit",
               "hypotheses", "frontier")
    __slots__ = (*_fields, "witnesses")

    def __init__(
        self,
        map: RatMap,
        u: ProjPoint,
        w: ProjPoint,
        places: PlaceSet,
        window: PairWindow,
        pairs: tuple[tuple[int, int], ...],
        u_orbit: tuple[ProjPoint, ...],
        w_orbit: tuple[ProjPoint, ...],
        hypotheses: Hypotheses,
        witnesses: dict | None = None,
        frontier: int | None = None,  # max over pairs of max(m, n)
    ):
        self.map = map
        self.u = u
        self.w = w
        self.places = places
        self.window = window
        self.pairs = pairs
        self.u_orbit = u_orbit
        self.w_orbit = w_orbit
        self.hypotheses = hypotheses
        self.witnesses = {} if witnesses is None else witnesses
        self.frontier = frontier

    @property
    def effective_window(self) -> PairWindow:
        return PairWindow(len(self.u_orbit) - 1, len(self.w_orbit) - 1)

    @property
    def truncated(self) -> bool:
        return self.effective_window != self.window


@lru_cache(maxsize=1)  # a run has one budget; a long-lived process keeps one power
def _ten_pow(b: int) -> int:
    return 10**b


def _over_digit_budget(pt: ProjPoint, budget: int) -> bool:
    """True iff a coordinate of pt has more than ``budget`` decimal digits,
    i.e. max(|a0|, |a1|) >= 10^budget, decided in integers: a value of L
    bits lies in [2^(L-1), 2^L), so L <= 3*budget keeps it (8^b < 10^b) and
    L > 4*budget cuts it (16^b > 10^b); only in between is 10^budget built,
    once per budget."""
    top = max(abs(pt.a0), abs(pt.a1))
    bits = top.bit_length()
    if bits <= 3 * budget:
        return False
    if bits > 4 * budget:
        return True
    return top >= _ten_pow(budget)


def orbit(
    f: RatMap, start: ProjPoint, length: int, digit_budget: int
) -> tuple[ProjPoint, ...]:
    """Orbit points start, f(start), ..., f^length(start), stopping before
    the first point with a coordinate of more than ``digit_budget`` decimal
    digits (an exact integer test; ``start`` itself is never cut).

    The run was truncated when it returns ``length`` points or fewer."""
    pts = [start]
    for _ in range(length):
        nxt = eval_map(f, pts[-1])
        if _over_digit_budget(nxt, digit_budget):
            break
        pts.append(nxt)
    return tuple(pts)


def _first_indices(points: tuple[ProjPoint, ...]) -> list[int]:
    """For each index, the index where its point first appears."""
    first: dict[ProjPoint, int] = {}
    return [first.setdefault(pt, i) for i, pt in enumerate(points)]


def find_integral_pairs(
    f: RatMap,
    u: ProjPoint,
    w: ProjPoint,
    s: PlaceSet,
    window: PairWindow,
    digit_budget: int = DEFAULT_DIGIT_BUDGET,
) -> PairReport:
    """Exact enumeration of the S-integral index pairs inside the window.

    Orbits are computed once; each grid cell is an exact cross-term test of
    f^m(u) against f^n(w).  Every cell gets a witness; its verdict is decided
    here, while its violating primes are factored only when something reads
    them.  A preperiodic orbit repeats points, and the cells that repeat a
    pair of points share one witness object: each distinct pair is decided,
    rendered and factored once.
    """
    if window.m_max > DEFAULT_ORBIT_CAP or window.n_max > DEFAULT_ORBIT_CAP:
        raise SearchError("window exceeds orbit cap")

    u_orbit = orbit(f, u, window.m_max, digit_budget)
    w_orbit = orbit(f, w, window.n_max, digit_budget)
    u_first, w_first = _first_indices(u_orbit), _first_indices(w_orbit)

    pairs: list[tuple[int, int]] = []
    witnesses: dict[tuple[int, int], IntegralityWitness] = {}
    for m, um in enumerate(u_orbit):
        for n, wn in enumerate(w_orbit):
            first = (u_first[m], w_first[n])
            wit = witnesses.get(first)
            if wit is None:
                wit = is_integral_pair(um, wn, s)
            witnesses[(m, n)] = wit
            if wit.verdict:
                pairs.append((m, n))

    depth = max(window.m_max, window.n_max) + 32
    u_status = certify_wandering(f, u, depth)
    w_status = certify_wandering(f, w, depth)
    powering = is_powering_conjugate(f)
    hypo = Hypotheses(
        u_status=u_status,
        w_status=w_status,
        powering=powering,
        exceptional=tuple(exceptional_points(f)),
        theorem_applies=(
            u_status.kind == "wandering"
            and w_status.kind == "wandering"
            and not powering.is_powering
        ),
    )

    return PairReport(
        map=f,
        u=u,
        w=w,
        places=s,
        window=window,
        pairs=tuple(pairs),  # the loop above appends in (m, n) order
        u_orbit=u_orbit,
        w_orbit=w_orbit,
        witnesses=witnesses,
        hypotheses=hypo,
        frontier=max((max(m, n) for m, n in pairs), default=None),
    )


class CosetStructure(Record):
    """Window-level greedy decomposition into single-generator cosets plus
    residual isolated pairs; descriptive, never a global proof."""

    __slots__ = _fields = ("cosets", "residual")

    def __init__(self, cosets: tuple[tuple[tuple[int, int], tuple[tuple[int, int], ...]], ...],
                 residual: tuple[tuple[int, int], ...]):
        self.cosets = cosets
        self.residual = residual

    def reconstruct(self, window: PairWindow) -> set[tuple[int, int]]:
        out = set(self.residual)
        for base, gens in self.cosets:
            if not gens:
                out.add(base)
                continue
            (dm, dn) = gens[0]
            m, n = base
            while (m, n) in window:
                out.add((m, n))
                m, n = m + dm, n + dn
        return out


def _ray_room(base: tuple[int, int], gen: tuple[int, int], window: PairWindow) -> int:
    """Number of window points on the ray base + k*gen, k >= 0, for a base
    in the window; a zero step puts no limit on its coordinate."""
    tops = (window.m_max, window.n_max)
    return 1 + min((top - b) // d for top, b, d in zip(tops, base, gen) if d)


def detect_coset_structure(report: PairReport) -> CosetStructure:
    """Greedy single-generator coset detection over the window.

    A ray base + k*(dm, dn) becomes a coset only when every window point of
    the ray is an integral pair (closure within the window) and it has at
    least three members; everything else is residual.  A generator is walked
    only when its ray has room for at least three window points and for
    more than the longest ray found so far from the same base.
    """
    window = report.effective_window
    pair_set = set(report.pairs)
    ordered = sorted(pair_set)
    uncovered = set(pair_set)
    cosets = []
    for i, base in enumerate(ordered):
        if base not in uncovered:
            continue
        best_ray: list[tuple[int, int]] = []
        best_gen = None
        # no ray from base is longer than a unit step along its longer side
        longest = 1 + max(window.m_max - base[0], window.n_max - base[1])
        for other in ordered[i + 1 :]:  # the pairs after base: dm >= 0
            dm, dn = other[0] - base[0], other[1] - base[1]
            if dn < 0:
                continue
            room = _ray_room(base, (dm, dn), window)
            if room < 3 or room <= len(best_ray):
                continue
            ray = [(base[0] + k * dm, base[1] + k * dn) for k in range(room)]
            if all(p in pair_set for p in ray):
                best_ray = ray
                best_gen = (dm, dn)
                if room == longest:
                    break
        if best_ray:
            cosets.append((base, (best_gen,)))
            uncovered -= set(best_ray)
    residual = tuple(sorted(uncovered))
    structure = CosetStructure(cosets=tuple(cosets), residual=residual)
    if structure.reconstruct(window) != pair_set:
        raise SearchError("coset decomposition failed round-trip")  # pragma: no cover
    return structure


class PoweringAnalysis(Record):
    __slots__ = _fields = ("report", "tau_values", "tau_unit_checks_passed")

    def __init__(self, report: PairReport, tau_values: tuple[Fraction, ...],
                 tau_unit_checks_passed: bool):
        self.report = report
        self.tau_values = tau_values
        self.tau_unit_checks_passed = tau_unit_checks_passed


def powering_pair_analysis(
    f: RatMap,
    u: ProjPoint,
    w: ProjPoint,
    s: PlaceSet,
    window: PairWindow,
    digit_budget: int = DEFAULT_DIGIT_BUDGET,
) -> PoweringAnalysis:
    """For f = c*x^(+-d), a powering map whose exceptional pair is {0, inf}:
    enlarge S so u and w are S'-units, enumerate the window, and annotate
    each integral pair with tau = f^m(u)/f^n(w) - 1, verifying tau and
    tau + 1 are S'-units.  A map conjugate to a powering map in other
    coordinates is refused: S' and tau mean this only where the pair is
    {0, inf}."""
    witness = is_powering_conjugate(f)
    if not witness.is_powering:
        raise SearchError("map is not conjugate to a powering map")
    if set(witness.pair) != {ProjPoint(0, 1), INFINITY}:  # a quadratic tag holds ints
        raise SearchError("powering pair is not {0, inf}; change coordinates first")
    if 0 in (u.a0, u.a1, w.a0, w.a1):
        raise SearchError("u and w must be nonzero affine points")
    enlarged = s.union(PlaceSet.dividing(u.a0, u.a1, w.a0, w.a1))
    report = find_integral_pairs(f, u, w, enlarged, window, digit_budget=digit_budget)
    # f maps the nonzero affine points into themselves, so every um/wn is
    # defined and nonzero
    taus = sorted(
        {
            report.u_orbit[m].to_affine() / report.w_orbit[n].to_affine() - 1
            for m, n in report.pairs
        }
    )
    return PoweringAnalysis(
        report=report,
        tau_values=tuple(taus),
        tau_unit_checks_passed=all(
            tau != 0 and is_s_unit(tau, enlarged) and is_s_unit(tau + 1, enlarged)
            for tau in taus
        ),
    )


def exceptional_case_enlarge(f: RatMap, u: ProjPoint, s: PlaceSet) -> PlaceSet:
    """The S' that makes every pair (m, n) in N^2 S'-integral when w is
    the exceptional point at infinity; nothing is enumerated.

    S' is S with three parts added: the bad-reduction primes, the primes
    of u's denominator and the primes of f(u)'s denominator.  The proof
    is by good reduction (Silverman, GTM 241, ch. 1 and 2).  As infinity
    is exceptional, f^-2(inf) = {inf}, so E = {inf, f(inf)} has
    f^-1(E) = E.  Take a prime q outside S'.

    - f has good reduction at q, so reduction commutes with iteration,
      and the divisor f^*(e) = d*[e'] of each e in E reduces to the fibre
      of the reduced map over e mod q: the reduced map pulls E mod q back
      into itself.
    - q divides neither the denominator of u nor that of f(u), so neither
      u nor f(u) reduces to inf; and as f(inf) mod q is the only preimage
      of inf mod q, u does not reduce to f(inf) either.
    - So no f^m(u) meets E mod q, while every f^n(inf) lies in E: q
      divides no cross term, and every cell is S'-integral.

    A u in E is refused: u or f(u) is then infinity, whose denominator
    is 0.  Any other u, another exceptional point (0 for c*x^d) among
    them, has f(u) finite too, as f^-1(inf) = {f(inf)}, and the proof
    above holds for it.
    """
    exc = exceptional_points(f)
    if not exc:
        raise SearchError("map has no exceptional point")
    if INFINITY not in exc:
        raise SearchError(
            "exceptional point is not at infinity; change coordinates first"
        )
    if u in (INFINITY, eval_map(f, INFINITY)):
        raise SearchError("u hits exceptional point")
    extra = bad_reduction_primes(f).union(PlaceSet.dividing(u.a1, eval_map(f, u).a1))
    return s.union(extra)
