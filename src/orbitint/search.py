"""Enumeration and structural analysis of the set of integral index pairs
(m, n) over a finite search window.

Global finiteness is not re-proved here: a pair search is an exhaustive
window enumeration plus hypothesis certificates, and every pair report
says so.  The two cases the theorem leaves out are answered by enlarging
S: :func:`powering_case_enlarge` for a powering map, whose pairs on S'
solve an S'-unit equation, and :func:`exceptional_case_enlarge` for an
exceptional point, with no window.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .exactarith import PlaceSet, Record, int_text, is_s_unit
from .integrality import IntegralityWitness, is_integral_pair
from .projective import INFINITY, ProjPoint
from .ratmap import (
    RatMap,
    WanderingResult,
    bad_reduction_primes,
    certify_wandering,
    eval_map,
    exceptional_points,
    is_powering_conjugate,
)

DEFAULT_ORBIT_CAP = 12  # the largest window side
ORBIT_LENGTH_CAP = 10**4
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


class Hypotheses(Record):
    """Status of the finiteness theorem's hypotheses for this instance."""

    __slots__ = _fields = ("u_status", "w_status", "powering", "exceptional")

    @property
    def theorem_applies(self) -> bool:
        """Both orbits wander and f is not a powering map."""
        return (self.u_status.kind == self.w_status.kind == "wandering"
                and not self.powering.is_powering)


class PairReport(Record):
    """The window's cells, decided on the orbits ``u_orbit`` and ``w_orbit``;
    a digit budget may have cut either orbit short, and the cells then span
    ``effective_window``, a sub-window of ``window``.  ``witnesses`` is left
    out of equality, hashing and repr."""

    _fields = ("map", "u", "w", "places", "window", "pairs", "u_orbit", "w_orbit",
               "hypotheses")
    __slots__ = (*_fields, "witnesses")

    @property
    def frontier(self) -> int | None:
        """The largest max(m, n) over the pairs; None when there are none."""
        return max((max(m, n) for m, n in self.pairs), default=None)

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

    The run was truncated when it returns ``length`` points or fewer; a
    length past ``ORBIT_LENGTH_CAP`` is refused before any point."""
    if length > ORBIT_LENGTH_CAP:
        shown = int_text(length)
        raise SearchError(f"orbit length {shown} exceeds the orbit length cap {ORBIT_LENGTH_CAP}")
    pts = [start]
    for _ in range(length):
        nxt = eval_map(f, pts[-1])
        if _over_digit_budget(nxt, digit_budget):
            break
        pts.append(nxt)
    return tuple(pts)


def _first_indices(status: WanderingResult, count: int) -> list[int]:
    """The index where each of the first ``count`` orbit points first appears."""
    if status.kind != "preperiodic":  # no repeat among depth + 1 >= count iterates
        return list(range(count))
    t, p = status.tail, status.period
    return [min(i, t + (i - t) % p) for i in range(count)]


def find_integral_pairs(
    f: RatMap,
    u: ProjPoint,
    w: ProjPoint,
    s: PlaceSet,
    window: PairWindow,
    digit_budget: int = DEFAULT_DIGIT_BUDGET,
) -> PairReport:
    """Exact enumeration of the S-integral index pairs inside the window.

    Orbits are computed once, and u and w are classified on them; each
    grid cell is an exact cross-term test of f^m(u) against f^n(w), with a
    witness whose violating primes are factored only when read.  A cell
    that repeats a pair of points, which only a preperiodic orbit does,
    shares the witness object of the pair's first cell, located by the
    classifier's tail and period: each distinct pair is decided once.
    """
    if window.m_max > DEFAULT_ORBIT_CAP or window.n_max > DEFAULT_ORBIT_CAP:
        shown = "x".join(map(int_text, (window.m_max, window.n_max)))
        raise SearchError(f"window {shown} exceeds the orbit cap {DEFAULT_ORBIT_CAP}")

    u_orbit = orbit(f, u, window.m_max, digit_budget)
    w_orbit = orbit(f, w, window.n_max, digit_budget)
    depth = max(window.m_max, window.n_max) + 32  # at least each window side, for _first_indices
    hypo = Hypotheses(
        u_status=certify_wandering(f, u, depth, u_orbit),
        w_status=certify_wandering(f, w, depth, w_orbit),
        powering=is_powering_conjugate(f),
        exceptional=tuple(exceptional_points(f)),
    )
    u_first = _first_indices(hypo.u_status, len(u_orbit))
    w_first = _first_indices(hypo.w_status, len(w_orbit))

    pairs: list[tuple[int, int]] = []
    witnesses: dict[tuple[int, int], IntegralityWitness] = {}
    for m, um in enumerate(u_orbit):
        for n, wn in enumerate(w_orbit):
            wit = witnesses.get((u_first[m], w_first[n])) or is_integral_pair(um, wn, s)
            witnesses[(m, n)] = wit
            if wit.verdict:
                pairs.append((m, n))

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
    )


class CosetStructure(Record):
    """Window-level greedy decomposition into single-generator cosets plus
    residual isolated pairs; descriptive, never a global proof."""

    __slots__ = _fields = ("cosets", "residual")


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

    The decomposition is exact by construction: a kept ray is exactly its
    ``_ray_room`` window points, each of them a pair, and the residual is
    the pairs that no kept ray covers.  ``report.pairs`` is read in the
    (m, n) order ``find_integral_pairs`` lists it in.
    """
    window = report.effective_window
    ordered = report.pairs
    pair_set = set(ordered)
    uncovered = set(ordered)
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
    residual = tuple(p for p in ordered if p in uncovered)
    return CosetStructure(cosets=tuple(cosets), residual=residual)


def powering_case_enlarge(f: RatMap, u: ProjPoint, w: ProjPoint, s: PlaceSet) -> PlaceSet:
    """For f = c*x^(+-d) with exceptional pair {0, inf}: S with the
    bad-reduction primes (those of c) and the primes of u and w added.  On
    this S', every f^m(u)/f^n(w) is an S'-unit, so each integral pair gives
    a tau (:func:`tau_values`) with tau and tau + 1 S'-units.  A map
    conjugate to a powering map in other coordinates is refused: S' and
    tau mean this only where the pair is {0, inf}."""
    witness = is_powering_conjugate(f)
    if not witness.is_powering:
        raise SearchError("map is not conjugate to a powering map")
    if set(witness.pair) != {ProjPoint(0, 1), INFINITY}:  # a quadratic tag holds ints
        raise SearchError("powering pair is not {0, inf}; change coordinates first")
    if 0 in (u.a0, u.a1, w.a0, w.a1):
        raise SearchError("u and w must be nonzero affine points")
    extra = bad_reduction_primes(f).union(PlaceSet.dividing(u.a0, u.a1, w.a0, w.a1))
    return s.union(extra)


def tau_values(report: PairReport) -> tuple[Fraction, ...]:
    """The sorted distinct tau = f^m(u)/f^n(w) - 1 over a powering report's
    pairs; c*x^(+-d) keeps u and w off 0 and inf, so each is defined."""
    return tuple(sorted({
        report.u_orbit[m].to_affine() / report.w_orbit[n].to_affine() - 1
        for m, n in report.pairs
    }))


def tau_unit_checks_passed(taus: tuple[Fraction, ...], places: PlaceSet) -> bool:
    """Every tau and tau + 1 is a nonzero S'-unit of ``places``."""
    return all(
        tau != 0 and is_s_unit(tau, places) and is_s_unit(tau + 1, places) for tau in taus
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
