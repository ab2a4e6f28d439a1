"""S-integrality predicates: point relative to point (the cross-term
inequality at finite places), pair relative to the pulled-back diagonal
D_n, and the functoriality equivalence between the two."""

from __future__ import annotations

from functools import cached_property

from . import binforms
from .exactarith import PlaceSet, Record, s_free_part
from .primes import factor_partial
from .projective import ProjPoint
from .ratmap import RatMap, bad_reduction_primes, iterate, iterated_forms


class IntegralityError(ValueError):
    pass


class IntegralityWitness(Record):
    """Verdict plus the exact cross term it was decided on.

    The verdict is exact and computed eagerly: the cross term is a nonzero
    S-unit iff its S-free part ``rest`` is 1 (``rest`` is 1 for a zero cross
    term).  The diagnosis is computed on first read and cached:
    ``violating_primes`` lists the primes outside S dividing the cross term
    that trial division and a bounded Pollard rho find in ``rest``; for
    astronomically large cross terms the list may be incomplete
    (``factorization_complete`` False).  Equality, hashing and repr never
    factor, and a witness that ``find_integral_pairs`` shares among the
    cells repeating one pair of points is factored once.
    """

    _fields = ("cross_term", "verdict", "rest")  # no __slots__: _diagnosis is cached in __dict__

    @cached_property
    def _diagnosis(self) -> tuple[tuple[int, ...], bool]:
        if self.rest == 1:  # integral, or a zero cross term
            return (), True
        found, leftover = factor_partial(self.rest, rho_iters=1 << 12)
        return tuple(sorted(found)), leftover == 1

    @property
    def violating_primes(self) -> tuple[int, ...]:
        return self._diagnosis[0]

    @property
    def factorization_complete(self) -> bool:
        return self._diagnosis[1]


def _witness(cross: int, s: PlaceSet) -> IntegralityWitness:
    rest = s_free_part(cross, s) if cross else 1
    return IntegralityWitness(cross, cross != 0 and rest == 1, rest)


def cross_term(p: ProjPoint, q: ProjPoint) -> int:
    return p.a0 * q.a1 - p.a1 * q.a0


def is_integral_pair(p: ProjPoint, q: ProjPoint, s: PlaceSet) -> IntegralityWitness:
    """P is S-integral relative to Q iff the normalized cross term
    a0*b1 - a1*b0 is a nonzero S-unit.  P = Q is declared not integral."""
    return _witness(cross_term(p, q), s)


def _require_bad_primes(f: RatMap, s: PlaceSet) -> None:
    # S holds every prime of Res(f) iff Res(f) is an S-unit; factor Res(f)
    # only to name a missing prime
    if s_free_part(f.resultant, s) != 1:
        missing = min(p for p in bad_reduction_primes(f) if p not in s)
        raise IntegralityError(f"place set missing bad-reduction prime {missing}")


def d_n_cross_form_value(f: RatMap, a: ProjPoint, b: ProjPoint, n: int) -> int:
    """The exact integer P_n(a) Q_n(b) - P_n(b) Q_n(a); n = 0 gives the
    plain cross term."""
    if n < 0:
        raise IntegralityError("n must be nonnegative")
    if n == 0:
        return cross_term(a, b)
    pn, qn = iterated_forms(f, n)
    return binforms.evaluate(pn, a.a0, a.a1) * binforms.evaluate(qn, b.a0, b.a1) - (
        binforms.evaluate(pn, b.a0, b.a1) * binforms.evaluate(qn, a.a0, a.a1)
    )


def is_integral_rel_dn(
    f: RatMap, a: ProjPoint, b: ProjPoint, n: int, s: PlaceSet
) -> IntegralityWitness:
    """S-integrality of the pair (a, b) relative to D_n.

    Requires S to contain every bad-reduction prime of f; with normalized
    coordinates the condition reduces to the D_n cross form value being a
    nonzero S-unit."""
    _require_bad_primes(f, s)
    return _witness(d_n_cross_form_value(f, a, b, n), s)


def check_functoriality(
    f: RatMap, a: ProjPoint, b: ProjPoint, n: int, s: PlaceSet
) -> bool:
    """Whether integrality rel D_n of (a, b) agrees with integrality rel
    D_0 of (f^n(a), f^n(b)); returns the biconditional."""
    lhs = is_integral_rel_dn(f, a, b, n, s).verdict
    rhs = is_integral_pair(iterate(f, a, n), iterate(f, b, n), s).verdict
    return lhs == rhs


def monotonicity_check(
    f: RatMap, a: ProjPoint, b: ProjPoint, m: int, n: int, s: PlaceSet
) -> bool:
    """Evaluates the implication (integral rel D_n => integral rel D_m)
    for m <= n on this instance."""
    if m > n:
        raise IntegralityError("m must not exceed n")
    vn = is_integral_rel_dn(f, a, b, n, s).verdict
    if not vn:
        return True
    return is_integral_rel_dn(f, a, b, m, s).verdict
