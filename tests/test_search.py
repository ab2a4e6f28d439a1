from fractions import Fraction
from math import comb
from types import SimpleNamespace

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from orbitint import binforms, exactarith, parse_map, search
from orbitint.exactarith import PlaceSet, is_s_unit
from orbitint.integrality import is_integral_pair
from orbitint.primes import factor
from orbitint.projective import INFINITY, ProjPoint, from_affine
from orbitint.ratmap import (
    RatMapError,
    bad_reduction_primes,
    eval_map,
    exceptional_points,
    is_powering_conjugate,
    iterate,
    iterated_forms,
    make_map,
    mobius_conjugate,
)
from orbitint.search import (
    DEFAULT_DIGIT_BUDGET,
    PairWindow,
    SearchError,
    detect_coset_structure,
    exceptional_case_enlarge,
    find_integral_pairs,
    orbit,
    powering_pair_analysis,
)

from test_pairs_oracle import dk_pairs


class TestPairWindow:
    def test_membership(self):
        w = PairWindow(3, 2)
        assert (0, 0) in w and (3, 2) in w
        assert (4, 0) not in w and (0, 3) not in w and (-1, 0) not in w

    def test_negative_rejected(self):
        for bounds in ((-1, 2), (-1, 0), (0, -1)):
            with pytest.raises(SearchError, match="nonnegative"):
                PairWindow(*bounds)


class TestFindIntegralPairs:
    def test_cube_diagonal(self):
        f = make_map([1, 0, 0, 0], [1])
        report = find_integral_pairs(
            f, ProjPoint(2, 1), ProjPoint(-2, 1), PlaceSet((2,)), PairWindow(6, 6)
        )
        assert report.pairs == tuple((m, m) for m in range(7))
        assert not report.truncated
        assert report.frontier == 6
        assert report.hypotheses.theorem_applies is False  # powering map

    def test_small_example(self):
        f = make_map([1, 0, 0], [1])
        report = find_integral_pairs(
            f, ProjPoint(2, 1), ProjPoint(3, 1), PlaceSet(), PairWindow(4, 4)
        )
        # cross terms 2^(2^m) - 3^(2^n): unit only at (0,0) and (1,0):
        # 2-3 = -1 and 4-3 = 1.
        assert report.pairs == ((0, 0), (1, 0))
        # squaring map is a powering map, so the finiteness theorem's
        # hypotheses are not met even though both orbits wander
        assert report.hypotheses.theorem_applies is False

    def test_every_cell_has_witness(self):
        f = make_map([1, 0, 1], [1])
        report = find_integral_pairs(
            f, ProjPoint(1, 1), ProjPoint(3, 1), PlaceSet(), PairWindow(3, 3)
        )
        assert set(report.witnesses) == {(m, n) for m in range(4) for n in range(4)}
        for (m, n), wit in report.witnesses.items():
            assert wit.verdict == ((m, n) in report.pairs)
        # x^2+1: both orbits wander and the map is not a powering map
        assert report.hypotheses.theorem_applies is True

    def test_dk_route_agrees(self):
        # each cell decided through D_k, k = min(m, n, 3), on the report's orbits
        f = make_map([1, 0, Fraction(1, 2)], [1])
        s = PlaceSet((2, 3))
        report = find_integral_pairs(
            f, ProjPoint(1, 1), ProjPoint(5, 1), s, PairWindow(4, 4)
        )
        assert dk_pairs(f, report, s) == report.pairs

    def test_bad_prime_precondition_does_not_factor(self, monkeypatch):
        # Res((x^2+1)/N) = N^2 with N a product of two 31-digit primes:
        # neither the search nor the D_k check of its cells may factor it
        def refuse(n):
            raise AssertionError(f"factored {n}")

        monkeypatch.setattr(exactarith, "factor", refuse)
        p, q = 1000000000000000000000000012367, 3000000000000000000000000000779
        f = make_map([1, 0, 1], [p * q])
        s = PlaceSet((p, q))
        report = find_integral_pairs(
            f, ProjPoint(1, 1), ProjPoint(2, 1), s, PairWindow(2, 2)
        )
        assert dk_pairs(f, report, s) == report.pairs

    def test_s_monotonicity(self):
        f = make_map([1, 0, 1], [1])
        small = find_integral_pairs(
            f, ProjPoint(1, 1), ProjPoint(2, 1), PlaceSet(), PairWindow(4, 4)
        )
        big = find_integral_pairs(
            f, ProjPoint(1, 1), ProjPoint(2, 1), PlaceSet((2, 3, 5)), PairWindow(4, 4)
        )
        assert set(small.pairs) <= set(big.pairs)

    def test_window_exceeding_orbit_cap(self):
        f = make_map([1, 0, 0], [1])
        with pytest.raises(SearchError, match="orbit cap"):
            find_integral_pairs(
                f, ProjPoint(2, 1), ProjPoint(3, 1), PlaceSet(), PairWindow(13, 13)
            )

    def test_digit_budget_truncates(self):
        f = make_map([1, 0, 0], [1])
        report = find_integral_pairs(
            f,
            ProjPoint(2, 1),
            ProjPoint(3, 1),
            PlaceSet(),
            PairWindow(12, 12),
            digit_budget=50,
        )
        assert report.truncated
        assert report.effective_window.m_max < 12
        # the cells span the orbits the budget let through
        assert len(report.u_orbit) == report.effective_window.m_max + 1
        assert len(report.w_orbit) == report.effective_window.n_max + 1
        assert set(report.witnesses) == {
            (m, n) for m in range(len(report.u_orbit)) for n in range(len(report.w_orbit))
        }

    def test_preperiodic_u_flagged(self):
        f = make_map([1, 0, -1], [1])  # x^2-1, u = 0 is periodic
        report = find_integral_pairs(
            f, ProjPoint(0, 1), ProjPoint(3, 1), PlaceSet(), PairWindow(3, 3)
        )
        assert report.hypotheses.u_status.kind == "preperiodic"
        assert report.hypotheses.theorem_applies is False


class TestDigitBudget:
    @given(
        st.integers(-(10**60), 10**60),
        st.integers(-(10**60), 10**60),
        st.integers(-2, 62),
    )
    @example(10**5, 1, 5)
    @example(10**5 - 1, 1, 5)
    @example(1, -(10**40), 40)
    @example(2**133, 1, 40)  # 134 bits, 41 digits: between 3 and 4 bits per digit,
    @example(2**132, 1, 40)  # 133 bits, 40 digits: where 10^budget decides
    @example(1, 0, 0)
    @example(9, 8, 1)  # 4 bits, 1 digit: the one budget where 4*budget bits fit
    def test_cut_iff_more_than_budget_digits(self, a0, a1, budget):
        assume((a0, a1) != (0, 0))
        pt = ProjPoint(a0, a1)
        digits = len(str(max(abs(pt.a0), abs(pt.a1))))
        assert search._over_digit_budget(pt, budget) == (digits > budget)

    def test_orbit_stops_before_the_first_point_over_budget(self):
        f = parse_map("x^2")
        two = ProjPoint(2, 1)
        assert len(search.orbit(f, two, 4, 5)) == 5  # 65536: 5 digits
        assert len(search.orbit(f, two, 4, 4)) == 4
        assert len(search.orbit(f, two, 4, 0)) == 1  # the start is never cut


class TestRepeatingOrbits:
    # (map, u, w, S): preperiodic orbits, w = inf for polynomial maps, a
    # fixed u, and one wandering pair for contrast
    CASES = [
        (make_map([1, 0, 1], [1]), from_affine(Fraction(1, 2)), INFINITY, PlaceSet()),
        (make_map([1, 0, -1], [1]), ProjPoint(0, 1), INFINITY, PlaceSet()),
        (make_map([1, 0, -1], [1]), ProjPoint(0, 1), ProjPoint(-1, 1), PlaceSet()),
        (make_map([1, 0, -1], [1]), ProjPoint(0, 1), ProjPoint(2, 1), PlaceSet((2,))),
        (make_map([1, 0, -2], [1]), ProjPoint(-2, 1), ProjPoint(2, 1), PlaceSet()),
        (make_map([1, 0, 0], [1]), ProjPoint(1, 1), ProjPoint(3, 1), PlaceSet((2,))),
        (make_map([1, 0, -1, 1], [1]), from_affine(Fraction(1, 2)), INFINITY,
         PlaceSet((2,))),
        (make_map([1, 0, 1], [1, 0]), ProjPoint(1, 1), ProjPoint(3, 1), PlaceSet()),
    ]

    def test_cells_match_fresh_witnesses(self):
        for f, u, w, s in self.CASES:
            report = find_integral_pairs(f, u, w, s, PairWindow(6, 5))
            assert report.u_orbit == tuple(iterate(f, u, m) for m in range(7))
            assert report.w_orbit == tuple(iterate(f, w, n) for n in range(6))
            for (m, n), wit in report.witnesses.items():
                assert wit == is_integral_pair(report.u_orbit[m], report.w_orbit[n], s)
                assert wit.verdict == ((m, n) in report.pairs)
                # the cell shares the witness of the first cell of its pair
                first = (report.u_orbit.index(report.u_orbit[m]),
                         report.w_orbit.index(report.w_orbit[n]))
                assert wit is report.witnesses[first]

    def test_one_verdict_per_distinct_pair(self, monkeypatch):
        calls = []

        def counting(p, q, s):
            calls.append((p, q))
            return is_integral_pair(p, q, s)

        monkeypatch.setattr(search, "is_integral_pair", counting)
        for f, u, w, s in self.CASES:
            calls.clear()
            report = find_integral_pairs(f, u, w, s, PairWindow(6, 5))
            assert len(report.witnesses) == 42
            assert len(calls) == len(set(report.u_orbit)) * len(set(report.w_orbit))
            assert len(set(calls)) == len(calls)


def greedy_cosets(pair_set, window):
    """The greedy loop that walked every generator: the reference for
    ``detect_coset_structure``."""
    uncovered = set(pair_set)
    cosets = []
    for base in sorted(pair_set):
        if base not in uncovered:
            continue
        best_ray = None
        best_gen = None
        for other in sorted(pair_set):
            if other == base:
                continue
            dm, dn = other[0] - base[0], other[1] - base[1]
            if dm < 0 or dn < 0 or (dm == 0 and dn == 0):
                continue
            ray = []
            m, n = base
            ok = True
            while (m, n) in window:
                if (m, n) not in pair_set:
                    ok = False
                    break
                ray.append((m, n))
                m, n = m + dm, n + dn
            if ok and len(ray) >= 3:
                if best_ray is None or len(ray) > len(best_ray):
                    best_ray = ray
                    best_gen = (dm, dn)
        if best_ray is not None:
            cosets.append((base, (best_gen,)))
            uncovered -= set(best_ray)
    return tuple(cosets), tuple(sorted(uncovered))


@st.composite
def pair_sets(draw):
    """A window up to 12x12 and a set of its cells: some whole rays, so
    that cosets occur, plus scattered cells."""
    window = PairWindow(draw(st.integers(0, 12)), draw(st.integers(0, 12)))
    cells = st.tuples(st.integers(0, window.m_max), st.integers(0, window.n_max))
    out = set(draw(st.lists(cells, max_size=30)))
    for base in draw(st.lists(cells, max_size=4)):
        dm, dn = draw(st.integers(0, 4)), draw(st.integers(0, 4))
        m, n = base
        while (m, n) in window and (dm, dn) != (0, 0):
            out.add((m, n))
            m, n = m + dm, n + dn
    return window, out


class TestCosetStructure:
    @given(pair_sets())
    @example((PairWindow(0, 12), {(0, n) for n in range(13)}))
    @example((PairWindow(12, 0), {(m, 0) for m in range(0, 13, 2)} | {(3, 0)}))
    @example((PairWindow(0, 5), {(0, 0), (0, 2), (0, 4), (0, 5)}))
    @example((PairWindow(12, 12), {(m, n) for m in range(13) for n in range(13)}))
    @example((PairWindow(0, 0), {(0, 0)}))
    # two full rays of one length from (0, 0): the first generator wins
    @example((PairWindow(6, 6), {(0, 0), (0, 2), (0, 4), (0, 6), (2, 0), (4, 0), (6, 0)}))
    # a full row one short of the full column that comes after it
    @example((PairWindow(12, 11), {(0, n) for n in range(12)} | {(m, 0) for m in range(13)}))
    def test_matches_greedy_reference(self, case):
        window, pair_set = case
        report = SimpleNamespace(effective_window=window, pairs=tuple(sorted(pair_set)))
        structure = detect_coset_structure(report)
        assert (structure.cosets, structure.residual) == greedy_cosets(pair_set, window)

    def test_diagonal_detected(self):
        f = make_map([1, 0, 0, 0], [1])
        report = find_integral_pairs(
            f, ProjPoint(2, 1), ProjPoint(-2, 1), PlaceSet((2,)), PairWindow(6, 6)
        )
        structure = detect_coset_structure(report)
        assert structure.cosets == (((0, 0), ((1, 1),)),)
        assert structure.residual == ()
        assert structure.reconstruct(PairWindow(6, 6)) == set(report.pairs)

    def test_sparse_pairs_are_residual(self):
        f = make_map([1, 0, 0], [1])
        report = find_integral_pairs(
            f, ProjPoint(2, 1), ProjPoint(3, 1), PlaceSet(), PairWindow(4, 4)
        )
        structure = detect_coset_structure(report)
        assert structure.cosets == ()
        assert set(structure.residual) == set(report.pairs)

    def test_roundtrip_invariant(self):
        f = make_map([1, 0, 1], [1])
        for s in (PlaceSet(), PlaceSet((2,)), PlaceSet((2, 3, 5))):
            report = find_integral_pairs(
                f, ProjPoint(1, 1), ProjPoint(1, 1), s, PairWindow(5, 5)
            )
            structure = detect_coset_structure(report)
            assert structure.reconstruct(report.effective_window) == set(report.pairs)


class TestPoweringAnalysis:
    def test_cube_map_tau(self):
        f = make_map([1, 0, 0, 0], [1])
        analysis = powering_pair_analysis(
            f, ProjPoint(2, 1), ProjPoint(-2, 1), PlaceSet((2,)), PairWindow(4, 4)
        )
        assert 2 in analysis.report.places
        assert analysis.report.pairs == tuple((m, m) for m in range(5))
        # on the diagonal f^m(u)/f^m(w) = -1, so tau = -2 throughout
        assert analysis.tau_values == (Fraction(-2),)
        assert analysis.tau_unit_checks_passed
        for tau in analysis.tau_values:
            assert is_s_unit(tau, analysis.report.places)
            assert is_s_unit(tau + 1, analysis.report.places)

    def test_rejects_non_powering(self):
        f = make_map([1, 0, 1], [1])
        with pytest.raises(SearchError, match="powering"):
            powering_pair_analysis(
                f, ProjPoint(2, 1), ProjPoint(3, 1), PlaceSet(), PairWindow(2, 2)
            )

    @pytest.mark.parametrize(
        "num, den",
        [
            ([1, 2, 0], [1]),  # (x+1)^2 - 1: x^2 conjugated by x -> x+1
            ([1, 0, -3], [2, 0]),  # (x^2-3)/(2x): a quadratic tag
        ],
    )
    def test_rejects_pair_other_than_zero_and_infinity(self, num, den):
        f = make_map(num, den)
        assert is_powering_conjugate(f).is_powering
        with pytest.raises(
            SearchError, match=r"^powering pair is not \{0, inf\}; change coordinates first$"
        ):
            powering_pair_analysis(
                f, ProjPoint(1, 1), ProjPoint(3, 1), PlaceSet(), PairWindow(2, 2)
            )

    def test_swapped_kind(self):
        f = make_map([1], [1, 0, 0])  # 1/x^2 swaps 0 and infinity
        analysis = powering_pair_analysis(
            f, ProjPoint(2, 1), ProjPoint(1, 2), PlaceSet(), PairWindow(3, 3)
        )
        assert analysis.report.places.primes == (2,)
        assert analysis.tau_unit_checks_passed

    def test_rejects_zero_or_infinite_points(self):
        f = make_map([1, 0, 0], [1])
        with pytest.raises(SearchError):
            powering_pair_analysis(
                f, ProjPoint(0, 1), ProjPoint(3, 1), PlaceSet(), PairWindow(2, 2)
            )
        with pytest.raises(SearchError):
            powering_pair_analysis(
                f, ProjPoint(2, 1), INFINITY, PlaceSet(), PairWindow(2, 2)
            )

    def test_enlarges_with_point_support(self):
        f = make_map([1, 0, 0], [1])
        analysis = powering_pair_analysis(
            f,
            from_affine(Fraction(3, 5)),
            ProjPoint(2, 1),
            PlaceSet(),
            PairWindow(3, 3),
        )
        assert {2, 3, 5} <= set(analysis.report.places)

    def test_factors_exactly_the_coordinates(self, monkeypatch):
        factored = []

        def record(n):
            factored.append(n)
            return factor(n)

        monkeypatch.setattr(exactarith, "factor", record)
        f, u, w = make_map([1, 0, 0], [1]), from_affine(Fraction(-30, 7)), ProjPoint(2, 1)
        analysis = powering_pair_analysis(f, u, w, PlaceSet(), PairWindow(3, 3))
        assert factored == [-30, 7, 2, 1]
        assert analysis.report.places.primes == (2, 3, 5, 7)


class TestExceptionalEnlarge:
    def test_integer_point_needs_nothing(self):
        f = make_map([1, 0, 0], [1])
        s = exceptional_case_enlarge(f, ProjPoint(3, 1), PlaceSet())
        assert s.primes == ()

    def test_denominator_primes_added(self):
        f = make_map([1, 0, 0], [1])
        s = exceptional_case_enlarge(f, from_affine(Fraction(1, 3)), PlaceSet())
        assert s.primes == (3,)
        s = exceptional_case_enlarge(f, from_affine(Fraction(1, 2)), PlaceSet())
        assert s.primes == (2,)

    def test_window_guarantee(self):
        f = make_map([1, 0, 0], [1])
        u = from_affine(Fraction(1, 2))
        s = exceptional_case_enlarge(f, u, PlaceSet())
        report = find_integral_pairs(f, u, INFINITY, s, PairWindow(5, 5))
        assert set(report.pairs) == {(m, n) for m in range(6) for n in range(6)}

    def test_factors_exactly_res_and_denominators(self, monkeypatch):
        factored = []

        def record(n):
            factored.append(n)
            return factor(n)

        monkeypatch.setattr(exactarith, "factor", record)
        f = swap_map(2, 1, 2)  # 2 + 1/(x-2)^2: Res = -1, f(5/3) = 11
        u = from_affine(Fraction(5, 3))
        places = exceptional_case_enlarge(f, u, PlaceSet())
        assert factored == [abs(f.resultant), u.a1, eval_map(f, u).a1] == [1, 3, 1]
        assert places.primes == (3,)

    def test_rejects_u_hitting_exceptional(self):
        # only u in {inf, f(inf)} is refused; 0 is exceptional for x^2 as
        # well, and its orbit is integral against inf with nothing added
        f = make_map([1, 0, 0], [1])
        with pytest.raises(SearchError, match="^u hits exceptional point$"):
            exceptional_case_enlarge(f, INFINITY, PlaceSet())
        assert exceptional_case_enlarge(f, ProjPoint(0, 1), PlaceSet()).primes == ()
        # 1/x^2 swaps 0 and inf, so u = 0 is f(inf)
        g = make_map([1], [1, 0, 0])
        with pytest.raises(SearchError, match="^u hits exceptional point$"):
            exceptional_case_enlarge(g, ProjPoint(0, 1), PlaceSet())
        h = swap_map(2, 1, 2)
        with pytest.raises(SearchError, match="^u hits exceptional point$"):
            exceptional_case_enlarge(h, eval_map(h, INFINITY), PlaceSet())

    def test_rejects_map_without_exceptional_at_infinity(self):
        f = make_map([1, 0, 1], [1, 0])  # no exceptional points at all
        with pytest.raises(SearchError):
            exceptional_case_enlarge(f, ProjPoint(2, 1), PlaceSet())


def orbit_meets_exceptional(f, u, length):
    """The check the exceptional S-enlargement made before it tested u
    alone: does the orbit of u meet a rational exceptional point?"""
    exc_rational = {e for e in exceptional_points(f) if isinstance(e, ProjPoint)}
    return any(pt in exc_rational for pt in orbit(f, u, length, DEFAULT_DIGIT_BUDGET))


@st.composite
def polynomial_or_powering_maps(draw):
    """Polynomial maps of degree 2 or 3, or x^(+-d) conjugated by an
    integer Moebius matrix: maps with rational exceptional points."""
    d = draw(st.integers(2, 3))
    if draw(st.booleans()):
        lead = draw(st.integers(1, 3))
        rest = draw(st.lists(st.integers(-3, 3), min_size=d, max_size=d))
        return make_map([lead] + rest, [1])
    base = make_map([1] + [0] * d, [1]) if draw(st.booleans()) else make_map([1], [1] + [0] * d)
    (a, b), (c, e) = matrix = draw(
        st.tuples(st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
                  st.tuples(st.integers(-2, 2), st.integers(-2, 2)))
    )
    assume(a * e - b * c != 0)
    try:
        return mobius_conjugate(base, matrix)
    except RatMapError:
        assume(False)


class TestExceptionalStartPoint:
    @settings(max_examples=80, deadline=None)
    @given(polynomial_or_powering_maps(), st.data())
    def test_orbit_scan_agrees_with_start_point(self, f, data):
        exc = [e for e in exceptional_points(f) if isinstance(e, ProjPoint)]
        small = st.builds(
            lambda a, b: from_affine(Fraction(a, b)), st.integers(-4, 4), st.integers(1, 4)
        )
        starts = [INFINITY, ProjPoint(0, 1)] + exc
        u = data.draw(st.one_of(small, st.sampled_from(starts)))
        hits = orbit_meets_exceptional(f, u, 4)
        assert hits == (u in exc)
        if INFINITY in exc:
            try:
                exceptional_case_enlarge(f, u, PlaceSet())
                refused = False
            except SearchError as err:
                refused = str(err) == "u hits exceptional point"
            assert refused == (u in (INFINITY, eval_map(f, INFINITY)))


def swap_map(c, a, d):
    """c + a/(x - c)^d: infinity and c are exceptional, swapped by f."""
    den = [comb(d, k) * (-c) ** k for k in range(d + 1)]
    num = [c * x for x in den]
    num[-1] += a
    return make_map(num, den)


def p2_route_primes(f, u):
    """S' as the exceptional S-enlargement once built it, with the leading
    coefficient of P_2 factored in: the bad-reduction primes, the primes of
    the denominators of u and f(u), and the primes of P_2(1, 0)."""
    primes = set(bad_reduction_primes(f))
    for pt in (u, eval_map(f, u)):
        primes |= set(factor(pt.a1))
    p2, _q2 = iterated_forms(f, 2)
    return primes | set(factor(p2[binforms.x1_multiplicity(p2)]))


@st.composite
def infinity_exceptional_maps(draw):
    """Polynomial maps, with rational coefficients, monomial maps c*x^d,
    and swap-type maps c + a/(x - c)^d, of degree 2 or 3: maps with
    infinity exceptional; 0 is exceptional too for c*x^d."""
    d = draw(st.integers(2, 3))
    kind = draw(st.sampled_from(["polynomial", "monomial", "swap"]))
    coeff = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6))
    if kind == "polynomial":
        lead = draw(coeff.filter(bool))
        rest = draw(st.lists(coeff, min_size=d, max_size=d))
        return make_map([lead] + rest, [draw(st.integers(1, 6))])
    if kind == "monomial":
        return make_map([draw(coeff.filter(bool))] + [0] * d, [1])
    return swap_map(draw(st.integers(-4, 4)), draw(st.integers(-6, 6).filter(bool)), d)


class TestExceptionalPlacesAgainstP2Route:
    @settings(max_examples=120, deadline=None)
    @given(
        infinity_exceptional_maps(),
        st.integers(-9, 9),
        st.integers(1, 9),
        st.sets(st.sampled_from([2, 3])),
    )
    @example(swap_map(2, 1, 2), 5, 3, set())
    @example(make_map([Fraction(-2, 3), 0, 0, 0], [1]), 0, 1, {2})
    def test_p2_primes_are_in_the_enlarged_set(self, f, num, den, s):
        exc = exceptional_points(f)
        assert INFINITY in exc
        # u = 0 is drawn too: for c*x^d it is exceptional, and answered
        u = from_affine(Fraction(num, den))
        assume(u not in (INFINITY, eval_map(f, INFINITY)))
        assert eval_map(f, u).a1 != 0
        places = exceptional_case_enlarge(f, u, PlaceSet(tuple(s)))
        assert p2_route_primes(f, u) | s <= set(places)
        # the window search is the oracle of the good-reduction claim: every
        # cell it computes is integral
        report = find_integral_pairs(
            f, u, INFINITY, places, PairWindow(5, 5), digit_budget=2000
        )
        window = report.effective_window
        if u in exc:
            # the orbit of an exceptional u is fixed, so no cell is cut
            assert window == PairWindow(5, 5)
        assert len(report.witnesses) == (window.m_max + 1) * (window.n_max + 1)
        assert set(report.pairs) == set(report.witnesses)
        # a cell (m, n) with w = infinity is integral iff f^m(u)'s
        # denominator is an S'-unit
        assert all(is_s_unit(pt.a1, places) for pt in report.u_orbit)

    @pytest.mark.parametrize("c, a, d", [(2, 1, 2), (0, 3, 3), (-3, -2, 2)])
    def test_start_at_f_of_infinity_is_refused(self, c, a, d):
        f = swap_map(c, a, d)
        u = eval_map(f, INFINITY)
        assert u == ProjPoint(c, 1) and u in exceptional_points(f)
        with pytest.raises(SearchError, match="^u hits exceptional point$"):
            exceptional_case_enlarge(f, u, PlaceSet())
