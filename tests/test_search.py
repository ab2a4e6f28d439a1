from fractions import Fraction

import pytest

from orbitint import ratmap
from orbitint.exactarith import PlaceSet, is_s_unit
from orbitint.projective import INFINITY, ProjPoint, from_affine
from orbitint.ratmap import make_map
from orbitint.search import (
    PairWindow,
    SearchError,
    detect_coset_structure,
    exceptional_case_enlarge,
    find_integral_pairs,
    powering_pair_analysis,
)

from test_pairs_oracle import dk_pairs


class TestPairWindow:
    def test_membership(self):
        w = PairWindow(3, 2)
        assert (0, 0) in w and (3, 2) in w
        assert (4, 0) not in w and (0, 3) not in w and (-1, 0) not in w

    def test_negative_rejected(self):
        with pytest.raises(SearchError):
            PairWindow(-1, 2)


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

        monkeypatch.setattr(ratmap, "factor", refuse)
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


class TestCosetStructure:
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
        assert 2 in analysis.enlarged_places
        assert analysis.report.pairs == tuple((m, m) for m in range(5))
        # on the diagonal f^m(u)/f^m(w) = -1, so tau = -2 throughout
        assert analysis.tau_values == (Fraction(-2),)
        assert analysis.tau_unit_checks_passed
        for tau in analysis.tau_values:
            assert is_s_unit(tau, analysis.enlarged_places)
            assert is_s_unit(tau + 1, analysis.enlarged_places)

    def test_rejects_non_powering(self):
        f = make_map([1, 0, 1], [1])
        with pytest.raises(SearchError, match="powering"):
            powering_pair_analysis(
                f, ProjPoint(2, 1), ProjPoint(3, 1), PlaceSet(), PairWindow(2, 2)
            )

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
        assert {2, 3, 5} <= set(analysis.enlarged_places)


class TestExceptionalEnlarge:
    def test_integer_point_needs_nothing(self):
        f = make_map([1, 0, 0], [1])
        s = exceptional_case_enlarge(f, ProjPoint(3, 1), PlaceSet(), PairWindow(6, 6))
        assert s.primes == ()

    def test_denominator_primes_added(self):
        f = make_map([1, 0, 0], [1])
        s = exceptional_case_enlarge(
            f, from_affine(Fraction(1, 3)), PlaceSet(), PairWindow(6, 6)
        )
        assert s.primes == (3,)
        s = exceptional_case_enlarge(
            f, from_affine(Fraction(1, 2)), PlaceSet(), PairWindow(6, 6)
        )
        assert s.primes == (2,)

    def test_window_guarantee(self):
        f = make_map([1, 0, 0], [1])
        u = from_affine(Fraction(1, 2))
        s = exceptional_case_enlarge(f, u, PlaceSet(), PairWindow(5, 5))
        report = find_integral_pairs(
            f, u, INFINITY, s, PairWindow(5, 5), with_hypotheses=False
        )
        assert set(report.pairs) == {(m, n) for m in range(6) for n in range(6)}

    def test_rejects_u_hitting_exceptional(self):
        f = make_map([1, 0, 0], [1])
        with pytest.raises(SearchError):
            exceptional_case_enlarge(f, INFINITY, PlaceSet(), PairWindow(3, 3))
        with pytest.raises(SearchError):
            exceptional_case_enlarge(f, ProjPoint(0, 1), PlaceSet(), PairWindow(3, 3))

    def test_rejects_map_without_exceptional_at_infinity(self):
        f = make_map([1, 0, 1], [1, 0])  # no exceptional points at all
        with pytest.raises(SearchError):
            exceptional_case_enlarge(f, ProjPoint(2, 1), PlaceSet(), PairWindow(3, 3))
