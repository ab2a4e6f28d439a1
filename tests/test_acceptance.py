"""Acceptance gate: one test per acceptance criterion.

Each test prints a single "ACCEPTANCE PASS: criterion N" line on success
(and pytest -v reports one PASSED/FAILED line per criterion).
"""

import json
import random
import time
from fractions import Fraction

from orbitint.cli import EXIT_OK, main as cli_main
from orbitint.divisors import (
    build_tower,
    diagonal_critical_intersections,
    diagonal_form,
    exact_divide,
    leading_form_check,
)
from orbitint.exactarith import PlaceSet
from orbitint.integrality import check_functoriality, monotonicity_check
from orbitint.mapexpr import parse_map
from orbitint.projective import INFINITY, ProjPoint, from_affine
from orbitint.ratmap import (
    bad_reduction_primes,
    certify_wandering,
    critical_data,
    eval_map,
    exceptional_points,
    is_powering_conjugate,
    make_map,
    mobius_conjugate,
    preimage_count,
)
from orbitint.search import PairWindow, exceptional_case_enlarge, find_integral_pairs

from conftest import CORPUS_EXPRS

POINT_POOL = [
    ProjPoint(0, 1),
    ProjPoint(1, 1),
    ProjPoint(-1, 1),
    ProjPoint(2, 1),
    ProjPoint(3, 1),
    ProjPoint(-2, 3),
    ProjPoint(5, 2),
    ProjPoint(-3, 1),
    INFINITY,
]

EXTRA_PRIMES = [2, 3, 5, 7, 11, 13]


def _report(n, text):
    print(f"ACCEPTANCE PASS: criterion {n} - {text}")


def test_criterion_01_cube_map_diagonal_window():
    """x^3 with u = 2, w = -2, S = {2}: the 6x6 window is exactly the
    diagonal, in under 10 seconds."""
    start = time.monotonic()
    f = make_map([1, 0, 0, 0], [1])
    report = find_integral_pairs(
        f, ProjPoint(2, 1), ProjPoint(-2, 1), PlaceSet((2,)), PairWindow(6, 6)
    )
    elapsed = time.monotonic() - start
    assert report.pairs == tuple((m, m) for m in range(7))
    assert not report.truncated
    assert elapsed < 10.0
    _report(1, f"diagonal 6x6 window for the cube map in {elapsed:.2f}s")


def test_criterion_02_layer_effectivity(corpus):
    """G_(k-1) divides G_k exactly, with quotient B_k, for every corpus map
    and k <= 3."""
    assert len(corpus) >= 20
    for f in corpus:
        tower = build_tower(f, 3)
        gs = (diagonal_form(),) + tower.g_forms
        for k in range(1, 4):
            # raises DivisorError on a non-exact division
            assert exact_divide(gs[k], gs[k - 1]) == tower.b_forms[k]
    _report(2, f"exact G-tower division to depth 3 for {len(corpus)} maps")


def test_criterion_03_functoriality_randomized(corpus):
    """200 randomized instances of the D_n-vs-image equivalence."""
    rng = random.Random(20260301)
    checks = 0
    while checks < 200:
        f = corpus[rng.randrange(len(corpus))]
        a = POINT_POOL[rng.randrange(len(POINT_POOL))]
        b = POINT_POOL[rng.randrange(len(POINT_POOL))]
        n = rng.randint(0, 3)
        s = bad_reduction_primes(f).union(
            p for p in EXTRA_PRIMES if rng.random() < 0.5
        )
        assert check_functoriality(f, a, b, n, s)
        checks += 1
    _report(3, "functoriality biconditional held on 200 random instances")


def test_criterion_04_monotonicity_randomized(corpus):
    """200 randomized instances of (integral rel D_n => integral rel D_m)."""
    rng = random.Random(20260302)
    checks = 0
    while checks < 200:
        f = corpus[rng.randrange(len(corpus))]
        a = POINT_POOL[rng.randrange(len(POINT_POOL))]
        b = POINT_POOL[rng.randrange(len(POINT_POOL))]
        n = rng.randint(0, 3)
        m = rng.randint(0, n)
        s = bad_reduction_primes(f).union(
            p for p in EXTRA_PRIMES if rng.random() < 0.5
        )
        assert monotonicity_check(f, a, b, m, n, s)
        checks += 1
    _report(4, "D_n monotonicity held on 200 random instances")


def test_criterion_05_preimage_lower_bound(corpus):
    """preimage_count(f, b, 4) >= 3 for 10 non-exceptional b per map and
    = 1 for exceptional b."""
    candidates = [
        from_affine(x)
        for x in (0, 1, -1, 2, -2, 3, -3, 4, Fraction(1, 2), Fraction(-1, 2),
                  Fraction(3, 2), Fraction(2, 3))
    ] + [INFINITY]
    non_exc_checked = exc_checked = 0
    for f in corpus:
        exc_rational = {e for e in exceptional_points(f) if isinstance(e, ProjPoint)}
        sample = [b for b in candidates if b not in exc_rational][:10]
        assert len(sample) == 10
        for b in sample:
            assert preimage_count(f, b, 4) >= 3
            non_exc_checked += 1
        for b in exc_rational:
            assert preimage_count(f, b, 4) == 1
            exc_checked += 1
    _report(
        5,
        f"4th-preimage count >= 3 at {non_exc_checked} non-exceptional points, "
        f"= 1 at {exc_checked} exceptional points",
    )


def test_criterion_06_powering_classification():
    """Powering maps (and integer Moebius conjugates) true; three named
    non-powering maps false; zero misclassifications."""
    powering = [
        parse_map("x^2"),
        parse_map("x^3"),
        parse_map("1/x^2"),
    ]
    conjugations = [
        (powering[0], ((1, 1), (0, 1))),
        (powering[0], ((2, 1), (1, 1))),
        (powering[1], ((1, -2), (3, -5))),
        (powering[1], ((0, 1), (1, 0))),
        (powering[2], ((1, 2), (1, 3))),
    ]
    powering += [mobius_conjugate(f, mat) for f, mat in conjugations]
    for f in powering:
        assert is_powering_conjugate(f).is_powering
    non_powering = [parse_map("x^2+1"), parse_map("(x^2+1)/x"), parse_map("x^2-1")]
    for f in non_powering:
        assert not is_powering_conjugate(f).is_powering
    _report(6, f"{len(powering)} powering maps true, 3 non-powering maps false")


def test_criterion_07_leading_form(poly_corpus):
    """Leading-form identity for all polynomial corpus maps, N <= 3."""
    checks = 0
    for f in poly_corpus:
        for n in (1, 2, 3):
            assert leading_form_check(f, n)
            checks += 1
    _report(7, f"leading form of B_N verified in {checks} cases (N <= 3)")


def test_criterion_08_diagonal_critical_intersections(corpus):
    """diagonal_critical_intersections equals the rational critical points
    lying on B_1 restricted to the diagonal."""
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
    _report(8, "diagonal intersections match rational critical points on B_1")


def test_criterion_09_escape_certification():
    """Certificates: x^2 at u = 2 escapes by iterate <= 3; x^2-1 at u = 0 is
    preperiodic (tail 0, period 2); heights H with H^(d-1) above the escape
    bound strictly increase on 100 random points per map."""
    f_sq = make_map([1, 0, 0], [1])
    r = certify_wandering(f_sq, ProjPoint(2, 1))
    assert r.kind == "wandering" and r.certificate.achieved_at <= 3

    f_m1 = make_map([1, 0, -1], [1])
    r = certify_wandering(f_m1, ProjPoint(0, 1))
    assert r.kind == "preperiodic" and r.tail == 0 and r.period == 2

    rng = random.Random(20260303)
    for f in (f_sq, f_m1):
        done = 0
        while done < 100:
            num = rng.randint(-(10**8), 10**8)
            den = rng.randint(1, 10**4)
            if num == 0:
                continue
            pt = ProjPoint(num, den)
            if max(abs(pt.a0), abs(pt.a1)) ** (f.degree - 1) <= f.escape_bound:
                continue
            img = eval_map(f, pt)
            assert max(abs(img.a0), abs(img.a1)) > max(abs(pt.a0), abs(pt.a1))
            done += 1
    _report(9, "escape certificates and 200 strict height increases verified")


def test_criterion_10_finiteness_evidence():
    """10x10 windows for two non-powering instances: all integral pairs in
    max(m, n) <= 4, matching an independent brute-force oracle."""

    def oracle(num_coeffs, u, w):
        # independent enumeration with plain Fraction arithmetic: S is
        # empty, so integrality is |cross| == 1 on reduced coordinates
        def step(x):
            acc = Fraction(0)
            for c in num_coeffs:
                acc = acc * x + c
            return acc

        us, ws = [u], [w]
        for _ in range(10):
            us.append(step(us[-1]))
            ws.append(step(ws[-1]))
        out = set()
        for m in range(11):
            for n in range(11):
                cross = (
                    us[m].numerator * ws[n].denominator
                    - us[m].denominator * ws[n].numerator
                )
                if abs(cross) == 1:
                    out.add((m, n))
        return out

    instances = [
        ([1, 0, 1], Fraction(1), Fraction(3)),  # x^2+1
        ([1, 1, 1], Fraction(0), Fraction(2)),  # x^2+x+1
    ]
    for coeffs, u, w in instances:
        f = make_map(coeffs, [1])
        report = find_integral_pairs(
            f, from_affine(u), from_affine(w), PlaceSet(), PairWindow(10, 10)
        )
        assert not report.truncated
        assert set(report.pairs) == oracle(coeffs, u, w)
        assert all(max(m, n) <= 4 for m, n in report.pairs)
        assert report.hypotheses.theorem_applies
    _report(10, "10x10 windows match the brute-force oracle, frontier <= 4")


def test_criterion_11_exceptional_window_guarantee():
    """x^2 with w = infinity: after enlargement every cell of an 8x8
    window is integral, for u in {3, 1/3, 1/2}."""
    f = make_map([1, 0, 0], [1])
    for u_aff in (Fraction(3), Fraction(1, 3), Fraction(1, 2)):
        u = from_affine(u_aff)
        s = exceptional_case_enlarge(f, u, PlaceSet())
        report = find_integral_pairs(f, u, INFINITY, s, PairWindow(8, 8))
        assert set(report.pairs) == {(m, n) for m in range(9) for n in range(9)}
    _report(11, "8x8 exceptional-point window guarantee for 3 starting points")


def test_criterion_12_roundtrip_and_determinism(capsys):
    """Every corpus expression round-trips bit-exactly; CLI reruns with
    --no-timestamp are byte-identical."""
    for expr in CORPUS_EXPRS:
        f = parse_map(expr)
        text = f.serialize_coefficients()
        assert parse_map(text).serialize_coefficients() == text

    args = [
        "--no-timestamp",
        "pairs",
        "--map", "x^2+1",
        "--u", "1",
        "--w", "3",
        "--S", "",
        "--window", "6x6",
    ]
    assert cli_main(args) == EXIT_OK
    first = capsys.readouterr().out
    assert cli_main(args) == EXIT_OK
    second = capsys.readouterr().out
    assert first == second
    json.loads(first)  # valid JSON
    _report(12, "corpus round-trip bit-exact; CLI reruns byte-identical")
