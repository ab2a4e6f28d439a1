"""find_integral_pairs against a brute-force oracle with nonempty S.

The oracle iterates f on Fractions (None is the point at infinity) and
decides S-integrality place by place from p-adic valuations: for every prime
p, the p-adic chordal distance between x and y is

    delta_p(x, y) = |x - y|_p / (max(1, |x|_p) * max(1, |y|_p))
    delta_p(x, oo) = 1 / max(1, |x|_p),

and x is S-integral relative to y iff delta_p(x, y) = 1 for every p outside
S.  The product of delta_p over all p is 1/H, with H = |x - y| * den(x) *
den(y) (den(x) for y = oo), so the condition reads: H equals the product of
1/delta_p over the primes of S.  No orbitint code and no normalized cross
term are used.

When S holds the bad-reduction primes of f, the same cells decided through
the pulled-back diagonals D_k (``is_integral_rel_dn``) must agree too.
"""

from fractions import Fraction

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from orbitint.exactarith import PlaceSet
from orbitint.integrality import is_integral_rel_dn
from orbitint.projective import INFINITY, from_affine
from orbitint.ratmap import RatMapError, bad_reduction_primes, make_map
from orbitint.search import PairWindow, find_integral_pairs

SMALL_PRIMES = [2, 3, 5, 7, 11]


def _strip(cs):
    while cs and cs[0] == 0:
        cs = cs[1:]
    return cs


def _horner(cs, x):
    acc = Fraction(0)
    for c in cs:
        acc = acc * x + c
    return acc


def oracle_map(num, den, x):
    """f(x) for f = num/den (descending integer coefficients, coprime)."""
    num, den = _strip(num), _strip(den)
    if x is None:
        if len(num) > len(den):
            return None
        if len(num) < len(den):
            return Fraction(0)
        return Fraction(num[0], den[0])
    q = _horner(den, x)
    if q == 0:
        return None
    return _horner(num, x) / q


def vp(q: Fraction, p: int) -> int:
    v = 0
    while q.numerator % p == 0:
        q /= p
        v += 1
    while q.denominator % p == 0:
        q *= p
        v -= 1
    return v


def oracle_integral(x, y, primes) -> bool:
    if x is None and y is None or x == y:
        return False
    if x is None:
        x, y = y, x
    if y is None:
        height = Fraction(x.denominator)
        inv_delta = {p: -min(0, vp(x, p)) if x else 0 for p in primes}
    else:
        height = abs(x - y) * x.denominator * y.denominator
        inv_delta = {
            p: vp(x - y, p)
            - (min(0, vp(x, p)) if x else 0)
            - (min(0, vp(y, p)) if y else 0)
            for p in primes
        }
    s_part = 1
    for p, v in inv_delta.items():
        s_part *= p**v
    return height == s_part


def oracle_pairs(num, den, u, w, primes, window):
    def orbit(x, length):
        pts = [x]
        for _ in range(length):
            pts.append(oracle_map(num, den, pts[-1]))
        return pts

    us, ws = orbit(u, window[0]), orbit(w, window[1])
    return tuple(
        (m, n)
        for m in range(window[0] + 1)
        for n in range(window[1] + 1)
        if oracle_integral(us[m], ws[n], primes)
    )


def dk_pairs(f, report, s):
    """The report's window decided through D_k instead: the cell (m, n) is
    integral iff (f^(m-k)(u), f^(n-k)(w)) is S-integral relative to D_k,
    k = min(m, n, 3).  S must hold the bad-reduction primes of f."""
    pairs = []
    for m, n in report.witnesses:
        k = min(m, n, 3)
        if is_integral_rel_dn(f, report.u_orbit[m - k], report.w_orbit[n - k], k, s).verdict:
            pairs.append((m, n))
    return tuple(pairs)


coeffs = st.integers(-3, 3)
# denominators built from small primes, so S often holds the primes of the
# orbit denominators
points = st.one_of(
    st.none(),
    st.builds(
        Fraction,
        st.integers(-6, 6),
        st.sampled_from([1, 1, 2, 3, 4, 5, 9, 10, 7]),
    ),
)


@st.composite
def instances(draw):
    d = draw(st.sampled_from([2, 3]))
    num = draw(st.lists(coeffs, min_size=d + 1, max_size=d + 1))
    if draw(st.booleans()):
        den = [draw(st.sampled_from([1, 2, 3, -5]))]
    else:
        den = draw(st.lists(coeffs, min_size=1, max_size=d + 1))
    try:
        f = make_map(num, den)
    except RatMapError:
        assume(False)
    assume(f.degree == d)
    u, w = draw(points), draw(points)
    primes = draw(st.lists(st.sampled_from(SMALL_PRIMES), min_size=1, max_size=3, unique=True))
    window = (draw(st.integers(0, 4)), draw(st.integers(0, 4)))
    return f, num, den, u, w, sorted(primes), window


@settings(max_examples=200, deadline=None)
@given(instances())
def test_find_integral_pairs_matches_oracle(inst):
    f, num, den, u, w, primes, window = inst
    expected = oracle_pairs(num, den, u, w, primes, window)
    pu = INFINITY if u is None else from_affine(u)
    pw = INFINITY if w is None else from_affine(w)
    s, win = PlaceSet(tuple(primes)), PairWindow(*window)
    report = find_integral_pairs(f, pu, pw, s, win)
    assert not report.truncated
    assert report.pairs == expected
    # pair_table writes the witnesses in the order they were filled
    cells = [(m, n) for m in range(window[0] + 1) for n in range(window[1] + 1)]
    assert list(report.witnesses) == cells
    if set(bad_reduction_primes(f)) <= set(primes):
        assert dk_pairs(f, report, s) == expected
