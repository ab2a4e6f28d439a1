"""Seeded op generation for the three benchmark workloads.

An op is one CLI invocation (``pairs``, ``analyze`` or ``divisor``).  Each op
carries its argv, which is all orbitint receives, plus the integer data the
oracles need (coefficients, points, primes, window), so the oracles never
read a map back through orbitint.

Every op draws its own map, so the ``iterated_forms`` cache shares no work
between ops, as in separate CLI calls.  Op shapes (degree, window, prime,
command) cycle in a fixed order, so every run of a given length sees the same
mix and only the coefficients depend on the seed.
"""

from __future__ import annotations

import math
import random
import zlib
from fractions import Fraction

COEFF_RANGE = range(-3, 4)

# (degree, polynomial, (m, n) window) for maps with small integer u, w and S
# empty; nearly every cell is non-integral, so witness factoring dominates.
# Windows are 6x5 for degree 2 and 4x4 for degree 3, not larger: an op's
# cost depends much on its map, so a pass needs many distinct maps for
# wall_s to vary little from seed to seed.  At these windows the four shapes
# cost about the same (0.1-0.3 s), so the median and the tail op fall where
# costs are dense, not on the edge between a cheap shape and a dear one.
WITNESS_SHAPES = [(2, True, (6, 5)), (3, True, (4, 4)), (3, False, (4, 4)), (2, False, (6, 5))]
# |u|, |w| in 3..6: few of these points are preperiodic, so op cost varies less
WITNESS_POINTS = [v for v in range(-6, 7) if abs(v) >= 3]

# (degree, window, p) for polynomial maps with u = a/p, w = inf and
# S = {p} + primes of the leading coefficient: every cell is integral and
# its cross term is exactly +-p^(d^m).  One op in fourteen is degree 3 at
# 9x9 (~1.2 s, the known exit-2 defect); the rest take 0.1-0.2 s.
VERDICT_SHAPES = [(2, 12, 2), (3, 8, 2), (2, 12, 3), (3, 8, 3), (2, 12, 5), (3, 8, 2),
                  (2, 12, 3), (3, 9, 2), (2, 12, 2), (3, 8, 3), (2, 12, 5), (3, 8, 2),
                  (2, 12, 3), (3, 8, 3)]

# (command, degree, polynomial); divisor depth follows the map's degree.
# Three cheap analyze ops, two degree-3 polynomial towers (~0.07 s) and two
# degree-2 rational towers (~0.8 s), which carry wall_s.  The median falls
# inside the polynomial towers and the tail op (p79 of 49) inside the
# rational ones, each in a group of one shape, not on an edge between two.
# Degree-3 rational towers (1.5-2.3 s, the widest spread of any shape) are
# left out.
MAPS_SHAPES = [
    ("analyze", 2, False),
    ("divisor", 2, False),
    ("analyze", 3, False),
    ("divisor", 3, True),
    ("analyze", 3, True),
    ("divisor", 2, False),
    ("divisor", 3, True),
]
TOWER_DEPTH = {2: 6, 3: 4}

SHAPES = {"pairs-witness": WITNESS_SHAPES, "pairs-verdict": VERDICT_SHAPES,
          "maps": MAPS_SHAPES}
WORKLOADS = tuple(SHAPES)

# Ops per second of a pass on the reference machine (2 vCPUs, Python
# 3.11.7) in a typical phase, rounded down so that a run of --seconds 30
# ends in time in a slow phase too: 48, 56 and 49 ops per pass.
OPS_PER_SECOND = {"pairs-witness": 3.2, "pairs-verdict": 3.8, "maps": 3.3}


def fixed_count(workload: str, seconds: float) -> int:
    """Length of a fixed op list that takes about ``seconds`` per pass: whole
    cycles of the workload's shapes, at least one."""
    cycle = len(SHAPES[workload])
    return max(round(seconds * OPS_PER_SECOND[workload] / cycle), 1) * cycle


# A map outside every workload (coefficient 7 is out of COEFF_RANGE), run
# once per process before timing so lazy set-up is not charged to an op.
WARMUP_ARGVS = [
    ["--no-timestamp", "pairs", "--map=(x^2+7)/(7x)", "--u=1", "--w=2", "--window=3x3"],
    ["--no-timestamp", "analyze", "--map=(x^2+7)/(7x)"],
    ["--no-timestamp", "divisor", "--map=(x^2+7)/(7x)", "--n=3"],
]


def poly_text(coeffs: list[int]) -> str:
    """Expression for an integer polynomial, descending coefficients."""
    deg = len(coeffs) - 1
    out = ""
    for i, c in enumerate(coeffs):
        if c == 0:
            continue
        k = deg - i
        mag = abs(c)
        if k == 0:
            term = str(mag)
        else:
            term = ("" if mag == 1 else str(mag)) + ("x" if k == 1 else f"x^{k}")
        if not out:
            out = ("-" if c < 0 else "") + term
        else:
            out += ("-" if c < 0 else "+") + term
    return out


NONZERO = [c for c in COEFF_RANGE if c != 0]


def _random_map(rng: random.Random, d: int, polynomial: bool, leads=NONZERO):
    """(num, den) integer coefficient lists, descending, of degree d; a
    polynomial's leading coefficient is drawn from ``leads``.

    No coefficient is zero, and a non-polynomial map has numerator and
    denominator of full degree d: sparse or even/odd maps have much cheaper
    iterates, and drawing them now and then would make runs differ by seed."""
    if polynomial:
        return [rng.choice(leads)] + [rng.choice(NONZERO) for _ in range(d)], [1]
    return ([rng.choice(NONZERO) for _ in range(d + 1)],
            [rng.choice(NONZERO) for _ in range(d + 1)])


def _divmod(a: list[Fraction], b: list[Fraction]):
    """Quotient and remainder of polynomials, descending coefficients."""
    quo = []
    while len(a) >= len(b):
        q = a[0] / b[0]
        quo.append(q)
        a = [x - q * y for x, y in zip(a[1:], b[1:] + [0] * (len(a) - len(b)))]
    while a and a[0] == 0:
        a = a[1:]
    return quo, a


def reduced(num: list[int], den: list[int]) -> tuple[list[int], list[int]]:
    """num/den with their polynomial gcd divided out, as coprime integer
    lists: the map the expression denotes, whatever common factor it has."""
    a, b = [Fraction(c) for c in num], [Fraction(c) for c in den]
    g, r = a, b
    while r:
        g, r = r, _divmod(g, r)[1]
    a, b = _divmod(a, g)[0], _divmod(b, g)[0]
    lcm = math.lcm(*(c.denominator for c in a + b))
    ints = [int(c * lcm) for c in a + b]
    content = math.gcd(*ints)
    ints = [c // content for c in ints]
    return ints[: len(a)], ints[len(a):]


def map_text(num: list[int], den: list[int]) -> str:
    if den == [1]:
        return poly_text(num)
    return f"({poly_text(num)})/({poly_text(den)})"


def _degree(num: list[int], den: list[int]) -> int:
    return max(len(num), len(den)) - 1


def _prime_factors(n: int) -> list[int]:
    n = abs(n)
    out, p = [], 2
    while p * p <= n:
        while n % p == 0:
            if p not in out:
                out.append(p)
            n //= p
        p += 1
    if n > 1 and n not in out:
        out.append(n)
    return out


class OpStream:
    """Deterministic op sequence for one (workload, seed).

    ``accepts(text)`` is the map filter: it must return False exactly for
    the expressions that ``orbitint.mapexpr.parse_map`` refuses.
    """

    def __init__(self, workload: str, seed: int, accepts):
        self._make = {
            "pairs-witness": self._witness_op,
            "pairs-verdict": self._verdict_op,
            "maps": self._maps_op,
        }[workload]
        self.rng = random.Random(zlib.crc32(workload.encode()) * 1_000_003 + seed)
        self.accepts = accepts
        self.rejected = 0

    def _map(self, d: int, polynomial: bool, leads=NONZERO):
        """(num, den, text): the drawn expression text, and the coprime
        coefficient lists of the map it denotes, for the oracles."""
        while True:
            num, den = _random_map(self.rng, d, polynomial, leads)
            text = map_text(num, den)
            if self.accepts(text):
                num, den = reduced(num, den)
                return num, den, text
            self.rejected += 1

    def take(self, count: int) -> list[dict]:
        """The first ``count`` ops; call once per stream."""
        return [{**self._make(i), "id": i} for i in range(count)]

    def _witness_op(self, i: int) -> dict:
        d, polynomial, (m, n) = WITNESS_SHAPES[i % len(WITNESS_SHAPES)]
        num, den, text = self._map(d, polynomial)
        u, w = self.rng.sample(WITNESS_POINTS, 2)
        return {
            "kind": "pairs", "num": num, "den": den, "degree": _degree(num, den),
            "u": [u, 1], "w": [w, 1], "S": [], "window": [m, n],
            "argv": ["--no-timestamp", "pairs", f"--map={text}", f"--u={u}",
                     f"--w={w}", "--S=", f"--window={m}x{n}"],
        }

    def _verdict_op(self, i: int) -> dict:
        d, win, p = VERDICT_SHAPES[i % len(VERDICT_SHAPES)]
        # p divides neither a nor the leading coefficient, so the denominator
        # of f^m(u) is exactly p^(d^m)
        num, den, text = self._map(d, True, [c for c in NONZERO if c % p])
        a = self.rng.choice([a for a in range(-9, 10) if a % p != 0])
        s = sorted({p, *_prime_factors(num[0])})
        u = Fraction(a, p)
        return {
            "kind": "pairs", "num": num, "den": den, "degree": d,
            "u": [a, p], "w": [1, 0], "S": s, "window": [win, win],
            "argv": ["--no-timestamp", "pairs", f"--map={text}", f"--u={u}",
                     "--w=inf", "--S=" + ",".join(map(str, s)),
                     f"--window={win}x{win}"],
        }

    def _maps_op(self, i: int) -> dict:
        command, d, polynomial = MAPS_SHAPES[i % len(MAPS_SHAPES)]
        num, den, text = self._map(d, polynomial)
        degree = _degree(num, den)
        argv = ["--no-timestamp", command, f"--map={text}"]
        op = {"kind": command, "num": num, "den": den, "degree": degree, "argv": argv}
        if command == "divisor":
            op["depth"] = TOWER_DEPTH[degree]
            argv.append(f"--n={op['depth']}")
        return op
