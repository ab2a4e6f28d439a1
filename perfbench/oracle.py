"""Independent correctness oracles for CLI reports.

Nothing here imports orbitint.  Maps arrive as the integer coefficient lists
the generator drew; points are iterated on integer projective coordinates
with their own gcd normalization; S-integrality is decided by trial division
by the primes of S.  Each ``check_*`` returns a list of problems, empty when
the report agrees with the oracle.
"""

from __future__ import annotations

import hashlib
import math
import random
import re

ELISION_DIGITS = 80


def _normalize(a0: int, a1: int) -> tuple[int, int]:
    """Coprime coordinates, last nonzero coordinate positive."""
    g = math.gcd(a0, a1)
    a0, a1 = a0 // g, a1 // g
    if a1 < 0 or (a1 == 0 and a0 < 0):
        a0, a1 = -a0, -a1
    return a0, a1


def _forms(num: list[int], den: list[int], d: int) -> tuple[list[int], list[int]]:
    """Homogenized numerator and denominator of degree d; entry k is the
    coefficient of x0^(d-k) x1^k."""
    return [0] * (d + 1 - len(num)) + num, [0] * (d + 1 - len(den)) + den


def _eval_form(cs: list[int], a0: int, a1: int) -> int:
    d = len(cs) - 1
    return sum(c * a0 ** (d - k) * a1**k for k, c in enumerate(cs) if c)


def _orbit(op: dict, start: list[int], length: int) -> list[tuple[int, int]]:
    p, q = _forms(op["num"], op["den"], op["degree"])
    pts = [_normalize(*start)]
    for _ in range(length):
        a0, a1 = pts[-1]
        pts.append(_normalize(_eval_form(p, a0, a1), _eval_form(q, a0, a1)))
    return pts


def _strip_prime(n: int, p: int) -> int:
    """n with every factor p divided out, dividing by p^(2^k) chunks."""
    chunks = []
    pk = p
    while n % pk == 0:
        n //= pk
        chunks.append(pk)
        pk *= pk
    for pk in reversed(chunks):
        while n % pk == 0:
            n //= pk
    return n


def is_s_unit(n: int, primes: list[int]) -> bool:
    if n == 0:
        return False
    n = abs(n)
    for p in primes:
        n = _strip_prime(n, p)
    return n == 1


def brute_force_pairs(op: dict) -> dict[tuple[int, int], int]:
    """Integral pairs of the window mapped to their cross terms."""
    m_max, n_max = op["window"]
    us = _orbit(op, op["u"], m_max)
    ws = _orbit(op, op["w"], n_max)
    out = {}
    for m, (a0, a1) in enumerate(us):
        for n, (b0, b1) in enumerate(ws):
            cross = a0 * b1 - a1 * b0
            if is_s_unit(cross, op["S"]):
                out[(m, n)] = cross
    return out


def elided(n: int) -> str:
    """The report format for a big integer: exact up to 80 digits, else
    leading digits, digit count and a sha256 prefix of the decimal string."""
    s = str(n)
    body = s.lstrip("-")
    if len(body) <= ELISION_DIGITS:
        return s
    h = hashlib.sha256(s.encode()).hexdigest()[:16]
    return f"{s[: len(s) - len(body)]}{body[:12]}...[{len(body)} digits, sha256:{h}]"


def check_pairs(op: dict, body: dict) -> list[str]:
    expected = brute_force_pairs(op)
    problems = []
    reported = {}
    for entry in body.get("pairs", []):
        key = (entry["m"], entry["n"])
        reported[key] = entry
        wit = entry.get("witness", {})
        if wit.get("verdict") is not True:
            problems.append(f"pair {key} listed with verdict {wit.get('verdict')!r}")
        elif key in expected and wit.get("cross_term") not in (
            elided(expected[key]), elided(-expected[key])
        ):
            problems.append(f"pair {key} cross term {wit.get('cross_term')!r} is wrong")
    missing = sorted(set(expected) - set(reported))
    extra = sorted(set(reported) - set(expected))
    if missing:
        problems.append(f"integral pairs missing from report: {missing[:5]}")
    if extra:
        problems.append(f"non-integral pairs reported: {extra[:5]}")
    return problems


_MONOMIAL = re.compile(r"\((\d+),(\d+),(\d+),(\d+)\):(-?\d+)")


def parse_biform(text: str) -> list[tuple[int, int, int, int, int]]:
    """Serialized "(i,j,k,l):c" monomials as (i, j, k, l, c) tuples."""
    terms = [tuple(int(g) for g in m.groups()) for m in _MONOMIAL.finditer(text)]
    if len(terms) != len(text.split()):
        raise ValueError(f"unparsable biform {text[:60]!r}")
    return terms


def _eval_biform(terms, x0, x1, y0, y1) -> int:
    return sum(c * x0**i * x1**j * y0**k * y1**l for i, j, k, l, c in terms)


def _unnormalized_iterate(p, q, a0, a1, n):
    for _ in range(n):
        a0, a1 = _eval_form(p, a0, a1), _eval_form(q, a0, a1)
    return a0, a1


def check_divisor(op: dict, body: dict) -> list[str]:
    """G_k = +-B_0 B_1 ... B_k at seeded integer points, for every k, and G_k
    proportional to the cross term of the k-th (unnormalized) iterates."""
    n = op["depth"]
    try:
        gs = [parse_biform(t) for t in body["g_forms"]]
        bs = [parse_biform(t) for t in body["b_forms"]]
    except (KeyError, ValueError) as exc:
        return [f"bad divisor report: {exc}"]
    if len(gs) != n or len(bs) != n + 1:
        return [f"tower has {len(gs)} G and {len(bs)} B forms, expected {n} and {n + 1}"]
    p, q = _forms(op["num"], op["den"], op["degree"])
    rng = random.Random(op["id"])
    pts = [tuple(rng.randint(-4, 4) or 1 for _ in range(4)) for _ in range(4)]
    problems = []
    for x0, x1, y0, y1 in pts:
        if _eval_biform(bs[0], x0, x1, y0, y1) != x0 * y1 - x1 * y0:
            problems.append("B_0 is not the diagonal form")
    for k in range(1, n + 1):
        signs, ratios = set(), []
        for x0, x1, y0, y1 in pts:
            g = _eval_biform(gs[k - 1], x0, x1, y0, y1)
            prod = math.prod(_eval_biform(b, x0, x1, y0, y1) for b in bs[: k + 1])
            if g != prod and g != -prod:
                problems.append(f"G_{k} != +-B_0...B_{k} at {(x0, x1, y0, y1)}")
                break
            if g:
                signs.add(g == prod)
            a0, a1 = _unnormalized_iterate(p, q, x0, x1, k)
            b0, b1 = _unnormalized_iterate(p, q, y0, y1, k)
            ratios.append((g, a0 * b1 - a1 * b0))
        if len(signs) > 1:
            problems.append(f"G_{k} = B_0...B_{k} holds with both signs")
        if not any(c for _, c in ratios) or any(
            g1 * c2 != g2 * c1 for g1, c1 in ratios for g2, c2 in ratios
        ):
            problems.append(f"G_{k} is not proportional to the iterate cross term")
    return problems


def check_analyze(op: dict, body: dict) -> list[str]:
    """Riemann-Hurwitz: sum of (e - 1) * factor_degree is 2d - 2."""
    d = op["degree"]
    if body.get("degree") != d:
        return [f"degree {body.get('degree')!r}, expected {d}"]
    total = sum(
        (c["ramification_index"] - 1) * c["factor_degree"] for c in body["critical_data"]
    )
    if total != 2 * d - 2:
        return [f"ramification total {total}, expected {2 * d - 2}"]
    return []


def check_map(op: dict, body: dict) -> list[str]:
    """The report's "num=..;den=.." map is a nonzero multiple of the drawn
    coefficient lists, so the report is about the map the oracle checks."""
    try:
        num_part, den_part = body["map"].split(";")
        got = [int(c) for c in num_part[4:].split(",")] + [0] + [
            int(c) for c in den_part[4:].split(",")]
    except (KeyError, ValueError):
        return [f"unreadable map {body.get('map')!r}"]
    want = op["num"] + [0] + op["den"]
    if len(got) != len(want) or any(
        a * want[0] != b * got[0] for a, b in zip(got, want)
    ):
        return [f"report is about map {body['map']!r}"]
    return []


CHECKS = {"pairs": check_pairs, "divisor": check_divisor, "analyze": check_analyze}


def check(op: dict, body: dict) -> list[str]:
    return check_map(op, body) or CHECKS[op["kind"]](op, body)
