"""Factorization over Q of univariate integer polynomials, by Zassenhaus's
method on the package's own integer code.

The polynomial is split into squarefree parts with ``binforms.gcd``.  A
linear part is irreducible, and a quadratic one splits exactly when its
discriminant is a square (``binforms.split_quadratic``).  Each larger part
is factored modulo the smallest odd prime p that divides neither its
leading coefficient nor its discriminant: distinct-degree factorization,
then Cantor–Zassenhaus equal-degree splitting with the split polynomials
x, x + 1, ... taken in order.  The modular factors are Hensel-lifted past
twice a bound on the coefficients of every factor over Z, and subsets of
them are recombined into candidates that an exact trial division over Z
accepts or rejects.

References: Zassenhaus, *On Hensel factorization I* (J. Number Theory
1969); Cantor–Zassenhaus (Math. Comp. 1981); von zur Gathen–Gerhard,
*Modern Computer Algebra*, ch. 14–16.

Polynomials are coefficient lists in descending powers, as in ``binforms``.
Modular polynomials have no leading zeros, and the empty list is zero.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import combinations
from math import isqrt

from . import binforms
from .binforms import Form, FormError
from .primes import is_prime

# Subsets of the modular factors of one squarefree part that recombination
# may try as candidate factors over Z.  The work is exponential in the
# number of modular factors in the worst case (the Swinnerton-Dyer
# polynomials); the Wronskians of maps within the map degree cap stay far
# below this.
RECOMBINATION_CAP = 20000


def factor(cs: Sequence[int]) -> list[tuple[Form, int]]:
    """Irreducible factors over Q of a univariate integer polynomial of
    degree >= 1 (descending coefficients, nonzero leading one), each
    primitive with positive leading coefficient, with multiplicities.

    Sorted by (degree, multiplicity, coefficient tuple): sympy's
    ``factor_list`` order, so ``6t - 5`` comes after ``t + 1``."""
    out = []
    for part, mult in _squarefree_parts(binforms.primitive(cs)):
        out.extend((fac, mult) for fac in _factor_squarefree(part))
    out.sort(key=lambda fm: (len(fm[0]), fm[1], fm[0]))
    return out


def _squarefree_parts(f: Form):
    """(z_i, i) for the nonconstant z_i of f = prod z_i^i, with the z_i
    primitive, squarefree and pairwise coprime (f primitive)."""
    g = binforms.gcd(f, binforms.dx0(f))
    w = binforms.quotient(f, g)
    mult = 1
    while len(w) > 1:
        y = binforms.gcd(w, g)
        z = binforms.quotient(w, y)
        if len(z) > 1:
            yield z, mult
        mult += 1
        w, g = y, binforms.quotient(g, y)


def _factor_squarefree(f: Form) -> list[Form]:
    """Irreducible factors over Z of a primitive squarefree f with positive
    leading coefficient."""
    out = []
    if not f[-1]:
        out.append((1, 0))
        f = f[:-1]
    if len(f) == 1:
        return out
    if len(f) == 2:
        return out + [f]
    if len(f) == 3:
        return out + (binforms.split_quadratic(f) or [f])
    p = _good_prime(f)
    modular = [
        fac
        for part, d in _distinct_degree(_monic(_reduce(f, p), p), p)
        for fac in _equal_degree(part, d, p)
    ]
    if len(modular) == 1:
        return out + [f]
    # Mignotte: a factor g of f over Z, and lc(h) * g / lc(g) for a factor
    # h of f that g divides, have coefficients at most 2^deg(g) * ||f||_2
    bound = (1 << (len(f) - 1)) * (isqrt(sum(c * c for c in f)) + 1)
    k, mod = 1, p
    while mod <= 2 * bound:
        k, mod = k + 1, mod * p
    return out + _recombine(f, _lift(f, modular, p, k), mod, bound, p)


def _good_prime(f: Form) -> int:
    """The smallest odd prime p dividing neither lc(f) nor disc(f): f mod p
    keeps its degree and is squarefree."""
    df = binforms.dx0(f)
    p = 3
    while (f[0] % p == 0 or not is_prime(p)
           or len(_gcd(_reduce(f, p), _reduce(df, p), p)) > 1):
        p += 2
    return p


def _recombine(
    f: Form, lifted: list[list[int]], mod: int, bound: int, p: int
) -> list[Form]:
    """The irreducible factors over Z of f from its monic factors modulo
    ``mod`` > 2 * bound: each subset of the factors left, smallest subsets
    first, gives the candidate lc(f) * prod reduced into (-mod/2, mod/2],
    kept when it is within ``bound`` and its primitive part divides f.
    What is left at the end is irreducible."""
    out = []
    degree = len(f) - 1
    rest = list(range(len(lifted)))
    half = mod // 2
    trials = 0
    size = 1
    while 2 * size <= len(rest):
        for subset in combinations(rest, size):
            trials += 1
            if trials > RECOMBINATION_CAP:
                raise FormError(
                    f"recombination cap: more than {RECOMBINATION_CAP} subsets of the "
                    f"{len(lifted)} factors mod {p} of a degree-{degree} polynomial"
                )
            lead = f[0]
            # the constant term of a true candidate divides lc(f) * f(0) != 0
            c = lead
            for i in subset:
                c = c * lifted[i][-1] % mod
            if c > half:
                c -= mod
            if not c or lead * f[-1] % c:
                continue
            g = [lead]
            for i in subset:
                g = _mul(g, lifted[i], mod)
            g = [x - mod if x > half else x for x in g]
            if max(map(abs, g)) > bound:
                continue
            g = binforms.primitive(g)
            try:
                f = binforms.quotient(f, g)
            except FormError:
                continue
            out.append(g)
            rest = [i for i in rest if i not in subset]
            break
        else:
            size += 1
    return out + [f]


def _lift(f: Sequence[int], factors: list[list[int]], p: int, k: int) -> list[list[int]]:
    """Monic lifts modulo p^k of f = lc(f) * prod(factors) mod p, for monic
    factors pairwise coprime mod p: split the list in two halves and lift
    the two products quadratically, then each half in turn."""
    mod = p**k
    if len(factors) == 1:
        inv = pow(f[0], -1, mod)
        return [[c * inv % mod for c in f]]
    half = len(factors) // 2
    g = [f[0] % p]
    for fac in factors[:half]:
        g = _mul(g, fac, p)
    h = [1]
    for fac in factors[half:]:
        h = _mul(h, fac, p)
    s, t = _gcdex(g, h, p)
    m = p
    while m < mod:
        m *= m
        g, h, s, t = _hensel_step(f, g, h, s, t, m)
    return _lift(g, factors[:half], p, k) + _lift(h, factors[half:], p, k)


def _hensel_step(
    f: Sequence[int], g: list[int], h: list[int], s: list[int], t: list[int], m: int
) -> tuple[list[int], list[int], list[int], list[int]]:
    """One quadratic Hensel step (von zur Gathen–Gerhard, Alg. 15.10): from
    f = g*h and s*g + t*h = 1 modulo sqrt(m), with h monic, the same two
    identities modulo m."""
    e = _sub(f, _mul(g, h, m), m)
    q, r = _divmod(_mul(s, e, m), h, m)
    g = _add(g, _add(_mul(t, e, m), _mul(q, g, m), m), m)
    h = _add(h, r, m)
    b = _sub(_add(_mul(s, g, m), _mul(t, h, m), m), [1], m)
    c, d = _divmod(_mul(s, b, m), h, m)
    s = _sub(s, d, m)
    t = _sub(t, _add(_mul(t, b, m), _mul(c, g, m), m), m)
    return g, h, s, t


def _distinct_degree(g: list[int], p: int) -> list[tuple[list[int], int]]:
    """(product of the irreducible factors of degree d, d) for a monic
    squarefree g over F_p, by gcds with x^(p^d) - x."""
    out = []
    x = [1, 0]
    h = x
    d = 0
    while len(g) - 1 >= 2 * (d + 1):
        d += 1
        h = _powmod(h, p, g, p)
        fac = _gcd(g, _sub(h, x, p), p)
        if len(fac) > 1:
            out.append((fac, d))
            g = _divmod(g, fac, p)[0]
            h = _divmod(h, g, p)[1]
    if len(g) > 1:
        out.append((g, len(g) - 1))
    return out


def _equal_degree(g: list[int], d: int, p: int) -> list[list[int]]:
    """The monic irreducible factors, each of degree d, of a monic
    squarefree g over F_p, p odd.  The split polynomials run through x,
    x + 1, ..., x + p - 1 and on through every polynomial by the base-p
    digits of its index, so the choice is deterministic and some polynomial
    of degree below deg g splits g."""
    if len(g) - 1 == d:
        return [g]
    index = p
    while True:
        h = _base_p_digits(index, p)
        index += 1
        fac = _gcd(g, _sub(_powmod(h, (p**d - 1) // 2, g, p), [1], p), p)
        if 1 < len(fac) < len(g):
            return _equal_degree(fac, d, p) + _equal_degree(_divmod(g, fac, p)[0], d, p)


def _base_p_digits(n: int, p: int) -> list[int]:
    out = []
    while n:
        n, r = divmod(n, p)
        out.append(r)
    return out[::-1]


# Arithmetic modulo m (a prime, or a power of one in the Hensel lift).


def _trim(a: list[int]) -> list[int]:
    i = 0
    while i < len(a) and not a[i]:
        i += 1
    return a[i:]


def _reduce(a: Sequence[int], m: int) -> list[int]:
    return _trim([c % m for c in a])


def _monic(a: list[int], m: int) -> list[int]:
    inv = pow(a[0], -1, m)
    return [c * inv % m for c in a]


def _add(a: list[int], b: list[int], m: int) -> list[int]:
    if len(a) < len(b):
        a, b = b, a
    n = len(a) - len(b)
    return _trim([x % m for x in a[:n]] + [(x + y) % m for x, y in zip(a[n:], b)])


def _sub(a: Sequence[int], b: list[int], m: int) -> list[int]:
    return _add(list(a), [-c for c in b], m)


def _mul(a: list[int], b: list[int], m: int) -> list[int]:
    return _reduce(binforms.mul(a, b), m)


def _divmod(a: list[int], b: list[int], m: int) -> tuple[list[int], list[int]]:
    """Quotient and remainder of a by b modulo m, for b with a leading
    coefficient that is a unit modulo m."""
    n = len(b)
    if len(a) < n:
        return [], _reduce(a, m)
    inv = pow(b[0], -1, m)
    rem = list(a)
    quo = []
    for i in range(len(a) - n + 1):
        c = rem[i] * inv % m
        quo.append(c)
        if c:
            for j in range(1, n):
                rem[i + j] -= c * b[j]
    return quo, _reduce(rem[len(a) - n + 1 :], m)


def _powmod(h: list[int], e: int, g: list[int], p: int) -> list[int]:
    """h^e modulo g over F_p."""
    out = [1]
    h = _divmod(h, g, p)[1]
    while e:
        if e & 1:
            out = _divmod(_mul(out, h, p), g, p)[1]
        e >>= 1
        if e:
            h = _divmod(_mul(h, h, p), g, p)[1]
    return out


def _gcd(a: list[int], b: list[int], p: int) -> list[int]:
    """Monic gcd over F_p (a nonzero)."""
    while b:
        a, b = b, _divmod(a, b, p)[1]
    return _monic(a, p)


def _gcdex(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int]]:
    """(s, t) with s*a + t*b = 1 over F_p, for coprime a and b."""
    r0, r1 = a, b
    s0, s1, t0, t1 = [1], [], [], [1]
    while r1:
        q, r = _divmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _sub(s0, _mul(q, s1, p), p)
        t0, t1 = t1, _sub(t0, _mul(q, t1, p), p)
    inv = pow(r0[0], -1, p)
    return [c * inv % p for c in s0], [c * inv % p for c in t0]
