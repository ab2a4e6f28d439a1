"""Primality testing and integer factorization over arbitrary-precision ints.

Deterministic Miller-Rabin (exact below 3.3e24, extremely reliable above),
trial division for the small factors that dominate in practice, and a
Brent-cycle Pollard rho for medium factors.  Complete factorization of an
arbitrary huge integer is not always feasible; callers that only need the
small prime factors use :func:`factor_partial` and inspect the leftover
cofactor.
"""

from __future__ import annotations

import math

# Witness set proves primality for all n < 3,317,044,064,679,887,385,961,981.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def is_prime(n: int) -> bool:
    """Miller-Rabin primality test, deterministic for n < 3.3e24."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_brent(n: int, max_iters: int) -> int | None:
    """Find a nontrivial factor of composite odd n, or None within budget."""
    for c in (1, 3, 5, 7, 11):
        y, m = 2, 128
        g = r = q = 1
        x = ys = y
        count = 0
        while g == 1 and count < max_iters:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r *= 2
            count += r
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if 1 < g < n:
            return g
    return None


def factor_partial(
    n: int,
    trial_bound: int = 10_000,
    rho_iters: int = 1 << 18,
) -> tuple[dict[int, int], int]:
    """Factor |n| as far as trial division plus bounded Pollard rho allows.

    Returns ``(factors, leftover)`` where factors maps primes to exponents
    and leftover is an unfactored cofactor (1 when factorization completed).
    """
    if n == 0:
        raise ValueError("cannot factor zero")
    n = abs(n)
    factors: dict[int, int] = {}
    for p in (2, 3, 5):
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
    # wheel over 30
    d = 7
    increments = (4, 2, 4, 2, 4, 6, 2, 6)
    i = 0
    while d <= trial_bound and d * d <= n:
        while n % d == 0:
            factors[d] = factors.get(d, 0) + 1
            n //= d
        d += increments[i]
        i = (i + 1) % 8
    if n == 1:
        return factors, 1
    if n < trial_bound * trial_bound or is_prime(n):
        factors[n] = factors.get(n, 0) + 1
        return factors, 1
    # rho phase: split recursively with a shared budget
    stack = [n]
    leftover = 1
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            factors[m] = factors.get(m, 0) + 1
            continue
        g = _pollard_brent(m, rho_iters)
        if g is None:
            leftover *= m
            continue
        stack.append(g)
        stack.append(m // g)
    return factors, leftover


def factor(n: int) -> dict[int, int]:
    """Complete factorization of |n|; raises if the rho budget is exhausted."""
    factors, leftover = factor_partial(n, trial_bound=100_000, rho_iters=1 << 22)
    if leftover != 1:
        raise ValueError(f"could not completely factor {n}")
    return factors
