"""Integer binary forms in (x0, x1): the package's one polynomial core.

A form of degree d is a tuple ``cs`` of d+1 integers with ``cs[k]`` the
coefficient of x0^(d-k) x1^k, i.e. descending powers of x0 (so the
dehomogenization at x1 = 1 reads like a univariate polynomial coefficient
list).  The zero form is represented as the length-(d+1) tuple of zeros
only where a degree is forced; most operations reject it.

The same tuples, read at x1 = 1 with leading zeros stripped, are the
univariate integer polynomials of ``prem``, ``gcd`` and ``quotient``.  All
arithmetic here is on integers.  ``factor_form``, full factorization over
Q, hands the affine part to ``modp`` (Zassenhaus's method on the same
integer code), which is imported on its first call.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

Form = tuple[int, ...]


class FormError(ValueError):
    pass


def degree(cs: Sequence[int]) -> int:
    return len(cs) - 1


def evaluate(cs: Sequence[int], a0: int, a1: int) -> int:
    """Evaluate the form at integer coordinates (a0, a1); the empty form
    evaluates to 0.

    Homogeneous Horner: after the coefficient c_k the accumulator holds
    sum_(j<=k) c_j a0^(k-j) a1^j, so each step is ``acc*a0 + c_k*a1^k``
    with a running power of a1, and a zero coefficient costs one product."""
    if not cs:
        return 0
    acc = cs[0]
    p1 = 1
    for k in range(1, len(cs)):
        p1 *= a1
        c = cs[k]
        acc = acc * a0 + c * p1 if c else acc * a0
    return acc


def mul(a: Sequence[int], b: Sequence[int]) -> Form:
    """Product form (convolution of coefficient lists); the inner loop runs
    over the nonzero terms of b only."""
    out = [0] * (len(a) + len(b) - 1)
    nonzero_b = [(j, bj) for j, bj in enumerate(b) if bj]
    for i, ai in enumerate(a):
        if ai:
            for j, bj in nonzero_b:
                out[i + j] += ai * bj
    return tuple(out)


def add(a: Sequence[int], b: Sequence[int]) -> Form:
    if len(a) != len(b):
        raise FormError("degree mismatch")
    return tuple(x + y for x, y in zip(a, b))


def sub(a: Sequence[int], b: Sequence[int]) -> Form:
    if len(a) != len(b):
        raise FormError("degree mismatch")
    return tuple(x - y for x, y in zip(a, b))


def scale(a: Sequence[int], c: int) -> Form:
    return tuple(c * x for x in a)


def content(cs: Sequence[int]) -> int:
    return math.gcd(*cs)


def primitive(cs: Sequence[int]) -> Form:
    """Divide out the content; sign fixed so the leading nonzero is positive."""
    g = content(cs)
    if g == 0:
        raise FormError("zero form")
    out = [c // g for c in cs]
    if out[x1_multiplicity(out)] < 0:
        out = [-x for x in out]
    return tuple(out)


def split_quadratic(cs: Sequence[int]) -> list[Form] | None:
    """The two primitive linear factors, sorted, of a quadratic form
    ``a*x0^2 + b*x0*x1 + c*x1^2`` with ``a != 0`` whose discriminant is a
    square, or None when the discriminant is not a square (the form is
    irreducible over Q)."""
    a, b, c = cs
    disc = b * b - 4 * a * c
    s = math.isqrt(disc) if disc >= 0 else -1
    if s * s != disc:
        return None
    return sorted(primitive((2 * a, b + e)) for e in (s, -s))


def dx0(cs: Sequence[int]) -> Form:
    """Partial derivative with respect to x0 (degree drops by one)."""
    d = degree(cs)
    return tuple((d - k) * cs[k] for k in range(d))


def dx1(cs: Sequence[int]) -> Form:
    """Partial derivative with respect to x1."""
    d = degree(cs)
    return tuple(k * cs[k] for k in range(1, d + 1))


def monomials(p: Sequence[int], q: Sequence[int], e: int) -> list[Form]:
    """p^(e-j) q^j for j = 0..e, for forms p, q of one degree.

    No product has a unit factor: p^1 and q^1 are p and q, and the end
    terms p^e and q^e are the powers themselves."""
    if len(p) != len(q):
        raise FormError("inner degree mismatch")
    if e == 0:
        return [(1,)]
    pp, qq = [(1,), tuple(p)], [(1,), tuple(q)]
    for _ in range(e - 1):
        pp.append(mul(pp[-1], p))
        qq.append(mul(qq[-1], q))
    return [pp[e], *(mul(pp[e - j], qq[j]) for j in range(1, e)), qq[e]]


def combine(cs: Sequence[int], forms: Sequence[Sequence[int]]) -> Form:
    """sum_j cs[j] * forms[j], for forms of one degree; a zero cs[j] costs
    nothing, and the first nonzero term is a plain scale."""
    terms = [(c, f) for c, f in zip(cs, forms) if c]
    if not terms:
        return (0,) * len(forms[0])
    c, f = terms[0]
    if len(terms) == 1:
        return tuple([c * x for x in f])
    c1, f1 = terms[1]
    out = [c * x + c1 * y for x, y in zip(f, f1)]
    for c, f in terms[2:]:
        out = [o + c * x for o, x in zip(out, f)]
    return tuple(out)


def compose_pair(
    outer: Sequence[int], inner0: Sequence[int], inner1: Sequence[int]
) -> Form:
    """Substitute forms: outer(inner0, inner1).

    inner0, inner1 must have equal degree D; result has degree deg(outer)*D.
    """
    return combine(outer, monomials(inner0, inner1, degree(outer)))


def _bareiss(mat: list[list[int]]) -> int:
    """Fraction-free (Bareiss) forward elimination of an n-row matrix, in
    place; columns past the n-th (right-hand sides) are carried along.
    Returns the determinant of the leading n x n block."""
    n = len(mat)
    width = len(mat[0])
    sign = 1
    prev = 1
    for k in range(n - 1):
        if mat[k][k] == 0:
            for r in range(k + 1, n):
                if mat[r][k] != 0:
                    mat[k], mat[r] = mat[r], mat[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = mat[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, width):
                mat[i][j] = (mat[i][j] * pivot - mat[i][k] * mat[k][j]) // prev
            mat[i][k] = 0
        prev = pivot
    return sign * mat[n - 1][n - 1]


def bezout_cofactors(
    p: Sequence[int], q: Sequence[int]
) -> tuple[int, Form, Form, Form, Form]:
    """Integer forms (g1, g2, h1, h2) of degree d-1 with

        g1*p + g2*q = R * x0^(2d-1)      h1*p + h2*q = R * x1^(2d-1)

    where R = Res(p, q) != 0.  Returns (R, g1, g2, h1, h2).
    """
    d = degree(p)
    if degree(q) != d:
        raise FormError("degree mismatch")
    size = 2 * d
    # columns: a_0..a_{d-1} (g1, descending), b_0..b_{d-1} (g2)
    # row r = coefficient of x0^(2d-1-r) x1^r in g1*p + g2*q
    # right-hand sides e_0 and e_{2d-1} ride along as two extra columns
    mat = [[0] * (size + 2) for _ in range(size)]
    for i in range(d):
        for j, c in enumerate(p):
            mat[i + j][i] = c
        for j, c in enumerate(q):
            mat[i + j][d + i] = c
    mat[0][size] = 1
    mat[size - 1][size + 1] = 1
    # M is the transposed Sylvester matrix, so det M = Res(p, q)
    res = _bareiss(mat)
    if res == 0:
        raise FormError("resultant is zero")
    # the eliminated system U x = e' has solution piv * x = adj(M) e in
    # integers, and |piv| = |det M| = |R|, so R * x is piv * x up to sign
    piv = mat[size - 1][size - 1]
    sols = []
    for col in (size, size + 1):
        y = [0] * size
        for i in reversed(range(size)):
            acc = piv * mat[i][col] - sum(mat[i][j] * y[j] for j in range(i + 1, size))
            y[i] = acc // mat[i][i]
        sols.append([v * res // piv for v in y])
    top, bot = sols
    return res, tuple(top[:d]), tuple(top[d:]), tuple(bot[:d]), tuple(bot[d:])


def x1_multiplicity(cs: Sequence[int]) -> int:
    """Multiplicity of the x1 factor (= leading zero count)."""
    m = 0
    while m < len(cs) and not cs[m]:
        m += 1
    return m


def strip(cs: Sequence[int]) -> Form:
    """Leading zeros dropped: the affine part, read as a univariate
    polynomial (the empty tuple for the zero form)."""
    return tuple(cs[x1_multiplicity(cs):] if cs and not cs[0] else cs)


def prem(a: Sequence[int], b: Sequence[int]) -> Form:
    """Pseudo-remainder of univariate a by b (descending coefficients, b
    nonzero): the remainder of lc(b)^k * a on division by b, for some
    k >= 0, leading zeros stripped (the empty tuple when it is zero)."""
    b = strip(b)
    r = strip(a)
    lead, n = b[0], len(b)
    while len(r) >= n:
        c = r[0]
        r = strip(
            [lead * x - c * y for x, y in zip(r[1:], b[1:])]
            + [lead * x for x in r[n:]]
        )
    return r


def gcd(a: Sequence[int], b: Sequence[int]) -> Form:
    """Greatest common divisor over Q of univariate integer polynomials,
    as a primitive polynomial with positive leading coefficient, by the
    primitive pseudo-remainder sequence (content removed at every step).
    A zero argument (all coefficients zero, or empty) is the zero
    polynomial; both zero raises."""
    a, b = strip(a), strip(b)
    if len(a) < len(b):
        a, b = b, a
    if not a:
        raise FormError("gcd of zero polynomials")
    a = primitive(a)
    while b:
        b = primitive(b)
        a, b = b, prem(a, b)
    return a


def quotient(a: Sequence[int], b: Sequence[int]) -> Form:
    """a / b for univariate integer polynomials when b divides a over Z
    (for instance, b primitive and dividing a over Q); leading zeros of
    both are ignored."""
    a, b = list(strip(a)), strip(b)
    out = []
    while len(a) >= len(b):
        c, rem = divmod(a[0], b[0])
        if rem:
            raise FormError("inexact polynomial quotient")
        out.append(c)
        a = [x - c * y for x, y in zip(a[1:], b[1:])] + a[len(b):]
    if any(a):
        raise FormError("inexact polynomial quotient")
    return tuple(out)


def form_quotient(a: Sequence[int], b: Sequence[int]) -> Form:
    """a / b for binary forms when b divides a over Z, x1 powers included;
    the zero form over b is the zero form of degree deg a - deg b."""
    if not any(a):
        return (0,) * (len(a) - len(b) + 1)
    m = x1_multiplicity(a) - x1_multiplicity(b)
    if m < 0:
        raise FormError("inexact polynomial quotient")
    return (0,) * m + quotient(a, b)


def distinct_root_count(cs: Sequence[int]) -> int:
    """Number of distinct projective roots over the algebraic closure:
    degree minus the degree of gcd(F, F') on the affine part, plus one for
    the root at infinity."""
    if all(c == 0 for c in cs):
        raise FormError("zero form")
    m = x1_multiplicity(cs)
    uni = cs[m:]
    return (m > 0) + degree(uni) - degree(gcd(uni, dx0(uni)))


def factor_form(cs: Sequence[int]) -> tuple[int, list[tuple[Form, int]]]:
    """Factor a binary form over Q.

    Returns ``(x1_mult, factors)`` where factors are primitive irreducible
    non-x1 forms (descending coefficient tuples, positive leading
    coefficient) with multiplicities, sorted by (degree, multiplicity,
    coefficients).  The affine part is factored by Zassenhaus's method in
    ``modp``, imported on the first call.
    """
    from . import modp

    m = x1_multiplicity(cs)
    uni = cs[m:]
    if len(uni) <= 1:
        return m, []
    return m, modp.factor(uni)


def divides(div: Sequence[int], num: Sequence[int]) -> bool:
    """Exact divisibility of binary forms over Q: the x1 power of div
    divides num's, and the pseudo-remainder of the affine parts is zero."""
    md, mn = x1_multiplicity(div), x1_multiplicity(num)
    if md > mn or len(div) - md > len(num) - mn:
        return False
    return not prem(num, div)
