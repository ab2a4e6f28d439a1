"""Expression parser for univariate rational functions over Q.

Grammar (documented for the CLI):

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor | factor)*   # adjacency multiplies
    factor := ('-' | '+') factor | atom ('^' INTEGER)?
    atom   := INTEGER | 'x' | '(' expr ')'

'^' binds tightest and takes one nonnegative integer exponent, so
"x^2^3" is an error (parenthesize: "(x^2)^3"); rational constants are
spelled as divisions, e.g. "1/2".  Polynomials are ``binforms``' tuples
without leading zeros, () for zero.  Parsing a map also accepts the
canonical coefficient format "num=c_k,...,c_0;den=c_j,...,c_0".
"""

from __future__ import annotations

import re

from . import binforms
from .exactarith import ELISION_DIGITS, POWER_DIGIT_CAP, parse_rational, quoted, read_digits
from .ratmap import MAP_DEGREE_CAP, RatMap, make_map


class ParseError(ValueError):
    pass


def _add(a: binforms.Form, b: binforms.Form) -> binforms.Form:
    n = max(len(a), len(b))
    return binforms.strip(binforms.add((0,) * (n - len(a)) + a, (0,) * (n - len(b)) + b))


def _mul(a: binforms.Form, b: binforms.Form, what: str, pos: int) -> binforms.Form:
    """a*b, refused before it is built when its degree passes the map
    degree cap: the unreduced numerator and denominator of an expression
    stay within it, so a short text cannot build a huge polynomial.  A
    factor (1,) (most denominators) returns the other factor itself."""
    degree = len(a) + len(b) - 2
    if degree > MAP_DEGREE_CAP:
        raise ParseError(
            f"{what} at position {pos} has degree {degree}, past the map degree cap "
            f"{MAP_DEGREE_CAP}"
        )
    if b == (1,):
        return a
    if a == (1,):
        return b
    return binforms.strip(binforms.mul(a, b))


# a token is a run of decimal digits (exactly what ``int`` reads) or one
# other character, after any whitespace
_TOKEN = re.compile(r"\s*(\d+|\S)")


def parse_rational_function(text: str) -> tuple[list[int], list[int]]:
    """Parse an expression to coprime (numerator, denominator) integer
    coefficient lists, descending powers, without leading zeros: a zero
    numerator is [].

    Each rule of the grammar returns an unreduced ``(num, den)`` pair of
    ``binforms`` polynomials (every atom is an integer); the pair is reduced
    once, at the end.  A sum, product or power whose unreduced numerator or
    denominator would pass ``MAP_DEGREE_CAP`` is refused by position."""
    toks = [(m[1], m.start(1)) for m in _TOKEN.finditer(text)]
    for tok, pos in toks:
        if not tok.isdecimal() and tok not in "x+-*/^()":
            raise ParseError(f"syntax error at position {pos}: unexpected {tok!r}")
    toks.append(("end", len(text)))  # no token read from the text is a word
    i = 0

    def take() -> tuple[str, int]:
        nonlocal i
        i += 1
        return toks[i - 1]

    def expr():
        num, den = term()
        while toks[i][0] in "+-":
            op, pos = take()
            rnum, rden = term()
            if op == "-":
                rnum = binforms.scale(rnum, -1)
            num, den = (_add(_mul(num, rden, "sum", pos), _mul(rnum, den, "sum", pos)),
                        _mul(den, rden, "sum", pos))
        return num, den

    def term():
        num, den = factor()
        while True:
            op, pos = toks[i]
            if op in "*/":
                take()
            elif not (op.isdecimal() or op in "x("):
                return num, den
            rnum, rden = factor()  # adjacency multiplies: "2x", "3(x+1)"
            if op != "/":
                num, den = _mul(num, rnum, "product", pos), _mul(den, rden, "product", pos)
            elif rnum:
                num, den = _mul(num, rden, "product", pos), _mul(den, rnum, "product", pos)
            else:
                raise ParseError("division by zero")

    def factor():
        if toks[i][0] in "+-":
            op = take()[0]
            num, den = factor()
            return (binforms.scale(num, -1) if op == "-" else num), den
        base = atom()
        if toks[i][0] != "^":
            return base
        caret = take()[1]
        tok, pos = take()
        if not tok.isdecimal():
            raise ParseError(
                f"syntax error at position {pos}: exponent must be a nonnegative integer"
            )
        e = read_digits(tok)
        num, den = base
        degree = e * (max(len(num), len(den)) - 1)
        if degree > MAP_DEGREE_CAP:  # a degree past 2^64 is named by its exponent's digits
            shown = f"degree {degree}" if degree < 2**64 else f"a {len(tok)}-digit exponent"
            raise ParseError(
                f"power at position {caret} has {shown}, past the map degree cap {MAP_DEGREE_CAP}"
            )
        if len(den) == 1 and not any(num[1:]):  # (c*x^k/d)^e is c^e*x^degree/d^e
            c = num[0] if num else 0
            # |c|^e >= 2^((L-1)e) for c of L bits, and 2^(10/3) > 10
            bits = (max(abs(c), abs(den[0])).bit_length() - 1) * e
            if bits > POWER_DIGIT_CAP * 10 // 3:
                raise ParseError(
                    f"power at position {caret} has more than {POWER_DIGIT_CAP} digits"
                )
            return binforms.strip((c**e,) + (0,) * degree), (den[0] ** e,)
        num, den = (1,), (1,)
        for _ in range(e):
            num, den = _mul(num, base[0], "power", caret), _mul(den, base[1], "power", caret)
        return num, den

    def atom():
        tok, pos = take()
        if tok.isdecimal():
            return binforms.strip((read_digits(tok),)), (1,)
        if tok == "x":
            return (1, 0), (1,)
        if tok == "(":
            value = expr()
            tok, pos = take()
            if tok != ")":
                raise ParseError(f"syntax error at position {pos}: expected ')'")
            return value
        raise ParseError(f"syntax error at position {pos}: unexpected {tok!r}")

    try:
        num, den = expr()
    except RecursionError:
        raise ParseError("map expression nested too deeply") from None
    tok, pos = toks[i]
    if tok != "end":
        raise ParseError(f"syntax error at position {pos}: trailing input")
    if len(den) > 1:  # a constant denominator has no common factor to remove
        g = binforms.gcd(num, den)
        num, den = binforms.quotient(num, g), binforms.quotient(den, g)
    # canonical: denominator leading coefficient positive
    if den[0] < 0:
        num, den = binforms.scale(num, -1), binforms.scale(den, -1)
    return list(num), list(den)


def parse_coefficient_format(text: str) -> RatMap:
    """Parse the canonical "num=c_k,...,c_0;den=c_j,...,c_0" format."""
    parts = text.split(";")
    bad = [p for p, key in zip(parts, ("num=", "den=")) if not p.startswith(key)] + parts[2:]
    if bad or len(parts) < 2:  # a long text is named by its first keyless or third part
        shown = text if len(text) <= ELISION_DIGITS else (bad or parts)[0]
        raise ParseError(f"cannot parse coefficient format: {quoted(shown)}")
    num_part, den_part = parts
    num = [parse_rational(tok) for tok in num_part[4:].split(",")]
    den = [parse_rational(tok) for tok in den_part[4:].split(",")]
    return make_map(num, den)


def parse_map(text: str) -> RatMap:
    """Parse a map from expression syntax or the coefficient format; a map read
    from an expression reads back bit-exactly from its coefficient format."""
    text = text.strip()
    if text.startswith("num="):
        return parse_coefficient_format(text)
    num, den = parse_rational_function(text)
    return make_map(num, den)
