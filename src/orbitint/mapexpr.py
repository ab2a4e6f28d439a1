"""Expression parser for univariate rational functions over Q.

Grammar (documented for the CLI):

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor | factor)*   # adjacency multiplies
    factor := ('-' | '+') factor | atom ('^' INTEGER)?
    atom   := INTEGER | 'x' | '(' expr ')'

'^' binds tightest and takes one nonnegative integer exponent, so
"x^2^3" is an error (parenthesize: "(x^2)^3"); rational constants are
spelled as divisions, e.g. "1/2".
Parsing a map also accepts the canonical coefficient format
"num=c_k,...,c_0;den=c_j,...,c_0".
"""

from __future__ import annotations

from dataclasses import dataclass

from . import binforms
from .exactarith import parse_rational, read_digits
from .ratmap import RatMap, make_map


class ParseError(ValueError):
    pass


def _trim(a) -> list[int]:
    """Integer coefficients, descending, without leading zeros; the zero
    polynomial is [0]."""
    return list(binforms.strip(a)) or [0]


def _add(a: list[int], b: list[int]) -> list[int]:
    n = max(len(a), len(b))
    return _trim(binforms.add([0] * (n - len(a)) + a, [0] * (n - len(b)) + b))


def _mul(a: list[int], b: list[int]) -> list[int]:
    return _trim(binforms.mul(a, b))


@dataclass
class _RatFunc:
    """num/den with integer coefficient lists (every atom is an integer)."""

    num: list[int]
    den: list[int]

    def reduced(self) -> "_RatFunc":
        if not any(self.den):
            raise ParseError("division by zero polynomial")
        g = binforms.gcd(self.num, self.den)
        return _RatFunc(
            list(binforms.quotient(self.num, g)), list(binforms.quotient(self.den, g))
        )

    def negated(self) -> "_RatFunc":
        return _RatFunc([-c for c in self.num], self.den)


def _rf_const(c: int) -> _RatFunc:
    return _RatFunc([c], [1])


def _rf_add(a: _RatFunc, b: _RatFunc) -> _RatFunc:
    return _RatFunc(
        _add(_mul(a.num, b.den), _mul(b.num, a.den)),
        _mul(a.den, b.den),
    )


def _rf_mul(a: _RatFunc, b: _RatFunc) -> _RatFunc:
    return _RatFunc(_mul(a.num, b.num), _mul(a.den, b.den))


def _rf_div(a: _RatFunc, b: _RatFunc) -> _RatFunc:
    if not any(b.num):
        raise ParseError("division by zero")
    return _RatFunc(_mul(a.num, b.den), _mul(a.den, b.num))


class _Tokenizer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.tokens: list[tuple[str, str, int]] = []
        self._scan()
        self.index = 0

    def _scan(self):
        i, text = 0, self.text
        while i < len(text):
            ch = text[i]
            if ch.isspace():
                i += 1
                continue
            if ch.isdigit():
                j = i
                while j < len(text) and text[j].isdigit():
                    j += 1
                self.tokens.append(("int", text[i:j], i))
                i = j
                continue
            if ch == "x":
                self.tokens.append(("var", "x", i))
                i += 1
                continue
            if ch in "+-*/^()":
                self.tokens.append((ch, ch, i))
                i += 1
                continue
            raise ParseError(f"syntax error at position {i}: unexpected {ch!r}")
        self.tokens.append(("end", "", len(text)))

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.index]

    def next(self) -> tuple[str, str, int]:
        tok = self.tokens[self.index]
        self.index += 1
        return tok


class _Parser:
    def __init__(self, text: str):
        self.toks = _Tokenizer(text)

    def parse(self) -> _RatFunc:
        value = self._expr()
        kind, _, pos = self.toks.peek()
        if kind != "end":
            raise ParseError(f"syntax error at position {pos}: trailing input")
        return value.reduced()

    def _expr(self) -> _RatFunc:
        value = self._term()
        while self.toks.peek()[0] in ("+", "-"):
            op = self.toks.next()[0]
            rhs = self._term()
            if op == "-":
                rhs = rhs.negated()
            value = _rf_add(value, rhs)
        return value

    def _term(self) -> _RatFunc:
        value = self._factor()
        while True:
            kind = self.toks.peek()[0]
            if kind in ("*", "/"):
                op = self.toks.next()[0]
                rhs = self._factor()
                value = _rf_mul(value, rhs) if op == "*" else _rf_div(value, rhs)
            elif kind in ("int", "var", "("):
                # adjacency: "2x", "3(x+1)"
                value = _rf_mul(value, self._factor())
            else:
                return value

    def _factor(self) -> _RatFunc:
        kind, _, _ = self.toks.peek()
        if kind in ("+", "-"):
            op = self.toks.next()[0]
            value = self._factor()
            if op == "-":
                return value.negated()
            return value
        return self._power()

    def _power(self) -> _RatFunc:
        base = self._atom()
        if self.toks.peek()[0] == "^":
            self.toks.next()
            kind, text, pos = self.toks.next()
            if kind != "int":
                raise ParseError(
                    f"syntax error at position {pos}: exponent must be a nonnegative integer"
                )
            exp = int(text)
            value = _rf_const(1)
            for _ in range(exp):
                value = _rf_mul(value, base)
            return value
        return base

    def _atom(self) -> _RatFunc:
        kind, text, pos = self.toks.next()
        if kind == "int":
            return _rf_const(read_digits(text))
        if kind == "var":
            return _RatFunc([1, 0], [1])
        if kind == "(":
            value = self._expr()
            kind2, _, pos2 = self.toks.next()
            if kind2 != ")":
                raise ParseError(f"syntax error at position {pos2}: expected ')'")
            return value
        raise ParseError(f"syntax error at position {pos}: unexpected {text or kind!r}")


def parse_rational_function(text: str) -> tuple[list[int], list[int]]:
    """Parse an expression to coprime (numerator, denominator) integer
    coefficient lists, descending powers."""
    rf = _Parser(text).parse()
    # canonical: denominator leading coefficient positive
    if rf.den[0] < 0:
        return [-c for c in rf.num], [-c for c in rf.den]
    return rf.num, rf.den


def parse_coefficient_format(text: str) -> RatMap:
    """Parse the canonical "num=c_k,...,c_0;den=c_j,...,c_0" format."""
    try:
        num_part, den_part = text.split(";")
        assert num_part.startswith("num=") and den_part.startswith("den=")
    except (ValueError, AssertionError):
        raise ParseError(f"cannot parse coefficient format: {text!r}") from None
    num = [parse_rational(tok) for tok in num_part[4:].split(",")]
    den = [parse_rational(tok) for tok in den_part[4:].split(",")]
    return make_map(num, den)


def parse_map(text: str) -> RatMap:
    """Parse a map from expression syntax or the coefficient format; the
    expression route round-trips bit-exactly through the coefficient format."""
    text = text.strip()
    if text.startswith("num="):
        return parse_coefficient_format(text)
    num, den = parse_rational_function(text)
    return make_map(num, den)
