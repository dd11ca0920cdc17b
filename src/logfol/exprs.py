"""Recursive-descent parser for exact polynomial expressions.

Grammar (whitespace free between tokens):

    expr     := [sign] term { sign term }
    term     := factor { ("*" | "/") factor }
    factor   := atom [ "^" nat ]
    atom     := nat | name | "(" expr ")"
    sign     := "+" | "-"

Coefficients are exact rationals; "/" only divides by constant subexpressions,
so "3/2*x1^2*z - 1" parses but "1/x" is rejected. Names resolve through a
caller-supplied table to either a variable index or a rational constant.
The result is a raw sparse polynomial {exponent tuple: Fraction} with no ring
relations applied; callers reduce it into whatever quotient they need.
Inside the parser a coefficient is an int where integral, so the sums and
products of parsing stay in ints; only a division by a constant makes a
Fraction.
"""

from __future__ import annotations

import re
from fractions import Fraction
from operator import add

from .linalg import _exact


class ExprError(ValueError):
    """Parse or evaluation error, with 1-based line/column position."""

    def __init__(self, message, line, col):
        super().__init__("%s (line %d, column %d)" % (message, line, col))
        self.line = line
        self.col = col


def _line_col(text, pos):
    line = text.count("\n", 0, pos) + 1
    last = text.rfind("\n", 0, pos)
    col = pos - (last + 1) + 1
    return line, col


# A token is the whitespace before it and then a run of decimal digits (with
# the "." that would make it a decimal literal), a run of word characters or
# one other character.  The matches cover the text up to trailing whitespace
# with no gaps, so adding up their lengths gives each token's position.  \d
# is str.isdecimal, the digits int() reads; \s and \w agree with
# str.isspace and with str.isalnum or "_".
_TOKEN = re.compile(r"(\s*)(\d+\.?|\w+|\S)")


class _Tokens:
    def __init__(self, text):
        self.text = text
        self.items = items = []  # (kind, value, pos)
        pos = 0
        for space, token in _TOKEN.findall(text):
            pos += len(space)
            first = token[0]
            if first in "+-*/^()":
                items.append((first, first, pos))
            elif first.isdecimal():
                if token[-1] == ".":
                    raise ExprError("decimal literals are not allowed, use p/q rationals",
                                    *_line_col(text, pos + len(token) - 1))
                items.append(("int", int(token), pos))
            elif first.isalpha() or first == "_":
                items.append(("name", token, pos))
            else:
                # one other character, or a word that starts with a numeric
                # character that is not a decimal digit, such as "²"
                raise ExprError("unexpected character %r" % first, *_line_col(text, pos))
            pos += len(token)
        items.append(("end", None, len(text)))
        self.i = 0

    def peek(self):
        return self.items[self.i]

    def next(self):
        item = self.items[self.i]
        self.i += 1
        return item

    def error(self, message, pos=None):
        if pos is None:
            pos = self.peek()[2]
        raise ExprError(message, *_line_col(self.text, pos))


def _poly_const(c, width):
    c = _exact(c)
    return {} if c == 0 else {(0,) * width: c}


def _poly_add(p, q):
    out = dict(p)
    for e, c in q.items():
        c2 = out.get(e, 0) + c
        if c2 == 0:
            out.pop(e, None)
        else:
            out[e] = c2
    return out


def _poly_scale(c, p):
    if c == 0:
        return {}
    return {e: c * v for e, v in p.items()}


def _poly_mul(p, q):
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(map(add, e1, e2))
            c = out.get(e, 0) + c1 * c2
            if c == 0:
                out.pop(e, None)
            else:
                out[e] = c
    return out


def _power(x, k, one, mul):
    """x ** k for an int k >= 0 by repeated squaring, with the product mul:
    about two products per binary digit of k, where k products are too
    slow for exponents such as 10**9."""
    out = one
    while k:
        if k & 1:
            out = mul(out, x)
        k >>= 1
        if k:
            x = mul(x, x)
    return out


def _constant_of(p, width):
    """Value (int or Fraction) if p is constant, else None."""
    if not p:
        return 0
    if len(p) == 1 and (0,) * width in p:
        return p[(0,) * width]
    return None


class _Parser:
    def __init__(self, text, names, width, consts):
        self.toks = _Tokens(text)
        self.names = names
        self.width = width
        self.consts = consts or {}

    def parse(self):
        p = self.expr()
        kind, _, pos = self.toks.peek()
        if kind != "end":
            self.toks.error("trailing input", pos)
        return p

    def expr(self):
        sign = 1
        kind, _, _ = self.toks.peek()
        if kind in "+-":
            self.toks.next()
            sign = -1 if kind == "-" else 1
        p = _poly_scale(sign, self.term())
        while True:
            kind, _, _ = self.toks.peek()
            if kind not in "+-":
                return p
            self.toks.next()
            q = self.term()
            if kind == "-":
                q = _poly_scale(-1, q)
            p = _poly_add(p, q)

    def term(self):
        p = self.factor()
        while True:
            kind, _, pos = self.toks.peek()
            if kind == "*":
                self.toks.next()
                p = _poly_mul(p, self.factor())
            elif kind == "/":
                self.toks.next()
                q = self.factor()
                c = _constant_of(q, self.width)
                if c is None:
                    self.toks.error("division is only allowed by constants", pos)
                if c == 0:
                    self.toks.error("division by zero", pos)
                inv = Fraction(1) / c
                p = {e: _exact(inv * v) for e, v in p.items()}
            else:
                return p

    def factor(self):
        p = self.atom()
        kind, _, pos = self.toks.peek()
        if kind == "^":
            self.toks.next()
            k2, v, p2 = self.toks.next()
            if k2 != "int":
                self.toks.error("exponent must be a nonnegative integer", p2)
            p = _power(p, v, _poly_const(1, self.width), _poly_mul)
        return p

    def atom(self):
        kind, value, pos = self.toks.next()
        if kind == "int":
            return _poly_const(value, self.width)
        if kind == "name":
            if value in self.consts:
                return _poly_const(self.consts[value], self.width)
            if value in self.names:
                e = [0] * self.width
                e[self.names[value]] = 1
                return {tuple(e): 1}
            self.toks.error("unknown name %r" % value, pos)
        if kind == "(":
            p = self.expr()
            k2, _, p2 = self.toks.next()
            if k2 != ")":
                self.toks.error("expected ')'", p2)
            return p
        self.toks.error("expected a number, name, or '('", pos)


def parse_polynomial(text, names, width=None, consts=None):
    """Parse `text` into a raw sparse polynomial.

    names: mapping from name to slot index (several names may share a slot).
    width: number of exponent slots (default: 1 + max slot index).
    consts: mapping from name to exact rational value.
    Every value of the result is a Fraction; the arithmetic stays in ints
    until a division by a constant makes a Fraction.
    """
    if width is None:
        width = 1 + max(names.values()) if names else 0
    poly = _Parser(text, names, width, consts).parse()
    return {e: Fraction(c) for e, c in poly.items()}
