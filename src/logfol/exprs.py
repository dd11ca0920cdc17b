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
The result is a sparse polynomial {exponent tuple: coefficient}, read in the
quotient that the bound of parse_polynomial names, if any: every product
(_product) drops the terms past a total degree or on a crossing as it
forms them, so a large power costs only the terms that survive.
Truncation is a ring map, so this is the truncation of the full expansion,
and a divisor need only be constant through the bound.  _sum and _product
are the one sparse sum and product; Jet's ring operations call them too.
A coefficient is an int or a Fraction, by the rule in linalg's docstring:
the sums and products of parsing stay in ints, and only a division by a
constant makes a Fraction, which later products may leave integral.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import inf
from operator import add

from .linalg import _exact


class ExprError(ValueError):
    """Parse or evaluation error, with 1-based line/column position."""

    def __init__(self, message, line, col):
        super().__init__("%s (line %d, column %d)" % (message, line, col))
        self.line = line
        self.col = col


def _line_col(text, pos):
    return text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos)


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

    def error(self, message, pos):
        raise ExprError(message, *_line_col(self.text, pos))


def _poly_const(c, width):
    return {} if c == 0 else {(0,) * width: c}


def _sum(p, q):
    """p + q for sparse terms {exponent tuple: coefficient}."""
    out = dict(p)
    for e, c in q.items():
        if e in out:
            c += out[e]
            if c:
                out[e] = c
            else:
                del out[e]
        else:
            out[e] = c
    return out


def _product(p, q, degree, r):
    """p * q for sparse terms, never forming a term of total degree past
    degree or divisible by the product of the first r slots (r >= 2): the
    product of the quotient by those monomial ideals."""
    right = [(e2, sum(e2), c2) for e2, c2 in q.items()]
    out = {}
    for e1, c1 in p.items():
        room = degree - sum(e1)
        for e2, d2, c2 in right:
            if d2 > room:
                continue
            e = tuple(map(add, e1, e2))
            if r > 1 and 0 not in e[:r]:  # jets._on_crossing, inlined
                continue
            c = c1 * c2
            if e in out:
                c += out[e]
                if c:
                    out[e] = c
                else:
                    del out[e]
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


class _Parser:
    """Reads the tokens items[i:], i the next one, with no call per token."""

    def __init__(self, text, names, width, consts, bound):
        self.toks = _Tokens(text)
        self.items = self.toks.items
        self.i = 0
        self.names = names
        self.width = width
        self.consts = {k: _exact(v) for k, v in (consts or {}).items()}
        self.degree, self.r = bound

    def parse(self):
        p = self.expr()
        kind, _, pos = self.items[self.i]
        if kind != "end":
            self.toks.error("trailing input", pos)
        return p

    def expr(self):
        kind = self.items[self.i][0]
        if kind in "+-":
            self.i += 1
        p = None
        while True:
            q = self.term()
            if kind == "-":
                q = {e: -c for e, c in q.items()}
            p = q if p is None else _sum(p, q)
            kind = self.items[self.i][0]
            if kind not in "+-":
                return p
            self.i += 1

    def term(self):
        p = self.factor()
        while True:
            kind, _, pos = self.items[self.i]
            if kind != "*" and kind != "/":
                return p
            self.i += 1
            q = self.factor()
            if kind == "*":
                p = _product(p, q, self.degree, self.r)
                continue
            one = (0,) * self.width
            if q.keys() - {one}:
                self.toks.error("division is only allowed by constants", pos)
            c = q.get(one, 0)
            if c == 0:
                self.toks.error("division by zero", pos)
            inv = Fraction(1) / c
            p = {e: _exact(inv * v) for e, v in p.items()}

    def factor(self):
        p = self.atom()
        if self.items[self.i][0] == "^":
            kind, k, pos = self.items[self.i + 1]
            self.i += 2
            if kind != "int":
                self.toks.error("exponent must be a nonnegative integer", pos)
            p = _power(p, k, _poly_const(1, self.width),
                       lambda a, b: _product(a, b, self.degree, self.r))
        return p

    def atom(self):
        kind, value, pos = self.items[self.i]
        self.i += 1
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
            kind, _, pos = self.items[self.i]
            self.i += 1
            if kind != ")":
                self.toks.error("expected ')'", pos)
            return p
        self.toks.error("expected a number, name, or '('", pos)


def parse_polynomial(text, names, width=None, consts=None, bound=None):
    """Parse `text` into a sparse polynomial.

    names: mapping from name to slot index (several names may share a slot).
    width: number of exponent slots (default: 1 + max slot index).
    consts: mapping from name to exact rational value, read by _exact.
    bound: (degree, r), read the text modulo the monomials past total
    degree and those divisible by the product of the first r slots (r >= 2);
    the default None applies no ring relation.
    Every value is an int where the arithmetic stayed in ints, else a Fraction.
    """
    if width is None:
        width = 1 + max(names.values()) if names else 0
    return _Parser(text, names, width, consts, bound or (inf, 0)).parse()
