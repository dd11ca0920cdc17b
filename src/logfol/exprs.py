"""Reader of exact polynomial expressions.

Grammar (whitespace free between tokens):

    expr     := [sign] term { sign term }
    term     := factor { ("*" | "/") factor }
    factor   := atom [ "^" nat ]
    atom     := nat | name | "(" expr ")"
    sign     := "+" | "-"

Coefficients are exact rationals; "/" only divides by constant subexpressions,
so "3/2*x1^2*z - 1" parses but "1/x" is rejected. Names resolve through a
caller-supplied table to either a variable index or a rational constant (a
constant first).  The result is a sparse polynomial {exponent tuple:
coefficient}.

Lexical errors (a decimal literal, an unexpected character) are found first,
so one wins over any syntax error, wherever it sits.  A text of ASCII
letters, digits, "_", whitespace and operators has none, which one
regular-expression match tells; any other text is scanned token by token.
The reader then walks the text by position, a term at a time, and builds no
token list.  A run of up to three factors without parentheses (numbers and
names, each with an optional power) joined by "*" is taken by one match
(a longer run by several) and multiplied in place into one coefficient and
one exponent list, and the term goes straight into the sum.  Only a factor
in parentheses, and a divisor, becomes a sparse polynomial and goes through
_product and _power, one factor at a time.

The text is read in the quotient that the bound of parse_polynomial names:
every product (_product) drops the terms past a total degree or on a
crossing as it forms them, so a large power costs only the terms that
survive.  A run is tested once, when its term ends, and only if it took a
product or a power, as the descent it replaced did: a factor never lowers a
degree.  Truncation is a ring map, so this is the truncation of the full
expansion, and a divisor need only be constant through the bound.  _sum and
_product are the one sparse sum and product; Jet's ring operations call them
too.  A coefficient is an int or a Fraction, by the rule in linalg's
docstring: the sums and products of parsing stay in ints, and only a division
by a constant makes a Fraction, which later products may leave integral.
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
    return text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos)


# A token is the whitespace before it and then a run of decimal digits (with
# the "." that would make it a decimal literal), a run of word characters or
# one other character.  The matches cover the text up to trailing whitespace
# with no gaps, so adding up their lengths gives each token's position.  \d
# is str.isdecimal, the digits int() reads; \s and \w agree with
# str.isspace and with str.isalnum or "_".
_TOKEN = re.compile(r"(\s*)(\d+\.?|\w+|\S)")

# Text with no lexical error: ASCII letters, digits, "_", spaces and the
# operators, so no "." and no word that starts with anything but a letter,
# "_" or a digit.  A number of more than 640 digits may still be more than
# int() reads (sys.get_int_max_str_digits(), at least 640 when set).
_PLAIN = re.compile(r"[\w\s+\-*/^()]*", re.ASCII)
_LONG_NUMBER = re.compile(r"\d{641}")


def _lexical_check(text):
    """Raise the first lexical error of text, token by token: a decimal
    literal, an unexpected character, or the ValueError of a number longer
    than int() reads."""
    pos = 0
    for space, token in _TOKEN.findall(text):
        pos += len(space)
        first = token[0]
        if first.isdecimal():
            if token[-1] == ".":
                raise ExprError("decimal literals are not allowed, use p/q rationals",
                                *_line_col(text, pos + len(token) - 1))
            int(token)
        elif not (first.isalpha() or first == "_" or first in "+-*/^()"):
            # one other character, or a word that starts with a numeric
            # character that is not a decimal digit, such as "²"
            raise ExprError("unexpected character %r" % first, *_line_col(text, pos))
        pos += len(token)


# On lexically sound text, a run of up to three factors without parentheses
# joined by "*", with the whitespace around it; a factor is a number or a
# name and its power if any, in three groups (number, name, power).  Nothing
# after an atom can fail, so each is a whole token.  (Four factors cost
# twice the compile time at import, which every start pays.)
_RUN_FACTOR = r"(?:(\d+)|(\w+))(?:\s*\^\s*(\d+))?"
_RUN = re.compile(r"\s*%s(?:\s*\*\s*%s(?:\s*\*\s*%s)?)?\s*" % ((_RUN_FACTOR,) * 3))


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


class _Reader:
    """Reads one lexically sound text by position, a term at a time."""

    __slots__ = ("text", "names", "width", "consts", "degree", "r")

    def __init__(self, text, names, width, consts, bound):
        self.text = text
        self.names = names
        self.width = width
        self.consts = consts
        self.degree, self.r = bound

    def error(self, message, pos):
        raise ExprError(message, *_line_col(self.text, pos))

    def token(self, pos):
        """The token at or after pos ("" at the end) and its position."""
        m = _TOKEN.match(self.text, pos)
        return ("", len(self.text)) if m is None else (m[2], m.start(2))

    def expr(self, pos):
        """The sum at pos as sparse terms, and the position of the token
        after it."""
        text = self.text
        out = {}
        sign, pos = self.token(pos)
        if sign == "+" or sign == "-":
            pos += 1
        while True:
            pos = self.term(pos, sign == "-", out)
            sign = text[pos:pos + 1]
            if sign != "+" and sign != "-":
                return out, pos
            pos += 1

    def term(self, pos, negative, out):
        """Add the term at pos, negated if negative, into the sum out, and
        return the position of the token after it.

        Until a factor in parentheses comes, the product so far is c * x^e,
        and cut says whether a product or a power has been taken, the case
        in which the bound applies to it; from then on it is the sparse
        terms p, and each factor is multiplied in by _product, as the
        descent this reader replaced did.
        """
        text, width = self.text, self.width
        c, e, cut, p = 1, [0] * width, False, None
        m = _RUN.match(text, pos)
        if m is None:
            p, pos = self.factor(pos)
        else:
            c, cut = self.run(m, c, e, False)
            pos = m.end()
        while True:
            op = text[pos:pos + 1]
            if op == "*":
                if p is None:
                    m = _RUN.match(text, pos + 1)
                    if m is not None:
                        c, cut = self.run(m, c, e, True)
                        pos = m.end()
                        continue
                    p = {tuple(e): c} if c else {}
                q, pos = self.factor(pos + 1)
                p = _product(p, q, self.degree, self.r)
            elif op == "/":
                q, end = self.factor(pos + 1)
                one = (0,) * width
                if q.keys() - {one}:
                    self.error("division is only allowed by constants", pos)
                d = q.get(one, 0)
                if d == 0:
                    self.error("division by zero", pos)
                inv = Fraction(1) / d
                if p is None:
                    c = _exact(inv * c)
                else:
                    p = {k: _exact(inv * v) for k, v in p.items()}
                pos = end
            else:
                break
        if p is None:
            if not c or cut and (sum(e) > self.degree or self.r > 1 and 0 not in e[:self.r]):
                return pos
            items = ((tuple(e), c),)
        else:
            items = p.items()
        for k, v in items:
            if negative:
                v = -v
            if k in out:
                v += out[k]
                if v:
                    out[k] = v
                else:
                    del out[k]
            else:
                out[k] = v
        return pos

    def run(self, m, c, e, cut):
        """Multiply the factors of the run m into the coefficient c and the
        exponents e, in place: the new c, and whether a product or a power
        was taken (or cut already)."""
        consts, names = self.consts, self.names
        groups = m.groups()
        end = m.lastindex  # the last group matched: 3 per factor
        if end > 3:
            cut = True
        for i in range(0, end, 3):
            num, name, k = groups[i:i + 3]
            if num is None and name not in consts:
                slot = names.get(name)
                if slot is None:
                    self.error("unknown name %r" % name, m.start(i + 2))
                if k is None:
                    e[slot] += 1
                else:
                    k = int(k)
                    if k:
                        e[slot] += k
                        cut = True
                continue
            v = consts[name] if num is None else int(num)
            if k is None:
                c *= v
            else:
                k = int(k)
                if k:  # v^0 is 1 and takes no product
                    c *= v ** k
                    cut = True
        if end % 3 and self.text.startswith("^", m.end()):
            # the last factor has no power, and what follows "^" is none
            self.error("exponent must be a nonnegative integer", self.token(m.end() + 1)[1])
        return c, cut

    def factor(self, pos):
        """The factor at pos, atom ["^" nat], as sparse terms, and the
        position of the token after it."""
        atom, pos = self.token(pos)
        if atom == "(":
            p, pos = self.expr(pos + 1)
            if not self.text.startswith(")", pos):
                self.error("expected ')'", pos)
            pos += 1
        elif atom[:1].isdecimal():
            p, pos = _poly_const(int(atom), self.width), pos + len(atom)
        elif atom[:1].isalpha() or atom[:1] == "_":
            p, pos = self.atom(atom, pos), pos + len(atom)
        else:
            self.error("expected a number, name, or '('", pos)
        op, pos = self.token(pos)
        if op == "^":
            k, at = self.token(pos + 1)
            if not k[:1].isdecimal():
                self.error("exponent must be a nonnegative integer", at)
            p = _power(p, int(k), _poly_const(1, self.width),
                       lambda a, b: _product(a, b, self.degree, self.r))
            pos = self.token(at + len(k))[1]
        return p, pos

    def atom(self, name, pos):
        """The name at pos as sparse terms."""
        if name in self.consts:
            return _poly_const(self.consts[name], self.width)
        if name not in self.names:
            self.error("unknown name %r" % name, pos)
        e = [0] * self.width
        e[self.names[name]] = 1
        return {tuple(e): 1}


def parse_polynomial(text, names, width, consts, bound):
    """Parse `text` into a sparse polynomial.

    names: mapping from name to slot index (several names may share a slot).
    width: number of exponent slots.
    consts: mapping from name to exact rational value, read by _exact, or
    None for no constants.
    bound: (degree, r), read the text modulo the monomials past total
    degree and those divisible by the product of the first r slots (r >= 2).
    Every value is an int where the arithmetic stayed in ints, else a Fraction.
    """
    if not _PLAIN.fullmatch(text) or len(text) > 640 and _LONG_NUMBER.search(text):
        _lexical_check(text)
    consts = {k: _exact(v) for k, v in (consts or {}).items()}
    reader = _Reader(text, names, width, consts, bound)
    p, pos = reader.expr(0)
    if pos < len(text):
        reader.error("trailing input", pos)
    return p
