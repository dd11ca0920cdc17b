"""The expression reader against the recursive-descent parser it replaced.

That parser, a token list (_TOKEN's matches) and a descent with one call per
factor, is kept here as the reference: the reader must give the same terms,
in the same order and with the same coefficient types, and the same errors
at the same line and column, on every text.  The reference tokeniser is in
turn checked against the character loop it replaced.  The bounded reading
of jets and fields is checked against the full expansion cut afterwards, and
the two jet readers against the split of the reader's terms through
Jet.make that they replaced."""

import json
import re
import sys
import time
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from logfol import logcalc
from logfol.exprs import (ExprError, _TOKEN, _exact, _line_col, _poly_const, _power, _product,
                          _sum, parse_polynomial)
from logfol.jets import GermContext, Jet, jet_from_string, name_table

SCENES = Path(__file__).resolve().parent.parent / "scenes"

# a numeric non-decimal digit, a vulgar fraction, a letter number, a
# letter and an Arabic-Indic decimal digit
SPECIAL = ("²", "½", "Ⅻ", "é", "٣")


# -- the reference parser ---------------------------------------------------------


class Tokens:
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
                raise ExprError("unexpected character %r" % first, *_line_col(text, pos))
            pos += len(token)
        items.append(("end", None, len(text)))

    def error(self, message, pos):
        raise ExprError(message, *_line_col(self.text, pos))


class Parser:
    """Reads the tokens items[i:], i the next one."""

    def __init__(self, text, names, width, consts, bound):
        self.toks = Tokens(text)
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


# the bound that applies no ring relation
UNBOUNDED = (float("inf"), 0)


def reference(text, names, width=None, consts=None, bound=None):
    if width is None:
        width = 1 + max(names.values()) if names else 0
    return Parser(text, names, width, consts, bound or (float("inf"), 0)).parse()


def read(parse, *args):
    """The terms in order with each coefficient's type, or the error's type,
    message, line and column."""
    try:
        p = parse(*args)
    except ExprError as e:
        return ("error", str(e), e.line, e.col)
    except ValueError as e:  # a number longer than int() reads
        return ("ValueError", str(e))
    return [(e, c, type(c)) for e, c in p.items()]


# a power of three or more digits: such a power of a number, 9^999999999, is
# a number too large to compute
HUGE_POWER = re.compile(r"\^\s*\d{3}")


def words(text):
    return sorted(set(re.findall(r"[^\W\d]\w*", text)))


def assert_reads_alike(text, names=None, consts=None, bounds=(None, (1, 0), (3, 2), (2, 3))):
    """The reader and the reference agree on text, unbounded and through
    small bounds; by default every word of the text is a variable, three to
    a slot."""
    if names is None:
        names = {w: i % 3 for i, w in enumerate(words(text))}
    width = 1 + max(names.values(), default=2)
    for bound in bounds:
        got = read(parse_polynomial, text, names, width, consts, bound or UNBOUNDED)
        assert got == read(reference, text, names, width, consts, bound), (text, bound)


# -- the reference tokeniser against the character loop ----------------------------


def loop_tokens(text, is_digit):
    """Tokens of text as the character loop made them.

    The loop tested digits with str.isdigit; with is_digit=str.isdecimal it
    reads integers as the regular expression does, which is the one change.
    """
    items = []
    pos = 0
    n = len(text)
    while pos < n:
        ch = text[pos]
        if ch.isspace():
            pos += 1
            continue
        if ch in "+-*/^()":
            items.append((ch, ch, pos))
            pos += 1
            continue
        if is_digit(ch):
            end = pos
            while end < n and is_digit(text[end]):
                end += 1
            if end < n and text[end] == ".":
                raise ExprError(
                    "decimal literals are not allowed, use p/q rationals", *_line_col(text, end)
                )
            items.append(("int", int(text[pos:end]), pos))
            pos = end
            continue
        if ch.isalpha() or ch == "_":
            end = pos
            while end < n and (text[end].isalnum() or text[end] == "_"):
                end += 1
            items.append(("name", text[pos:end], pos))
            pos = end
            continue
        raise ExprError("unexpected character %r" % ch, *_line_col(text, pos))
    items.append(("end", None, n))
    return items


def outcome(tokenise, text):
    """The tokens, or the error's (message, line, column)."""
    try:
        return tokenise(text)
    except ExprError as e:
        return (str(e), e.line, e.col)


def regex(text):
    return Tokens(text).items


def old(text):
    return loop_tokens(text, str.isdigit)


def decimal(text):
    return loop_tokens(text, str.isdecimal)


def changed_by_decimal_digits(text):
    """Whether text holds a digit that is not a decimal digit, the only
    characters the two digit tests read differently."""
    return any(ch.isdigit() and not ch.isdecimal() for ch in text)


def assert_agrees(text):
    """The reference tokens are the loop's, and the reader reads text as the
    reference does."""
    got = outcome(regex, text)
    assert got == outcome(decimal, text), text
    if not changed_by_decimal_digits(text):
        assert got == outcome(old, text), text
    if not HUGE_POWER.search(text):
        assert_reads_alike(text)


def scene_strings(value):
    if isinstance(value, str):
        yield value
    elif isinstance(value, dict):
        for k, v in value.items():
            yield k
            yield from scene_strings(v)
    elif isinstance(value, list):
        for v in value:
            yield from scene_strings(v)


def test_agrees_with_the_loop_on_every_scene_string():
    texts = [t for p in sorted(SCENES.glob("*.json")) for t in scene_strings(json.loads(p.read_text()))]
    assert len(texts) > 100
    assert any(isinstance(outcome(regex, t), list) and len(outcome(regex, t)) > 5 for t in texts)
    for text in texts:
        assert not changed_by_decimal_digits(text)
        assert_agrees(text)


@pytest.mark.parametrize("ch", SPECIAL)
def test_agrees_with_the_loop_with_a_special_character_anywhere(ch):
    base = "3/2*x1^2 - (y_0 + 17)\n* z2 ^ 4.5"
    for pos in range(len(base) + 1):
        assert_agrees(base[:pos] + ch + base[pos:])
        assert_agrees(base[:pos] + ch)


ALPHABET = list("x1y_0 9+-*/^()\n\t.$") + list(SPECIAL) + ["\u00a0", "\u0301", "\u2028"]


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet=st.sampled_from(ALPHABET), max_size=24) | st.text(max_size=12))
def test_agrees_with_the_loop_on_generated_text(text):
    assert_agrees(text)


def test_a_superscript_digit_is_a_positioned_error():
    # the loop read "²" as a digit and handed it to int(), which raised a bare
    # ValueError with no position
    with pytest.raises(ValueError, match="invalid literal for int") as exc:
        old("x1^²")
    assert not isinstance(exc.value, ExprError)
    with pytest.raises(ExprError) as exc:
        parse_polynomial("x1^²", {"x1": 0}, 1, None, UNBOUNDED)
    assert (exc.value.line, exc.value.col) == (1, 4)
    assert str(exc.value).startswith("unexpected character '²'")
    # an Arabic-Indic digit is a decimal digit and still reads as an int
    assert parse_polynomial("x1^٣", {"x1": 0}, 1, None, UNBOUNDED) == {(3,): 1}


def test_powers_are_taken_by_squaring():
    names = {"x1": 0, "x2": 1}
    for k in range(8):
        product = "*".join(["(x1 + 2 - x2)"] * k) or "1"
        power = parse_polynomial("(x1 + 2 - x2)^%d" % k, names, 2, None, UNBOUNDED)
        assert power == parse_polynomial(product, names, 2, None, UNBOUNDED)
    start = time.monotonic()
    huge = parse_polynomial("x1^1000000000*x2 - (-1)^1000000001 + 0^1000000000", names, 2, None,
                            UNBOUNDED)
    assert huge == {(10**9, 1): 1, (0, 0): 1}
    assert time.monotonic() - start < 1.0


# -- the bound -----------------------------------------------------------------


def polynomial_texts(names):
    """Small expressions in names and the parameter lam: sums, products,
    powers and division by constants."""
    atoms = st.one_of(st.integers(0, 3).map(str), st.sampled_from(names + ("lam",)))

    def extend(inner):
        return st.one_of(
            st.tuples(inner, st.sampled_from((" + ", " - ", "*")), inner).map(
                lambda t: "(%s%s%s)" % t),
            st.tuples(inner, st.integers(0, 3)).map(lambda t: "(%s)^%d" % t),
            st.tuples(inner, st.sampled_from(("2", "3", "lam"))).map(lambda t: "(%s)/%s" % t),
        )

    return st.recursive(atoms, extend, max_leaves=6)


@st.composite
def bounded_cases(draw):
    """A context of 3 variables with r = 0..3, an order, a value of lam, a
    jet text and a field text tangent to the crossing."""
    ctx = GermContext(3, draw(st.integers(0, 3)), draw(st.integers(1, 4)))
    names = ctx.default_names()
    poly = polynomial_texts(names)
    lam = draw(st.sampled_from((Fraction(1, 2), Fraction(-3), Fraction(2, 3))))
    basis = ["x%d*dx%d" % (i, i) for i in range(1, ctx.r + 1)]
    basis += ["dx%d" % i for i in range(ctx.r + 1, 4)]
    terms = draw(st.lists(st.tuples(poly, st.sampled_from(basis)), min_size=1, max_size=3))
    field = "(%s)*(%s)" % (draw(poly), " + ".join("(%s)*%s" % t for t in terms))
    return ctx, {"lam": lam}, draw(poly), field


def unbounded(text, names, width, consts, bound):
    return parse_polynomial(text, names, width, consts, UNBOUNDED)


@settings(max_examples=200, deadline=None)
@given(bounded_cases())
def test_the_bounded_parse_is_the_truncated_full_expansion(case):
    ctx, params, jet_text, field_text = case
    full = parse_polynomial(jet_text, name_table(ctx), ctx.n, params, UNBOUNDED)
    assert jet_from_string(ctx, jet_text, params=params) == Jet.make(ctx, full)
    field = logcalc.derivation_from_string(ctx, field_text, params=params)
    with mock.patch.object(logcalc, "parse_polynomial", unbounded):
        assert field == logcalc.derivation_from_string(ctx, field_text, params=params)


def test_a_large_power_is_read_through_the_order():
    ctx = GermContext(2, 2, 6)
    field = logcalc.derivation_from_string(ctx, "(1 + x1 + x2)^200*x1*dx1 - x2*dx2")
    start = time.monotonic()
    huge = logcalc.derivation_from_string(ctx, "(1 + x1 + x2)^100000*x1*dx1 - x2*dx2")
    assert time.monotonic() - start < 1.0
    assert field.b[0].terms[(0, 6)] == Fraction(82408626300)  # C(200, 6)
    assert huge.b[0].constant_term() == 1 and len(huge.b[0].terms) == len(field.b[0].terms)


# -- the reader against the reference --------------------------------------------

NAMES = {"x1": 0, "x2": 1, "y": 1, "dx1": 2}
CONSTS = {"lam": 3, "half": Fraction(1, 2), "zero": 0, "x2": "2/4"}  # x2: a constant wins
ATOMS = tuple(NAMES) + tuple(CONSTS) + ("nope", "0", "1", "2", "3", "12")
POWERS = ("",) * 6 + ("^0", "^00", "^1", "^2", " ^ 3", "^\n7", "^x1", "^(2)", "^-1", "^2^2")
SPACE = ("", "", " ", "\n", "\t ", " \n\t")


@st.composite
def expressions(draw, depth=0):
    """Sums of products and quotients of numbers, names and parenthesized
    sums, with powers, spaced by blanks, newlines and tabs; a few are
    malformed (an unknown name, a bad exponent, division by a variable or
    by zero)."""
    space = st.sampled_from(SPACE)

    def factor():
        if depth < 2 and draw(st.integers(0, 4)) == 0:
            atom = "(%s%s%s)" % (draw(space), draw(expressions(depth + 1)), draw(space))
        else:
            atom = draw(st.sampled_from(ATOMS))
        return atom + draw(st.sampled_from(POWERS))

    terms = []
    for _ in range(draw(st.integers(1, 4))):
        term = factor()
        for _ in range(draw(st.integers(0, 3))):
            term += draw(space) + draw(st.sampled_from("**/")) + draw(space) + factor()
        terms.append(term)
    text = draw(st.sampled_from(("", "-", "+ ", "- "))) + terms[0]
    for term in terms[1:]:
        text += draw(space) + draw(st.sampled_from("+-")) + draw(space) + term
    return text


BOUNDS = st.none() | st.tuples(st.integers(0, 6), st.integers(0, 3))


@settings(max_examples=400, deadline=None)
@given(expressions(), BOUNDS)
def test_the_reader_agrees_with_the_reference_on_generated_expressions(text, bound):
    assert_reads_alike(text, NAMES, CONSTS, (bound,))


# what a lexical fault is made of; each is refused before any syntax error
FAULTS = ("$", "1.5", "7.", "²", "Ⅻ", "́", ".")


@settings(max_examples=200, deadline=None)
@given(expressions(), st.integers(0, 10**6), st.sampled_from(FAULTS), BOUNDS)
def test_a_lexical_fault_anywhere_is_reported_as_the_reference_does(text, at, fault, bound):
    at %= len(text) + 1
    assert_reads_alike(text[:at] + fault + text[at:], NAMES, CONSTS, (bound,))


@pytest.mark.parametrize("text, message, col", [
    ("x1 x2 $", "unexpected character '$'", 7),  # not trailing input at x2
    ("nope * x1 + 1.5", "decimal literals are not allowed, use p/q rationals", 14),
    ("x1 y ²", "unexpected character '²'", 6),
    ("(x1 ² x2", "unexpected character '²'", 5),
    ("x1/0 + é .", "unexpected character '.'", 10),
])
def test_a_lexical_error_wins_over_an_earlier_syntax_error(text, message, col):
    with pytest.raises(ExprError) as exc:
        parse_polynomial(text, NAMES, 3, CONSTS, UNBOUNDED)
    assert str(exc.value) == "%s (line 1, column %d)" % (message, col)
    assert (read(parse_polynomial, text, NAMES, 3, CONSTS, UNBOUNDED)
            == read(reference, text, NAMES, 3, CONSTS))


def test_a_number_longer_than_int_reads_fails_before_any_syntax_error():
    limit = sys.get_int_max_str_digits()
    assert limit == 0 or limit >= 640
    long_number = "9" * max(limit + 1, 641)
    for text in ("x1 x2 " + long_number, "nope + " + long_number, long_number + " ^ x1"):
        got = read(parse_polynomial, text, NAMES, 3, None, UNBOUNDED)
        assert got == read(reference, text, NAMES, 3)
        assert got[0] == ("ValueError" if limit else "error")
    # 640 digits are read wherever they sit, int() reads them under any limit
    assert parse_polynomial("9" * 640 + "*x1", NAMES, 3, None, UNBOUNDED) == {
        (1, 0, 0): int("9" * 640)}


def test_the_reader_keeps_the_coefficient_types_and_term_order():
    text = "half*2 + x1/2*2 + 2*x1/2 + (x1/2)*2/1 + y^2 - x2*x1 + lam^0 + zero^0*x1"
    got = parse_polynomial(text, NAMES, 3, CONSTS, UNBOUNDED)
    assert list(got.items()) == list(reference(text, NAMES, 3, CONSTS).items())
    assert [type(c) for c in got.values()] == [Fraction, Fraction, int]
    # 2*x1/2 is the int 1, the quotient made integral; x1/2*2 is Fraction(1)
    assert got == {(0, 0, 0): 2, (1, 0, 0): Fraction(7, 2), (0, 2, 0): 1}
    assert type(parse_polynomial("2*x1/2", NAMES, 3, None, UNBOUNDED)[(1, 0, 0)]) is int
    assert type(parse_polynomial("x1/2*2", NAMES, 3, None, UNBOUNDED)[(1, 0, 0)]) is Fraction


def test_a_run_is_cut_only_when_a_product_or_a_power_was_taken():
    # at degree 0 a lone name is kept, as it always was, and x1^1 or 1*x1 is not
    for text in ("x1", "x1^1", "1*x1", "x1^0", "x1/2", "-x1 + 2^0", "(x1)", "x1/x1^1"):
        for bound in ((0, 0), (-1, 0), (1, 2)):
            assert_reads_alike(text, NAMES, CONSTS, (bound,))
    assert parse_polynomial("x1 + x1^1 + 1*x1", NAMES, 3, None, (0, 0)) == {(1, 0, 0): 1}


# -- the jet readers against the split through Jet.make ----------------------------


def derivation_through_make(ctx, text, names=None, params=None):
    """derivation_from_string as it was: the reader's terms split into the
    b_i and a_j, each checked again by Jet.make."""
    table = logcalc.derivation_table(ctx, names)
    raw = parse_polynomial(text, table, width=2 * ctx.n, consts=params, bound=(ctx.order + 2, 0))
    b_raw = [dict() for _ in range(ctx.r)]
    a_raw = [dict() for _ in range(ctx.n - ctx.r)]
    for e, c in raw.items():
        var_part, d_part = e[: ctx.n], e[ctx.n:]
        if sum(d_part) != 1:
            raise logcalc.TangencyParseError(
                "each term must contain exactly one derivation token d1..dn")
        i = d_part.index(1)
        if i < ctx.r:
            if var_part[i] < 1:
                raise logcalc.TangencyParseError(
                    "coefficient of d%d must vanish on {x%d = 0}; "
                    "the field is not tangent to the crossing locus" % (i + 1, i + 1))
            e2 = list(var_part)
            e2[i] -= 1
            b_raw[i][tuple(e2)] = c
        else:
            a_raw[i - ctx.r][var_part] = c
    return logcalc.LogDerivation(ctx, tuple(Jet.make(ctx, d) for d in b_raw),
                                 tuple(Jet.make(ctx, d) for d in a_raw))


def jet_through_make(ctx, text, names=None, params=None):
    """jet_from_string as it was."""
    raw = parse_polynomial(text, name_table(ctx, names), width=ctx.n, consts=params,
                           bound=(ctx.order, ctx.r))
    return Jet.make(ctx, raw)


def built(read_text, *args):
    """The jets read, each as its terms in order with their types, or the
    error's type and message."""
    try:
        out = read_text(*args)
    except ValueError as e:
        return (type(e), str(e))
    jets = out.components() if isinstance(out, logcalc.LogDerivation) else (out,)
    return [[(e, c, type(c)) for e, c in jet.terms.items()] for jet in jets]


@st.composite
def field_cases(draw):
    """A context of 3 variables with r = 0..3 and order 1..4, and a field
    whose terms may lie past the order, on the crossing, off the tangent
    fields, or have no token or two."""
    ctx = GermContext(3, draw(st.integers(0, 3)), draw(st.integers(1, 4)))
    monomial = st.lists(st.sampled_from(("x1", "x2", "x3", "x1^2", "x2^3", "x3^4", "2", "lam",
                                         "half")), max_size=3).map(lambda f: "*".join(f) or "1")
    coefficient = monomial | polynomial_texts(ctx.default_names())
    token = st.sampled_from(("dx1", "dx2", "dx3", "x1*dx1", "x2*dx2", "x3*dx3", "dx1*dx2", "1"))
    terms = draw(st.lists(st.tuples(coefficient, token), min_size=1, max_size=4))
    text = " + ".join("%s*%s" % t for t in terms)
    return ctx, text


PARAMS = {"lam": Fraction(-3), "half": Fraction(1, 2)}


@settings(max_examples=300, deadline=None)
@given(field_cases())
def test_derivation_from_string_is_the_split_through_make(case):
    ctx, text = case
    assert built(logcalc.derivation_from_string, ctx, text, None, PARAMS) == \
        built(derivation_through_make, ctx, text, None, PARAMS)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 3), st.integers(1, 4), st.data())
def test_jet_from_string_is_the_read_through_make(r, order, data):
    ctx = GermContext(3, r, order)
    text = data.draw(polynomial_texts(ctx.default_names()))
    params = {"lam": Fraction(1, 2)}
    assert built(jet_from_string, ctx, text, None, params) == \
        built(jet_through_make, ctx, text, None, params)


@pytest.mark.parametrize("text", [
    "x1*x2 + x1^5 + x3^4 - x1",  # on the crossing (r = 2), past the order, at it
    "half*2*x1 + x2/2*2 + 2*x3/2 + (x1/2)*4*x3",  # integral Fractions stored as ints
    "(1 + x1 + x2)^9 - (x2/2 - half*x3)^2",
])
def test_jet_from_string_on_the_edge_cases(text):
    ctx = GermContext(3, 2, 4)
    got = built(jet_from_string, ctx, text, None, PARAMS)
    assert got == built(jet_through_make, ctx, text, None, PARAMS)
    assert all(t is int for _, c, t in got[0] if c.denominator == 1)


@pytest.mark.parametrize("text", [
    "x1*x2*dx1 + x1^7*dx1 + 2*x3*dx3",  # on the crossing (r = 2) and past the order
    "x2^5*dx1",  # not tangent, within the bound
    "x1*dx1*dx2 + x2*dx1",  # the first fault in term order is reported
    "x2*dx1 + x1*dx1*dx2",
    "x1^2 + x1*dx1",  # no token
    "half*2*x1*dx1 + x1/2*2*dx3 + 2*x3/2*dx3",  # integral Fractions stored as ints
    "(1 + x1 + x2)^9*x1*dx1 - (x2/2 - half*x3)^2*dx3",
])
def test_derivation_from_string_on_the_edge_cases(text):
    ctx = GermContext(3, 2, 4)
    got = built(logcalc.derivation_from_string, ctx, text, None, PARAMS)
    assert got == built(derivation_through_make, ctx, text, None, PARAMS)
    assert all(t is int for jet in got if isinstance(jet, list) for _, c, t in jet
               if c.denominator == 1)
