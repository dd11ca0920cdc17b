"""The expression parser: its tokeniser, one compiled regular expression,
against the character loop it replaced, and its bounded reading of jets and
fields against the full expansion cut afterwards."""

import json
import time
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from logfol import logcalc
from logfol.exprs import ExprError, _line_col, _Tokens, parse_polynomial
from logfol.jets import GermContext, Jet, jet_from_string, name_table

SCENES = Path(__file__).resolve().parent.parent / "scenes"

# a numeric non-decimal digit, a vulgar fraction, a letter number, a
# letter and an Arabic-Indic decimal digit
SPECIAL = ("²", "½", "Ⅻ", "é", "٣")


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
    return _Tokens(text).items


def old(text):
    return loop_tokens(text, str.isdigit)


def decimal(text):
    return loop_tokens(text, str.isdecimal)


def changed_by_decimal_digits(text):
    """Whether text holds a digit that is not a decimal digit, the only
    characters the two digit tests read differently."""
    return any(ch.isdigit() and not ch.isdecimal() for ch in text)


def assert_agrees(text):
    got = outcome(regex, text)
    assert got == outcome(decimal, text), text
    if not changed_by_decimal_digits(text):
        assert got == outcome(old, text), text


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
        parse_polynomial("x1^²", {"x1": 0})
    assert (exc.value.line, exc.value.col) == (1, 4)
    assert str(exc.value).startswith("unexpected character '²'")
    # an Arabic-Indic digit is a decimal digit and still reads as an int
    assert parse_polynomial("x1^٣", {"x1": 0}) == {(3,): 1}


def test_powers_are_taken_by_squaring():
    names = {"x1": 0, "x2": 1}
    for k in range(8):
        product = "*".join(["(x1 + 2 - x2)"] * k) or "1"
        power = parse_polynomial("(x1 + 2 - x2)^%d" % k, names, width=2)
        assert power == parse_polynomial(product, names, width=2)
    start = time.monotonic()
    huge = parse_polynomial("x1^1000000000*x2 - (-1)^1000000001 + 0^1000000000", names, width=2)
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


def unbounded(text, names, width=None, consts=None, bound=None):
    return parse_polynomial(text, names, width, consts)


@settings(max_examples=200, deadline=None)
@given(bounded_cases())
def test_the_bounded_parse_is_the_truncated_full_expansion(case):
    ctx, params, jet_text, field_text = case
    full = parse_polynomial(jet_text, name_table(ctx), ctx.n, params)
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
