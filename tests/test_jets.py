"""Truncated power series on a normal-crossing germ.

The coefficient arithmetic is exact; the only approximations in the whole
package are the truncations at the context order, so these tests pin down
exactly where terms are allowed to disappear.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from logfol import (
    ExprError,
    GermContext,
    format_jet,
    jet_from_string,
    monomials,
)
from logfol.jets import ContextMismatchError, Jet, NonUnitError


CTX = GermContext(2, 2, 4)


def jets_on(ctx, span=4):
    coeff = st.fractions(min_value=-span, max_value=span, max_denominator=3)
    exps = st.tuples(*(st.integers(0, ctx.order) for _ in range(ctx.n)))
    return st.dictionaries(exps, coeff, max_size=4).map(
        lambda terms: Jet.make(ctx, terms)
    )


# -- construction and normal form ----------------------------------------


def test_crossing_product_is_zero():
    x1 = Jet.variable(CTX, 0)
    x2 = Jet.variable(CTX, 1)
    assert (x1 * x2).is_zero()


def test_binomial_product_drops_crossing_term():
    x1 = Jet.variable(CTX, 0)
    x2 = Jet.variable(CTX, 1)
    one = Jet.one(CTX)
    p = (one + x1) * (one + x2)
    assert p == one + x1 + x2


def test_truncation_kills_high_degree():
    ctx = GermContext(1, 0, 3)
    z = Jet.variable(ctx, 0)
    assert (z ** 4).is_zero()
    assert not (z ** 3).is_zero()


def test_make_normalizes_dead_monomials():
    j = Jet.make(CTX, {(1, 1): Fraction(5), (2, 0): Fraction(1)})
    assert (1, 1) not in j.terms
    assert j.terms[(2, 0)] == 1


def test_context_mismatch_raises():
    other = GermContext(2, 2, 5)
    with pytest.raises(ContextMismatchError):
        Jet.one(CTX) + Jet.one(other)


# -- ring axioms -----------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(jets_on(CTX), jets_on(CTX))
def test_addition_and_multiplication_commute(f, g):
    assert f + g == g + f
    assert f * g == g * f


@settings(max_examples=60, deadline=None)
@given(jets_on(CTX), jets_on(CTX), jets_on(CTX))
def test_associativity_and_distributivity(f, g, h):
    assert (f + g) + h == f + (g + h)
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h


@settings(max_examples=40, deadline=None)
@given(jets_on(CTX))
def test_neutral_elements(f):
    assert f + Jet.zero(CTX) == f
    assert f * Jet.one(CTX) == f
    assert (f - f).is_zero()


# -- calculus --------------------------------------------------------------


def test_partial_derivative():
    ctx = GermContext(1, 0, 5)
    z = Jet.variable(ctx, 0)
    assert (z ** 3).partial(0) == 3 * z ** 2


def test_scaled_partial_is_euler_weight():
    x1 = Jet.variable(CTX, 0)
    j = x1 ** 3
    assert j.scaled_partial(0) == 3 * j


def test_set_zero_substitutes():
    x1 = Jet.variable(CTX, 0)
    x2 = Jet.variable(CTX, 1)
    f = Jet.one(CTX) + x1 + 2 * x2
    assert f.set_zero(0) == Jet.one(CTX) + 2 * x2


def test_restrict_to_component_reindexes():
    ctx = GermContext(3, 2, 4)
    f = Jet.make(ctx, {(0, 1, 2): Fraction(7), (1, 0, 0): Fraction(3)})
    g = f.restrict_to_component(0)
    assert g.ctx == ctx.component(0)
    assert g.ctx.n == 2 and g.ctx.r == 1
    assert g.terms == {(1, 2): Fraction(7)}


def test_invert_geometric_series():
    ctx = GermContext(1, 0, 3)
    z = Jet.variable(ctx, 0)
    inv = (Jet.one(ctx) + z).invert()
    assert inv == Jet.one(ctx) - z + z ** 2 - z ** 3


def test_invert_rejects_nonunit():
    with pytest.raises(NonUnitError):
        Jet.variable(CTX, 0).invert()


@settings(max_examples=40, deadline=None)
@given(jets_on(CTX))
def test_invert_is_a_right_inverse(f):
    g = f + Jet.one(CTX) - Jet.constant(CTX, f.constant_term())
    # g is f with its constant part replaced by 1, hence a unit
    assert g * g.invert() == Jet.one(CTX)


def test_univariate_extraction():
    ctx = GermContext(2, 0, 4)
    z = Jet.variable(ctx, 1)
    f = 2 * z ** 2 - z
    assert f.univariate(1) == {2: Fraction(2), 1: Fraction(-1)}
    with pytest.raises(ValueError):
        (f + Jet.variable(ctx, 0)).univariate(1)


def test_degree_bookkeeping():
    x1 = Jet.variable(CTX, 0)
    f = x1 + x1 ** 3
    assert f.total_degree() == 3
    assert f.truncate(2) == x1
    assert f.equal_to_order(x1, 2)
    assert not f.equal_to_order(x1, 3)


# -- parsing and printing ----------------------------------------------------


def test_parse_simple_polynomial():
    f = jet_from_string(CTX, "1/2*x1^2 + 3*x2 - 1")
    assert f.terms == {
        (2, 0): Fraction(1, 2),
        (0, 1): Fraction(3),
        (0, 0): Fraction(-1),
    }


def test_parse_with_params_and_names():
    ctx = GermContext(2, 1, 4)
    f = jet_from_string(ctx, "a*u + b", names=["u", "t"],
                        params={"a": Fraction(2), "b": Fraction(-1, 3)})
    assert f.terms == {(1, 0): Fraction(2), (0, 0): Fraction(-1, 3)}


def test_parse_error_carries_position():
    with pytest.raises(ExprError) as exc:
        jet_from_string(CTX, "x1 + + x2")
    assert exc.value.line == 1
    assert exc.value.col == 6


def test_format_round_trip():
    f = jet_from_string(CTX, "2*x1 - 1/3*x2^2 + 5")
    assert jet_from_string(CTX, format_jet(f)) == f


@settings(max_examples=40, deadline=None)
@given(jets_on(CTX))
def test_format_round_trip_random(f):
    assert jet_from_string(CTX, format_jet(f)) == f


def test_monomials_enumeration():
    ctx = GermContext(2, 2, 4)
    ms = monomials(ctx, 2)
    # the crossing product (1, 1) must not appear
    assert (1, 1) not in ms
    assert set(ms) == {(0, 0), (1, 0), (0, 1), (2, 0), (0, 2)}
