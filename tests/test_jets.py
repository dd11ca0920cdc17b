"""Truncated power series on a normal-crossing germ.

The coefficient arithmetic is exact; the only approximations in the whole
package are the truncations at the context order, so these tests pin down
exactly where terms are allowed to disappear.
"""

import math
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from logfol.exprs import ExprError, parse_polynomial
from logfol.jets import GermContext, Jet, jet_from_string, name_table

from exact_rule import follows_the_rule
from reference import agree_to_order, formatted, monomials, power, read_jet, variable


CTX = GermContext(2, 2, 4)


def jets_on(ctx, span=4):
    coeff = st.fractions(min_value=-span, max_value=span, max_denominator=3)
    exps = st.tuples(*(st.integers(0, ctx.order) for _ in range(ctx.n)))
    return st.dictionaries(exps, coeff, max_size=4).map(
        lambda terms: Jet.make(ctx, terms)
    )


# -- construction and normal form ----------------------------------------


def test_crossing_product_is_zero():
    x1 = variable(CTX, 0)
    x2 = variable(CTX, 1)
    assert (x1 * x2).is_zero()


def test_binomial_product_drops_crossing_term():
    x1 = variable(CTX, 0)
    x2 = variable(CTX, 1)
    one = Jet.one(CTX)
    p = (one + x1) * (one + x2)
    assert p == one + x1 + x2


def test_truncation_kills_high_degree():
    ctx = GermContext(1, 0, 3)
    z = variable(ctx, 0)
    assert power(z, 4).is_zero()
    assert not power(z, 3).is_zero()


def test_powers_are_taken_by_squaring():
    ctx = GermContext(2, 0, 4)
    x1 = variable(ctx, 0)
    f = Jet.one(ctx) - x1 + 2 * variable(ctx, 1)
    product = Jet.one(ctx)
    for k in range(10):
        assert power(f, k) == product
        product = product * f
    start = time.monotonic()
    assert power(x1, 10**9).is_zero()
    assert power(Jet.one(ctx) + x1, 10**9) == sum(
        (math.comb(10**9, k) * power(x1, k) for k in range(5)), Jet.zero(ctx))
    assert time.monotonic() - start < 1.0


def test_make_normalizes_dead_monomials():
    j = Jet.make(CTX, {(1, 1): Fraction(5), (2, 0): Fraction(1)})
    assert (1, 1) not in j.terms
    assert j.terms[(2, 0)] == 1


def test_context_mismatch_raises():
    other = GermContext(2, 2, 5)
    with pytest.raises(ValueError, match="jets live in different contexts"):
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
    z = variable(ctx, 0)
    assert power(z, 3).partial(0) == 3 * power(z, 2)


def test_scaled_partial_is_euler_weight():
    x1 = variable(CTX, 0)
    j = power(x1, 3)
    assert j.scaled_partial(0) == 3 * j


def test_set_zero_substitutes():
    x1 = variable(CTX, 0)
    x2 = variable(CTX, 1)
    f = Jet.one(CTX) + x1 + 2 * x2
    assert f.set_zero(0) == Jet.one(CTX) + 2 * x2


def test_restrict_to_component_reindexes():
    ctx = GermContext(3, 2, 4)
    f = Jet.make(ctx, {(0, 1, 2): Fraction(7), (1, 0, 0): Fraction(3)})
    g = f.restrict_to_component(0)
    assert g.ctx == ctx.component(0)
    assert g.ctx.n == 2 and g.ctx.r == 1
    assert g.terms == {(1, 2): Fraction(7)}


def test_ring_operations_take_jets_ints_and_fractions():
    x = variable(CTX, 0)
    assert x + 1 - Fraction(1, 2) == 2 * x * Fraction(1, 2) + Jet.constant(CTX, Fraction(1, 2))
    assert 2 - x == -(x - 2)
    for text in ("1", "1/2"):
        for op in (lambda: x + text, lambda: text + x, lambda: x - text, lambda: text - x,
                   lambda: x * text, lambda: text * x):
            with pytest.raises(TypeError):
                op()


def test_invert_geometric_series():
    ctx = GermContext(1, 0, 3)
    z = variable(ctx, 0)
    inv = (Jet.one(ctx) + z).invert(3)
    assert inv == Jet.one(ctx) - z + power(z, 2) - power(z, 3)


def test_invert_rejects_nonunit():
    with pytest.raises(ValueError, match="jet has zero constant term, not invertible"):
        variable(CTX, 0).invert(CTX.order)


@settings(max_examples=40, deadline=None)
@given(jets_on(CTX))
def test_invert_is_a_right_inverse(f):
    g = f + Jet.one(CTX) - Jet.constant(CTX, f.constant_term())
    # g is f with its constant part replaced by 1, hence a unit
    assert g * g.invert(CTX.order) == Jet.one(CTX)


@settings(max_examples=40, deadline=None)
@given(jets_on(CTX), jets_on(CTX), st.integers(0, CTX.order))
def test_products_and_inverses_through_a_lower_degree(f, h, k):
    assert f.mul_to(h, k) == (f * h).truncate(k)
    g = f + 3 - Jet.constant(CTX, f.constant_term())
    assert g.invert(k) == g.invert(CTX.order).truncate(k)
    assert Jet.constant(CTX, 3).invert(k) == Jet.constant(CTX, Fraction(1, 3))


def test_univariate_extraction():
    ctx = GermContext(2, 0, 4)
    z = variable(ctx, 1)
    f = 2 * power(z, 2) - z
    assert f.univariate(1) == {2: Fraction(2), 1: Fraction(-1)}
    with pytest.raises(ValueError):
        (f + variable(ctx, 0)).univariate(1)


def test_degree_bookkeeping():
    x1 = variable(CTX, 0)
    f = x1 + power(x1, 3)
    assert f.truncate(2) == x1
    assert agree_to_order(f, x1, 2)
    assert not agree_to_order(f, x1, 3)


# -- parsing and printing ----------------------------------------------------


def test_parse_simple_polynomial():
    f = read_jet(CTX, "1/2*x1^2 + 3*x2 - 1")
    assert f.terms == {
        (2, 0): Fraction(1, 2),
        (0, 1): Fraction(3),
        (0, 0): Fraction(-1),
    }


def test_parse_with_params_and_names():
    ctx = GermContext(2, 1, 4)
    f = jet_from_string(ctx, "a*u + b", table=name_table(ctx, ["u", "t"]),
                        params={"a": Fraction(2), "b": Fraction(-1, 3)})
    assert f.terms == {(1, 0): Fraction(2), (0, 0): Fraction(-1, 3)}


def test_parse_polynomial_keeps_fraction_values():
    # the parser computes in ints where it can and hands out what it computed:
    # ints where it stayed in ints, and never a float
    names = {"x1": 0, "x2": 1, "x3": 2}
    p = parse_polynomial("3/2*x1^2*x3 - 1 + (x1 + 2)^2", names, 3, None, (math.inf, 0))
    assert p == {(2, 0, 1): Fraction(3, 2), (2, 0, 0): 1, (1, 0, 0): 4, (0, 0, 0): 3}
    assert follows_the_rule(p.values())
    q = parse_polynomial("x2/2*4 - (x1 - x1) + 6/4 - 3*lam*x3", names, 3,
                         {"lam": Fraction(1, 3)}, (math.inf, 0))
    assert q == {(0, 1, 0): 2, (0, 0, 0): Fraction(3, 2), (0, 0, 1): -1}
    assert follows_the_rule(q.values(), read=False)


def test_parser_and_make_store_ints_where_integral():
    p = parse_polynomial("2*x1", {"x1": 0}, 1, None, (math.inf, 0))
    assert p == {(1,): 2} and type(p[(1,)]) is int
    jet = Jet.make(CTX, {(1, 0): Fraction(4, 2), (0, 1): " 1/2 ", (0, 0): 3, (2, 0): "6/3"})
    assert jet.terms == {(1, 0): 2, (0, 1): Fraction(1, 2), (0, 0): 3, (2, 0): 2}
    assert follows_the_rule(jet.terms.values())
    assert follows_the_rule(read_jet(CTX, "x1/2*2 + 3*x2/3", params={}).terms.values())


def test_parse_error_carries_position():
    with pytest.raises(ExprError) as exc:
        read_jet(CTX, "x1 + + x2")
    assert exc.value.line == 1
    assert exc.value.col == 6


def test_format_round_trip():
    f = read_jet(CTX, "2*x1 - 1/3*x2^2 + 5")
    assert read_jet(CTX, formatted(f)) == f


@settings(max_examples=40, deadline=None)
@given(jets_on(CTX))
def test_format_round_trip_random(f):
    assert read_jet(CTX, formatted(f)) == f


def test_monomials_enumeration():
    ctx = GermContext(2, 2, 4)
    ms = monomials(ctx, 2)
    # the crossing product (1, 1) must not appear
    assert (1, 1) not in ms
    assert set(ms) == {(0, 0), (1, 0), (0, 1), (2, 0), (0, 2)}


# -- the fast ring operations against naive products normalised by make ------


@st.composite
def ctx_jets(draw):
    """A context with r in 0..3 and order 1..6 and two normal jets.

    Exponents run up to the order in every slot, so sums and products often
    land past the order or, for r >= 2, on the crossing product.
    """
    r = draw(st.integers(0, 3))
    n = draw(st.integers(max(r, 1), r + 2))
    ctx = GermContext(n, r, draw(st.integers(1, 6)))
    exps = st.tuples(*(st.integers(0, ctx.order) for _ in range(n)))
    coeff = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    f, g = (Jet.make(ctx, draw(st.dictionaries(exps, coeff, max_size=6))) for _ in range(2))
    return ctx, f, g


def _naive_product(f, g):
    out = {}
    for e1, c1 in f.terms.items():
        for e2, c2 in g.terms.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return Jet.make(f.ctx, out)


def _is_normal(jet):
    return Jet.make(jet.ctx, jet.terms).terms == jet.terms and follows_the_rule(
        jet.terms.values(), read=False)


@settings(max_examples=200, deadline=None)
@given(ctx_jets())
def test_fast_ring_operations_match_make_of_the_naive_result(case):
    ctx, f, g = case
    product = f * g
    assert product == _naive_product(f, g)
    total = f + g
    naive = dict(f.terms)
    for e, c in g.terms.items():
        naive[e] = naive.get(e, 0) + c
    assert total == Jet.make(ctx, naive)
    results = [product, total, f.scale(Fraction(-2, 3))]
    for i in range(ctx.n):
        d = f.partial(i)
        assert d == Jet.make(ctx, {e[:i] + (e[i] - 1,) + e[i + 1:]: c * e[i]
                                   for e, c in f.terms.items() if e[i]})
        results.append(d)
    if ctx.r >= 1 and ctx.n >= 2:
        for i in range(ctx.r):
            rest = f.restrict_to_component(i)
            assert rest == Jet.make(ctx.component(i), {e[:i] + e[i + 1:]: c
                                                       for e, c in f.terms.items() if not e[i]})
            results.append(rest)
    assert all(_is_normal(j) for j in results)


def test_make_rejects_bad_exponents_even_past_the_order():
    with pytest.raises(ValueError):
        Jet.make(CTX, {(1, 2, 0): 1})
    for e in ((-1, 1), (-1, 9), (3, -1)):
        with pytest.raises(ValueError):
            Jet.make(CTX, {e: 1})
