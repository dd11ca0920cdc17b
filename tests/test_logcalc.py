"""Logarithmic derivations: bracket, tangency, one-forms."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from logfol.jets import GermContext, Jet
from logfol.logcalc import (LogDerivation, LogOneForm, TangencyParseError, derivation_from_string,
                            derivation_table, format_derivation, lie_bracket)

from reference import basis_derivation


CTX = GermContext(3, 2, 5)


def jet_strategy(ctx, span=3):
    coeff = st.fractions(min_value=-span, max_value=span, max_denominator=2)
    exps = st.tuples(*(st.integers(0, 2) for _ in range(ctx.n)))
    return st.dictionaries(exps, coeff, max_size=3).map(
        lambda terms: Jet.make(ctx, terms)
    )


def derivation_strategy(ctx):
    return st.tuples(
        st.tuples(*(jet_strategy(ctx) for _ in range(ctx.r))),
        st.tuples(*(jet_strategy(ctx) for _ in range(ctx.n - ctx.r))),
    ).map(lambda ba: LogDerivation(ctx, ba[0], ba[1]))


# -- application and trace ---------------------------------------------------


def test_log_basis_applies_as_euler_and_partial():
    x1 = Jet.variable(CTX, 0)
    x3 = Jet.variable(CTX, 2)
    e1 = basis_derivation(CTX, 0)    # x1 d1
    e3 = basis_derivation(CTX, 2)    # d3
    assert e1.apply(x1 ** 2) == 2 * x1 ** 2
    assert e3.apply(x3 ** 2) == 2 * x3
    assert e1.apply(x3).is_zero()


def test_log_trace_sums_crossing_coefficients():
    # only the two crossing coefficients enter the trace
    v = derivation_from_string(CTX, "2*x1*dx1 - 3*x2*dx2 + x3*dx3")
    assert v.log_trace() == Jet.constant(CTX, -1)


@settings(max_examples=40, deadline=None)
@given(derivation_strategy(CTX), jet_strategy(CTX), jet_strategy(CTX))
def test_apply_is_a_derivation(v, f, g):
    lhs = v.apply(f * g)
    rhs = v.apply(f) * g + f * v.apply(g)
    assert lhs.equal_to_order(rhs, CTX.order - 1)


# -- bracket -----------------------------------------------------------------


def test_bracket_frozen_example():
    ctx = GermContext(2, 1, 4)
    v = derivation_from_string(ctx, "dx2")
    w = derivation_from_string(ctx, "x2*x1*dx1")
    br = lie_bracket(v, w)
    assert br.b[0] == Jet.one(ctx)
    assert all(c.is_zero() for c in br.a)


def test_bracket_of_commuting_basis_fields():
    for i in range(3):
        for j in range(3):
            br = lie_bracket(basis_derivation(CTX, i), basis_derivation(CTX, j))
            assert br.is_zero()


@settings(max_examples=40, deadline=None)
@given(derivation_strategy(CTX), derivation_strategy(CTX))
def test_bracket_antisymmetry(v, w):
    s = lie_bracket(v, w) + lie_bracket(w, v)
    assert s.is_zero()


@settings(max_examples=25, deadline=None)
@given(derivation_strategy(CTX), derivation_strategy(CTX), derivation_strategy(CTX))
def test_bracket_jacobi_up_to_truncation(u, v, w):
    # two derivatives get taken, so the identity is exact at order - 2
    total = (
        lie_bracket(u, lie_bracket(v, w))
        + lie_bracket(v, lie_bracket(w, u))
        + lie_bracket(w, lie_bracket(u, v))
    )
    assert total.equal_to_order(LogDerivation.zero(CTX), CTX.order - 2)


@settings(max_examples=40, deadline=None)
@given(derivation_strategy(CTX), derivation_strategy(CTX), jet_strategy(CTX))
def test_bracket_matches_commutator_of_actions(v, w, f):
    lhs = lie_bracket(v, w).apply(f)
    rhs = v.apply(w.apply(f)) - w.apply(v.apply(f))
    assert lhs.equal_to_order(rhs, CTX.order - 2)


# -- pairing with log one-forms ------------------------------------------------


def test_make_normalizes_the_dlog_representative():
    # the relation sum dx_i/x_i = du/u allows a common constant shift; the
    # stored representative puts the last dlog constant at zero
    form = LogOneForm.make(
        CTX,
        [Jet.constant(CTX, 2), Jet.constant(CTX, 3)],
        [Jet.one(CTX)],
    )
    assert form.dlog[0] == Jet.constant(CTX, -1)
    assert form.dlog[1] == Jet.zero(CTX)


# -- parsing -------------------------------------------------------------------


def test_parse_enforces_crossing_tangency():
    with pytest.raises(TangencyParseError):
        derivation_from_string(CTX, "x2*dx1")


def test_parse_rejects_missing_or_double_tokens():
    with pytest.raises(TangencyParseError):
        derivation_from_string(CTX, "x1*x2")
    with pytest.raises(TangencyParseError):
        derivation_from_string(CTX, "x1*dx1*dx2")


@pytest.mark.parametrize("low, on_bound, past", [
    ("x2*dx1", "x2^5*dx1", "x2^6*dx1"),  # not tangent to {x1 = 0}
    ("x1*dx1*dx2", "x1^4*dx1*dx2", "x1^5*dx1*dx2"),  # two derivation tokens
    ("x1*x2", "x1^3*x2^3", "x1^4*x2^3"),  # no derivation token
], ids=["non-tangent", "two tokens", "no token"])
def test_parse_reads_terms_through_the_bound(low, on_bound, past):
    # at order 4 the text is read through total degree 6 over the variables
    # and the tokens: a term within it is refused as before, and one past it
    # vanishes, as truncation is a ring map
    ctx = GermContext(2, 2, 4)
    for text in (low, on_bound, "x1*dx1 + " + on_bound):
        with pytest.raises(TangencyParseError):
            derivation_from_string(ctx, text)
    assert derivation_from_string(ctx, "x1*dx1 + " + past) == derivation_from_string(ctx, "x1*dx1")
    assert derivation_from_string(ctx, past).is_zero()


def test_parse_format_round_trip():
    v = derivation_from_string(CTX, "(1 + x3)*x1*dx1 - 2*x2*dx2 + x1*dx3")
    again = derivation_from_string(CTX, format_derivation(v))
    assert again.equal_to_order(v, CTX.order)


@settings(max_examples=30, deadline=None)
@given(derivation_strategy(CTX))
def test_parse_format_round_trip_random(v):
    text = format_derivation(v)
    if text == "0":
        assert v.is_zero()
        return
    assert derivation_from_string(CTX, text).equal_to_order(v, CTX.order)


def test_named_variables_and_params():
    ctx = GermContext(3, 3, 4)
    v = derivation_from_string(
        ctx, "lam1*y*dy + z*dz", table=derivation_table(ctx, ["x", "y", "z"]),
        params={"lam1": Fraction(5, 2)},
    )
    assert v.b[0].is_zero()
    assert v.b[1] == Jet.constant(ctx, Fraction(5, 2))
    assert v.b[2] == Jet.one(ctx)
