"""Logarithmic derivations: bracket, tangency, one-forms."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from logfol.jets import GermContext, Jet
from logfol.logcalc import (LogDerivation, LogOneForm, derivation_from_string, derivation_table,
                            lie_bracket)
from logfol.semistability import cs_index_log

from reference import (add_fields, agree_to_order, basis_derivation, format_derivation,
                       is_zero_field, power, read_field, variable, zero_field)


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
    x1 = variable(CTX, 0)
    x3 = variable(CTX, 2)
    e1 = basis_derivation(CTX, 0)    # x1 d1
    e3 = basis_derivation(CTX, 2)    # d3
    assert e1.apply(power(x1, 2)) == 2 * power(x1, 2)
    assert e3.apply(power(x3, 2)) == 2 * x3
    assert e1.apply(x3).is_zero()


def test_log_trace_sums_crossing_coefficients():
    # only the two crossing coefficients enter the trace
    v = read_field(CTX, "2*x1*dx1 - 3*x2*dx2 + x3*dx3")
    assert v.log_trace() == Jet.constant(CTX, -1)


@settings(max_examples=40, deadline=None)
@given(derivation_strategy(CTX), jet_strategy(CTX), jet_strategy(CTX))
def test_apply_is_a_derivation(v, f, g):
    lhs = v.apply(f * g)
    rhs = v.apply(f) * g + f * v.apply(g)
    assert agree_to_order(lhs, rhs, CTX.order - 1)


# -- bracket -----------------------------------------------------------------


def test_bracket_frozen_example():
    ctx = GermContext(2, 1, 4)
    v = read_field(ctx, "dx2")
    w = read_field(ctx, "x2*x1*dx1")
    br = lie_bracket(v, w)
    assert br.b[0] == Jet.one(ctx)
    assert all(c.is_zero() for c in br.a)


def test_bracket_of_commuting_basis_fields():
    for i in range(3):
        for j in range(3):
            br = lie_bracket(basis_derivation(CTX, i), basis_derivation(CTX, j))
            assert is_zero_field(br)


@settings(max_examples=40, deadline=None)
@given(derivation_strategy(CTX), derivation_strategy(CTX))
def test_bracket_antisymmetry(v, w):
    assert is_zero_field(add_fields(lie_bracket(v, w), lie_bracket(w, v)))


@settings(max_examples=25, deadline=None)
@given(derivation_strategy(CTX), derivation_strategy(CTX), derivation_strategy(CTX))
def test_bracket_jacobi_up_to_truncation(u, v, w):
    # two derivatives get taken, so the identity is exact at order - 2
    total = add_fields(
        add_fields(lie_bracket(u, lie_bracket(v, w)), lie_bracket(v, lie_bracket(w, u))),
        lie_bracket(w, lie_bracket(u, v)))
    assert agree_to_order(total, zero_field(CTX), CTX.order - 2)


@settings(max_examples=40, deadline=None)
@given(derivation_strategy(CTX), derivation_strategy(CTX), jet_strategy(CTX))
def test_bracket_matches_commutator_of_actions(v, w, f):
    lhs = lie_bracket(v, w).apply(f)
    rhs = v.apply(w.apply(f)) - w.apply(v.apply(f))
    assert agree_to_order(lhs, rhs, CTX.order - 2)


# -- pairing with log one-forms ------------------------------------------------


def test_the_dlog_coefficients_are_kept_as_given():
    # the relation sum dx_i/x_i = du/u allows a common constant shift; the
    # form keeps the coefficients as given, and the index reads only their
    # differences, so a shifted representative has the same index
    ctx = GermContext(3, 3, 5)
    forms = [LogOneForm(ctx, [Jet.constant(ctx, c + shift) for c in (1, 2, 4)], [])
             for shift in (0, Fraction(-7, 2))]
    assert [c.constant_term() for c in forms[1].dlog] == [Fraction(-5, 2), Fraction(-3, 2),
                                                          Fraction(1, 2)]
    for i, j in ((0, 1), (1, 2), (2, 0)):
        assert cs_index_log(forms[0], i, j) == cs_index_log(forms[1], i, j)


def test_a_log_one_form_needs_a_crossing_variable():
    # refused before any coefficient is read, so an empty dlog list is no crash
    ctx = GermContext(2, 0, 5)
    with pytest.raises(ValueError, match="a log one-form needs at least one crossing variable"):
        LogOneForm(ctx, [], [Jet.one(ctx), variable(ctx, 0)])


# -- parsing -------------------------------------------------------------------


NOT_TANGENT = "the field is not tangent to the crossing locus"
ONE_TOKEN = "each term must contain exactly one derivation token"


def test_parse_enforces_crossing_tangency():
    with pytest.raises(ValueError, match=NOT_TANGENT):
        read_field(CTX, "x2*dx1")


def test_parse_rejects_missing_or_double_tokens():
    with pytest.raises(ValueError, match=ONE_TOKEN):
        read_field(CTX, "x1*x2")
    with pytest.raises(ValueError, match=ONE_TOKEN):
        read_field(CTX, "x1*dx1*dx2")


@pytest.mark.parametrize("low, on_bound, past, message", [
    ("x2*dx1", "x2^5*dx1", "x2^6*dx1", NOT_TANGENT),  # not tangent to {x1 = 0}
    ("x1*dx1*dx2", "x1^4*dx1*dx2", "x1^5*dx1*dx2", ONE_TOKEN),  # two derivation tokens
    ("x1*x2", "x1^3*x2^3", "x1^4*x2^3", ONE_TOKEN),  # no derivation token
], ids=["non-tangent", "two tokens", "no token"])
def test_parse_reads_terms_through_the_bound(low, on_bound, past, message):
    # at order 4 the text is read through total degree 6 over the variables
    # and the tokens: a term within it is refused as before, and one past it
    # vanishes, as truncation is a ring map
    ctx = GermContext(2, 2, 4)
    for text in (low, on_bound, "x1*dx1 + " + on_bound):
        with pytest.raises(ValueError, match=message):
            read_field(ctx, text)
    assert read_field(ctx, "x1*dx1 + " + past) == read_field(ctx, "x1*dx1")
    assert is_zero_field(read_field(ctx, past))


def test_parse_format_round_trip():
    v = read_field(CTX, "(1 + x3)*x1*dx1 - 2*x2*dx2 + x1*dx3")
    again = read_field(CTX, format_derivation(v))
    assert agree_to_order(again, v, CTX.order)


@settings(max_examples=30, deadline=None)
@given(derivation_strategy(CTX))
def test_parse_format_round_trip_random(v):
    text = format_derivation(v)
    if text == "0":
        assert is_zero_field(v)
        return
    assert agree_to_order(read_field(CTX, text), v, CTX.order)


def test_named_variables_and_params():
    ctx = GermContext(3, 3, 4)
    v = derivation_from_string(
        ctx, "lam1*y*dy + z*dz", table=derivation_table(ctx, ["x", "y", "z"]),
        params={"lam1": Fraction(5, 2)},
    )
    assert v.b[0].is_zero()
    assert v.b[1] == Jet.constant(ctx, Fraction(5, 2))
    assert v.b[2] == Jet.one(ctx)
