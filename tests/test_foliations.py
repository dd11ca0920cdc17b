"""Foliation germs, involutivity, component gluing, pushout membership."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from logfol import (
    FoliationGerm,
    GermContext,
    SNCGlueData,
    SurfaceOneForm,
    check_gluing_cocycle,
    derivation_from_string,
    involutivity_check,
    lie_bracket,
    pushout_membership,
    restrict_derivation,
    span_membership,
)
from logfol.foliations import MissingStratumError
from logfol.jets import Jet
from logfol.logcalc import LogDerivation


CTX = GermContext(3, 2, 5)


def jet_strategy(ctx, span=2):
    coeff = st.fractions(min_value=-span, max_value=span, max_denominator=2)
    exps = st.tuples(*(st.integers(0, 2) for _ in range(ctx.n)))
    return st.dictionaries(exps, coeff, max_size=2).map(
        lambda terms: Jet.make(ctx, terms)
    )


def derivation_strategy(ctx):
    return st.tuples(
        st.tuples(*(jet_strategy(ctx) for _ in range(ctx.r))),
        st.tuples(*(jet_strategy(ctx) for _ in range(ctx.n - ctx.r))),
    ).map(lambda ba: LogDerivation(ctx, ba[0], ba[1]))


# -- construction ---------------------------------------------------------


def test_foliation_requires_generators():
    with pytest.raises(ValueError):
        FoliationGerm(CTX, ())


def test_foliation_rejects_rank_above_declared():
    v = derivation_from_string(CTX, "x1*dx1")
    w = derivation_from_string(CTX, "x2*dx2")
    with pytest.raises(ValueError):
        FoliationGerm(CTX, (v, w), rank=1)
    assert FoliationGerm(CTX, (v, w), rank=2).origin_rank() == 2


# -- span membership --------------------------------------------------------


def test_span_membership_accepts_unit_multiples():
    v = derivation_from_string(CTX, "x1*dx1 - x2*dx2")
    u = Jet.one(CTX) + Jet.variable(CTX, 2)
    target = v.scale(u)
    combo = span_membership(target, (v,), CTX.order)
    assert combo is not None
    assert combo[0].equal_to_order(u, CTX.order)


def test_span_membership_rejects_outside_fields():
    v = derivation_from_string(CTX, "x1*dx1")
    w = derivation_from_string(CTX, "dx3")
    assert span_membership(w, (v,), CTX.order) is None


# -- involutivity ------------------------------------------------------------


def test_single_generator_is_involutive():
    v = derivation_from_string(CTX, "x1*dx1 + x1*dx3")
    assert involutivity_check(FoliationGerm(CTX, (v,))).ok


def test_commuting_pair_is_involutive():
    v = derivation_from_string(CTX, "x1*dx1")
    w = derivation_from_string(CTX, "x2*dx2")
    res = involutivity_check(FoliationGerm(CTX, (v, w), rank=2))
    assert res.ok and res.failing_pair is None


def test_non_involutive_pair_reports_the_pair():
    ctx = GermContext(2, 1, 4)
    v = derivation_from_string(ctx, "dx2")
    w = derivation_from_string(ctx, "x2*x1*dx1")
    # [v, w] = x1 d1 is not an O-multiple of either generator
    res = involutivity_check(FoliationGerm(ctx, (v, w), rank=2))
    assert not res.ok
    assert res.failing_pair == (0, 1)


def test_three_generators_report_the_first_bad_pair():
    v0 = derivation_from_string(CTX, "x1*dx1")
    v1 = derivation_from_string(CTX, "dx3")
    v2 = derivation_from_string(CTX, "x3*x2*dx2")
    gens = (v0, v1, v2)
    # v0 commutes with both; [v1, v2] = x2 d2 needs the coefficient 1/x3
    assert lie_bracket(v0, v1).is_zero() and lie_bracket(v0, v2).is_zero()
    assert span_membership(lie_bracket(v1, v2), gens, CTX.order - 1) is None
    res = involutivity_check(FoliationGerm(CTX, gens, rank=3))
    assert not res.ok and res.failing_pair == (1, 2) and res.order == CTX.order - 1
    # with (0, 2) and (1, 2) both bad, the first in order is reported
    gens = (v1, derivation_from_string(CTX, "2*dx3 + x1*dx1"), v2)
    assert _first_bad_pair(gens, CTX.order - 1) == (0, 2)
    assert involutivity_check(FoliationGerm(CTX, gens, rank=3)).failing_pair == (0, 2)


def _first_bad_pair(gens, d):
    """The per-pair reference: one span_membership solve per bracket."""
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            if span_membership(lie_bracket(gens[i], gens[j]), gens, d) is None:
                return (i, j)
    return None


@settings(max_examples=40, deadline=None)
@given(st.lists(derivation_strategy(GermContext(3, 2, 3)), min_size=2, max_size=4))
def test_one_echelon_finds_the_first_bad_pair_of_the_per_pair_solves(gens):
    ctx = GermContext(3, 2, 3)
    fol = FoliationGerm(ctx, tuple(gens), rank=3)
    res = involutivity_check(fol)
    assert res.failing_pair == _first_bad_pair(fol.generators, ctx.order - 1)
    assert res.ok == (res.failing_pair is None)


# -- restriction ---------------------------------------------------------------


def test_restrict_derivation_drops_the_dead_column():
    v = derivation_from_string(CTX, "(1 + x2)*x1*dx1 + 2*x2*dx2 + x3*dx3")
    w = restrict_derivation(v, 0)
    assert w.ctx == CTX.component(0)
    # surviving columns: x2 d2 becomes the single crossing column, d3 stays
    assert w.b[0] == Jet.constant(w.ctx, 2)
    assert w.a[0] == Jet.variable(w.ctx, 1)


def test_restriction_keeps_stratum_direction_terms():
    # functions on the component keep their dependence on the stratum
    # coordinates; only x_i itself is set to zero
    v = derivation_from_string(CTX, "x2*x3*x1*dx1 + x2*dx2")
    w = restrict_derivation(v, 1)
    assert w.ctx.n == 2 and w.ctx.r == 1
    assert w.b[0].is_zero()
    v2 = derivation_from_string(CTX, "x3*x1*dx1 + x2*dx2")
    w2 = restrict_derivation(v2, 1)
    assert w2.b[0] == Jet.variable(w2.ctx, 1)


@settings(max_examples=30, deadline=None)
@given(derivation_strategy(CTX), derivation_strategy(CTX), st.integers(0, 1))
def test_restriction_commutes_with_bracket(v, w, i):
    lhs = restrict_derivation(lie_bracket(v, w), i)
    rhs = lie_bracket(restrict_derivation(v, i), restrict_derivation(w, i))
    assert lhs.equal_to_order(rhs, CTX.order - 1)


# -- gluing scalars -------------------------------------------------------------


def test_scalar_orientation_is_inverse():
    glue = SNCGlueData(("A", "B"), ((0, 1, Fraction(2)),), ())
    assert glue.scalar(0, 1) == 2
    assert glue.scalar(1, 0) == Fraction(1, 2)


def test_missing_stratum_raises():
    glue = SNCGlueData(("A", "B", "C"), ((0, 1, Fraction(1)),), ())
    with pytest.raises(MissingStratumError):
        glue.scalar(0, 2)


def test_conflicting_scalars_rejected():
    with pytest.raises(ValueError):
        SNCGlueData(
            ("A", "B"),
            ((0, 1, Fraction(2)), (1, 0, Fraction(2))),
            (),
        )


def test_cocycle_passes_for_trivial_scalars():
    glue = SNCGlueData(
        ("A", "B", "C"),
        ((0, 1, Fraction(1)), (1, 2, Fraction(1)), (0, 2, Fraction(1))),
        ((0, 1, 2),),
    )
    assert check_gluing_cocycle(glue).ok


@pytest.mark.parametrize("lam", [Fraction(2), Fraction(3), Fraction(1, 2), Fraction(-1)])
def test_cocycle_fails_with_certificate(lam):
    glue = SNCGlueData(
        ("A", "B", "C"),
        ((0, 1, lam), (1, 2, Fraction(1)), (0, 2, Fraction(1))),
        ((0, 1, 2),),
    )
    res = check_gluing_cocycle(glue)
    assert not res.ok
    ((i, j, k, prod),) = res.failures
    assert (i, j, k) == (0, 1, 2)
    # product around the triple: lam * 1 * 1, read along 0 -> 1 -> 2 -> 0
    assert prod == lam


# -- pushout membership -----------------------------------------------------------


def comp_foliation(ctx_total, i, text):
    ctx = ctx_total.component(i)
    return FoliationGerm(ctx, (derivation_from_string(ctx, text),))


def test_pushout_accepts_global_euler_field():
    # the relative Euler field restricts to the component Euler fields
    v = derivation_from_string(CTX, "x1*dx1 - x2*dx2")
    fols = [
        comp_foliation(CTX, 0, "x1*dx1"),
        comp_foliation(CTX, 1, "x1*dx1"),
    ]
    res = pushout_membership(v, fols)
    assert res.ok
    assert res.failing_component is None


def test_pushout_reports_failing_component():
    v = derivation_from_string(CTX, "x1*dx1 - x2*dx2")
    fols = [
        comp_foliation(CTX, 0, "x1*dx1"),
        comp_foliation(CTX, 1, "dx2"),
    ]
    res = pushout_membership(v, fols)
    assert not res.ok
    assert res.failing_component == 1


def test_pushout_sequence_input_checks_agreement():
    fields = [
        derivation_from_string(CTX.component(0), "x1*dx1 + x2*dx2"),
        derivation_from_string(CTX.component(1), "x1*dx1 - x2*dx2"),
    ]
    fols = [
        comp_foliation(CTX, 0, "x1*dx1 + x2*dx2"),
        comp_foliation(CTX, 1, "x1*dx1 - x2*dx2"),
    ]
    with pytest.raises(ValueError):
        pushout_membership(fields, fols, germ_ctx=CTX)


def test_pushout_nodal_branches_need_no_agreement():
    ctx = GermContext(2, 2, 5)
    fields = [
        derivation_from_string(ctx.component(0), "x1*dx1"),
        derivation_from_string(ctx.component(1), "2*x1*dx1"),
    ]
    fols = [
        comp_foliation(ctx, 0, "x1*dx1"),
        comp_foliation(ctx, 1, "x1*dx1"),
    ]
    res = pushout_membership(fields, fols, germ_ctx=ctx)
    assert res.ok


# -- surface forms ------------------------------------------------------------------


def surface_ctx(order=6):
    return GermContext(2, 0, order)


def test_invariance_detection():
    ctx = surface_ctx()
    y = Jet.variable(ctx, 0)
    z = Jet.variable(ctx, 1)
    assert SurfaceOneForm(z, -2 * y).curve_is_invariant()
    assert not SurfaceOneForm(z, z).curve_is_invariant()
