"""Foliation germs, involutivity, component gluing, pushout membership."""

import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from logfol import cli, foliations, linalg
from logfol.foliations import (
    FoliationGerm,
    MissingStratumError,
    SNCGlueData,
    SurfaceOneForm,
    _span_system,
    check_gluing_cocycle,
    disagreeing_stratum,
    involutivity_check,
    pushout_membership,
    restrict_derivation,
    span_membership,
)
from logfol.jets import GermContext, Jet
from logfol.logcalc import LogDerivation, derivation_from_string, lie_bracket

from reference import at_order, monomials


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
        FoliationGerm(CTX, (), rank=1)


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
    combo = span_membership(target, (v,))
    assert combo is not None
    assert combo[0].equal_to_order(u, CTX.order)


def test_span_membership_rejects_outside_fields():
    v = derivation_from_string(CTX, "x1*dx1")
    w = derivation_from_string(CTX, "dx3")
    assert span_membership(w, (v,)) is None


# -- involutivity ------------------------------------------------------------


def test_single_generator_is_involutive():
    v = derivation_from_string(CTX, "x1*dx1 + x1*dx3")
    assert involutivity_check(FoliationGerm(CTX, (v,), rank=1)).ok


def test_commuting_pair_is_involutive():
    v = derivation_from_string(CTX, "x1*dx1")
    w = derivation_from_string(CTX, "x2*dx2")
    res = involutivity_check(FoliationGerm(CTX, (v, w), rank=2))
    assert res.ok and res.failing_pair is None


@pytest.mark.parametrize("fields", [
    ("x1*dx1 + 2*x2*dx2 - 3*x3*dx3", "2*x1*dx1 - x2*dx2 - x3*dx3"),
    # [x3 d3, x3^5 d3] = 4 x3^5 d3 is past the order 4 the check decides at
    ("x3*dx3", "x3^5*dx3"),
], ids=["commuting", "zero through the order"])
def test_brackets_zero_through_the_order_are_not_pivoted(monkeypatch, fields):
    def refuse(*args):
        raise AssertionError("a bracket that is zero through the order was pivoted")

    monkeypatch.setattr(foliations, "_UnitPivots", refuse)
    gens = tuple(derivation_from_string(CTX, f) for f in fields)
    res = involutivity_check(FoliationGerm(CTX, gens, rank=2))
    assert res.ok and res.failing_pair is None and res.order == CTX.order - 1


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
    assert span_membership(at_order(lie_bracket(v1, v2), CTX.order - 1),
                           [at_order(g, CTX.order - 1) for g in gens]) is None
    res = involutivity_check(FoliationGerm(CTX, gens, rank=3))
    assert not res.ok and res.failing_pair == (1, 2) and res.order == CTX.order - 1
    # with (0, 2) and (1, 2) both bad, the first in order is reported
    gens = (v1, derivation_from_string(CTX, "2*dx3 + x1*dx1"), v2)
    assert _first_bad_pair(gens, CTX.order - 1) == (0, 2)
    assert involutivity_check(FoliationGerm(CTX, gens, rank=3)).failing_pair == (0, 2)


def test_unit_pivots_that_leave_no_free_generator_decide_alone():
    # both generators have a unit coefficient, so the unit pivots take them
    # both and the system has no unknown; [dx1, dx2 + x1*dx3] = dx3 is left
    # over, a row with only its right-hand side
    ctx = GermContext(3, 0, 4)
    gens = (derivation_from_string(ctx, "dx1"), derivation_from_string(ctx, "dx2 + x1*dx3"))
    assert not foliations._UnitPivots(gens, [lie_bracket(*gens)], 3).free
    res = involutivity_check(FoliationGerm(ctx, gens, rank=2))
    assert not res.ok and res.failing_pair == (0, 1) and res.order == 3
    assert _first_bad_pair(gens, 3) == (0, 1)


def _first_bad_pair(gens, d):
    """The per-pair reference: one full-system solve per bracket."""
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            if _full_system_solve(gens, lie_bracket(gens[i], gens[j]), d)[0] is None:
                return (i, j)
    return None


def _full_system_solve(gens, target, d):
    """The test oracle: (coefficients or None, unique?) from one solve of the
    whole system _span_rows_oracle over gens and target, with no unit pivots."""
    monos, n, rows = _span_rows_oracle([g.components() for g in gens], (target.components(),), d)
    sol = linalg.solution(linalg.echelon(rows.values(), n + 1), n)
    if sol is None:
        return None, False
    unique = linalg.rank([{c: v for c, v in row.items() if c < n} for row in rows.values()]) == n
    coeffs = tuple(
        Jet(target.ctx, {e: sol[k * len(monos) + i] for i, e in enumerate(monos)
                         if sol[k * len(monos) + i]})
        for k in range(len(gens)))
    return coeffs, unique


@settings(max_examples=40, deadline=None)
@given(st.lists(derivation_strategy(GermContext(3, 2, 3)), min_size=2, max_size=4))
def test_one_echelon_finds_the_first_bad_pair_of_the_per_pair_solves(gens):
    ctx = GermContext(3, 2, 3)
    fol = FoliationGerm(ctx, tuple(gens), rank=min(3, len(gens)))
    res = involutivity_check(fol)
    assert res.failing_pair == _first_bad_pair(fol.generators, ctx.order - 1)
    assert res.ok == (res.failing_pair is None)


SPAN_CTXS = (GermContext(2, 2, 3), GermContext(3, 2, 3), GermContext(3, 3, 3),
             GermContext(3, 1, 3), GermContext(4, 3, 2))


@st.composite
def span_problems(draw):
    """Generators regular, partly degenerate or fully degenerate at the origin,
    and a target that is a random combination of them or a random field,
    with an order d from 0 to the context's: for d >= 1 all of them are
    read again on the germ at order d (at_order)."""
    ctx = draw(st.sampled_from(SPAN_CTXS))
    kind = draw(st.sampled_from(("regular", "partly", "degenerate")))
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        regular = kind == "regular" or (kind == "partly" and draw(st.booleans()))
        comps = []
        for _ in range(ctx.n):
            jet = draw(jet_strategy(ctx))
            jet = Jet(ctx, {e: c for e, c in jet.terms.items() if any(e)})
            if regular:
                jet = jet + draw(st.integers(-2, 2))
            comps.append(jet)
        if regular and all(not c.constant_term() for c in comps):
            comps[draw(st.integers(0, ctx.n - 1))] += 1
        gens.append(LogDerivation(ctx, comps[:ctx.r], comps[ctx.r:]))
    if draw(st.booleans()):
        target = LogDerivation.zero(ctx)
        for g in gens:
            target = target + g.scale(draw(jet_strategy(ctx)))
    else:
        target = draw(derivation_strategy(ctx))
    d = draw(st.integers(0, ctx.order))
    if d:
        return tuple(at_order(g, d) for g in gens), at_order(target, d), d
    return tuple(gens), target, d


@settings(max_examples=300, deadline=None)
@given(span_problems())
def test_unit_pivots_agree_with_the_full_system(problem):
    # at d = 0, below every germ's order, the solve is asked directly
    gens, target, d = problem
    want, unique = _full_system_solve(gens, target, d)
    got = span_membership(target, gens) if d else foliations._solve_span(target, gens, 0)
    assert (got is None) == (want is None)
    if unique:
        assert got == want


def test_span_membership_splits_off_units_without_a_system(monkeypatch):
    # the target reduces to zero, then the only generator splits off: neither
    # system has an unknown, and the second is a right-hand side alone
    ctx = GermContext(4, 3, 6)
    v = derivation_from_string(ctx, "(1 + x4)*x1*dx1 + 2*x2*dx2 + x3*dx4")
    w = derivation_from_string(ctx, "x2*dx2 + dx4")
    u = Jet.one(ctx) + Jet.variable(ctx, 0)
    target = v.scale(u) + w.scale(Jet.variable(ctx, 3))
    want, unique = _full_system_solve((v, w), target, ctx.order)
    systems = []
    full = foliations._span_system

    def spy(columns, targets, order):
        out = full(columns, targets, order)
        systems.append(out)
        return out

    monkeypatch.setattr(foliations, "_span_system", spy)
    assert unique and span_membership(target, (v, w)) == want
    assert span_membership(target + w.scale(Jet.variable(ctx, 1) * Jet.variable(ctx, 2)
                                            * Jet.variable(ctx, 3)), (v,)) is None
    assert [unknowns for unknowns, _ in systems] == [[], []]
    assert not systems[0][1] and systems[1][1]


def test_unit_pivots_invert_the_unit_entry_with_fewest_terms(monkeypatch):
    # v's entries 1 + x4 + x1 at x1 d1 and 2 at x2 d2 are both units: the
    # constant is the pivot, and no Newton inverse through the order is taken
    ctx = GermContext(4, 3, 12)
    v = derivation_from_string(ctx, "(1 + x4 + x1)*x1*dx1 + 2*x2*dx2 - 3*x3*dx3")
    w = derivation_from_string(ctx, "x4*dx4")
    u1 = Jet.one(ctx) + Jet.variable(ctx, 0) + Jet.variable(ctx, 3)
    u2 = Jet.one(ctx) + Jet.variable(ctx, 1)
    inverted = []
    invert = Jet.invert

    def spy(self, degree=None):
        inverted.append(self)
        return invert(self, degree)

    monkeypatch.setattr(Jet, "invert", spy)
    assert span_membership(v.scale(u1) + w.scale(u2), (v, w)) == (u1, u2)
    assert inverted and all(len(j.terms) == 1 for j in inverted)


NONCOMMUTING = {"v": "x1*dx1 + 2*x2*dx2 - 3*x3*dx3", "w": "2*x1*x4*dx4"}


def test_non_commuting_pair_leaves_a_system_and_is_involutive(monkeypatch, tmp_path, capsys):
    # [v, w] = w: v splits off as a unit pivot, w lies in the maximal ideal,
    # so the bracket goes to a system over w alone on the rows v leaves
    ctx = GermContext(4, 3, 8)
    v = derivation_from_string(ctx, NONCOMMUTING["v"])
    w = derivation_from_string(ctx, NONCOMMUTING["w"])
    assert lie_bracket(v, w).equal_to_order(w, ctx.order - 1)
    systems = []
    full = foliations._span_system

    def spy(gens, targets, order):
        systems.append((len(gens), len(targets)))
        return full(gens, targets, order)

    monkeypatch.setattr(foliations, "_span_system", spy)
    res = involutivity_check(FoliationGerm(ctx, (v, w), rank=2))
    assert res.ok and res.order == ctx.order - 1 and systems == [(1, 1)]
    assert _first_bad_pair((v, w), ctx.order - 1) is None
    scene = tmp_path / "noncommuting.json"
    scene.write_text(json.dumps({"order": 8, "germ": {"n": 4, "r": 3}, "fields": NONCOMMUTING,
                                 "foliation": {"generators": ["v", "w"], "rank": 2}}))
    assert cli.main(["semistable", "check", str(scene)]) == 0
    assert capsys.readouterr().out == (
        "yes: flat unit exists at order 8 (one of several)\n  unit = 1\n")


def _involutivity_systems(monkeypatch, ctx, fields):
    """involutivity_check's result and the systems _span_system built."""
    systems = []
    full = foliations._span_system

    def spy(columns, targets, order):
        out = full(columns, targets, order)
        systems.append(out)
        return out

    monkeypatch.setattr(foliations, "_span_system", spy)
    gens = tuple(derivation_from_string(ctx, f) for f in fields)
    return involutivity_check(FoliationGerm(ctx, gens, rank=len(gens))), systems


def _shape(system):
    unknowns, rows = system
    return len(rows), len(unknowns), sum(map(len, rows.values()))


def test_non_commuting_pair_at_order_40_shifts_nothing_past_the_order(monkeypatch):
    # v splits off as a unit pivot and [v, w] = w = 2 x1 x4 d4 is left: its
    # one row reaches the unknown of w's constant coefficient, whose column
    # reaches that row alone
    ctx = GermContext(4, 3, 40)
    res, systems = _involutivity_systems(monkeypatch, ctx, NONCOMMUTING.values())
    assert res.ok and res.order == 39
    ctx = GermContext(4, 3, 39)
    v, w = (derivation_from_string(ctx, f) for f in NONCOMMUTING.values())
    unit = Jet.one(ctx) + Jet.variable(ctx, 3)
    assert span_membership(w.scale(unit), (v, w)) == (Jet.zero(ctx), unit)
    assert [_shape(system) for system in systems] == [(1, 1, 2), (2, 2, 4)]


def test_fully_degenerate_pair_at_order_40_reaches_two_rows(monkeypatch):
    # no generator has a unit entry and [v, w] = -v: its two rows reach the
    # unknown of v's constant coefficient and no other
    ctx = GermContext(4, 3, 40)
    res, systems = _involutivity_systems(monkeypatch, ctx, ("x4*x1*dx1 - x4*x2*dx2", "x4*dx4"))
    assert res.ok and res.order == 39
    assert _shape(systems[0]) == (2, 1, 4)


def _span_rows_oracle(columns, targets, order):
    """The whole system over every monomial through the order: its
    monomials, column count and rows, column k * len(monos) + i formed as
    x^monos[i] * columns[k] with the public product and cut past the order,
    column ncols + p as targets[p]."""
    ctx = targets[0][0].ctx
    monos = monomials(ctx, order)
    ncols = len(columns) * len(monos)
    rows = {}
    for k, comps in enumerate(columns):
        for i, comp in enumerate(comps):
            for j, m in enumerate(monos):
                for e, c in (comp * Jet.make(ctx, {m: 1})).truncate(order).terms.items():
                    rows.setdefault((i, e), {})[k * len(monos) + j] = c
    for p, comps in enumerate(targets):
        for i, comp in enumerate(comps):
            for e, c in comp.truncate(order).terms.items():
                rows.setdefault((i, e), {})[ncols + p] = c
    return monos, ncols, rows


@st.composite
def span_system_inputs(draw):
    """r in 0..3 and order 1..6, 1-3 generators and 1-2 targets of n
    component jets each, and a system order up to the context's.  Exponents
    run up to the order in every slot, so products often land past the order
    or, for r >= 2, on the crossing product."""
    r = draw(st.integers(0, 3))
    n = draw(st.integers(max(r, 1), r + 2))
    ctx = GermContext(n, r, draw(st.integers(1, 6)))
    exps = st.tuples(*(st.integers(0, ctx.order) for _ in range(n)))
    coeff = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    comps = st.lists(st.dictionaries(exps, coeff, max_size=3).map(lambda t: Jet.make(ctx, t)),
                     min_size=n, max_size=n)
    return (draw(st.lists(comps, min_size=1, max_size=3)),
            draw(st.lists(comps, min_size=1, max_size=2)), draw(st.integers(0, ctx.order)))


def _padded(ctx, *comps):
    return tuple(comps) + (Jet.zero(ctx),) * (ctx.n - len(comps))


CROSSING = GermContext(4, 3, 4)
# x3 * F drops x1 x2 x3 on the crossing; x3^2 * F drops x3^2 x4^3 past the order
F = Jet.make(CROSSING, {(1, 1, 0, 0): 2, (0, 0, 0, 3): 1, (0, 2, 0, 0): -1, (1, 0, 0, 0): 5})
SMOOTH = GermContext(2, 1, 4)  # a single marked branch imposes no product relation


@settings(max_examples=200, deadline=None)
@given(span_system_inputs())
@example(([_padded(CROSSING, F)], [_padded(CROSSING, F)], 4))
@example(([_padded(CROSSING, Jet.zero(CROSSING), Jet.zero(CROSSING), F)],
          [_padded(CROSSING, Jet.variable(CROSSING, 2))], 3))
@example(([_padded(SMOOTH, Jet.variable(SMOOTH, 1), Jet.variable(SMOOTH, 1))],
          [_padded(SMOOTH, Jet.one(SMOOTH))], 4))
def test_span_system_rows_match_public_products(case):
    # the built block is closed both ways: every row's oracle entries lie on
    # reached unknowns, and every reached unknown's oracle column on built rows
    columns, targets, order = case
    unknowns, system = _span_system(columns, targets, order)
    monos, ncols, rows = _span_rows_oracle(columns, targets, order)
    col = {(k, m): k * len(monos) + j for k in range(len(columns)) for j, m in enumerate(monos)}
    oracle_col = [col[u] for u in unknowns] + [ncols + p for p in range(len(targets))]
    assert all(key in system for key, row in rows.items() if max(row) >= ncols)
    assert {key: {oracle_col[j]: c for j, c in row.items()} for key, row in system.items()} \
        == {key: rows[key] for key in system}
    reached = {col[u] for u in unknowns}
    assert all(key in system for key, row in rows.items() if reached & row.keys())
    assert unknowns == sorted(set(unknowns), key=lambda u: (u[0], sum(u[1]), u[1]))


def test_a_corrupted_span_solve_is_an_internal_error(monkeypatch, capsys):
    solve = foliations._solve_span

    def corrupted(target, generators, order):
        coeffs = solve(target, generators, order)
        return coeffs and (coeffs[0] + 1,) + coeffs[1:]

    scene = str(Path(__file__).resolve().parent.parent / "scenes" / "pushout_euler.json")
    assert cli.main(["pushout", "member", scene]) == 0
    capsys.readouterr()
    monkeypatch.setattr(foliations, "_solve_span", corrupted)
    assert cli.main(["pushout", "member", scene]) == 4
    assert capsys.readouterr().out.startswith(
        "internal: internal error: RuntimeError: span membership certificate failed")


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
    with pytest.raises(MissingStratumError) as err:
        glue.scalar(0, 2)
    # an input error, read as one by the command line, and printed as written
    assert isinstance(err.value, ValueError)
    assert str(err.value) == "no scalar recorded for stratum A|C"


def test_a_triple_needs_a_scalar_on_each_double_stratum():
    # refused when the glue data is built, naming the first stratum that
    # check_gluing_cocycle would read and find empty
    for scalars, missing in ((((0, 1, 1),), "B|C"), (((0, 1, 1), (2, 1, 3)), "A|C")):
        with pytest.raises(MissingStratumError) as err:
            SNCGlueData(("A", "B", "C"), scalars, ((2, 0, 1),))
        assert str(err.value) == "no scalar recorded for stratum " + missing


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
    return FoliationGerm(ctx, (derivation_from_string(ctx, text),), rank=1)


def restrictions(v):
    return [restrict_derivation(v, i) for i in range(v.ctx.r)]


def test_pushout_accepts_global_euler_field():
    # the relative Euler field restricts to the component Euler fields
    v = derivation_from_string(CTX, "x1*dx1 - x2*dx2")
    fols = [
        comp_foliation(CTX, 0, "x1*dx1"),
        comp_foliation(CTX, 1, "x1*dx1"),
    ]
    assert disagreeing_stratum(restrictions(v)) is None
    res = pushout_membership(restrictions(v), fols, CTX)
    assert res.ok
    assert res.failing_component is None


def test_pushout_reports_failing_component():
    v = derivation_from_string(CTX, "x1*dx1 - x2*dx2")
    fols = [
        comp_foliation(CTX, 0, "x1*dx1"),
        comp_foliation(CTX, 1, "dx2"),
    ]
    res = pushout_membership(restrictions(v), fols, CTX)
    assert not res.ok
    assert res.failing_component == 1


def test_pushout_sequence_input_checks_agreement():
    fields = [
        derivation_from_string(CTX.component(0), "x1*dx1 + x2*dx2"),
        derivation_from_string(CTX.component(1), "x1*dx1 - x2*dx2"),
    ]
    assert disagreeing_stratum(fields) == (0, 1)


def test_the_first_disagreeing_pair_is_named():
    # a x1 dx1 + b x2 dx2 + c x3 dx3 restricts to b x1 dx1 + c x2 dx2 on
    # {x1 = 0}, a x1 dx1 + c x2 dx2 on {x2 = 0} and a x1 dx1 + b x2 dx2 on
    # {x3 = 0}: below, (0, 1) agree on c and (0, 2) are the first to differ
    ctx = GermContext(3, 3, 4)

    def fields(*texts):
        return [derivation_from_string(ctx.component(i), t) for i, t in enumerate(texts)]

    assert disagreeing_stratum(fields("x1*dx1 + 3*x2*dx2", "2*x1*dx1 + 3*x2*dx2",
                                      "2*x1*dx1 + 5*x2*dx2")) == (0, 2)
    assert disagreeing_stratum(fields("x1*dx1 + 3*x2*dx2", "2*x1*dx1 + 3*x2*dx2",
                                      "7*x1*dx1 + x2*dx2")) == (1, 2)
    assert disagreeing_stratum(fields("x1*dx1 + 3*x2*dx2", "2*x1*dx1 + 3*x2*dx2",
                                      "2*x1*dx1 + x2*dx2")) is None
    assert disagreeing_stratum(restrictions(derivation_from_string(
        ctx, "2*x1*dx1 + x2*dx2 + 3*x3*dx3"))) is None


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
    # curve branches meet in a point: nothing is compared
    assert disagreeing_stratum(fields) is None
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
