"""Flat units along the crossing locus and residue indices.

The oracle for the flat-unit solver assembles the full linear system in one
shot over all usable equation degrees and solves it once, independently of
the degree-by-degree search in the library.
"""

import random
import sys
from collections import Counter
from fractions import Fraction
from operator import add
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from logfol import cli, linalg, semistability
from logfol.foliations import (FoliationGerm, InconclusiveAtOrderError, InvolutivityResult,
                               NonInvariantError, SurfaceOneForm, span_membership)
from logfol.jets import GermContext, Jet, format_jet
from logfol.logcalc import LogDerivation, LogOneForm, derivation_from_string
from logfol.semistability import (
    FlatUnitResult,
    HolonomyData,
    ResonanceError,
    check_holonomy_compatibility,
    check_normal_degrees,
    cs_index_log,
    cs_index_surface,
    find_flat_unit,
    laurent_residue,
    nabla,
    t1_monomial_alive,
    t1_reduce,
)

from identities import _field_keeping_flat
from reference import at_order, monomials


# -- oracle -------------------------------------------------------------------


def flat_unit_exists_oracle(fol, order):
    """One-shot solvability of nabla_v(1 + sum c_e x^e) = 0, degrees < order."""
    ctx = fol.ctx
    unknowns = [
        e for e in monomials(ctx, order)
        if sum(e) >= 1 and t1_monomial_alive(ctx, e)
    ]
    rows = []
    rhs = []
    eq_index = {}
    for v in fol.generators:
        tr = v.log_trace()
        images = [t1_reduce(v.apply(Jet.make(ctx, {e: 1})) - tr * Jet.make(ctx, {e: 1}))
                  for e in unknowns]
        const = t1_reduce(v.apply(Jet.one(ctx)) - tr)
        coords = set(const.terms)
        for img in images:
            coords |= set(img.terms)
        for e_out in sorted(coords):
            if sum(e_out) >= order:
                continue
            rows.append({k: img.terms[e_out] for k, img in enumerate(images) if e_out in img.terms})
            rhs.append(-const.terms.get(e_out, Fraction(0)))
            eq_index[len(rows) - 1] = (id(v), e_out)
    if not unknowns:
        return all(c == 0 for c in rhs)
    return linalg.solve(linalg.SparseRows(rows, len(unknowns)), rhs) is not None


def node_field(ctx, lam1, lam2):
    b = (Jet.constant(ctx, lam1), Jet.constant(ctx, lam2))
    return LogDerivation(ctx, b, ())


# -- T1 bookkeeping -------------------------------------------------------------


def test_t1_aliveness_pattern():
    ctx = GermContext(3, 3, 6)
    assert t1_monomial_alive(ctx, (0, 0, 0))
    assert t1_monomial_alive(ctx, (4, 0, 0))
    assert not t1_monomial_alive(ctx, (1, 1, 0))
    assert not t1_monomial_alive(ctx, (0, 2, 3))


def test_t1_is_zero_for_few_branches():
    assert not t1_monomial_alive(GermContext(2, 1, 4), (0, 0))
    assert not t1_monomial_alive(GermContext(2, 0, 4), (0, 0))


def test_t1_reduce_is_multiplicative_on_the_quotient():
    ctx = GermContext(3, 3, 5)
    f = Jet.make(ctx, {(1, 1, 0): Fraction(2), (1, 0, 0): Fraction(1)})
    g = Jet.make(ctx, {(1, 0, 0): Fraction(3), (0, 0, 1): Fraction(1)})
    lhs = t1_reduce(f * g)
    rhs = t1_reduce(t1_reduce(f) * t1_reduce(g))
    assert lhs == rhs


def test_nabla_of_the_constant_section():
    ctx = GermContext(2, 2, 6)
    v = derivation_from_string(ctx, "x1*dx1")
    assert nabla(v, Jet.one(ctx)) == Jet.constant(ctx, -1)


def test_nabla_leibniz_in_t1():
    ctx = GermContext(3, 3, 6)
    v = derivation_from_string(ctx, "x1*dx1 + 2*x2*dx2 - x3*dx3")
    h = Jet.one(ctx) + Jet.variable(ctx, 0)
    g = Jet.variable(ctx, 1) ** 2
    lhs = nabla(v, h * g)
    rhs = t1_reduce(v.apply(h) * g) + t1_reduce(h * nabla(v, g))
    assert lhs.equal_to_order(rhs, ctx.order - 1)


def at_order_foliation(fol, order):
    """fol with every generator read on its germ at order (at_order)."""
    gens = tuple(at_order(v, order) for v in fol.generators)
    return FoliationGerm(gens[0].ctx, gens, rank=fol.rank)


def random_fields(rng, count):
    """Foliations of one or two random generators.

    Crossing counts r = 0, 1, 2 and n; int and Fraction coefficients, smooth
    directions, and half of the fields past order 2 are read again one
    order below the germ they were drawn on (at_order_foliation).  Half of
    the fields whose T1 has unknowns are built around a random unit they
    keep flat (_field_keeping_flat), so that "yes" answers with
    units other than 1 occur; most others are traceless at the origin.
    """
    span = [Fraction(k, d) for k in range(-3, 4) for d in (1, 1, 1, 2, 3)]
    out = []
    for _ in range(count):
        n = rng.randint(2, 4)
        r = rng.choice((0, 1, 2, 2, n, n))
        ctx = GermContext(n, r, rng.randint(2, 5))
        pool = monomials(ctx, 2)
        alive = [e for e in pool[1:] if t1_monomial_alive(ctx, e)]
        unit = None
        if alive and rng.random() < 1 / 2:
            unit = Jet.one(ctx) + Jet.make(ctx, {e: rng.choice(span)
                                                 for e in rng.sample(alive, min(2, len(alive)))})
        gens = []
        for _ in range(rng.choice((1, 1, 2))):
            if unit is not None:
                gens.append(_field_keeping_flat(rng, ctx, unit))
                continue
            comps = [Jet.make(ctx, {e: rng.choice(span)
                                    for e in rng.sample(pool, min(len(pool), rng.randint(0, 3)))})
                     for _ in range(n)]
            if r and rng.random() < 0.7:
                comps[r - 1] = comps[r - 1] - sum((b.constant_term() for b in comps[:r]), 0)
            gens.append(LogDerivation(ctx, tuple(comps[:r]), tuple(comps[r:])))
        fol = FoliationGerm(ctx, tuple(gens), rank=len(gens))
        if ctx.order > 2 and rng.choice((False, True)):
            fol = at_order_foliation(fol, ctx.order - 1)
        out.append(fol)
    return out


def assume_involutive(fol):
    """Stands in for involutivity_check, so that the flat-unit solve runs
    on fields that are not involutive (and, in a test that forbids jet
    products, without the brackets)."""
    return InvolutivityResult(True, fol.ctx.order - 1)


def declined(*args):
    """Stands in for semistability._substitute, so that every input takes
    the echelon path."""
    return None


def rows_handed_to_echelon(monkeypatch, fol):
    """find_flat_unit's result on the echelon path and the rows of each
    echelon call, copied."""
    calls = []
    echelon = linalg.echelon

    def spy(rows, ncols, basis=None, reduced=True):
        rows = list(rows)
        calls.append([dict(row) for row in rows])
        return echelon(rows, ncols, basis, reduced)

    with monkeypatch.context() as m:
        m.setattr(linalg, "echelon", spy)
        m.setattr(semistability, "involutivity_check", assume_involutive)
        m.setattr(semistability, "_substitute", declined)
        res = find_flat_unit(fol)
    return res, calls


def nabla_rows(fol):
    """Per equation degree, the rows [A | b] built from nabla of each x^e."""
    ctx = fol.ctx
    d = ctx.order
    unknowns = [e for e in monomials(ctx, d) if sum(e) >= 1 and t1_monomial_alive(ctx, e)]
    rows = {}
    for gi, v in enumerate(fol.generators):
        images = [(col, nabla(v, Jet.make(ctx, {e: 1}))) for col, e in enumerate(unknowns)]
        images.append((len(unknowns), -nabla(v, Jet.one(ctx))))
        for col, img in images:
            for t, c in img.terms.items():
                if sum(t) < d:
                    rows.setdefault((gi, t), {})[col] = c
    by_degree = [Counter() for _ in range(d)]
    for (_, t), row in rows.items():
        by_degree[sum(t)][frozenset(row.items())] += 1
    return by_degree


def test_flat_unit_rows_match_nabla_of_each_monomial(monkeypatch):
    seen = Counter()
    for fol in random_fields(random.Random(6), 60):
        res, calls = rows_handed_to_echelon(monkeypatch, fol)
        want = nabla_rows(fol)
        assert len(calls) == (res.failing_degree + 1 if not res.ok else len(want))
        for deg, rows in enumerate(calls):
            assert all(type(c) in (int, Fraction) for row in rows for c in row.values())
            got = Counter(frozenset((j, c) for j, c in row.items() if c) for row in rows)
            got.pop(frozenset(), None)
            assert got == want[deg], ([str(v) for v in fol.generators], fol.ctx.order, deg)
        seen[fol.ctx.r >= 2, res.ok] += 1
    assert all(seen[key] for key in ((True, True), (True, False), (False, True)))


def test_flat_unit_agrees_with_the_oracles_on_random_fields(monkeypatch):
    monkeypatch.setattr(semistability, "involutivity_check", assume_involutive)
    seen = Counter()
    for fol in random_fields(random.Random(20261019), 80):
        d = fol.ctx.order
        res = find_flat_unit(fol)
        text = ([str(v) for v in fol.generators], d)
        assert res.ok == flat_unit_exists_oracle(fol, d), text
        if res.ok:
            assert res.unique == flat_unit_unique_oracle(fol, d), text
            seen[res.unique, res.unit != Jet.one(fol.ctx)] += 1
    assert seen[True, True] and seen[False, False] and seen[True, False]


def test_a_wrong_flat_unit_is_caught_before_it_is_returned(monkeypatch):
    # 2 x1 d1 - x2 d2 - x3 d3 has the unique unit 1; the first unknown is
    # x3, whose nabla is -x3, so 1 + x3 is not flat
    ctx = GermContext(3, 3, 4)
    fol = FoliationGerm(ctx, (derivation_from_string(ctx, "2*x1*dx1 - x2*dx2 - x3*dx3"),), rank=1)
    monkeypatch.setattr(semistability, "_substitute", declined)
    assert find_flat_unit(fol).unit == Jet.one(ctx)
    solution = linalg.solution

    def perturbed(basis, n):
        x = solution(basis, n)
        x[0] += 1
        return x

    monkeypatch.setattr(linalg, "solution", perturbed)
    with pytest.raises(RuntimeError, match="flat unit certificate failed"):
        find_flat_unit(fol)


def test_a_wrong_substituted_unit_is_caught_before_it_is_returned(monkeypatch):
    # the same germ on the substitution path: 1 + x3 fails the certificate,
    # the echelon then finds the unit 1, and the two solves disagree
    ctx = GermContext(3, 3, 4)
    fol = FoliationGerm(ctx, (derivation_from_string(ctx, "2*x1*dx1 - x2*dx2 - x3*dx3"),), rank=1)
    substitute = semistability._substitute
    assert substitute(ctx, [semistability._Terms(fol.generators[0])]) == find_flat_unit(fol)

    def perturbed(*args):
        res = substitute(*args)
        return res._replace(unit=res.unit + Jet.variable(ctx, 2))

    monkeypatch.setattr(semistability, "_substitute", perturbed)
    with pytest.raises(RuntimeError, match="flat unit certificate failed.*elimination finds"):
        find_flat_unit(fol)


def test_solvers_never_multiply_or_renormalise_jets(monkeypatch):
    ctx = GermContext(4, 3, 6)
    v = derivation_from_string(ctx, "x1*dx1 + 2*x2*dx2 - 3*x3*dx3 + x1*x4*dx4")
    w = derivation_from_string(ctx, "x4*dx4 + x4^2*dx4")
    single = FoliationGerm(ctx, (v,), rank=1)
    pair = FoliationGerm(ctx, (v, w), rank=2)
    target = v.scale(Jet.one(ctx) + Jet.variable(ctx, 3)) + w
    monkeypatch.setattr(semistability, "involutivity_check", assume_involutive)
    want = (find_flat_unit(single), find_flat_unit(pair), span_membership(target, (v, w)))

    def boom(*args):
        raise AssertionError("the solvers build their systems from shifts")

    for name in ("__mul__", "__rmul__"):
        monkeypatch.setattr(Jet, name, boom)
    monkeypatch.setattr(Jet, "make", classmethod(boom))
    got = (find_flat_unit(single), find_flat_unit(pair), span_membership(target, (v, w)))
    assert got == want
    assert want[0].ok and want[2] is not None


# -- flat units -------------------------------------------------------------------


def _flat_unit_oracle(fol):
    """find_flat_unit's answer from the whole system, as the solve was built
    before it stopped at its failing degree: every row of every degree from
    the generators' _Terms and traces over the filtered monomials walk, then one
    echelon basis extended degree by degree.  Involutivity is not checked,
    nor the unit certified."""
    ctx = fol.ctx
    d = ctx.order
    unknowns = [e for e in monomials(ctx, d) if sum(e) >= 1 and t1_monomial_alive(ctx, e)]
    n = len(unknowns)
    top = d - 1
    r = ctx.r
    system = {}

    def put(key, col, c):
        row = system.setdefault(key, {})
        row[col] = row.get(col, 0) + c

    for gi, v in enumerate(fol.generators):
        terms = semistability._Terms(v)
        for m, c in v.log_trace().terms.items():
            if sum(m) <= top and t1_monomial_alive(ctx, m):
                put((gi, m), n, c)
        for col, e in enumerate(unknowns):
            crossing, smooth = terms.at(e[:r])
            room = top - sum(e)
            for m, dm, c in crossing:
                if dm > room:
                    break
                put((gi, tuple(map(add, e, m))), col, c)
            for k, a_terms in smooth:
                ek = e[k]
                if not ek:
                    continue
                lowered = e[:k] + (ek - 1,) + e[k + 1:]
                for m, dm, c in a_terms:
                    if dm > room + 1:
                        break
                    put((gi, tuple(map(add, lowered, m))), col, ek * c)
    by_degree = [[] for _ in range(d)]
    for (_, e), row in system.items():
        by_degree[sum(e)].append(row)
    basis = {}
    for deg in range(d):
        linalg.echelon(by_degree[deg], n + 1, basis, reduced=deg == d - 1)
        if n in basis:
            return FlatUnitResult(False, d, failing_degree=deg)
    sol = linalg.solution(basis, n)
    unit = Jet.one(ctx) + Jet(ctx, {e: sol[i] for i, e in enumerate(unknowns) if sol[i]})
    unique = all(i in basis and all(j == i or j == n for j in basis[i])
                 for i, e in enumerate(unknowns) if sum(e) <= d - 1)
    return FlatUnitResult(True, d, unit=unit, unique=unique)


@st.composite
def flat_unit_problems(draw):
    """n <= 4, r >= 2 and an order <= 8, the germ's drawn or one below or
    above it, where the fields are read again (at_order_foliation): one or
    two generators, their crossing part traceless at the origin half of the
    time, their smooth coefficients mostly with a nonzero constant term,
    which lowers an unknown's degree by one."""
    n = draw(st.integers(2, 4))
    r = draw(st.integers(2, n))
    ctx = GermContext(n, r, draw(st.integers(1, 8)))
    coeff = st.fractions(min_value=-3, max_value=3, max_denominator=2)
    exps = st.tuples(*(st.integers(0, 2) for _ in range(n)))
    jets = st.dictionaries(exps, coeff, max_size=3).map(lambda terms: Jet.make(ctx, terms))
    gens = []
    for _ in range(draw(st.integers(1, 2))):
        comps = [draw(jets) for _ in range(n)]
        for k in range(r, n):
            comps[k] = comps[k] + draw(coeff)
        if draw(st.booleans()):
            comps[r - 1] = comps[r - 1] - sum((b.constant_term() for b in comps[:r]), 0)
        gens.append(LogDerivation(ctx, tuple(comps[:r]), tuple(comps[r:])))
    orders = [ctx.order] + [o for o in (ctx.order - 1, ctx.order + 1) if 1 <= o <= 8]
    return at_order_foliation(FoliationGerm(ctx, tuple(gens), rank=len(gens)),
                              draw(st.sampled_from(orders)))


@settings(max_examples=300, deadline=None)
@given(flat_unit_problems())
def test_the_degree_walk_agrees_with_the_whole_system(fol):
    with mock.patch.object(semistability, "involutivity_check", assume_involutive):
        got = find_flat_unit(fol)
    want = _flat_unit_oracle(fol)
    assert (got.ok, got.order, got.failing_degree, got.unique) == \
        (want.ok, want.order, want.failing_degree, want.unique)
    assert (got.unit and got.unit.terms) == (want.unit and want.unit.terms)


def count_flat_unit_echelons(monkeypatch):
    """The names of the semistability functions that call linalg.echelon,
    one per call: those of the flat-unit solve itself, not of the
    involutivity check or the rank of the generators before it."""
    calls = []
    echelon = linalg.echelon

    def counting(*args, **kwargs):
        caller = sys._getframe(1).f_code
        if caller.co_filename == semistability.__file__:
            calls.append(caller.co_name)
        return echelon(*args, **kwargs)

    monkeypatch.setattr(linalg, "echelon", counting)
    return calls


def _degree_zero_no(monkeypatch, capsys):
    """The echelon calls of a degree-0 "no" on the n=4 pair at order 40,
    then of node_unbalanced through the command line."""
    calls = count_flat_unit_echelons(monkeypatch)
    ctx = GermContext(4, 3, 40)
    gens = (derivation_from_string(ctx, "x1*dx1 + 2*x2*dx2 - 2*x3*dx3"),
            derivation_from_string(ctx, "2*x4*dx4"))
    res = find_flat_unit(FoliationGerm(ctx, gens, rank=2))
    assert (res.ok, res.order, res.failing_degree) == (False, 40, 0)
    first = len(calls)
    scene = Path(__file__).resolve().parent.parent / "scenes" / "node_unbalanced.json"
    assert cli.main(["semistable", "check", str(scene)]) == 1
    assert "the degree-0 system is inconsistent" in capsys.readouterr().out
    return first, len(calls)


def test_a_degree_zero_no_stops_at_one_echelon(monkeypatch, capsys):
    monkeypatch.setattr(semistability, "_substitute", declined)
    assert _degree_zero_no(monkeypatch, capsys) == (1, 2)


def test_a_degree_zero_no_by_substitution_calls_no_echelon(monkeypatch, capsys):
    assert _degree_zero_no(monkeypatch, capsys) == (0, 0)


def test_triangular_inputs_are_decided_without_the_echelon(monkeypatch):
    calls = count_flat_unit_echelons(monkeypatch)
    pair = ("x1*dx1 + 2*x2*dx2 - 3*x3*dx3", "2*x4*dx4")
    cases = [(4, 3, 40, pair, True), (4, 3, 300, pair, True),
             (3, 3, 12, ("x1*dx1 + 2*x2*dx2 - 3*x3*dx3 + 2*x1*x3^2*dx1 - 2*x2*x3^2*dx2",), True),
             (4, 3, 40, ("x1*dx1 + 2*x2*dx2 - 2*x3*dx3", "2*x4*dx4"), False)]
    for n, r, order, texts, ok in cases:
        ctx = GermContext(n, r, order)
        gens = tuple(derivation_from_string(ctx, text) for text in texts)
        res = find_flat_unit(FoliationGerm(ctx, gens, rank=len(gens)))
        assert (res.ok, res.order) == (ok, order), texts
        assert res.unique if ok else res.failing_degree == 0
        if ok:
            assert res.unit == Jet.one(ctx)
    assert calls == []


def _decline_or_substitute(fol):
    """find_flat_unit with and without the substitution declined, and
    which path decided: "substituted", "fell back" (a substituted unit that
    failed its certificate) or "declined"."""
    substitute = semistability._substitute
    seen = []

    def spy(*args):
        res = substitute(*args)
        seen.append(res)
        return res

    with mock.patch.object(semistability, "involutivity_check", assume_involutive):
        with mock.patch.object(semistability, "_eliminate", wraps=semistability._eliminate) as elim:
            with mock.patch.object(semistability, "_substitute", spy):
                got = find_flat_unit(fol)
            path = ("declined" if seen[0] is None else
                    "fell back" if elim.called else "substituted")
        with mock.patch.object(semistability, "_substitute", declined):
            want = find_flat_unit(fol)
    return got, want, path


COEFFS = tuple(Fraction(k, d) for k in range(-3, 4) for d in (1, 2))
WEIGHTS = (-2, -1, 0, 1, 2, 3, Fraction(1, 2))


def substitution_problem(integer):
    """A foliation built from the draws integer(lo, hi): n <= 4, r >= 2, an
    order <= 7 and one or two generators, each most of the time in the
    class that substitution decides: a constant and higher terms in each
    b_i, trace zero at the origin 80% of the time, and mu_j x_j plus terms
    of degree >= 2 in each a_j.  Otherwise one a_j also has a constant
    term or a linear term off its x_j.  Small weights make resonant
    unknowns common.  Half of the time every generator is built around one
    random unit u that it keeps flat, so that two generators share units
    other than 1: b_r gains (v(u) - trace(v) u) / (u - x_r d_r u), which
    leaves the weights alone and makes the trace 0 at the origin."""
    def pick(seq):
        return seq[integer(0, len(seq) - 1)]

    n = integer(2, 4)
    r = integer(2, n)
    ctx = GermContext(n, r, integer(1, 7))
    alive = [e for e in semistability._t1_unknowns(ctx)[0] if sum(e) <= 2]
    unit = None
    if alive and integer(0, 1):
        unit = Jet.one(ctx) + Jet.make(ctx, {pick(alive): pick(COEFFS) for _ in range(2)})

    def monomial(k):  # x_k, or 1 for k None
        return tuple(int(i == k) for i in range(n))

    def higher(least):  # crossing exponents 0 half the time, so that more terms stay alive
        exps = [tuple(pick((0, 0, 1, 2)) if i < r else integer(0, 2) for i in range(n))
                for _ in range(integer(0, 2))]
        return Jet.make(ctx, {e: pick(COEFFS) for e in exps if sum(e) >= least})

    gens = []
    for _ in range(integer(1, 2)):
        lam = [pick(WEIGHTS) for _ in range(n)]
        if integer(0, 4):
            lam[r - 1] -= sum(lam[:r])
        b = [higher(1) + lam[i] for i in range(r)]
        a = [higher(2) + Jet.make(ctx, {monomial(k): lam[k]}) for k in range(r, n)]
        if a and not integer(0, 5):
            k = integer(0, n - r - 1)
            off = pick([i for i in range(n) if i != r + k] + [None])
            a[k] = a[k] + Jet.make(ctx, {monomial(off): pick(COEFFS)})
        v = LogDerivation(ctx, tuple(b), tuple(a))
        if unit is not None:
            defect = v.apply(unit) - v.log_trace() * unit
            b[r - 1] = b[r - 1] + defect * (unit - unit.scaled_partial(r - 1)).invert(ctx.order)
            v = LogDerivation(ctx, tuple(b), tuple(a))
        gens.append(v)
    return FoliationGerm(ctx, tuple(gens), rank=len(gens))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_substitution_returns_what_elimination_returns(data):
    fol = substitution_problem(lambda lo, hi: data.draw(st.integers(lo, hi)))
    got, want, _ = _decline_or_substitute(fol)
    assert got == want
    assert (got.unit and format_jet(got.unit)) == (want.unit and format_jet(want.unit))


def test_each_path_of_the_flat_unit_solve_is_drawn():
    # the oracle's fields, drawn with a fixed seed: every path, and both
    # answers where substitution decides, units other than 1 among them
    seen = Counter()
    rng = random.Random(20261020)
    for _ in range(150):
        fol = substitution_problem(rng.randint)
        got, want, path = _decline_or_substitute(fol)
        assert got == want
        seen[path, got.ok, got.ok and got.unit != Jet.one(fol.ctx)] += 1
    assert all(seen[key] for key in (("substituted", True, True), ("substituted", True, False),
                                     ("substituted", False, False), ("declined", True, False),
                                     ("declined", False, False), ("fell back", False, False))), seen


def test_t1_unknowns_are_the_alive_monomials_in_monomials_order():
    for n in range(1, 6):
        for r in range(n + 1):
            for d in range(1, 9):
                ctx = GermContext(n, r, d)
                want = tuple(e for e in monomials(ctx, d)
                             if sum(e) >= 1 and t1_monomial_alive(ctx, e))
                unknowns, starts = semistability._t1_unknowns(ctx)
                assert unknowns == want, (n, r, d)
                # degree k runs from starts[k] to starts[k + 1]
                assert len(starts) == d + 2 and starts[0] == 0, (n, r, d)
                assert [sum(e) for e in want] == [k for k in range(d + 1)
                                                  for _ in range(starts[k], starts[k + 1])]




def test_balanced_node_has_unique_flat_unit():
    ctx = GermContext(2, 2, 6)
    fol = FoliationGerm(ctx, (node_field(ctx, 2, -2),), rank=1)
    res = find_flat_unit(fol)
    assert res.ok and res.unique
    assert res.unit == Jet.one(ctx)
    assert res.order == 6


def test_unbalanced_node_fails_at_degree_zero():
    ctx = GermContext(2, 2, 6)
    fol = FoliationGerm(ctx, (node_field(ctx, 1, 1),), rank=1)
    res = find_flat_unit(fol)
    assert not res.ok
    assert res.failing_degree == 0
    assert res.unit is None


def test_flat_unit_solves_the_connection_equation():
    ctx = GermContext(3, 3, 6)
    v = derivation_from_string(ctx, "(1 + x2)*x1*dx1 + x2*dx2 - 2*x3*dx3")
    fol = FoliationGerm(ctx, (v,), rank=1)
    res = find_flat_unit(fol)
    assert res.ok
    defect = t1_reduce(v.apply(res.unit) - v.log_trace() * res.unit)
    assert defect.truncate(ctx.order - 1).is_zero()
    assert res.unit.constant_term() == 1


def test_flat_unit_decides_at_the_germ_order():
    ctx = GermContext(2, 2, 3)
    fol = FoliationGerm(ctx, (node_field(ctx, 3, -3),), rank=1)
    res = find_flat_unit(fol)
    assert res.ok and res.order == 3
    with pytest.raises(TypeError):
        find_flat_unit(fol, order=6)


def test_flat_unit_rejects_non_involutive_input():
    ctx = GermContext(2, 1, 4)
    v = derivation_from_string(ctx, "dx2")
    w = derivation_from_string(ctx, "x2*x1*dx1")
    fol = FoliationGerm(ctx, (v, w), rank=2)
    with pytest.raises(ValueError):
        find_flat_unit(fol)


def test_flat_unit_grid_matches_trace_balance():
    ctx = GermContext(2, 2, 5)
    for l1 in range(-2, 3):
        for l2 in range(-2, 3):
            fol = FoliationGerm(ctx, (node_field(ctx, l1, l2),), rank=1)
            assert find_flat_unit(fol).ok == (l1 + l2 == 0)


def test_flat_unit_agrees_with_one_shot_oracle():
    rng = random.Random(20260825)
    ctx = GermContext(3, 3, 4)
    span = [Fraction(k) for k in range(-2, 3)]
    for _ in range(40):
        b = []
        for i in range(3):
            terms = {(0, 0, 0): rng.choice(span)}
            e = [0, 0, 0]
            e[rng.randrange(3)] = rng.randint(1, 2)
            terms[tuple(e)] = rng.choice(span)
            b.append(Jet.make(ctx, terms))
        fol = FoliationGerm(ctx, (LogDerivation(ctx, tuple(b), ()),), rank=1)
        res = find_flat_unit(fol)
        assert res.ok == flat_unit_exists_oracle(fol, ctx.order), [str(x) for x in b]


def flat_unit_unique_oracle(fol, order):
    """Is the kernel of the flat-unit system zero on the degrees below order?

    It is exactly when rank(A) - rank(A restricted to the top-degree
    columns) equals the number of lower-degree columns.
    """
    ctx = fol.ctx
    unknowns = [e for e in monomials(ctx, order) if sum(e) >= 1 and t1_monomial_alive(ctx, e)]
    rows = []
    for v in fol.generators:
        tr = v.log_trace()
        images = [t1_reduce(v.apply(Jet.make(ctx, {e: 1})) - tr * Jet.make(ctx, {e: 1}))
                  for e in unknowns]
        coords = {e for img in images for e in img.terms if sum(e) < order}
        rows += [{k: img.terms[e] for k, img in enumerate(images) if e in img.terms}
                 for e in sorted(coords)]
    top = {i for i, e in enumerate(unknowns) if sum(e) == order}
    rank_top = linalg.rank([{i: v for i, v in row.items() if i in top} for row in rows])
    return linalg.rank(rows) - rank_top == len(unknowns) - len(top)


def test_flat_unit_uniqueness_and_certificate_on_random_fields():
    rng = random.Random(20261018)
    span = [Fraction(k) for k in range(-2, 3)]
    smooth = ["dx3", "dx4", "x3*dx4", "x4*dx3", "x3*dx3", "x4*dx4", "x4*x4*dx3"]
    seen = set()
    for _ in range(40):
        ctx = GermContext(4, 2, rng.randint(2, 4))
        terms = ["(%s)*%s" % (rng.choice(span), f) for f in rng.sample(smooth, rng.randint(1, 3))]
        # crossing parts of trace zero half the time, so degree 0 often solves
        lam = rng.choice(span)
        mu = -lam if rng.random() < 0.5 else rng.choice(span)
        text = "(%s)*x1*dx1 + (%s)*x2*dx2 + %s" % (lam, mu, " + ".join(terms))
        v = derivation_from_string(ctx, text)
        fol = FoliationGerm(ctx, (v,), rank=1)
        res = find_flat_unit(fol)
        if res.ok:
            assert res.unique == flat_unit_unique_oracle(fol, ctx.order), text
            defect = t1_reduce(v.apply(res.unit) - v.log_trace() * res.unit)
            assert defect.truncate(ctx.order - 1).is_zero(), text
            seen.add(res.unique)
    assert seen == {True, False}


def test_flat_unit_is_not_unique_when_only_a_top_coefficient_is_free():
    # x3 * exp(-2 x4) is flat: its degree-1 part is pinned by its free
    # degree-3 part, though every lower coefficient is a pivot
    ctx = GermContext(4, 2, 3)
    fol = FoliationGerm(ctx, (derivation_from_string(ctx, "x1*dx1 - x2*dx2 + 2*x3*dx3 + dx4"),), rank=1)
    res = find_flat_unit(fol)
    assert res.ok and not res.unique
    assert not flat_unit_unique_oracle(fol, ctx.order)


def test_flat_unit_when_every_equation_vanishes():
    # T1 = O/(x2, x1) keeps only powers of x3, and v kills all of them in T1:
    # there is no equation at all, so every unknown is free and 1 is a unit
    ctx = GermContext(3, 2, 4)
    fol = FoliationGerm(ctx, (derivation_from_string(ctx, "x1*x1*dx1 + x1*x3*dx3"),), rank=1)
    res = find_flat_unit(fol)
    assert res.ok and not res.unique
    assert res.unit == Jet.one(ctx)


def test_flat_unit_of_the_commuting_pair_at_order_12():
    ctx = GermContext(4, 3, 12)
    gens = (derivation_from_string(ctx, "x1*dx1 - x2*dx2"), derivation_from_string(ctx, "x4*dx4"))
    res = find_flat_unit(FoliationGerm(ctx, gens, rank=2))
    assert res.ok and res.order == 12
    assert res.unit.constant_term() == 1
    for v in gens:
        defect = t1_reduce(v.apply(res.unit) - v.log_trace() * res.unit)
        assert defect.truncate(11).is_zero()


# -- residues ----------------------------------------------------------------------


def test_laurent_residue_frozen_values():
    assert laurent_residue({0: Fraction(1)}, {1: Fraction(1)}, 6) == 1
    assert laurent_residue({2: Fraction(1), 0: Fraction(2)}, {3: Fraction(1)}, 6) == 1
    assert laurent_residue({0: Fraction(1)}, {1: Fraction(1), 2: Fraction(1)}, 6) == 1
    assert laurent_residue({0: Fraction(1)}, {2: Fraction(1), 3: Fraction(1)}, 6) == -1
    assert laurent_residue({0: Fraction(1)}, {0: Fraction(2)}, 6) == 0


def test_laurent_residue_order_guard():
    with pytest.raises(InconclusiveAtOrderError):
        laurent_residue({0: Fraction(1)}, {3: Fraction(1)}, 3)


def test_laurent_residue_of_ints_is_a_fraction():
    res = laurent_residue({0: 1}, {2: 2, 3: 1}, 6)
    assert res == Fraction(-1, 4) and type(res) is Fraction


def _residue_by_series_loop(numer, denom, available_order):
    """Residue by inverting the unit denom / z^m term by term, as a power
    series loop independent of Jet.invert; Fraction input only."""
    m = min(denom)
    lead = denom[m]
    shifted = {k - m: c / lead for k, c in denom.items()}
    need = m - 1
    if need < 0:
        return Fraction(0)
    if need > available_order - m:
        raise InconclusiveAtOrderError(
            "need %d coefficients of a quotient but only %d are trustworthy"
            % (need + 1, available_order - m + 1)
        )
    inv = {0: Fraction(1)}
    for k in range(1, need + 1):
        inv[k] = -sum((shifted[i] * inv[k - i] for i in range(1, k + 1) if i in shifted),
                      Fraction(0))
    return sum((c * inv[need - i] for i, c in numer.items() if 0 <= need - i <= need),
               Fraction(0)) / lead


def _residue_outcome(residue, *args):
    try:
        return residue(*args)
    except InconclusiveAtOrderError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(st.integers(0, 8), st.fractions(-5, 5, max_denominator=6), max_size=5),
       st.dictionaries(st.integers(0, 8), st.fractions(-5, 5, max_denominator=6).filter(bool),
                       min_size=1, max_size=5),
       st.integers(0, 10))
def test_laurent_residue_matches_the_series_loop(numer, denom, available_order):
    got = _residue_outcome(laurent_residue, numer, denom, available_order)
    assert got == _residue_outcome(_residue_by_series_loop, numer, denom, available_order)
    assert type(got) in (Fraction, str)


# -- log indices ---------------------------------------------------------------------


def constant_form(ctx, consts, reg=()):
    return LogOneForm.make(ctx, [Jet.constant(ctx, c) for c in consts], reg)


def test_cs_log_frozen_triple():
    ctx = GermContext(3, 3, 6)
    form = constant_form(ctx, (1, 2, 4))
    assert cs_index_log(form, 0, 1) == 3
    assert cs_index_log(form, 1, 0) == -2
    assert cs_index_log(form, 0, 2) == Fraction(1, 3)
    assert cs_index_log(form, 1, 2) == Fraction(-1, 2)


def test_cs_log_divides_exactly():
    # integral dlog constants give the quotient -1/3 exactly, never a float
    form = constant_form(GermContext(3, 3, 6), (1, 4, 0))
    value = cs_index_log(form, 0, 1)
    assert value == Fraction(-1, 3) and type(value) is Fraction


def test_cs_log_node_is_rigid():
    # with two branches there is no third direction; the index vanishes
    ctx = GermContext(2, 2, 6)
    form = constant_form(ctx, (5, -3))
    assert cs_index_log(form, 0, 1) == 0
    assert cs_index_log(form, 1, 0) == 0


def _terms_on(ctx):
    """Random terms {exponent: coefficient} of a jet on ctx."""
    return st.dictionaries(st.tuples(*[st.integers(0, 3)] * ctx.n),
                           st.fractions(-5, 5, max_denominator=4), max_size=5)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_cs_log_regular_part_never_shifts_a_nonresonant_index(data):
    # n = 3, r = 2: the stratum is the x3-line, on which a_2 - a_1 is a unit
    # when a_1(0) != a_2(0), so eta / (a_2 - a_1) is regular there and has
    # no residue; with no third crossing the index is 0
    ctx = GermContext(3, 2, 6)
    consts = data.draw(st.lists(st.fractions(-5, 5, max_denominator=4), min_size=2, max_size=2,
                                unique=True))
    dlog = [Jet.make(ctx, {e: v for e, v in data.draw(_terms_on(ctx)).items() if sum(e)}) + c
            for c in consts]
    reg = Jet.make(ctx, data.draw(_terms_on(ctx)))
    bare = LogOneForm.make(ctx, dlog, [Jet.zero(ctx)])
    dressed = LogOneForm.make(ctx, dlog, [reg])
    for i, j in ((0, 1), (1, 0)):
        assert cs_index_log(dressed, i, j) == cs_index_log(bare, i, j) == 0


def test_cs_log_resonance_raises():
    ctx = GermContext(3, 3, 6)
    form = constant_form(ctx, (1, 1, 2))
    with pytest.raises(ResonanceError):
        cs_index_log(form, 0, 1)
    # the other pairs stay fine
    assert cs_index_log(form, 0, 2) + cs_index_log(form, 2, 0) == 1


def test_cs_log_index_relation_random():
    rng = random.Random(11)
    for _ in range(30):
        r = rng.randint(2, 5)
        ctx = GermContext(r, r, 5)
        consts = rng.sample(range(-8, 9), r)
        dlog = []
        for c in consts:
            terms = {(0,) * r: Fraction(c)}
            e = [0] * r
            e[rng.randrange(r)] = 1
            terms[tuple(e)] = Fraction(rng.randint(-2, 2))
            dlog.append(Jet.make(ctx, terms))
        form = LogOneForm.make(ctx, dlog, [])
        for i in range(r):
            for j in range(i + 1, r):
                assert cs_index_log(form, i, j) + cs_index_log(form, j, i) == r - 2


def test_cs_log_rejects_out_of_range_pairs():
    ctx = GermContext(3, 2, 6)
    form = LogOneForm.make(ctx, [Jet.constant(ctx, 1), Jet.zero(ctx)], [Jet.zero(ctx)])
    with pytest.raises(ValueError):
        cs_index_log(form, 0, 0)
    with pytest.raises(ValueError):
        cs_index_log(form, 0, 2)


# -- surface indices -----------------------------------------------------------------


def linear_model(ctx, lam):
    y = Jet.variable(ctx, 0)
    z = Jet.variable(ctx, 1)
    return SurfaceOneForm(z, Jet.constant(ctx, -lam) * y)


@pytest.mark.parametrize("lam", [Fraction(0), Fraction(3), Fraction(-7, 2), Fraction(5, 3)])
def test_cs_surface_linear_model(lam):
    ctx = GermContext(2, 0, 6)
    assert cs_index_surface(linear_model(ctx, lam)) == lam


def test_cs_surface_higher_tangency():
    # A = z^2, B = y(1 + z): index -Res (1 + z)/z^2 dz = -1
    ctx = GermContext(2, 0, 6)
    y = Jet.variable(ctx, 0)
    z = Jet.variable(ctx, 1)
    form = SurfaceOneForm(z ** 2, y * (Jet.one(ctx) + z))
    assert cs_index_surface(form) == -1


def test_cs_surface_requires_invariant_curve():
    ctx = GermContext(2, 0, 6)
    z = Jet.variable(ctx, 1)
    with pytest.raises(NonInvariantError):
        cs_index_surface(SurfaceOneForm(z, z))


def test_cs_surface_inconclusive_when_transverse_part_vanishes():
    ctx = GermContext(2, 0, 4)
    y = Jet.variable(ctx, 0)
    with pytest.raises(InconclusiveAtOrderError):
        cs_index_surface(SurfaceOneForm(y, y))


def test_index_sum_detects_flat_unit_on_the_node():
    # two branch models glue to the node field (lam1, lam2); the index sum
    # vanishes exactly when the flat unit exists
    ctx2 = GermContext(2, 0, 6)
    node_ctx = GermContext(2, 2, 6)
    for lam1, lam2 in [(1, -1), (2, -2), (1, 1), (3, -2), (0, 0), (Fraction(1, 2), Fraction(-1, 2))]:
        s = cs_index_surface(linear_model(ctx2, lam1)) + cs_index_surface(linear_model(ctx2, lam2))
        fol = FoliationGerm(node_ctx, (node_field(node_ctx, lam1, lam2),), rank=1)
        assert (s == 0) == find_flat_unit(fol).ok


# -- stratum compatibility data --------------------------------------------------------


def test_holonomy_values_must_be_nonzero():
    with pytest.raises(ValueError):
        HolonomyData((1, 0))


def test_holonomy_compatibility():
    a = HolonomyData((2, Fraction(3, 4)))
    b = HolonomyData((Fraction(1, 2), Fraction(4, 3)))
    assert check_holonomy_compatibility(a, b)
    c = HolonomyData((Fraction(1, 2), Fraction(3, 4)))
    assert not check_holonomy_compatibility(a, c)
    with pytest.raises(ValueError):
        check_holonomy_compatibility(a, HolonomyData((2,)))


def test_normal_degree_pairing():
    assert check_normal_degrees(2, -2)
    assert check_normal_degrees(0, 0)
    assert not check_normal_degrees(1, 1)
