"""Randomized identities the rest of the code leans on, as the tests run them.

Each check draws one random instance and evaluates an algebraic identity
exactly, returning None when it holds and a string saying what failed
otherwise; any counterexample is a bug, not noise.  Derivative-heavy
identities are asserted at a reduced order, since every application of a
vector field costs one order of jet validity.  first_failure is the one
trial loop, drawing a check's trials from a stream seeded by the seed and
the check's name.
"""

import random
from fractions import Fraction

from logfol import foliations, leafcomplex, linalg, semistability
from logfol.jets import GermContext, Jet
from logfol.logcalc import LogDerivation, lie_bracket

from reference import abelian_algebra, adjoint_module, monomials


# -- random generators ----------------------------------------------------------


def _rand_fraction(rng, span=3):
    return Fraction(rng.randint(-span, span), rng.choice((1, 1, 2, 3)))


def _rand_jet(rng, ctx, terms=3, span=3, unit=False):
    pool = monomials(ctx, ctx.order)
    out = {}
    for e in rng.sample(pool, min(terms, len(pool))):
        c = _rand_fraction(rng, span)
        if c and (not unit or sum(e) > 0):
            out[e] = c
    jet = Jet.make(ctx, out)
    if unit:
        jet = jet + Jet.one(ctx)
    return jet


def _rand_ctx(rng, min_r=1):
    n = rng.choice((2, 3))
    r = rng.randint(min(min_r, n), n)
    return GermContext(n, r, 4)


def _rand_derivation(rng, ctx, terms=2):
    b = tuple(_rand_jet(rng, ctx, terms) for _ in range(ctx.r))
    a = tuple(_rand_jet(rng, ctx, terms) for _ in range(ctx.n - ctx.r))
    return LogDerivation(ctx, b, a)


def _rand_unimodular(rng, n):
    p = linalg.SparseRows([{i: 1} for i in range(n)], n)
    for _ in range(2 * n):
        i = rng.randrange(n)
        j = rng.randrange(n)
        if i == j:
            continue
        c = rng.randint(-2, 2)
        for k, v in p[j].items():
            p[i][k] = p[i].get(k, 0) + c * v
    return p


_BASE_STRUCTURES = {
    # [e0, e1] = e1
    "solvable2": ((((0, 0), (0, 1)), ((0, -1), (0, 0)))),
    # [e0, e1] = e2
    "heisenberg": (
        (((0, 0, 0), (0, 0, 1), (0, 0, 0))),
        (((0, 0, -1), (0, 0, 0), (0, 0, 0))),
        (((0, 0, 0), (0, 0, 0), (0, 0, 0))),
    ),
    # [h, e] = 2e, [h, f] = -2f, [e, f] = h
    "sl2": (
        (((0, 0, 0), (0, 2, 0), (0, 0, -2))),
        (((0, -2, 0), (0, 0, 0), (1, 0, 0))),
        (((0, 0, 2), (-1, 0, 0), (0, 0, 0))),
    ),
}


def _rand_module(rng):
    """A random abelian module, or the adjoint module of a solvable, Heisenberg
    or sl2 algebra written in a random integer basis."""
    kind = rng.choice(("abelian", "solvable2", "heisenberg", "sl2"))
    if kind == "abelian":
        n = rng.randint(1, 3)
        m = rng.randint(1, 3)
        algebra = abelian_algebra(n)
        action = []
        for _ in range(n):
            action.append(tuple(
                tuple(_rand_fraction(rng, 2) if t == c else Fraction(0) for c in range(m))
                for t in range(m)
            ))
        return leafcomplex.LieModuleData(algebra, tuple(action))
    base = leafcomplex.LieAlgebra(_BASE_STRUCTURES[kind])
    p = _rand_unimodular(rng, base.dim)
    columns = [{k: row[i] for k, row in enumerate(p) if i in row} for i in range(base.dim)]
    return adjoint_module(leafcomplex._sub_structure(base, columns))


def _rand_cover(rng):
    """A random constant cover whose restrictions compose to zero, or a
    random window cover of a graded bundle on P^1."""
    if rng.random() < 0.5:
        sizes = [rng.randint(1, 3) for _ in range(rng.randint(3, 4))]
        mats = []
        prev = None
        for q in range(len(sizes) - 1):
            rows, cols = sizes[q + 1], sizes[q]
            if prev is None:
                m = [[_rand_fraction(rng, 2) for _ in range(cols)] for _ in range(rows)]
            else:
                # rows must kill the image of the previous differential
                left_null = linalg.nullspace(linalg.SparseRows(
                    [dict(enumerate(col)) for col in zip(*prev)], cols))
                m = [[Fraction(0)] * cols for _ in range(rows)]
                for rrow in m:
                    for vec in left_null:
                        c = _rand_fraction(rng, 2)
                        for k in range(cols):
                            rrow[k] += c * vec[k]
            mats.append(m)
            prev = m
        return leafcomplex.constant_cover(mats, n_opens=3)
    e0 = rng.randint(-1, 2)
    n_rows = rng.randint(1, 3)
    degrees = [e0]
    polys = []
    zero_slot = rng.randrange(max(1, n_rows - 1)) if n_rows == 3 else None
    for q in range(n_rows - 1):
        gap = rng.randint(0, 2)
        degrees.append(degrees[-1] + gap)
        if n_rows == 3 and q == zero_slot:
            polys.append([Fraction(0)])
        else:
            polys.append([_rand_fraction(rng, 2) for _ in range(gap + 1)])
    return leafcomplex.p1_window_cover(degrees, rng.randint(2, 4), polys)


def _field_keeping_flat(rng, ctx, unit):
    """A random log derivation v with v(unit) = trace(v) unit.

    All coefficients but b_r are random; with rest = v(unit) less its b_r
    term, b_r (x_r d_r unit - unit) = (b_1 + ... + b_{r-1}) unit - rest
    fixes b_r, since x_r d_r unit - unit is a unit.
    """
    r = ctx.r
    comps = [_rand_jet(rng, ctx, 2) for _ in range(ctx.n)]
    rest = Jet.zero(ctx)
    for i in range(r - 1):
        rest = rest + comps[i] * unit.scaled_partial(i)
    for k in range(r, ctx.n):
        rest = rest + comps[k] * unit.partial(k)
    known = sum(comps[:r - 1], Jet.zero(ctx))
    comps[r - 1] = (known * unit - rest) * (unit.scaled_partial(r - 1) - unit).invert(ctx.order)
    return LogDerivation(ctx, tuple(comps[:r]), tuple(comps[r:]))


def _zero_product(a, b):
    return not any(linalg.product(a, b))


# -- the checks: one trial each, None on success, else what failed ----------------


def check_cech_square(rng):
    """Alternating restriction differences compose to zero."""
    data = _rand_cover(rng)
    for q in range(data.n_rows):
        if not _zero_product(data.cech_matrix(1, q), data.cech_matrix(0, q)):
            return "row %d" % q


def check_ce_square(rng):
    """The alternating cochain differential squares to zero."""
    module = _rand_module(rng)
    for k in range(module.algebra.dim - 1):
        d_low = leafcomplex.ce_differential(module, k)
        d_high = leafcomplex.ce_differential(module, k + 1)
        if not _zero_product(d_high, d_low):
            return "degree %d" % k


def check_total_square(rng):
    """The mixed-sign total differential squares to zero."""
    data = _rand_cover(rng)
    for n in range(data.max_total_degree):
        if not _zero_product(data.total_matrix(n + 1), data.total_matrix(n)):
            return "degree %d" % n


def check_bracket_jacobi(rng):
    """Jacobi identity for the derivation bracket, at two orders down."""
    ctx = _rand_ctx(rng)
    u = _rand_derivation(rng, ctx)
    v = _rand_derivation(rng, ctx)
    w = _rand_derivation(rng, ctx)
    s = lie_bracket(u, lie_bracket(v, w))
    s = s + lie_bracket(v, lie_bracket(w, u))
    s = s + lie_bracket(w, lie_bracket(u, v))
    if not s.equal_to_order(LogDerivation.zero(ctx), ctx.order - 2):
        return "Jacobiator nonzero"


def check_nabla_leibniz(rng):
    """The connection is a derivation over multiplication by functions."""
    ctx = _rand_ctx(rng)
    v = _rand_derivation(rng, ctx)
    h = _rand_jet(rng, ctx)
    g = _rand_jet(rng, ctx)
    tr = v.log_trace()
    lhs = v.apply(h * g) - tr * (h * g)
    rhs = v.apply(h) * g + h * (v.apply(g) - tr * g)
    diff = semistability.t1_reduce(lhs - rhs)
    if not diff.equal_to_order(Jet.zero(ctx), ctx.order - 1):
        return "Leibniz rule fails"


def check_flat_closure(rng):
    """Tangency defects close under the bracket.

    The defect of a field v against a unit u is d(v) = v(u) - trace(v) u.
    The identity d([v, w]) = v(d(w)) - w(d(v)) + trace(w) d(v) - trace(v) d(w)
    holds at two orders down and shows that fields with vanishing defect stay
    closed under the bracket.  Traceless pairs give the constant-unit case
    directly: their bracket is again traceless one order down.
    """
    ctx = _rand_ctx(rng)
    unit = _rand_jet(rng, ctx, unit=True)
    v = _rand_derivation(rng, ctx)
    w = _rand_derivation(rng, ctx)

    def defect(x):
        return x.apply(unit) - x.log_trace() * unit

    lhs = defect(lie_bracket(v, w))
    rhs = v.apply(defect(w)) - w.apply(defect(v))
    rhs = rhs + w.log_trace() * defect(v) - v.log_trace() * defect(w)
    if not (lhs - rhs).equal_to_order(Jet.zero(ctx), ctx.order - 2):
        return "defect identity"

    # _rand_ctx gives r >= 1, so each b below has a last entry to balance
    b = list(_rand_jet(rng, ctx, 2) for _ in range(ctx.r - 1))
    b.append(-sum(b, Jet.zero(ctx)))
    a = tuple(_rand_jet(rng, ctx, 2) for _ in range(ctx.n - ctx.r))
    v0 = LogDerivation(ctx, tuple(b), a)
    w0_b = list(_rand_jet(rng, ctx, 2) for _ in range(ctx.r - 1))
    w0_b.append(-sum(w0_b, Jet.zero(ctx)))
    w0 = LogDerivation(ctx, tuple(w0_b), a)
    if not lie_bracket(v0, w0).log_trace().equal_to_order(Jet.zero(ctx), ctx.order - 1):
        return "traceless pair"


def check_span_membership(rng):
    """A combination sum_k c_k * gen_k is found in the span of the gen_k.

    Generators are random, each vanishing at the origin half of the time,
    so both the unit pivots and the system left over are exercised; the
    coefficients found must reproduce the combination through the order.
    """
    ctx = _rand_ctx(rng)
    gens = []
    for _ in range(rng.randint(1, 3)):
        g = _rand_derivation(rng, ctx)
        if rng.random() < 0.5:
            comps = [Jet(ctx, {e: c for e, c in j.terms.items() if any(e)})
                     for j in g.components()]
            g = LogDerivation(ctx, tuple(comps[:ctx.r]), tuple(comps[ctx.r:]))
        gens.append(g)
    target = LogDerivation.zero(ctx)
    for g in gens:
        target = target + g.scale(_rand_jet(rng, ctx, unit=rng.random() < 0.5))
    try:
        found = foliations.span_membership(target, gens)
    except RuntimeError as e:
        return str(e)
    if found is None:
        return "not found"
    combo = LogDerivation.zero(ctx)
    for g, c in zip(gens, found):
        combo = combo + g.scale(c)
    if not combo.equal_to_order(target, ctx.order):
        return "wrong coefficients"


def check_flat_unit(rng):
    """find_flat_unit finds a unit where one exists, and what it finds is flat.

    Half of the fields are built around a random unit they keep flat, so
    the answer must be yes; the others are random, traceless at the origin
    half of the time.  Wherever a unit g is found, nabla_v g = v(g) -
    trace(v) g is recomputed with LogDerivation.apply and must vanish in
    T1 through order - 1.
    """
    ctx = _rand_ctx(rng, min_r=2)
    built = rng.random() < 0.5
    if built:
        # a unit whose terms live in T1, so that the unit found is rarely 1
        alive = [e for e in monomials(ctx, ctx.order)
                 if any(e) and semistability.t1_monomial_alive(ctx, e)]
        terms = {e: _rand_fraction(rng) for e in rng.sample(alive, min(3, len(alive)))}
        v = _field_keeping_flat(rng, ctx, Jet.one(ctx) + Jet.make(ctx, terms))
    else:
        v = _rand_derivation(rng, ctx)
        if rng.random() < 0.5:
            b = list(v.b)
            b[-1] = b[-1] - v.log_trace().constant_term()
            v = LogDerivation(ctx, tuple(b), v.a)
    try:
        res = semistability.find_flat_unit(foliations.FoliationGerm(ctx, (v,), rank=1))
    except RuntimeError as e:
        return str(e)
    if built and not res.ok:
        return "missed a unit"
    if res.ok:
        g = res.unit
        defect = semistability.t1_reduce(v.apply(g) - v.log_trace() * g)
        if g.constant_term() != 1 or not defect.truncate(ctx.order - 1).is_zero():
            return "not flat"


ALL_CHECKS = {
    "cech-square-zero": check_cech_square,
    "ce-square-zero": check_ce_square,
    "total-square-zero": check_total_square,
    "bracket-jacobi": check_bracket_jacobi,
    "nabla-leibniz": check_nabla_leibniz,
    "flat-closure": check_flat_closure,
    "span-membership": check_span_membership,
    "flat-unit": check_flat_unit,
}


def first_failure(name, seed, trials):
    """None when the check named holds on all its trials, else (trial, what
    failed) for the first trial that fails."""
    rng = random.Random("%d:%s" % (seed, name))
    for t in range(1, trials + 1):
        detail = ALL_CHECKS[name](rng)
        if detail is not None:
            return t, detail
    return None
