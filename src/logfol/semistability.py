"""Semistability of a foliated crossing germ, decided by exact jet solves.

The infinitesimal normal module T1 of the germ {x_1 ... x_r = 0} is the
quotient of the function ring by the partial crossing products
hat_x_i = x_1 ... x_{i-1} x_{i+1} ... x_r. A log derivation v acts on it by

    nabla_v g = v(g) - (b_1 + ... + b_r) g

which is jet-linear in v and a connection in g. A foliation is of semistable
type exactly when a nowhere-vanishing flat section exists, so find_flat_unit
solves nabla_v g = 0 for all generators with g(0) = 1, degree by degree.
Its linear system is read straight off the coefficient terms of the b_i and
a_j, as ints where integral, with no jet built per unknown.  Where every
generator vanishes at the origin with a diagonal linear part (the
Poincare-Dulac setting), nabla_v x^e is (<e, lambda_v> - tau_v) x^e plus
higher-degree terms, so the system is triangular by degree: unless an
unknown has weight 0 under every generator, forward substitution solves it,
one division per unknown.  Every other input goes to one cumulative
echelon.  nabla is the reference the tests compare against, and also the
certificate: every unit found is re-checked through nabla before it is
returned.

Camacho-Sad indices along double strata come in two independent flavors: the
residue formula attached to a log one-form (cs_index_log) and the classical
surface residue along an invariant curve (cs_index_surface). They are kept
separate on purpose so each can cross-check the other.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from operator import add, mul

from . import linalg
from .linalg import _exact, _integer
from .foliations import (
    FoliationGerm,
    InconclusiveAtOrderError,
    NonInvariantError,
    SurfaceOneForm,
    involutivity_check,
)
from .jets import GermContext, Jet
from .logcalc import LogDerivation, LogOneForm


class ResonanceError(ValueError):
    """Two dlog coefficients share their value at the origin."""


def t1_monomial_alive(ctx, e):
    """Does the monomial survive in T1?

    It dies when divisible by some hat_x_i, i.e. when at most one crossing
    exponent vanishes. With r <= 1 the module is zero.
    """
    return ctx.r >= 2 and e[:ctx.r].count(0) >= 2


def t1_reduce(jet):
    """Normal form of a jet modulo (hat_x_1, ..., hat_x_r)."""
    return Jet(jet.ctx, {e: c for e, c in jet.terms.items() if t1_monomial_alive(jet.ctx, e)})


def nabla(v: LogDerivation, g: Jet):
    """Connection action of a log derivation on the class of the jet g in
    T1, as its reduced jet (t1_reduce).

    Valid one order below the context order when v has smooth directions.
    """
    if v.ctx != g.ctx:
        raise ValueError("derivation and section context mismatch")
    return t1_reduce(v.apply(g) - v.log_trace().mul_to(g, g.ctx.order))


class FlatUnitResult(namedtuple("FlatUnitResult", "ok order unit failing_degree unique",
                                defaults=(None, None, None))):
    __slots__ = ()


def _zeros(e, r):
    """The crossing positions i < r where e_i = 0, as a bit mask."""
    return sum(1 << i for i in range(r) if not e[i])


@lru_cache(maxsize=16)
def _t1_unknowns(ctx):
    """The monomials of degree 1 to the order of ctx alive in T1 (at most
    r - 2 crossing exponents nonzero), by degree, then lex, and where each
    degree starts: those of degree k are unknowns[starts[k]:starts[k + 1]],
    for k = 0 .. order.  Listed directly, and cached per ctx, since every
    solve on one germ walks them."""
    n, r = ctx.n, ctx.r
    out, starts = [], [0]

    def fill(e, i, left, spare):  # slot i takes 0..left; a crossing one only 0 once spare is 0
        if i == n - 1:
            if not left or i >= r or spare:
                out.append(e + (left,))
            return
        for v in range(left + 1 if spare or i >= r else 1):
            fill(e + (v,), i + 1, left - v, spare - (v > 0 and i < r))

    for deg in range(1, ctx.order + 1):
        starts.append(len(out))
        if r >= 2:
            fill((), 0, deg, r - 2)
    starts.append(len(out))
    return tuple(out), tuple(starts)


class _Terms:
    """The coefficient terms of one generator v, grouped for its rows.

    With trace = b_1 + ... + b_r,

        nabla_v x^e = sum_m (sum_i e_i b_i[m] - trace[m]) x^(e + m)
                      + sum_j e_j sum_m a_j[m] x^(e - 1_j + m).

    A target survives in T1 by its first r exponents alone, e[:r] + m[:r]
    (the smooth index j does not touch them): when at least two crossing
    positions are zero in both e and m.  So the terms that keep it alive
    are listed once per zero pattern of the head h = e[:r], and per head
    the crossing coefficient sum_i h_i b_i[m] - trace[m] is summed once.
    Terms are listed by ascending deg m, coefficients as ints where integral.
    nabla_v 1 = -trace seeds both solves: its terms alive in T1 through
    degree order - 1, the equations' degrees, are kept as trace.
    """

    def __init__(self, v):
        r = self.r = v.ctx.r
        support = sorted({m for bi in v.b for m in bi.terms}, key=sum)
        # (m, deg m, zeros of m, (b_1[m], ..., b_r[m]), trace[m])
        self.b = []
        for m in support:
            bm = tuple(_exact(bi.terms.get(m, 0)) for bi in v.b)
            self.b.append((m, sum(m), _zeros(m, r), bm, _exact(sum(bm))))
        # (k, [(m, deg m, zeros of m, a_j[m])]) for each nonzero a_j, k = r + j
        self.a = [(r + j, sorted(((m, sum(m), _zeros(m, r), _exact(c))
                                  for m, c in aj.terms.items()), key=lambda t: t[1]))
                  for j, aj in enumerate(v.a) if aj.terms]
        # (m, deg m, trace[m])
        self.trace = [(m, dm, tr) for m, dm, _, _, tr in self.b
                      if tr and dm < v.ctx.order and t1_monomial_alive(v.ctx, m)]
        self.patterns = {}
        self.heads = {}

    def at(self, h):
        """The crossing terms [(m, deg m, coefficient)] and the smooth ones
        [(k, [(m, deg m, a_j[m])])] of the head h that keep x^(e + m)
        alive."""
        out = self.heads.get(h)
        if out is None:
            pattern = tuple(map(bool, h))
            alive = self.patterns.get(pattern)
            if alive is None:
                zeros = _zeros(h, self.r)
                alive = self.patterns[pattern] = (
                    [(m, dm, bm, tr) for m, dm, mz, bm, tr in self.b
                     if (zeros & mz).bit_count() >= 2],
                    [(k, [(m, dm, c) for m, dm, mz, c in terms if (zeros & mz).bit_count() >= 2])
                     for k, terms in self.a])
            b_alive, smooth = alive
            crossing = [(m, dm, _exact(c)) for m, dm, bm, tr in b_alive
                        if (c := sum(map(mul, h, bm)) - tr)]
            out = self.heads[h] = (crossing, smooth)
        return out

    def images(self, e, room):
        """The terms (shift, target, coefficient) of nabla_v x^e alive in
        T1 whose target has degree at most deg e + room, the target of
        degree deg e + shift."""
        crossing, smooth = self.at(e[:self.r])
        for m, dm, c in crossing:
            if dm > room:
                break
            yield dm, tuple(map(add, e, m)), c
        for k, a_terms in smooth:
            ek = e[k]
            if not ek:
                continue
            lowered = e[:k] + (ek - 1,) + e[k + 1:]
            for m, dm, c in a_terms:
                if dm > room + 1:
                    break
                yield dm - 1, tuple(map(add, lowered, m)), ek * c


def _substitute(ctx, gens):
    """The flat unit by forward substitution, where the rows of nabla are
    triangular by degree, or None where they are not (see find_flat_unit).

    gens holds each generator's _Terms.  The result is the degree-0 "no"
    when some trace tau_v is nonzero, else a unit that find_flat_unit
    still certifies: each unknown x^e through degree order - 1 takes one
    division by the first nonzero weight <e, lambda_v> - tau_v, and a
    nonzero value pushes its off-diagonal terms into every generator's
    residuals, keyed by target monomial.  A resonant unknown, of weight 0
    under every generator, returns None.
    """
    n, r, d = ctx
    top = d - 1
    if r < 2:
        return None
    weights = []  # per generator, lambda_v = (b_1(0), ..., b_r(0), mu_{r+1}, ..., mu_n)
    for terms in gens:
        lam = [0] * n
        if terms.b and not terms.b[0][1]:
            lam[:r] = terms.b[0][3]
        for k, a_terms in terms.a:
            for m, dm, _, c in a_terms:
                if dm > 1:
                    break
                if not dm or not m[k]:  # a constant term, or a linear one off x_k
                    return None
                lam[k] = c
        weights.append(lam)
    if any(sum(lam[:r]) for lam in weights):
        return FlatUnitResult(False, d, failing_degree=0)
    # residuals: the part of nabla_v g at each target that the unknowns
    # valued so far give, off the diagonal; nabla_v 1 = -trace starts them
    residuals = [{m: -c for m, _, c in terms.trace} for terms in gens]
    unknowns, starts = _t1_unknowns(ctx)
    values = {}
    for e in unknowns[:starts[d]]:  # those of degree d are in no row
        for lam, res in zip(weights, residuals):
            w = sum(map(mul, e, lam))
            if w:
                break
        else:
            return None
        c = res.get(e)
        if not c:
            continue
        g = values[e] = Fraction(-c, w)
        for terms, res in zip(gens, residuals):
            for shift, t, c in terms.images(e, top - sum(e)):
                if shift:  # off the diagonal, the one term at shift 0
                    res[t] = res.get(t, 0) + c * g
    return FlatUnitResult(True, d, unit=Jet.one(ctx) + Jet(ctx, values), unique=True)


def _eliminate(ctx, gens):
    """The flat unit by the cumulative echelon over every generator's rows,
    for any input (see find_flat_unit); gens holds each generator's
    _Terms."""
    d = ctx.order
    unknowns, starts = _t1_unknowns(ctx)
    n = len(unknowns)
    top = d - 1  # the highest equation degree
    # per equation degree, its rows keyed (generator, equation monomial), the
    # right-hand side -nabla_v 1 = trace in column n
    rows = [{} for _ in range(d)]
    for g, terms in enumerate(gens):
        for m, dm, c in terms.trace:
            rows[dm][g, m] = {n: c}

    basis = {}
    for deg in range(d):
        room = top - deg - 1
        for g, terms in enumerate(gens):
            for col in range(starts[deg + 1], starts[deg + 2]):
                for shift, t, c in terms.images(unknowns[col], room):
                    row = rows[deg + 1 + shift].setdefault((g, t), {})
                    row[col] = row.get(col, 0) + c
        linalg.echelon(rows[deg].values(), n + 1, basis, reduced=deg == top)
        if n in basis:
            return FlatUnitResult(False, d, failing_degree=deg)
    sol = linalg.solution(basis, n)
    unit = Jet.one(ctx) + Jet(ctx, {e: sol[i] for i, e in enumerate(unknowns) if sol[i]})
    # uniqueness is judged on the coefficients the equations can reach, i.e.
    # through degree d - 1 (the columns before starts[d]); the top tail is
    # unconstrained by construction.  The kernel has one vector per free
    # column f, with -R[c][f] in each pivot column c of the reduced rows R,
    # so it vanishes there exactly when every such column is a pivot whose
    # row holds no free column.
    unique = all(i in basis and len(basis[i]) == 1 + (n in basis[i]) for i in range(starts[d]))
    return FlatUnitResult(True, d, unit=unit, unique=unique)


def find_flat_unit(fol: FoliationGerm):
    """Solve nabla_v g = 0 for all generators v with g(0) = 1.

    Equations are imposed degree by degree up to the germ's order - 1 (the
    connection costs one order of validity). A failure names the first degree whose
    cumulative linear system is inconsistent; that failure is definitive,
    since a germ solution would truncate to a jet solution. When solutions
    exist the result carries one of them and whether it was unique.

    The system's entries come straight from the coefficient terms of the
    b_i and a_j (_Terms), as ints where integral; no jet is built per
    unknown.  Two solves read them, and the input picks one:

    - Substitution (_substitute), where the rows are triangular by degree.
      Take r >= 2, and every generator v with no constant term in any a_j
      and a degree-1 part of each a_j that is mu_j x_j alone.  Then
      nabla_v x^e is (<e, lambda_v> - tau_v) x^e plus terms of higher
      degree, with lambda_v = (b_1(0), ..., b_r(0), mu_{r+1}, ..., mu_n)
      and tau_v = b_1(0) + ... + b_r(0): a row of degree k holds unknowns
      of degree <= k, and its own monomial only on the diagonal.  The
      degree-0 row is tau_v = 0.  If no unknown through degree order - 1
      has weight 0 under every generator, choosing for each one the row of
      the first generator with a nonzero weight gives a triangular system
      with exactly one solution on those unknowns, the degree-order ones
      appearing in no row.  Every solution of the whole system solves it,
      so when the certificate below passes the whole system's solutions
      are that one plus a free top degree: the echelon would return the
      same unit (free columns 0), with unique true.  When it fails no unit
      exists, and the echelon is asked for the failing degree.
    - Elimination (_eliminate), for every other input: entries are added
      where they land in rows keyed (generator, equation monomial), one
      store per equation degree.  A row of degree k holds unknowns of
      degree k + 1 at most (a smooth coefficient's constant term lowers the
      degree by one), so once the unknowns of degree k + 1 are walked, the
      degree-k rows extend one echelon basis, and the solve stops at the
      first inconsistent degree with little built past it.  The order of
      the rows within a degree does not matter: the inconsistency test and
      the reduced basis depend only on the row space.

    A resonant unknown, or a substituted unit that fails its certificate,
    hands the call to elimination.  A "yes" is re-checked through nabla
    before it is returned: nabla_v g must vanish in T1 through degree
    order - 1 for every generator, and RuntimeError says it does not, or
    that elimination finds a unit where substitution's failed.
    """
    ctx = fol.ctx
    if not involutivity_check(fol).ok:
        raise ValueError("generators are not involutive at this order")
    top = ctx.order - 1

    def flat(unit):
        return all(nabla(v, unit).truncate(top).is_zero() for v in fol.generators)

    gens = [_Terms(v) for v in fol.generators]
    res = _substitute(ctx, gens)
    if res is not None and (not res.ok or flat(res.unit)):
        return res
    found = _eliminate(ctx, gens)
    if found.ok and res is not None:
        raise RuntimeError("flat unit certificate failed: the substituted unit is not flat "
                           "in T1 through degree %d, and elimination finds a unit" % top)
    if found.ok and not flat(found.unit):
        raise RuntimeError("flat unit certificate failed: nabla_v g is not zero "
                           "in T1 through degree %d" % top)
    return found


# -- residue machinery --

def laurent_residue(numer, denom, available_order):
    """Residue at 0 of (numer / denom) dz for univariate coefficient dicts.

    denom = z^m * unit; the residue is the z^(m-1) coefficient of
    numer * unit^(-1), with the unit inverted by Jet.invert, so int or
    Fraction input gives a Fraction. Raises when the truncation cannot reach
    that far.
    """
    if not denom:
        raise ZeroDivisionError("denominator is identically zero at this order")
    m = min(denom)
    need = m - 1
    if need < 0:
        return Fraction(0)
    if need > available_order - m:
        raise InconclusiveAtOrderError(
            "need %d coefficients of a quotient but only %d are trustworthy"
            % (need + 1, available_order - m + 1)
        )
    # (denom / z^m)^(-1) through degree need, 1/lead included
    inv = Jet.make(GermContext(1, 0, max(need, 1)),
                   {(k - m,): c for k, c in denom.items()}).invert(need).terms
    return sum((c * inv.get((need - i,), 0) for i, c in numer.items() if 0 <= i <= need),
               Fraction(0))


def _crossing_pair(ctx, i, j):
    """Refuse 0-based indices i, j that are not two distinct crossing
    variables of ctx."""
    if i == j or not (0 <= i < ctx.r) or not (0 <= j < ctx.r):
        raise ValueError("indices must name two distinct crossing variables")


def cs_index_log(form: LogOneForm, i, j):
    """Index of the form along the double stratum {x_i = x_j = 0}.

    With the form a_1 dx_1/x_1 + ... + a_r dx_r/x_r + eta, the index for the
    component {x_i = 0} along the stratum is the residue of

        (1 / (a_j - a_i)) * ( sum_{k != i,j} (a_k - a_i) dx_k/x_k + eta )

    restricted to the stratum. The dlog terms contribute their value at the
    origin.  The regular part eta never contributes: a_j - a_i is a unit on
    the stratum, as a_i(0) != a_j(0) is required, so eta / (a_j - a_i) is
    regular there and has no residue, even where the stratum is a curve
    with a smooth coordinate.
    """
    ctx = form.ctx
    _crossing_pair(ctx, i, j)
    ai0 = form.dlog[i].constant_term()
    aj0 = form.dlog[j].constant_term()
    denom0 = aj0 - ai0
    if denom0 == 0:
        raise ResonanceError(
            "resonant stratum: a_%d and a_%d agree at the origin" % (i + 1, j + 1)
        )
    total = Fraction(0)
    for k in range(ctx.r):
        if k in (i, j):
            continue
        total += Fraction(form.dlog[k].constant_term() - ai0, denom0)
    return total


def cs_index_surface(form: SurfaceOneForm):
    """Classical index of A dy + B dz along the invariant curve {y = 0}.

    Equals -Res_{z=0} ((B/y)(0, z) / A(0, z)) dz, computed by exact Laurent
    expansion. For the linear model q dy - lam*y dz this returns lam.
    """
    if not form.curve_is_invariant():
        raise NonInvariantError("B(0, z) != 0, the curve {y = 0} is not invariant")
    ctx = form.ctx
    # every monomial of B contains y, so dividing by y is exact
    bt_terms = {}
    for e, c in form.B.terms.items():
        bt_terms[(e[0] - 1, e[1])] = c
    b_over_y = Jet.make(ctx, bt_terms)
    numer = b_over_y.set_zero(0).univariate(1)
    denom_jet = form.A.set_zero(0)
    if denom_jet.is_zero():
        raise InconclusiveAtOrderError(
            "A(0, z) vanishes up to order %d" % ctx.order
        )
    return -laurent_residue(numer, denom_jet.univariate(1), ctx.order)


# -- discrete compatibility checks along a double stratum --

class HolonomyData(namedtuple("HolonomyData", "values")):
    """Linear holonomy eigenvalues of one component along a stratum."""

    __slots__ = ()

    def __new__(cls, values):
        vals = tuple(map(_exact, values))
        if any(v == 0 for v in vals):
            raise ValueError("holonomy values must be nonzero")
        return tuple.__new__(cls, (vals,))


def check_holonomy_compatibility(h1: HolonomyData, h2: HolonomyData):
    """Gluing constraint: the two linear holonomies must be inverse to each
    other, componentwise h1[k] * h2[k] = 1."""
    if len(h1.values) != len(h2.values):
        raise ValueError("holonomy tuples have different lengths")
    return all(a * b == 1 for a, b in zip(h1.values, h2.values))


def check_normal_degrees(d1, d2):
    """Degrees of the normal bundles of the stratum in its two ambient
    components must be opposite: d1 + d2 = 0."""
    return _integer(d1) + _integer(d2) == 0
