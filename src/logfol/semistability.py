"""Semistability of a foliated crossing germ, decided by exact jet solves.

The infinitesimal normal module T1 of the germ {x_1 ... x_r = 0} is the
quotient of the function ring by the partial crossing products
hat_x_i = x_1 ... x_{i-1} x_{i+1} ... x_r. A log derivation v acts on it by

    nabla_v g = v(g) - (b_1 + ... + b_r) g

which is jet-linear in v and a connection in g. A foliation is of semistable
type exactly when a nowhere-vanishing flat section exists, so find_flat_unit
solves nabla_v g = 0 for all generators with g(0) = 1, degree by degree.

Camacho-Sad indices along double strata come in two independent flavors: the
residue formula attached to a log one-form (cs_index_log) and the classical
surface residue along an invariant curve (cs_index_surface). They are kept
separate on purpose so each can cross-check the other.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .foliations import (
    FoliationGerm,
    InconclusiveAtOrderError,
    NonInvariantError,
    SurfaceOneForm,
    involutivity_check,
)
from .jets import GermContext, Jet, monomials
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


@dataclass(frozen=True)
class T1Section:
    """Class in T1, stored by its reduced representative."""

    g: Jet

    @classmethod
    def make(cls, jet):
        return cls(t1_reduce(jet))

    @property
    def ctx(self):
        return self.g.ctx

    def is_zero(self):
        return self.g.is_zero()


def nabla(v: LogDerivation, section: T1Section):
    """Connection action of a log derivation on a T1 class.

    Valid one order below the context order when v has smooth directions.
    """
    g = section.g
    if v.ctx != g.ctx:
        raise ValueError("derivation and section context mismatch")
    return T1Section.make(v.apply(g) - v.log_trace() * g)


def _crossing_coefficient(v, trace, head):
    """sum_i e_i b_i - trace for the exponents e starting with head = e[:r]."""
    return sum((bi.scale(hi) for hi, bi in zip(head, v.b) if hi and bi.terms), -trace)


def _nabla_monomial(v, crossing, e):
    """nabla_v x^e in T1, built from shifts of v's coefficients.

    v(x^e) = sum_i e_i b_i x^e + sum_j e_j a_j x^(e - 1_j), so with the log
    trace of v this is (sum_i e_i b_i - trace) x^e + sum_j e_j a_j x^(e - 1_j);
    crossing is the first coefficient, which depends on e[:r] alone.
    """
    r = v.ctx.r
    img = crossing.shift(e)
    for j, aj in enumerate(v.a):
        k = r + j
        if e[k] and aj.terms:
            img = img + aj.scale(e[k]).shift(e[:k] + (e[k] - 1,) + e[k + 1:])
    return t1_reduce(img)


@dataclass(frozen=True)
class FlatUnitResult:
    ok: bool
    order: int
    unit: Jet = None
    failing_degree: int = None
    unique: bool = None

    def __bool__(self):
        return self.ok


def find_flat_unit(fol: FoliationGerm, order=None, check_involutive=True):
    """Solve nabla_v g = 0 for all generators v with g(0) = 1.

    Equations are imposed degree by degree up to order - 1 (the connection
    costs one order of validity). A failure names the first degree whose
    cumulative linear system is inconsistent; that failure is definitive,
    since a germ solution would truncate to a jet solution. When solutions
    exist the result carries one of them and whether it was unique.
    """
    ctx = fol.ctx
    d = order if order is not None else ctx.order
    if d <= 0:
        raise ValueError("order too small to decide anything")
    if check_involutive and not involutivity_check(fol, order=d):
        raise ValueError("generators are not involutive at this order")

    unknowns = [e for e in monomials(ctx, d) if sum(e) >= 1 and t1_monomial_alive(ctx, e)]
    col_of = {e: i for i, e in enumerate(unknowns)}
    zero = (0,) * ctx.n

    # nabla of the constant part and of each unknown monomial, per generator;
    # a monomial past the context order is zero in the ring: no image, so its
    # column stays zero
    images = []  # list over generators of (const_image, {e_mono: image jet})
    r = ctx.r
    heads = {e[:r] for e in unknowns} | {zero[:r]}
    for v in fol.generators:
        trace = v.log_trace()
        crossing = {h: _crossing_coefficient(v, trace, h) for h in heads}
        mono_img = {e: _nabla_monomial(v, crossing[e[:r]], e)
                    for e in unknowns if sum(e) <= ctx.order}
        images.append((_nabla_monomial(v, crossing[zero[:r]], zero), mono_img))

    # the degree-deg system is the degree-(deg - 1) one plus the rows whose
    # equation monomial has degree deg, so one echelon basis is extended
    n = len(unknowns)
    system = linalg.RowBuilder(n)  # rows keyed (generator, equation monomial)
    for gi, (const_img, mono_img) in enumerate(images):
        for e, c in const_img.terms.items():
            if sum(e) < d:
                system.add_rhs((gi, e), -c)
        for e_mono, img in mono_img.items():
            col = col_of[e_mono]
            for e, c in img.terms.items():
                if sum(e) < d:
                    system.add((gi, e), col, c)
    by_degree = [[] for _ in range(d)]
    for (_, e), row in system.rows.items():
        by_degree[sum(e)].append(row)

    basis = {}
    for deg in range(d):
        linalg.echelon(by_degree[deg], n + 1, basis, reduced=deg == d - 1)
        if n in basis:
            return FlatUnitResult(False, d, failing_degree=deg)
    sol = linalg.solution(basis, n)
    # an unknown past the context order has a zero column, hence sol 0
    unit = Jet.one(ctx) + Jet(ctx, {e: sol[i] for e, i in col_of.items() if sol[i]})
    # uniqueness is judged on the coefficients the equations can reach, i.e.
    # through degree d - 1; the top tail is unconstrained by construction.
    # The kernel has one vector per free column f, with -R[c][f] in each
    # pivot column c of the reduced rows R, so it vanishes there exactly when
    # every such column is a pivot whose row holds no free column.
    unique = all(
        i in basis and all(j == i or j == n for j in basis[i])
        for e, i in col_of.items() if sum(e) <= d - 1
    )
    return FlatUnitResult(True, d, unit=unit, unique=unique)


# -- residue machinery --

def laurent_residue(numer, denom, available_order):
    """Residue at 0 of (numer / denom) dz for univariate coefficient dicts.

    denom = z^m * unit; the residue is the z^(m-1) coefficient of
    numer * unit^(-1). Raises when the truncation cannot reach that far.
    """
    if not denom:
        raise ZeroDivisionError("denominator is identically zero at this order")
    m = min(denom)
    lead = denom[m]
    shifted = {k - m: c / lead for k, c in denom.items()}  # unit with constant 1
    need = m - 1
    if need < 0:
        return Fraction(0)
    if need > available_order - m:
        raise InconclusiveAtOrderError(
            "need %d coefficients of a quotient but only %d are trustworthy"
            % (need + 1, available_order - m + 1)
        )
    # invert the unit as a power series up to degree `need`
    inv = {0: Fraction(1)}
    for k in range(1, need + 1):
        acc = Fraction(0)
        for i in range(1, k + 1):
            if i in shifted and (k - i) in inv:
                acc += shifted[i] * inv[k - i]
        inv[k] = -acc
    res = Fraction(0)
    for i, c in numer.items():
        j = need - i
        if 0 <= j <= need:
            res += c * inv[j]
    return res / lead


def cs_index_log(form: LogOneForm, i, j):
    """Index of the form along the double stratum {x_i = x_j = 0}.

    With the form a_1 dx_1/x_1 + ... + a_r dx_r/x_r + eta, the index for the
    component {x_i = 0} along the stratum is the residue of

        (1 / (a_j - a_i)) * ( sum_{k != i,j} (a_k - a_i) dx_k/x_k + eta )

    restricted to the stratum. The dlog terms contribute their value at the
    origin; the regular part contributes an honest curve residue when the
    stratum is one-dimensional with a smooth coordinate, and zero otherwise
    by regularity. Requires a_i(0) != a_j(0).
    """
    ctx = form.ctx
    if i == j or not (0 <= i < ctx.r) or not (0 <= j < ctx.r):
        raise ValueError("indices must name two distinct crossing variables")
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
        total += (form.dlog[k].constant_term() - ai0) / denom0
    if ctx.n - 2 == 1:
        rest = [l for l in range(ctx.n) if l not in (i, j)]
        l = rest[0]
        if l >= ctx.r:
            c = form.reg[l - ctx.r].set_zero(i).set_zero(j)
            den = (form.dlog[j] - form.dlog[i]).set_zero(i).set_zero(j)
            total += laurent_residue(c.univariate(l), den.univariate(l), ctx.order)
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

@dataclass(frozen=True)
class HolonomyData:
    """Linear holonomy eigenvalues of one component along a stratum."""

    values: tuple

    def __post_init__(self):
        vals = tuple(Fraction(v) for v in self.values)
        if any(v == 0 for v in vals):
            raise ValueError("holonomy values must be nonzero")
        object.__setattr__(self, "values", vals)


def check_holonomy_compatibility(h1: HolonomyData, h2: HolonomyData):
    """Gluing constraint: the two linear holonomies must be inverse to each
    other, componentwise h1[k] * h2[k] = 1."""
    if len(h1.values) != len(h2.values):
        raise ValueError("holonomy tuples have different lengths")
    return all(a * b == 1 for a, b in zip(h1.values, h2.values))


def check_normal_degrees(d1, d2):
    """Degrees of the normal bundles of the stratum in its two ambient
    components must be opposite: d1 + d2 = 0."""
    return int(d1) + int(d2) == 0
