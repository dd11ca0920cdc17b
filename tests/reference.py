"""Reference enumerations and small constructions the tests build cases from.

No command reaches them, so they live with the tests and not in logfol:
read_jet and read_field read text on the default names x1..xn, variable,
power, formatted and agree_to_order are the jet arithmetic the solvers do
without, zero_field, add_fields, scaled, is_zero_field and
format_derivation the module operations on log derivations and their
printed form, solve is linalg's one solve on rows and a dense right-hand
side, nullspace is a kernel basis by linalg's elimination engine,
monomials is the enumeration semistability._t1_unknowns is checked against,
at_order reads a field on its germ at another order, since every solver
decides at its germ's order, basis_derivation gives the basis fields of
the log tangent module, abelian_algebra and adjoint_module build Lie data
for the cochain tests, coboundary_triple builds obstruction triples that
are coboundaries by construction, serre_dual gives the dual bundle on
the nodal curve, inverse gives the inverse matrix it dualizes the glue
with (a command asks linalg.rank whether a glue matrix is invertible), and
lie_defect is the Lie obstruction's cocycle as it was written out by hand.
"""

from fractions import Fraction
from functools import lru_cache
from operator import mul

from logfol import linalg
from logfol.bundles import GradedBundleP1, SNCCurveBundle
from logfol.exprs import _power
from logfol.jets import GermContext, Jet, _on_crossing, format_jet, jet_from_string, name_table
from logfol.leafcomplex import (LieAlgebra, LieModuleData, _augmented, _combine, _dense,
                                _from_columns, ce_basis)
from logfol.logcalc import LogDerivation, derivation_from_string, derivation_table


def read_jet(ctx, text, params=None):
    """jets.jet_from_string on the default names x1..xn."""
    return jet_from_string(ctx, text, name_table(ctx, ctx.default_names()), params)


def read_field(ctx, text, params=None):
    """logcalc.derivation_from_string on the default names x1..xn and their
    tokens d1..dn."""
    return derivation_from_string(ctx, text, derivation_table(ctx, ctx.default_names()), params)


def variable(ctx, i):
    """The jet x_i, for a 0-based index i."""
    return Jet(ctx, {tuple(int(k == i) for k in range(ctx.n)): 1})


def power(jet, k):
    """jet ** k for an int k >= 0, by repeated squaring."""
    return _power(jet, k, Jet.one(jet.ctx), mul)


def formatted(jet):
    """format_jet on the default names, which prints only nonzero jets, and
    "0" for zero."""
    return format_jet(jet, jet.ctx.default_names()) if jet.terms else "0"


def agree_to_order(x, y, order):
    """Do the jets or log derivations x and y agree through degree order?"""
    if isinstance(x, LogDerivation):
        return all(agree_to_order(a, b, order) for a, b in zip(x.components(), y.components()))
    return (x - y).truncate(order).is_zero()


def zero_field(ctx):
    z = Jet.zero(ctx)
    return LogDerivation(ctx, (z,) * ctx.r, (z,) * (ctx.n - ctx.r))


def add_fields(v, w):
    return LogDerivation(v.ctx, tuple(map(Jet.__add__, v.b, w.b)),
                         tuple(map(Jet.__add__, v.a, w.a)))


def scaled(v, f):
    """v times a jet or a rational scalar f."""
    return LogDerivation(v.ctx, tuple(c * f for c in v.b), tuple(c * f for c in v.a))


def is_zero_field(v):
    return not any(c.terms for c in v.components())


def format_derivation(v):
    """v as text that read_field reads back, "0" for the zero field."""
    names = v.ctx.default_names()
    parts = ["(%s)*%s*d%s" % (format_jet(c, names), names[i], names[i])
             for i, c in enumerate(v.b) if c.terms]
    parts += ["(%s)*d%s" % (format_jet(c, names), names[v.ctx.r + j])
              for j, c in enumerate(v.a) if c.terms]
    return " + ".join(parts) if parts else "0"


def solve(a, b, n):
    """One solution of a x = b, for {column: value} rows a in n unknowns and
    a dense b, with free variables 0, or None: linalg.solution on the
    echelon of [a | b]."""
    return linalg.solution(linalg.echelon(_augmented(a, b, n)), n)


def nullspace(a, n):
    """Basis of the kernel of the {column: value} rows a in n columns, as a
    list of vectors, one per free column."""
    basis = linalg.echelon(a)
    out = {}
    for f in range(n):
        if f not in basis:
            out[f] = [Fraction(0)] * n
            out[f][f] = Fraction(1)
    for col, row in basis.items():
        for j, v in row.items():
            if j != col:
                out[j][col] = Fraction(-v, row[col])
    return list(out.values())


@lru_cache(maxsize=16)
def monomials(ctx, max_degree):
    """All normal-form exponent tuples of total degree <= max_degree.

    A tuple sorted by degree, then lexicographically; cached per
    (ctx, max_degree).
    """
    out = []

    def rec(prefix, remaining, slots):
        if slots == 0:
            e = tuple(prefix)
            if not _on_crossing(e, ctx.r):
                out.append(e)
            return
        for v in range(remaining + 1):
            rec(prefix + [v], remaining - v, slots - 1)

    rec([], max_degree, ctx.n)
    out.sort(key=lambda e: (sum(e), e))
    return tuple(out)


def at_order(v, order):
    """The log derivation v on the same germ at order: its terms past that
    order dropped, none added."""
    ctx = GermContext(v.ctx.n, v.ctx.r, order)
    b, a = (tuple(Jet.make(ctx, c.terms) for c in part) for part in (v.b, v.a))
    return LogDerivation(ctx, b, a)


def basis_derivation(ctx, i):
    """The i-th basis derivation on ctx: x_i d_i if i < r, else d_i."""
    z = Jet.zero(ctx)
    one = Jet.one(ctx)
    b = [z] * ctx.r
    a = [z] * (ctx.n - ctx.r)
    if i < ctx.r:
        b[i] = one
    else:
        a[i - ctx.r] = one
    return LogDerivation(ctx, tuple(b), tuple(a))


def abelian_algebra(n):
    zero = (0,) * n
    return LieAlgebra(tuple(tuple(zero for _ in range(n)) for _ in range(n)))


def adjoint_module(algebra: LieAlgebra) -> LieModuleData:
    return LieModuleData(
        algebra, tuple(algebra.adjoint_matrix({i: 1}) for i in range(algebra.dim)))


def coboundary_triple(data, rho, hbar):
    """Total differential of a degree-one pair, split into the three layers.

    rho is a row-0 cochain on pairs, hbar a row-1 cochain on the opens, of
    ints or Fractions; the result (theta, gbar, bbar) satisfies all four
    obstruction equations.
    """
    image = linalg.mat_vec(data.total_matrix(1), [x for v in list(rho) + list(hbar) for x in v])
    return data.split(image, data.total_components(2))


def serre_dual(bundle: SNCCurveBundle) -> SNCCurveBundle:
    """Componentwise dual twisted by degree -1 on each side.

    h1 of the original equals h0 of this bundle; the node identification
    dualizes to the inverse transpose.
    """
    return SNCCurveBundle(
        GradedBundleP1(tuple(-d - 1 for d in bundle.left.degrees)),
        GradedBundleP1(tuple(-d - 1 for d in bundle.right.degrees)),
        tuple(zip(*inverse([dict(enumerate(r)) for r in bundle.glue]))),
    )


def inverse(a):
    """The inverse of a square matrix given as {column: value} rows, as rows
    of Fractions, by linalg's elimination engine on [a | I]; ValueError if
    it is singular, or not square: a nonzero entry at a column past its
    rows."""
    n = len(a)
    if any(v and not 0 <= j < n for row in a for j, v in row.items()):
        raise ValueError("matrix is not square")
    basis = linalg.echelon({**row, n + i: 1} for i, row in enumerate(a))
    if sorted(basis) != list(range(n)):
        raise ValueError("matrix is singular")
    return [[Fraction(basis[i].get(n + j, 0), basis[i][i]) for j in range(n)] for i in range(n)]


def lie_defect(data):
    """The cocycle of leafcomplex.lie_subalgebra_obstruction as it was
    written out by hand: the defect mu + [p_a, s_b] + [s_a, p_b] -
    sum_k c_ab^k p_k of each pair a < b of the sub basis s with perturbation
    p, reduced modulo the subalgebra, together with the quotient module
    g/h it takes values in."""
    algebra, sub, pert = data.algebra, data.sub_basis, data.perturbation
    n = algebra.dim
    reduced = {p: {j: Fraction(x, row[p]) for j, x in row.items()}
               for p, row in linalg.echelon(sub).items()}
    free = {j: f for f, j in enumerate(j for j in range(n) if j not in reduced)}
    q = len(free)

    def project(v):
        w = _combine([(1, v)] + [(-v[p], reduced[p]) for p in reduced if p in v])
        return {free[j]: x for j, x in w.items()}

    quot = LieModuleData(data.sub_algebra, tuple(
        _from_columns([project(algebra.bracket(v, {j: 1})) for j in free], q) for v in sub))
    cocycle = []
    for a, b in ce_basis(len(sub), 2):
        value = _combine(
            [(1, data.mu[a][b]), (1, algebra.bracket(pert[a], sub[b])),
             (1, algebra.bracket(sub[a], pert[b]))]
            + [(-c, pert[k]) for k, c in data.sub_algebra.structure[a][b].items()])
        cocycle.append(tuple(_dense(project(value), q)))
    return tuple(cocycle), quot
