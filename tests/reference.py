"""Reference enumerations and small constructions the tests build cases from.

No command reaches them, so they live with the tests and not in logfol:
monomials is the enumeration semistability._t1_unknowns is checked against,
at_order reads a field on its germ at another order, since every solver
decides at its germ's order, basis_derivation gives the basis fields of
the log tangent module, abelian_algebra and adjoint_module build Lie data
for the cochain tests, coboundary_triple builds obstruction triples that
are coboundaries by construction, serre_dual gives the dual bundle on
the nodal curve, and inverse gives the inverse matrix it dualizes the glue
with (a command asks linalg.rank whether a glue matrix is invertible).
"""

from fractions import Fraction
from functools import lru_cache

from logfol import linalg
from logfol.bundles import GradedBundleP1, SNCCurveBundle
from logfol.jets import GermContext, Jet, _on_crossing
from logfol.leafcomplex import LieAlgebra, LieModuleData
from logfol.logcalc import LogDerivation


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
    n = len(bundle.glue)
    return SNCCurveBundle(
        GradedBundleP1(tuple(-d - 1 for d in bundle.left.degrees)),
        GradedBundleP1(tuple(-d - 1 for d in bundle.right.degrees)),
        tuple(zip(*inverse(linalg.SparseRows([dict(enumerate(r)) for r in bundle.glue], n)))),
    )


def inverse(a):
    """The inverse of a square matrix given as linalg.SparseRows, as rows of
    Fractions, by linalg's elimination engine on [a | I]; ValueError if it
    is singular or not square."""
    n = len(a)
    if linalg._width(a) != n:
        raise ValueError("matrix is not square")
    rows = []
    for i, row in enumerate(a):
        r = linalg._nonzeros(row, n)
        r[n + i] = 1
        rows.append(linalg._integer_row(r))
    basis = linalg._echelon(rows, {}, True)
    if sorted(basis) != list(range(n)):
        raise ValueError("matrix is singular")
    return [[Fraction(basis[i].get(n + j, 0), basis[i][i]) for j in range(n)] for i in range(n)]
