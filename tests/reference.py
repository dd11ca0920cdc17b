"""Reference enumerations and small constructions the tests build cases from.

No command reaches them, so they live with the tests and not in logfol:
monomials is the enumeration semistability._t1_unknowns is checked against,
at_order reads a field on its germ at another order, since every solver
decides at its germ's order, and abelian_algebra and adjoint_module build
Lie data for the cochain tests.
"""

from functools import lru_cache

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


def abelian_algebra(n):
    zero = (0,) * n
    return LieAlgebra(tuple(tuple(zero for _ in range(n)) for _ in range(n)))


def adjoint_module(algebra: LieAlgebra) -> LieModuleData:
    return LieModuleData(
        algebra, tuple(algebra.adjoint_matrix({i: 1}) for i in range(algebra.dim)))
