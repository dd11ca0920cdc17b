"""Foliation germs on crossing germs and their gluing across components.

A foliation is presented by log derivation generators. Membership questions
(is a bracket in the span, does a field restrict into a component foliation)
are linear solves over the jet coefficients up to the truncation order, so
every positive answer is "at the reported order" while a negative answer is
definitive: a germ-level identity would truncate to a jet-level one.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .jets import ContextMismatchError, GermContext, Jet, monomials
from .logcalc import LogDerivation, lie_bracket


class MissingStratumError(KeyError):
    """A required double stratum has no identification scalar."""

    __str__ = Exception.__str__  # the message as written, not quoted like a key


@dataclass(frozen=True)
class FoliationGerm:
    """Foliation presented by generators, with a declared generic rank."""

    ctx: GermContext
    generators: tuple
    rank: int = 1

    def __post_init__(self):
        gens = tuple(self.generators)
        if not gens:
            raise ValueError("a foliation needs at least one generator")
        for g in gens:
            if g.ctx != self.ctx:
                raise ContextMismatchError("generator context mismatch")
        object.__setattr__(self, "generators", gens)
        if self.rank < 1:
            raise ValueError("declared rank must be >= 1")
        if self.origin_rank() > self.rank:
            raise ValueError(
                "generators are independent of rank %d at the origin, above the "
                "declared rank %d" % (self.origin_rank(), self.rank)
            )

    def origin_rank(self):
        return linalg.rank([dict(enumerate(g.constant_vector())) for g in self.generators])


def _span_system(generators, targets, order):
    """Rows of [A | b_1 ... b_m] for sum_k c_k * gen_k = b_p through degree order.

    Column k * len(monos) + i of A is x^monos[i] * gen_k, column ncols + p
    is targets[p]; rows are keyed (component, equation monomial).
    """
    ctx = targets[0].ctx
    monos = monomials(ctx, order)
    system = linalg.RowBuilder(len(generators) * len(monos))
    for k, gen in enumerate(generators):
        if gen.ctx != ctx:
            raise ContextMismatchError("generator context mismatch")
        for comp_idx, comp in enumerate(gen.components()):
            if not comp.terms:
                continue
            for i_mono, e_mono in enumerate(monos):
                col = k * len(monos) + i_mono
                for e, c in comp.shift(e_mono).terms.items():
                    if sum(e) <= order:
                        system.add((comp_idx, e), col, c)
    for p, target in enumerate(targets):
        for comp_idx, comp in enumerate(target.components()):
            for e, c in comp.terms.items():
                if sum(e) <= order:
                    system.add((comp_idx, e), system.ncols + p, c)
    return monos, system


def span_membership(target, generators, order):
    """Jets c_k with sum_k c_k * gen_k = target up to the given degree.

    Returns the tuple of coefficient jets, or None when the linear system is
    inconsistent (target provably outside the span at this order).
    """
    monos, system = _span_system(generators, (target,), order)
    sol = system.solve()
    if sol is None:
        return None
    coeffs = []
    for k in range(len(generators)):
        # a monomial past the context order spans a zero column, so its
        # coefficient is 0 and every term kept here is normal
        terms = {}
        for i_mono, e in enumerate(monos):
            c = sol[k * len(monos) + i_mono]
            if c:
                terms[e] = c
        coeffs.append(Jet(target.ctx, terms))
    return tuple(coeffs)


@dataclass(frozen=True)
class InvolutivityResult:
    ok: bool
    order: int
    failing_pair: tuple = None

    def __bool__(self):
        return self.ok


def involutivity_check(fol: FoliationGerm, order=None):
    """Are all generator brackets in the jet span of the generators?

    Brackets are valid one order below the context order, so the membership
    is decided at order - 1 (or at the explicit order argument).  One
    echelon of [A | b_1 ... b_m], a right-hand column per bracket, decides
    every pair: bracket p is outside the span exactly when a basis row with
    no entry in A (pivot at or after column n) is nonzero in its column.
    """
    d = (order if order is not None else fol.ctx.order) - 1
    if d < 0:
        raise ValueError("order too small to decide anything")
    gens = fol.generators
    pairs = [(i, j) for i in range(len(gens)) for j in range(i + 1, len(gens))]
    if not pairs:
        return InvolutivityResult(True, d)
    brackets = [lie_bracket(gens[i], gens[j]) for i, j in pairs]
    _, system = _span_system(gens, brackets, d)
    n = system.ncols
    basis = linalg.echelon(system.rows.values(), n + len(pairs), reduced=False)
    bad = {j - n for col, row in basis.items() if col >= n for j in row}
    if bad:
        return InvolutivityResult(False, d, pairs[min(bad)])
    return InvolutivityResult(True, d)


def restrict_derivation(v: LogDerivation, i):
    """Restriction of a log derivation to the component {x_i = 0}.

    The x_i d_i column dies on the component; every other coefficient is
    evaluated at x_i = 0 and reindexed.
    """
    ctx2 = v.ctx.component(i)
    b = tuple(c.restrict_to_component(i) for k, c in enumerate(v.b) if k != i)
    a = tuple(c.restrict_to_component(i) for c in v.a)
    return LogDerivation(ctx2, b, a)


# -- gluing data --

@dataclass(frozen=True)
class SNCGlueData:
    """Components of a crossing configuration with scalar identifications.

    double_scalars maps an ordered component pair (i, j) to the nonzero
    rational scalar of the identification along their common stratum, with
    the opposite orientation stored implicitly as the inverse. triples lists
    the triple strata as index triples.
    """

    components: tuple
    double_scalars: tuple  # ((i, j, Fraction), ...)
    triples: tuple

    def __post_init__(self):
        comps = tuple(self.components)
        object.__setattr__(self, "components", comps)
        seen = {}
        normalized = []
        for i, j, c in self.double_scalars:
            c = Fraction(c)
            if c == 0:
                raise ValueError("identification scalars must be nonzero")
            if i == j or not (0 <= i < len(comps)) or not (0 <= j < len(comps)):
                raise ValueError("bad component pair (%d, %d)" % (i, j))
            key = (min(i, j), max(i, j))
            val = c if i < j else Fraction(1) / c
            if key in seen and seen[key] != val:
                raise ValueError("conflicting scalars for stratum %r" % (key,))
            seen[key] = val
            normalized.append((key[0], key[1], val))
        object.__setattr__(self, "double_scalars", tuple(sorted(set(normalized))))
        trs = []
        for t in self.triples:
            t = tuple(sorted(t))
            if len(set(t)) != 3 or not all(0 <= i < len(comps) for i in t):
                raise ValueError("bad triple stratum %r" % (t,))
            trs.append(t)
        object.__setattr__(self, "triples", tuple(sorted(set(trs))))

    def scalar(self, i, j):
        """Identification scalar in the direction component i -> component j."""
        key = (min(i, j), max(i, j))
        for a, b, c in self.double_scalars:
            if (a, b) == key:
                return c if i < j else Fraction(1) / c
        raise MissingStratumError("no scalar recorded for stratum %s|%s"
                                  % tuple(self.components[k] for k in key))


@dataclass(frozen=True)
class GluingCheck:
    ok: bool
    failures: tuple  # ((i, j, k, product), ...)

    def __bool__(self):
        return self.ok


def check_gluing_cocycle(glue: SNCGlueData):
    """Around every triple stratum the directed product of scalars must be 1.

    Failures carry the triple and the offending product, which is the scalar
    obstruction to a common local generator at that stratum.
    """
    failures = []
    for (i, j, k) in glue.triples:
        prod = glue.scalar(i, j) * glue.scalar(j, k) * glue.scalar(k, i)
        if prod != 1:
            failures.append((i, j, k, prod))
    return GluingCheck(not failures, tuple(failures))


# -- pushout membership --

@dataclass(frozen=True)
class PushoutResult:
    ok: bool
    order: int
    component_witness: tuple  # per component: coefficient jets or None
    failing_component: int = None

    def __bool__(self):
        return self.ok


def pushout_membership(fields, component_foliations, germ_ctx=None, order=None):
    """Does a field on the crossing germ restrict into every component foliation?

    `fields` is either a single LogDerivation on the total germ (restrictions
    are computed) or a sequence of per-component derivations, in which case
    agreement along every double stratum is checked first; disagreement is a
    ValueError since the input then fails to describe one field.
    """
    if isinstance(fields, LogDerivation):
        ctx = fields.ctx
        per_comp = [restrict_derivation(fields, i) for i in range(ctx.r)]
    else:
        per_comp = list(fields)
        if germ_ctx is None:
            raise ValueError("per-component input needs the total germ context")
        ctx = germ_ctx
        if len(per_comp) != ctx.r:
            raise ValueError("expected one field per component")
        for i in range(ctx.r):
            for j in range(i + 1, ctx.r):
                if per_comp[i].ctx.n == 1:
                    # curve branches meet in a point; no stratum direction
                    # survives, so there is nothing to compare
                    continue
                # within component i, the variable x_j sits at local index j-1
                left = restrict_derivation(per_comp[i], j - 1)
                right = restrict_derivation(per_comp[j], i)
                if not left.equal_to_order(right, ctx.order):
                    raise ValueError(
                        "restrictions disagree on the double stratum (%d, %d)" % (i, j)
                    )
    if len(component_foliations) != ctx.r:
        raise ValueError("expected one foliation per component")
    d = order if order is not None else ctx.order
    witnesses = []
    for i, fol in enumerate(component_foliations):
        w = span_membership(per_comp[i], fol.generators, d)
        witnesses.append(w)
        if w is None:
            return PushoutResult(False, d, tuple(witnesses), failing_component=i)
    return PushoutResult(True, d, tuple(witnesses))


# -- surface one-forms along an invariant curve --

class NonInvariantError(ValueError):
    """The curve {y = 0} is not invariant for the form."""


class InconclusiveAtOrderError(RuntimeError):
    """The truncation order was too small to decide."""


@dataclass(frozen=True)
class SurfaceOneForm:
    """A dy + B dz on a smooth surface germ with coordinates (y, z).

    The context must have two variables and no crossing relation. The curve
    of interest is {y = 0}; invariance means B(0, z) = 0.
    """

    A: Jet
    B: Jet

    def __post_init__(self):
        ctx = self.A.ctx
        if self.B.ctx != ctx:
            raise ContextMismatchError("form coefficients in different contexts")
        if ctx.n != 2 or ctx.r != 0:
            raise ValueError("surface forms live on a smooth 2-variable germ")

    @property
    def ctx(self):
        return self.A.ctx

    def curve_is_invariant(self):
        return self.B.set_zero(0).is_zero()
