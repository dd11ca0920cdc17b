"""Foliation germs on crossing germs and their gluing across components.

A foliation is presented by log derivation generators. Membership questions
(is a bracket in the span, does a component field lie in its component
foliation) are solves over the jet ring R_d = Q[x]/(crossing product,
degree > d), so every positive answer is "at the reported order" while a
negative answer is definitive: a germ-level identity would truncate to a
jet-level one.

R_d is a local ring, and a generator whose value at the origin is
independent of the others splits off by a unit pivot with no linear algebra
(Nakayama's lemma; Greuel & Pfister, A Singular Introduction to Commutative
Algebra, 2nd ed., ch. 7).  Only what is left in the maximal ideal becomes a
Q-linear system over the jet coefficients, built by _span_system, the one
system builder here, straight from the terms of the jets left and only over
the block of rows and unknowns that the right-hand sides reach, as a plain
{row key: {column: value}} dict.

A field across the components of a crossing germ is given per component:
the restrictions of one field on the germ (restrict_derivation), or one
field on each component, which describe one field only where they agree on
every double stratum (disagreeing_stratum).  pushout_membership takes that
per-component form alone.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from itertools import combinations
from operator import add, sub

from . import linalg
from .jets import ContextMismatchError, GermContext, Jet, _on_crossing
from .logcalc import LogDerivation, lie_bracket


class MissingStratumError(ValueError):
    """A required double stratum has no identification scalar."""


class FoliationGerm(namedtuple("FoliationGerm", "ctx generators rank")):
    """Foliation presented by generators, with a declared generic rank in
    1..len(generators)."""

    __slots__ = ()

    def __new__(cls, ctx: GermContext, generators, rank):
        gens = tuple(generators)
        if not gens:
            raise ValueError("a foliation needs at least one generator")
        for g in gens:
            if g.ctx != ctx:
                raise ContextMismatchError("generator context mismatch")
        if not 1 <= rank <= len(gens):
            raise ValueError("declared rank %d is not in 1..%d, the number of generators"
                             % (rank, len(gens)))
        self = tuple.__new__(cls, (ctx, gens, rank))
        # k generators have rank at most k at the origin
        if len(gens) > rank and self.origin_rank() > rank:
            raise ValueError(
                "generators are independent of rank %d at the origin, above the "
                "declared rank %d" % (self.origin_rank(), rank)
            )
        return self

    def origin_rank(self):
        return linalg.rank([dict(enumerate(g.constant_vector())) for g in self.generators])


def _span_system(columns, targets, order):
    """Unknowns and rows of [A | b_1 ... b_m] for sum_k c_k * gen_k = b_p
    through degree order, over the block the targets reach.

    columns[k] and targets[p] are sequences of component jets, as
    LogDerivation.components() returns them.  Unknown (k, m) is the
    coefficient of x^m in c_k, and its column is x^m * gen_k; rows are keyed
    (component, equation monomial).  Only the rows and unknowns reached from
    the targets' rows are built: row (i, e) reaches unknown (k, e - t) for
    each term x^t of columns[k][i], and unknown (k, m) reaches the rows of
    x^m * gen_k that stay at or below the order and off the crossing.  The
    system is the direct sum of the connected blocks of its row-column graph
    (Pothen & Fan, ACM TOMS 16, 1990), and a block no target touches is
    solved by 0, so the answers are those of the whole system.  The unknowns
    are numbered in (k, deg m, m) order, the whole system's column order, so
    echelon picks the same pivots; with n = len(unknowns), column n + p is
    targets[p].  The rows come back as a {row key: {column: value}} dict.
    """
    r = targets[0][0].ctx.r
    rows = {(i, e) for comps in targets for i, comp in enumerate(comps)
            for e in comp.terms if sum(e) <= order}
    reached, todo = {}, list(rows)  # reached: {(k, m): [(row, entry)]}
    while todo:
        i, e = todo.pop()
        for k, comps in enumerate(columns):
            for t in comps[i].terms:
                m = tuple(map(sub, e, t))  # off the crossing, as e is
                if min(m) < 0 or (k, m) in reached:
                    continue
                entries = reached[k, m] = []
                for i2, comp in enumerate(comps):
                    for t2, c in comp.terms.items():
                        e2 = tuple(map(add, m, t2))
                        if sum(e2) <= order and not _on_crossing(e2, r):
                            entries.append(((i2, e2), c))
                            if (i2, e2) not in rows:
                                rows.add((i2, e2))
                                todo.append((i2, e2))
    unknowns = sorted(reached, key=lambda u: (u[0], sum(u[1]), u[1]))
    system = {}  # each (row, column) entry arrives once
    for col, u in enumerate(unknowns):
        for key, c in reached[u]:
            system.setdefault(key, {})[col] = c
    n = len(unknowns)
    for p, comps in enumerate(targets):
        for i, comp in enumerate(comps):
            for e, c in comp.terms.items():
                if sum(e) <= order:
                    system.setdefault((i, e), {})[n + p] = c
    return unknowns, system


class _UnitPivots:
    """Elimination over R_d = Q[x]/(crossing product, degree > d) by unit pivots.

    The columns are the generators, the rows their components; targets are
    extra right-hand columns.  R_d is a local ring, so an entry with a
    nonzero constant term is a unit (Jet.invert).  Each step pivots on a
    unit entry of the current matrix with the fewest terms, the first such
    by generator, then by component, so that a constant is inverted where
    one will do rather than a Newton inverse to the full order; its row is
    solved for its generator, kept in `steps` and cleared, and the Schur
    complement replaces every other row.  The elimination stops when every
    entry left lies in the maximal ideal (Nakayama's lemma: the split-off
    generators are exactly a basis of the span of the values at the
    origin).  What is left, the `free` generators
    against every target, is a Q-linear question for _span_system: a target
    reduced to zero reaches no row, and a free generator with no entry left
    no unknown, so either has coefficient 0.
    """

    def __init__(self, generators, targets, d):
        ctx = self.ctx = targets[0].ctx
        if any(g.ctx != ctx for g in generators):
            raise ContextMismatchError("generator context mismatch")
        self.d = d
        zero = self.zero = Jet.zero(ctx)
        self.size = len(generators)
        # per component: {generator: nonzero entry} and [target entries]
        self.entries = [{k: c for k, g in enumerate(generators)
                         if (c := g.components()[i].truncate(d)).terms} for i in range(ctx.n)]
        self.rhs = [[t.components()[i].truncate(d) for t in targets] for i in range(ctx.n)]
        self.free, self.steps = list(range(self.size)), []
        while units := [(len(c.terms), k, i) for i, entries in enumerate(self.entries)
                        for k, c in entries.items() if c.constant_term()]:
            _, k0, i0 = min(units)
            row, b0 = self.entries[i0], self.rhs[i0]
            self.entries[i0], self.rhs[i0] = {}, [zero] * len(targets)
            inv = row.pop(k0).invert(d)
            self.free.remove(k0)
            self.steps.append((k0, inv, row, b0[0]))
            for i, entries in enumerate(self.entries):
                if k0 not in entries:
                    continue
                f = entries.pop(k0).mul_to(inv, d)
                for k, c in row.items():
                    e = entries.get(k, zero) - f.mul_to(c, d)
                    if e.terms:
                        entries[k] = e
                    else:
                        entries.pop(k, None)
                self.rhs[i] = [b - f.mul_to(c0, d) for b, c0 in zip(self.rhs[i], b0)]

    def system(self):
        """_span_system of the free generators against every target; the
        pivot rows are cleared, so they are zero there."""
        return _span_system([[entries.get(k, self.zero) for entries in self.entries]
                             for k in self.free], list(zip(*self.rhs)), self.d)

    def coefficients(self, coeffs):
        """Every generator's coefficient for target 0, by back-substitution
        from those of the free generators ({generator: jet})."""
        for k0, inv, row, b0 in reversed(self.steps):
            acc = b0
            for k, c in row.items():
                if k in coeffs:
                    acc = acc - c.mul_to(coeffs[k], self.d)
            coeffs[k0] = inv.mul_to(acc, self.d)
        return tuple(coeffs.get(k, self.zero) for k in range(self.size))


def _solve_span(target, generators, order):
    """The coefficient jets of span_membership, before their certificate."""
    red = _UnitPivots(generators, (target,), order)
    unknowns, rows = red.system()
    n = len(unknowns)
    sol = linalg.solution(linalg.echelon(rows.values(), n + 1), n)
    if sol is None:
        return None
    terms = {}
    for (k, m), c in zip(unknowns, sol):
        if c:
            terms.setdefault(red.free[k], {})[m] = c
    return red.coefficients({k: Jet(target.ctx, t) for k, t in terms.items()})


def _reproduces(coeffs, generators, target, d):
    """Does sum_k c_k * gen_k equal target through degree d?"""
    comps = [g.components() for g in generators]
    for i, t in enumerate(target.components()):
        acc = t.truncate(d)
        for c, col in zip(coeffs, comps):
            if c.terms and col[i].terms:
                acc = acc - c.mul_to(col[i], d)
        if acc.terms:
            return False
    return True


def span_membership(target, generators):
    """Jets c_k with sum_k c_k * gen_k = target through the order of the
    target's germ.

    Returns the tuple of coefficient jets, or None when the target is
    provably outside the span at that order.  Unit pivots split off every
    generator that is independent at the origin (_UnitPivots).  What is
    left in the maximal ideal is one system over the block the target
    reaches (_span_system), solved with free unknowns set to 0: a target
    reduced to zero reaches no row, and one left with no free generator
    reaches rows with no unknown, which no solution satisfies.  The pivot
    coefficients follow by back-substitution.  Wherever the solution
    is unique it is the one returned.  The answer is re-checked before it is
    returned: sum_k c_k * gen_k - target must vanish through the order, and
    RuntimeError says it does not.
    """
    order = target.ctx.order
    coeffs = _solve_span(target, generators, order)
    if coeffs is not None and not _reproduces(coeffs, generators, target, order):
        raise RuntimeError("span membership certificate failed: the coefficients "
                           "do not reproduce the target through degree %d" % order)
    return coeffs


class InvolutivityResult(namedtuple("InvolutivityResult", "ok order failing_pair",
                                    defaults=(None,))):
    __slots__ = ()


def involutivity_check(fol: FoliationGerm):
    """Are all generator brackets in the jet span of the generators?

    Brackets are valid one order below the germ's order, so the membership
    is decided at order - 1.  Brackets zero through that degree are
    dropped, and if none is left nothing is pivoted.  One unit pivot
    reduction (_UnitPivots) is shared by every other bracket column, and
    one echelon of [A | b_1 ... b_m] over the block the brackets reach
    (_span_system) decides the rest: bracket p is outside the span exactly
    when a basis row with no entry in A (pivot at or after column n) is
    nonzero in its column.  The first such pair in order is reported.
    """
    d = fol.ctx.order - 1
    gens = fol.generators
    brackets = {(i, j): lie_bracket(gens[i], gens[j])
                for i in range(len(gens)) for j in range(i + 1, len(gens))}
    pairs = [p for p, b in brackets.items()
             if any(sum(e) <= d for c in b.components() for e in c.terms)]
    if not pairs:
        return InvolutivityResult(True, d)
    red = _UnitPivots(gens, [brackets[p] for p in pairs], d)
    unknowns, rows = red.system()
    n = len(unknowns)
    basis = linalg.echelon(rows.values(), n + len(pairs), reduced=False)
    bad = [col - n for col in basis if col >= n]
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

class SNCGlueData(namedtuple("SNCGlueData", "components double_scalars triples")):
    """Components of a crossing configuration with scalar identifications.

    double_scalars is given as ((i, j, scalar), ...), each scalar that of
    the identification i -> j along the common stratum, nonzero and read by
    linalg._exact.  It is kept as a dict from the sorted pair (i, j), i < j,
    to the scalar i -> j; the opposite orientation is its inverse.  triples
    lists the triple strata as index triples; each of their three double
    strata needs a scalar, and MissingStratumError names the first one
    without.
    """

    __slots__ = ()

    def __new__(cls, components, double_scalars, triples):
        comps = tuple(components)
        seen = {}
        for i, j, c in double_scalars:
            c = linalg._exact(c)
            if c == 0:
                raise ValueError("identification scalars must be nonzero")
            if i == j or not (0 <= i < len(comps)) or not (0 <= j < len(comps)):
                raise ValueError("bad component pair (%d, %d)" % (i, j))
            key = (min(i, j), max(i, j))
            val = c if i < j else Fraction(1) / c
            if key in seen and seen[key] != val:
                raise ValueError("conflicting scalars for stratum %r" % (key,))
            seen[key] = val
        trs = []
        for t in triples:
            t = tuple(sorted(t))
            if len(set(t)) != 3 or not all(0 <= i < len(comps) for i in t):
                raise ValueError("bad triple stratum %r" % (t,))
            trs.append(t)
        trs = tuple(sorted(set(trs)))
        for i, j, k in trs:  # the pairs in the order check_gluing_cocycle reads them
            for key in ((i, j), (j, k), (i, k)):
                if key not in seen:
                    raise MissingStratumError("no scalar recorded for stratum %s|%s"
                                              % tuple(comps[x] for x in key))
        return tuple.__new__(cls, (comps, seen, trs))

    def scalar(self, i, j):
        """Identification scalar in the direction component i -> component j."""
        key = (min(i, j), max(i, j))
        c = self.double_scalars.get(key)
        if c is None:
            raise MissingStratumError("no scalar recorded for stratum %s|%s"
                                      % tuple(self.components[k] for k in key))
        return c if i < j else Fraction(1) / c


class GluingCheck(namedtuple("GluingCheck", "ok failures")):
    """failures holds ((i, j, k, product), ...)."""

    __slots__ = ()


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

def disagreeing_stratum(fields):
    """The first pair (i, j), i < j, of per-component fields, one on each
    component {x_i = 0} of a crossing germ, whose restrictions to the double
    stratum of components i and j differ, or None where they all agree and
    so describe one field.  Curve branches meet in a point, where no stratum
    direction survives, so fields on them are not compared."""
    for i, j in combinations(range(len(fields)), 2):
        if fields[i].ctx.n == 1:
            continue
        # within component i, the variable x_j sits at local index j - 1
        left = restrict_derivation(fields[i], j - 1)
        if not left.equal_to_order(restrict_derivation(fields[j], i), left.ctx.order):
            return i, j
    return None


class PushoutResult(namedtuple("PushoutResult", "ok order failing_component",
                               defaults=(None,))):
    __slots__ = ()


def pushout_membership(fields, component_foliations, germ_ctx):
    """Does each per-component field lie in its component foliation?

    fields and component_foliations hold one entry per component {x_i = 0}
    of the crossing germ germ_ctx: the restrictions of one field on the
    germ (restrict_derivation), or fields that agree on every double
    stratum (disagreeing_stratum).  Membership is decided at the germ's
    order, which the result reports; with no component the answer is a
    vacuous yes.
    """
    if len(fields) != germ_ctx.r or len(component_foliations) != germ_ctx.r:
        raise ValueError("expected one field and one foliation per component")
    for i, (v, fol) in enumerate(zip(fields, component_foliations)):
        if span_membership(v, fol.generators) is None:
            return PushoutResult(False, germ_ctx.order, failing_component=i)
    return PushoutResult(True, germ_ctx.order)


# -- surface one-forms along an invariant curve --

class NonInvariantError(ValueError):
    """The curve {y = 0} is not invariant for the form."""


class InconclusiveAtOrderError(RuntimeError):
    """The truncation order was too small to decide."""


class SurfaceOneForm(namedtuple("SurfaceOneForm", "A B")):
    """A dy + B dz on a smooth surface germ with coordinates (y, z).

    The context must have two variables and no crossing relation. The curve
    of interest is {y = 0}; invariance means B(0, z) = 0.
    """

    __slots__ = ()

    def __new__(cls, A: Jet, B: Jet):
        ctx = A.ctx
        if B.ctx != ctx:
            raise ContextMismatchError("form coefficients in different contexts")
        if ctx.n != 2 or ctx.r != 0:
            raise ValueError("surface forms live on a smooth 2-variable germ")
        return tuple.__new__(cls, (A, B))

    @property
    def ctx(self):
        return self.A.ctx

    def curve_is_invariant(self):
        return self.B.set_zero(0).is_zero()
