"""Finitely generated submonoids of Z^k: membership, Grothendieck group, saturation.

A monoid is stored by its ambient rank and a tuple of integer generators.
Everything rests on the rational cone of the generators, covered by the
simplicial cones of their maximal linearly independent subsets
(Caratheodory).  Each public call builds that cone once, in integers, and
every question of the call shares it: the integer equations of the span,
the Hermite form of the generators, and for each simplicial base B its
integer adjugate on a fixed set of dim coordinates, with a positive
denominator D.  D times the cone coordinates of x are then integer dot
products, and cone membership is a sign test (Bruns & Gubeladze 2009,
ch. 2).  The saturation is the set of lattice points of that cone: the
lattice points of each simplicial cone's half-open parallelepiped, walked
as integer residues mod D, together with the generators, generate it, and
on a pointed cone dropping every candidate that is another candidate plus a
nonzero cone point leaves the Hilbert basis (Bruns & Ichim 2010, "Normaliz:
algorithms for affine monoids and rational cones").  No step of this needs
a bound.

Membership in a pointed monoid searches the remainders that stay inside the
cone; they are finitely many, so a "no" is a proof.  On a non-pointed cone a
point outside the cone or outside the difference group is a proven "no";
otherwise a search with a fixed bound runs and raises SaturationBoundError
when it runs out, rather than answering no.

Answers are re-checked before they are returned: a witness must sum to its
element, and every saturation generator must satisfy the span's equations
and a base's sign test.  A failed check raises RuntimeError.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from operator import mul

from . import linalg

# Longest generator path the search on a non-pointed cone tries.
_NONPOINTED_DEPTH = 48


class SaturationBoundError(RuntimeError):
    """Raised when the bounded search on a non-pointed cone runs out."""


def _as_vec(x, k):
    v = tuple(int(c) for c in x)
    if len(v) != k:
        raise ValueError("vector %r does not have ambient rank %d" % (x, k))
    return v


@dataclass(frozen=True)
class FGMonoid:
    """Submonoid of Z^ambient_rank generated by `generators`."""

    ambient_rank: int
    generators: tuple

    def __post_init__(self):
        if self.ambient_rank < 1:
            raise ValueError("ambient rank must be positive")
        gens = tuple(_as_vec(g, self.ambient_rank) for g in self.generators)
        object.__setattr__(self, "generators", gens)

    @classmethod
    def free(cls, r):
        """N^r inside Z^r."""
        gens = tuple(tuple(1 if i == j else 0 for j in range(r)) for i in range(r))
        return cls(r, gens)

    def nonzero_generators(self):
        seen = []
        for g in self.generators:
            if any(g) and g not in seen:
                seen.append(g)
        return seen


def _adjugate(a):
    """(d, adj) with d = |det a| > 0 and adj a = d I, for a square integer
    matrix a; None when a is singular.

    Fraction-free Gauss-Jordan elimination of [a | I] (Bareiss 1968): every
    step divides exactly by the previous pivot, and the tableau ends as
    [p I | p a^-1] with p = +-det a.
    """
    n = len(a)
    m = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(a)]
    prev = 1
    for c in range(n):
        p = next((i for i in range(c, n) if m[i][c]), None)
        if p is None:
            return None
        m[c], m[p] = m[p], m[c]
        piv = m[c]
        for i, row in enumerate(m):
            if i != c:
                f = row[c]
                m[i] = [(piv[c] * v - f * w) // prev for v, w in zip(row, piv)]
        prev = piv[c]
    sign = 1 if prev > 0 else -1
    return sign * prev, [[sign * v for v in row[n:]] for row in m]


def _kernel(pivots, k):
    """Primitive integer basis of the kernel of a reduced echelon basis of
    width k, one vector per free column, in column order."""
    out = []
    for f in range(k):
        if f in pivots:
            continue
        hits = [(row[c], row[f], c) for c, row in pivots.items() if f in row]
        scale = math.lcm(*(a for a, _, _ in hits))
        v = [0] * k
        v[f] = scale
        for a, r, c in hits:
            v[c] = -r * scale // a
        g = math.gcd(*v)
        out.append([e // g for e in v])
    return out


class _Cone:
    """The rational cone of nonzero integer generators, held in integers.

    One is built per public call and shared by everything that call asks.
    `equations` are the primitive integer rows of the kernel of the
    generator matrix, so the span is where they all vanish.  `rows` is one
    set I of dim coordinates on which the span projects isomorphically (the
    pivot columns of the generators' echelon form), so dim generators form
    a base exactly when their matrix B_I has a nonzero determinant.  A base
    is kept as (generators, D, adj) with adj B_I = D I and D > 0: for x in
    the span, adj x_I is D times x's coordinates on the base.  x lies in
    the cone exactly when it satisfies the equations and some base gives
    adj x_I >= 0, a few integer dot products and a sign test, remembered
    per point for the life of the cone.  `group` is the Hermite form of the
    generators.
    """

    def __init__(self, gens):
        k = len(gens[0])
        pivots = linalg.echelon([dict(enumerate(g)) for g in gens], k)
        self.gens = gens
        self.rows = sorted(pivots)
        self.equations = _kernel(pivots, k)
        self.group = linalg.hermite_normal_form(gens)
        self.bases = []
        for base in itertools.combinations(gens, len(self.rows)):
            inverse = _adjugate([[g[i] for g in base] for i in self.rows])
            if inverse is not None:
                self.bases.append((base, *inverse))
        self._inside = {}
        self.pointed = not any(self.contains(tuple(-c for c in g)) for g in gens)

    def contains(self, x):
        hit = self._inside.get(x)
        if hit is None:
            xi = [x[i] for i in self.rows]
            hit = not any(sum(map(mul, e, x)) for e in self.equations) and any(
                all(sum(map(mul, a, xi)) >= 0 for a in adj) for _, _, adj in self.bases
            )
            self._inside[x] = hit
        return hit

    def in_group(self, x):
        """Whether x is in the difference group: it reduces to zero by the
        rows of the Hermite form, pivot by pivot."""
        x = list(x)
        for h in self.group:
            c = next(j for j, v in enumerate(h) if v)
            q, r = divmod(x[c], h[c])
            if r:
                return False
            if q:
                x = [a - q * b for a, b in zip(x, h)]
        return not any(x)


def _lattice(equations, k):
    """A basis of Z^k intersected with the rational span where the integer
    equations vanish.

    Those are the integer vectors the equations kill; the Hermite form of
    [equations^T | identity] puts a basis of them in its rows with zero
    equation part.
    """
    r = len(equations)
    rows = [[v[i] for v in equations] + [int(i == j) for j in range(k)] for i in range(k)]
    return [h[r:] for h in linalg.hermite_normal_form(rows) if not any(h[:r])]


def _parallelepiped(base, lattice, rows):
    """Lattice points of {sum t_j g_j : 0 <= t_j < 1} for a base (g, D, adj)
    of a cone whose coordinate set is rows.

    They are the classes of the lattice modulo the subgroup the g_j span,
    found by closing {0} under adding each lattice basis vector, with the
    coordinates D t kept as integer residues mod D; the residues u give the
    point sum u_j g_j / D, an exact division.
    """
    gens, d, adj = base
    steps = [tuple(sum(map(mul, a, [b[i] for i in rows])) % d for a in adj) for b in lattice]
    seen = {(0,) * len(gens)}
    todo = list(seen)
    while todo:
        t = todo.pop()
        for s in steps:
            u = tuple((a + b) % d for a, b in zip(t, s))
            if u not in seen:
                seen.add(u)
                todo.append(u)
    k = len(gens[0])
    return [tuple(sum(c * g[i] for c, g in zip(t, gens)) // d for i in range(k)) for t in seen]


def _search(gens, x, inside, depth=math.inf):
    """Coefficients c >= 0 with sum c_i gens[i] = x, or None.

    Depth first over generator paths in nondecreasing index order, so the
    first witness is the first such path of at most `depth` steps in
    lexicographic order; on a pointed cone that is the lexicographically
    largest coefficient vector.  Remainders that `inside` rejects are not
    entered, and a remainder that failed with at least as many steps left is
    not tried again.  The stack is explicit: a path may be long.
    """
    n = len(gens)
    failed = {}  # (remainder, lowest generator allowed) -> steps left when it failed
    frames = [[x, 0, 0]]  # remainder, lowest generator allowed, next generator to try
    while frames:
        frame = frames[-1]
        vec, lo, i = frame
        if not any(vec):
            coeffs = [0] * n
            for f in frames[1:]:
                coeffs[f[1]] += 1
            return tuple(coeffs)
        steps = depth - (len(frames) - 1)
        if i == n or steps <= 0:
            failed[(vec, lo)] = steps
            frames.pop()
            continue
        frame[2] = i + 1
        y = tuple(a - b for a, b in zip(vec, gens[i]))
        if failed.get((y, i), -1) < steps - 1 and inside(y):
            frames.append([y, i, i])
    return None


def _witness(cone, x):
    """contains() for a nonzero x, on the cone of the monoid's nonzero
    generators; the witness is checked to sum to x before it is returned."""
    gens = cone.gens
    if not (cone.in_group(x) and cone.contains(x)):
        return None
    witness = _search(gens, x, cone.contains, math.inf if cone.pointed else _NONPOINTED_DEPTH)
    if witness is None:
        if cone.pointed:
            return None
        raise SaturationBoundError(
            "no witness for %r within %d generator steps on a non-pointed cone"
            % (x, _NONPOINTED_DEPTH)
        )
    total = tuple(sum(c * g[i] for c, g in zip(witness, gens)) for i in range(len(x)))
    if len(witness) != len(gens) or min(witness) < 0 or total != x:
        raise RuntimeError(
            "monoid membership certificate failed: %r does not write %r in the generators"
            % (witness, x)
        )
    return witness


def contains(m: FGMonoid, x):
    """Nonnegative-integer combination witness for x, or None.

    The witness gives one coefficient per nonzero generator.  None is a
    proof of non-membership: x is outside the cone or the difference group,
    or (on a pointed cone) the complete search over remainders inside the
    cone found no path.  On a non-pointed cone that search is bounded, and
    running out raises SaturationBoundError.  A witness that does not sum to
    x raises RuntimeError.
    """
    x = _as_vec(x, m.ambient_rank)
    gens = m.nonzero_generators()
    if not any(x):
        return ()
    if not gens:
        return None
    return _witness(_Cone(gens), x)


def grothendieck_group(m: FGMonoid):
    """Hermite basis (tuple of rows) of the group of differences of m."""
    return tuple(linalg.hermite_normal_form(list(m.generators)))


def _saturation(cone):
    """The generators saturate() returns, on the cone of the monoid's nonzero
    generators; each is checked to be a lattice point of the cone."""
    k = len(cone.gens[0])
    lattice = _lattice(cone.equations, k)
    cands = set(cone.gens)
    for base in cone.bases:
        cands.update(_parallelepiped(base, lattice, cone.rows))
    cands.discard((0,) * k)
    cands = sorted(cands, key=lambda v: (sum(map(abs, v)), v))
    kept = []
    for x in cands:
        if cone.pointed:
            diffs = (tuple(a - b for a, b in zip(x, y)) for y in cands if y != x)
            if any(cone.contains(d) for d in diffs):
                continue
        elif kept and _search(kept, x, cone.contains, _NONPOINTED_DEPTH) is not None:
            continue
        kept.append(x)
    for h in kept:
        if not (all(type(c) is int for c in h) and cone.contains(h)):
            raise RuntimeError(
                "saturation certificate failed: %r is not a lattice point of the cone" % (h,)
            )
    return tuple(kept)


def saturate(m: FGMonoid):
    """Generators of {x in Z^k : n*x in m for some n >= 1}.

    That set is the lattice points of m's rational cone.  The generators come
    sorted by L1 norm, then lexicographically.  The candidates are
    the generators and the parallelepiped points of every base.  On a pointed
    cone a candidate goes when it is another candidate plus a nonzero cone
    point, which leaves the Hilbert basis.  On a non-pointed cone a candidate
    goes when the bounded search writes it in the candidates kept so far; one
    it cannot write is kept, so the result always generates the saturation.
    A generator that fails the cone's equations or sign test raises
    RuntimeError.
    """
    gens = m.nonzero_generators()
    if not gens:
        return FGMonoid(m.ambient_rank, ())
    return FGMonoid(m.ambient_rank, _saturation(_Cone(gens)))


def is_saturated(m: FGMonoid):
    """True iff m already equals its saturation in the ambient lattice.

    One cone serves the saturation and every membership test."""
    gens = m.nonzero_generators()
    if not gens:
        return True
    cone = _Cone(gens)
    return all(_witness(cone, h) is not None for h in _saturation(cone))
