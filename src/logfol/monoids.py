"""Finitely generated submonoids of Z^k: membership, Grothendieck group, saturation.

A monoid is stored by its ambient rank and a tuple of integer generators.
Everything rests on the rational cone of the generators, covered by the
simplicial cones of their maximal linearly independent subsets
(Caratheodory).  The saturation is the set of lattice points of that cone:
the lattice points of each simplicial cone's half-open parallelepiped,
together with the generators, generate it, and on a pointed cone dropping
every candidate that is another candidate plus a nonzero cone point leaves
the Hilbert basis (Bruns & Ichim 2010, "Normaliz: algorithms for affine
monoids and rational cones").  No step of this needs a bound.

Membership in a pointed monoid searches the remainders that stay inside the
cone; they are finitely many, so a "no" is a proof.  On a non-pointed cone a
point outside the cone or outside the difference group is a proven "no";
otherwise a search with a fixed bound runs and raises SaturationBoundError
when it runs out, rather than answering no.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

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


def _columns(vectors, k):
    """The k-row matrix whose columns are the given vectors of Z^k."""
    return linalg.SparseRows([{j: v[i] for j, v in enumerate(vectors) if v[i]} for i in range(k)],
                             len(vectors))


class _Cone:
    """Rational cone of nonzero integer generators, covered by simplicial cones.

    Each base is a maximal linearly independent set of generators, kept as
    the matrix with those generators as columns, so x lies in the cone
    exactly when some base gives coordinates t >= 0.
    """

    def __init__(self, gens):
        k = len(gens[0])
        dim = linalg.rank(_columns(gens, k))
        self.bases = []
        for base in itertools.combinations(gens, dim):
            cols = _columns(base, k)
            if linalg.rank(cols) == dim:
                self.bases.append(cols)
        self._inside = {}
        self.pointed = not any(self.contains(tuple(-c for c in g)) for g in gens)

    def contains(self, x):
        if x not in self._inside:
            self._inside[x] = False
            for cols in self.bases:
                t = linalg.solve(cols, x)
                if t is not None and min(t) >= 0:
                    self._inside[x] = True
                    break
        return self._inside[x]


def _lattice(gens, k):
    """A basis of Z^k intersected with the rational span of gens.

    Those are the integer vectors killed by an integral basis of the span's
    orthogonal complement; the Hermite form of [complement^T | identity]
    puts a basis of them in its rows with zero complement part.
    """
    perp = []
    for v in linalg.nullspace(linalg.SparseRows([dict(enumerate(g)) for g in gens], k)):
        scale = math.lcm(*(c.denominator for c in v))
        perp.append([int(c * scale) for c in v])
    r = len(perp)
    rows = [[v[i] for v in perp] + [int(i == j) for j in range(k)] for i in range(k)]
    return [h[r:] for h in linalg.hermite_normal_form(rows) if not any(h[:r])]


def _parallelepiped(cols, lattice):
    """Lattice points of {sum t_j g_j : 0 <= t_j < 1}, g_j the columns of cols.

    They are the classes of the lattice modulo the subgroup the g_j span,
    found by closing {0} under adding each lattice basis vector, in
    coordinates taken mod 1.
    """
    steps = [linalg.solve(cols, b) for b in lattice]
    seen = {(Fraction(0),) * cols.ncols}
    todo = list(seen)
    while todo:
        t = todo.pop()
        for s in steps:
            u = tuple((a + b) % 1 for a, b in zip(t, s))
            if u not in seen:
                seen.add(u)
                todo.append(u)
    return [tuple(int(sum(t[j] * c for j, c in row.items())) for row in cols) for t in seen]


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


def contains(m: FGMonoid, x):
    """Nonnegative-integer combination witness for x, or None.

    The witness gives one coefficient per nonzero generator.  None is a
    proof of non-membership: x is outside the cone or the difference group,
    or (on a pointed cone) the complete search over remainders inside the
    cone found no path.  On a non-pointed cone that search is bounded, and
    running out raises SaturationBoundError.
    """
    k = m.ambient_rank
    x = _as_vec(x, k)
    gens = m.nonzero_generators()
    if not any(x):
        return ()
    if not gens:
        return None
    cone = _Cone(gens)
    in_group = linalg.hermite_normal_form(gens + [x]) == linalg.hermite_normal_form(gens)
    if not (in_group and cone.contains(x)):
        return None
    if cone.pointed:
        return _search(gens, x, cone.contains)
    witness = _search(gens, x, cone.contains, _NONPOINTED_DEPTH)
    if witness is None:
        raise SaturationBoundError(
            "no witness for %r within %d generator steps on a non-pointed cone"
            % (x, _NONPOINTED_DEPTH)
        )
    return witness


def grothendieck_group(m: FGMonoid):
    """Hermite basis (tuple of rows) of the group of differences of m."""
    return tuple(linalg.hermite_normal_form(list(m.generators)))


def saturate(m: FGMonoid):
    """Generators of {x in Z^k : n*x in m for some n >= 1}.

    That set is the lattice points of m's rational cone.  The generators come
    sorted by L1 norm, then lexicographically.  The candidates are
    the generators and the parallelepiped points of every base.  On a pointed
    cone a candidate goes when it is another candidate plus a nonzero cone
    point, which leaves the Hilbert basis.  On a non-pointed cone a candidate
    goes when the bounded search writes it in the candidates kept so far; one
    it cannot write is kept, so the result always generates the saturation.
    """
    k = m.ambient_rank
    gens = m.nonzero_generators()
    if not gens:
        return FGMonoid(k, ())
    cone = _Cone(gens)
    lattice = _lattice(gens, k)
    cands = set(gens)
    for cols in cone.bases:
        cands.update(_parallelepiped(cols, lattice))
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
    return FGMonoid(k, tuple(kept))


def is_saturated(m: FGMonoid):
    """True iff m already equals its saturation in the ambient lattice."""
    return all(contains(m, g) is not None for g in saturate(m).generators)
