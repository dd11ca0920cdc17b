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
algorithms for affine monoids and rational cones").  Walked by the degree of
a form positive on the cone, a candidate is tested only against the
elements kept at lower degrees.  No step of this needs a bound.

The units are the generators whose negatives lie in the cone; they generate
the unit group U = M cap -M, as a group and as a monoid.  Membership
searches the remainders that stay inside the cone, over the other
generators, until one lies in U.  Those generators are nonzero in the
pointed cone C/L, L the lineality space, so the remainders are finitely
many and a "no" is a proof on every cone.

Answers are re-checked before they are returned: a witness must sum to its
element, and every saturation generator must satisfy the span's equations
and a base's sign test.  A failed check raises RuntimeError.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from operator import mul, sub

from . import linalg


def _as_vec(x, k):
    v = tuple(map(linalg._integer, x))
    if len(v) != k:
        raise ValueError("vector %r does not have ambient rank %d" % (x, k))
    return v


class FGMonoid(namedtuple("FGMonoid", "ambient_rank generators")):
    """Submonoid of Z^ambient_rank generated by `generators`."""

    __slots__ = ()

    def __new__(cls, ambient_rank, generators):
        if ambient_rank < 1:
            raise ValueError("ambient rank must be positive")
        gens = tuple(_as_vec(g, ambient_rank) for g in generators)
        return tuple.__new__(cls, (ambient_rank, gens))

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


def _hermite(rows):
    """The Hermite form of [rows | I] as pairs (h, t) with h = t rows.

    The t are the rows of a unimodular matrix, so the nonzero h are the
    Hermite basis of the group the rows span, and the t of the zero h are a
    basis of the integer relations among the rows.
    """
    k = len(rows[0]) if rows else 0
    tableau = [list(r) + [int(i == j) for j in range(len(rows))] for i, r in enumerate(rows)]
    return [(h[:k], h[k:]) for h in linalg.hermite_normal_form(tableau)]


def _reduce(hermite, x):
    """(r, c) with x = r + sum c_j rows_j, for the pairs of _hermite(rows).

    x is reduced pivot by pivot by the nonzero h, so r is zero exactly when
    x lies in the group the rows span, and c collects the t.
    """
    r, c = list(x), [0] * len(hermite[0][1]) if hermite else []
    for h, t in hermite:
        p = next((j for j, v in enumerate(h) if v), None)
        if p is None:
            break
        q = r[p] // h[p]
        if q:
            r = [a - q * b for a, b in zip(r, h)]
            c = [a + q * b for a, b in zip(c, t)]
    return r, c


def _orthogonal(vectors, k):
    """A basis of the integer vectors of length k orthogonal to every one of
    vectors: the relations among the rows of the transposed vectors."""
    return [t for h, t in _hermite([[v[i] for v in vectors] for i in range(k)]) if not any(h)]


class _Cone:
    """The rational cone of nonzero integer generators, held in integers.

    One is built per public call and shared by everything that call asks.
    `equations` are integer vectors orthogonal to the generators, a basis of
    all such, so the span is where they all vanish.  `group` is the Hermite
    form of the generators, and `rows` its pivot columns: dim coordinates on
    which the span projects isomorphically, so dim generators form a base
    exactly when their matrix B_I has a nonzero determinant.  A base is kept
    as (generators, D, adj) with adj B_I = D I and D > 0: for x in the span,
    adj x_I is D times x's coordinates on the base.  x lies in the cone
    exactly when it satisfies the equations and some base gives
    adj x_I >= 0, a few integer dot products and a sign test, remembered
    per point for the life of the cone.  `units` are the generators whose
    negatives lie in the cone, `unit_group` their _hermite pairs, and
    `relation` holds positive r_j with sum r_j u_j = 0.
    """

    def __init__(self, gens):
        self.gens = gens
        self.group = _hermite(gens)
        self.rows = [next(j for j, v in enumerate(h) if v) for h, _ in self.group if any(h)]
        self.equations = _orthogonal(gens, len(gens[0]))
        self.bases = []
        for base in itertools.combinations(gens, len(self.rows)):
            inverse = _adjugate([[g[i] for g in base] for i in self.rows])
            if inverse is not None:
                self.bases.append((base, *inverse))
        self._inside = {}
        self.units = [g for g in gens if self.contains(tuple(-c for c in g))]
        self.pointed = not self.units
        self.unit_group = _hermite(self.units)
        self.relation = []
        if self.units:
            # -sum u_j lies in the cone; only units carry its coordinates a_j / D
            base, d, a = self.coordinates(tuple(-sum(c) for c in zip(*self.units)))
            self.relation = [d + dict(zip(base, a)).get(u, 0) for u in self.units]

    def coordinates(self, x):
        """(base, D, a) for the first base on which x has the coordinates
        a / D >= 0, or None when x is outside the cone."""
        if any(sum(map(mul, e, x)) for e in self.equations):
            return None
        xi = [x[i] for i in self.rows]
        for base, d, adj in self.bases:
            a = []
            for row in adj:
                c = sum(map(mul, row, xi))
                if c < 0:
                    break  # a base is left at its first negative coordinate
                a.append(c)
            else:
                return base, d, a
        return None

    def contains(self, x):
        hit = self._inside.get(x)
        if hit is None:
            hit = self._inside[x] = self.coordinates(x) is not None
        return hit

    def units_write(self, y):
        """Nonnegative coefficients on the units that sum to y, or None when
        y is not in the unit group.

        The Hermite form of the units gives integer ones, and adding the
        least multiple of the relation that clears their negatives makes them
        nonnegative.  A pointed cone has no units, and only 0 is written.
        """
        if self.pointed:
            return None if any(y) else []
        r, c = _reduce(self.unit_group, y)
        if any(r):
            return None
        s = max([0] + [-(a // b) for a, b in zip(c, self.relation)])
        return [a + s * b for a, b in zip(c, self.relation)]


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


def _search(cone, x):
    """Coefficients c >= 0, one per generator of the cone, with
    sum c_i g_i = x, or None.

    Depth first over paths of the generators that are not units, in
    nondecreasing index order, stopping at the first remainder that the
    units write.  Remainders outside the cone are not entered, and a
    remainder that failed is not tried again; they are finitely many, so
    None is a proof.  On a pointed cone the search stops at remainder 0,
    and its witness is the lexicographically largest coefficient vector.
    The stack is explicit: a path may be long.
    """
    gens = [g for g in cone.gens if g not in cone.units]
    failed = set()  # (remainder, lowest generator allowed) that led nowhere
    frames = [[x, 0, 0]]  # remainder, lowest generator allowed, next generator to try
    while frames:
        frame = frames[-1]
        vec, lo, i = frame
        units = cone.units_write(vec)
        if units is not None:
            coeffs = dict(zip(cone.units, units))
            for f in frames[1:]:
                coeffs[gens[f[1]]] = coeffs.get(gens[f[1]], 0) + 1
            return tuple(coeffs.get(g, 0) for g in cone.gens)
        if i == len(gens):
            failed.add((vec, lo))
            frames.pop()
            continue
        frame[2] = i + 1
        y = tuple(a - b for a, b in zip(vec, gens[i]))
        if (y, i) not in failed and cone.contains(y):
            frames.append([y, i, i])
    return None


def _witness(cone, x):
    """contains() for a nonzero x on a cone of distinct nonzero generators;
    the witness is checked to sum to x before it is returned."""
    if any(_reduce(cone.group, x)[0]) or not cone.contains(x):
        return None
    witness = _search(cone, x)
    if witness is None:
        return None
    gens = cone.gens
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
    or the complete search over remainders inside the cone found none that
    the units write.  On a pointed cone the witness is the lexicographically
    largest one.  A witness that does not sum to x raises RuntimeError.
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


def _l1_lex(v):
    return sum(map(abs, v)), v


def _saturation(cone):
    """The generators saturate() returns, on the cone of the monoid's nonzero
    generators; each is checked to be a lattice point of the cone."""
    k = len(cone.gens[0])
    lattice = _orthogonal(cone.equations, k)
    cands = set(cone.gens)
    for base in cone.bases:
        cands.update(_parallelepiped(base, lattice, cone.rows))
    cands.discard((0,) * k)
    kept = []
    if cone.pointed:
        # graded by the sum of the facet forms (the adjugate rows that no
        # generator makes negative), positive on the cone but 0: a reducible
        # x is a Hilbert basis element h plus a nonzero cone point, and h, of
        # lower degree, is kept before x is reached
        facets = [row for _, _, adj in cone.bases for row in adj
                  if all(sum(map(mul, row, [g[i] for i in cone.rows])) >= 0 for g in cone.gens)]
        grade = [sum(col) for col in zip(*facets)]

        def degree(x):
            return sum(map(mul, grade, [x[i] for i in cone.rows]))

        for _, level in itertools.groupby(sorted(cands, key=degree), degree):
            kept += [x for x in level
                     if not any(cone.contains(tuple(map(sub, x, h))) for h in kept)]
    else:
        below = None  # the cone of kept, built again only when kept grows
        for x in sorted(cands, key=_l1_lex):
            if kept:
                below = below or _Cone(list(kept))
                if _witness(below, x) is not None:
                    continue
            kept.append(x)
            below = None
    kept.sort(key=_l1_lex)
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
    cone they are walked by the degree of the sum of the facet forms, and a
    candidate goes when it is a kept one of lower degree plus a cone point,
    which leaves the Hilbert basis.  On a non-pointed cone a candidate
    goes when the candidates kept so far write it, so the result generates
    the saturation.  A generator that fails the cone's equations or sign
    test raises RuntimeError.
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
