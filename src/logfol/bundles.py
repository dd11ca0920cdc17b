"""Cech cohomology of line bundle sums on the projective line and on a
two-component nodal curve, over Q and exact.

h_p1 really runs the two-chart Cech complex on truncated Laurent windows and
enlarges the window until the dimensions stop moving twice in a row; it does
not shortcut through the closed-form answer, which the tests use as an
independent oracle instead.  The rank of each window's difference map comes
from one echelon basis grown window by window: a wider window only adds
sections, so the basis of the narrower one is extended, not rebuilt.
"""

from __future__ import annotations

from collections import namedtuple

from . import linalg


def h_p1(d):
    """(h0, h1) of O(d) on the projective line, by stabilized Cech windows.

    At window size w the chart sections in the fixed trivialization span
    t^0..t^w and t^(d-w)..t^d, and the overlap window is the convex hull of
    the two ranges; the difference map C0 -> C1 sends the first chart's t^k
    to t^k and the second's to -t^k.  Its rank is the rank of its transpose,
    whose rows are those images over columns indexed by the monomial degree
    k, which mean the same in every window.  So one echelon basis serves the
    whole sequence: window 1 puts in its four sections, and each wider window
    only appends its two new ones, t^w and t^(d-w).  This is still the Cech
    computation, with no closed form, done in O(|d|) row reductions.
    """
    d = int(d)
    bound = abs(d) + 12
    low = d - bound   # every window lies in degrees d - bound..bound
    ncols = bound - low + 1
    basis = {}
    history = []
    w = 1
    sections = [(0, 1), (1, 1), (d - 1, -1), (d, -1)]
    while True:
        linalg.echelon([{k - low: sign} for k, sign in sections], ncols, basis, reduced=False)
        r = len(basis)
        dims = (2 * (w + 1) - r, max(w, d) - min(0, d - w) + 1 - r)
        history.append(dims)
        if len(history) >= 3 and history[-1] == history[-2] == history[-3]:
            return dims
        w += 1
        if w > bound:
            raise RuntimeError("window failed to stabilize; this should not happen")
        sections = [(w, 1), (d - w, -1)]


class GradedBundleP1(namedtuple("GradedBundleP1", "degrees")):
    """Direct sum of line bundles on the projective line, by degrees."""

    __slots__ = ()

    def __new__(cls, degrees):
        degrees = tuple(int(d) for d in degrees)
        if not degrees:
            raise ValueError("empty bundle")
        return tuple.__new__(cls, (degrees,))

    @property
    def rank(self):
        return len(self.degrees)

    def cohomology(self):
        h0 = h1 = 0
        for d in self.degrees:
            a, b = h_p1(d)
            h0 += a
            h1 += b
        return h0, h1


class SNCCurveBundle(namedtuple("SNCCurveBundle", "left right glue")):
    """Bundle on two projective lines glued at one node.

    The fibers over the node are identified by an invertible rational matrix
    (left fiber frame to right fiber frame); section frames come from the
    degree-graded pieces in the chart containing the node at t = 0.
    """

    __slots__ = ()

    def __new__(cls, left: GradedBundleP1, right: GradedBundleP1, glue):
        if left.rank != right.rank:
            raise ValueError("both sides must have the same rank")
        g = tuple(tuple(map(linalg._exact, row)) for row in glue)
        if len(g) != left.rank or any(len(r) != left.rank for r in g):
            raise ValueError("glue matrix must be square of the common rank")
        self = tuple.__new__(cls, (left, right, g))
        self._glue_inverse()  # raises if singular
        return self

    @classmethod
    def with_identity_glue(cls, left_degrees, right_degrees):
        left = GradedBundleP1(tuple(left_degrees))
        right = GradedBundleP1(tuple(right_degrees))
        n = left.rank
        return cls(left, right, tuple(tuple(int(i == j) for j in range(n)) for i in range(n)))

    def _glue_inverse(self):
        n = len(self.glue)
        return linalg.inverse(linalg.SparseRows([dict(enumerate(r)) for r in self.glue], n))

    def serre_dual(self):
        """Componentwise dual twisted by degree -1 on each side.

        h1 of the original equals h0 of this bundle; the node identification
        dualizes to the inverse transpose.
        """
        return SNCCurveBundle(
            GradedBundleP1(tuple(-d - 1 for d in self.left.degrees)),
            GradedBundleP1(tuple(-d - 1 for d in self.right.degrees)),
            tuple(zip(*self._glue_inverse())),
        )


def cohomology_snc_curve(bundle: SNCCurveBundle):
    """(h0, h1) via the node-evaluation sequence.

    0 -> H0(C) -> H0(left) + H0(right) -> fiber at node
      -> H1(C) -> H1(left) + H1(right) -> 0

    The middle map evaluates sections at the node and takes the difference
    after moving the right side through the glue matrix.
    """
    rank = bundle.left.rank
    h0l, h1l = bundle.left.cohomology()
    h0r, h1r = bundle.right.cohomology()

    # values at the node: only the t^0 frame section of a summand is nonzero there
    cols = [{k: 1} for k, d in enumerate(bundle.left.degrees) if d >= 0]
    cols += [{i: -bundle.glue[i][k] for i in range(rank)}
             for k, d in enumerate(bundle.right.degrees) if d >= 0]
    r = linalg.rank(cols)

    h0 = h0l + h0r - r
    h1 = (rank - r) + h1l + h1r
    return h0, h1
