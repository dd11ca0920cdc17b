"""Cech cohomology of line bundle sums on the projective line and on a
two-component nodal curve, over Q and exact.

h_p1 really runs the two-chart Cech complex on truncated Laurent windows and
enlarges the window until the dimensions stop moving twice in a row; it does
not shortcut through the closed-form answer, which the tests use as an
independent oracle instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import linalg


def _window_matrix(d, w):
    """Difference map of the two-chart complex for O(d) at window size w.

    Chart sections in the fixed trivialization are spans of t^0..t^w and of
    t^(d-w)..t^d; the overlap window is the convex hull of the two ranges.
    Returns (sparse rows, dim C0, dim C1).
    """
    a = list(range(0, w + 1))
    b = list(range(d - w, d + 1))
    lo = min(a[0], b[0])
    hi = max(a[-1], b[-1])
    overlap = {k: idx for idx, k in enumerate(range(lo, hi + 1))}
    m = [{} for _ in overlap]
    for j, k in enumerate(a):
        m[overlap[k]][j] = 1
    for j, k in enumerate(b):
        m[overlap[k]][len(a) + j] = -1
    return m, len(a) + len(b), len(overlap)


def h_p1(d):
    """(h0, h1) of O(d) on the projective line, by stabilized Cech windows."""
    d = int(d)
    history = []
    w = 1
    while True:
        m, c0, c1 = _window_matrix(d, w)
        r = linalg.rank(m)
        dims = (c0 - r, c1 - r)
        history.append(dims)
        if len(history) >= 3 and history[-1] == history[-2] == history[-3]:
            return dims
        w += 1
        if w > abs(d) + 12:
            raise RuntimeError("window failed to stabilize; this should not happen")


@dataclass(frozen=True)
class GradedBundleP1:
    """Direct sum of line bundles on the projective line, by degrees."""

    degrees: tuple

    def __post_init__(self):
        object.__setattr__(self, "degrees", tuple(int(d) for d in self.degrees))
        if not self.degrees:
            raise ValueError("empty bundle")

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


@dataclass(frozen=True)
class SNCCurveBundle:
    """Bundle on two projective lines glued at one node.

    The fibers over the node are identified by an invertible rational matrix
    (left fiber frame to right fiber frame); section frames come from the
    degree-graded pieces in the chart containing the node at t = 0.
    """

    left: GradedBundleP1
    right: GradedBundleP1
    glue: tuple

    def __post_init__(self):
        if self.left.rank != self.right.rank:
            raise ValueError("both sides must have the same rank")
        g = tuple(tuple(Fraction(x) for x in row) for row in self.glue)
        if len(g) != self.left.rank or any(len(r) != self.left.rank for r in g):
            raise ValueError("glue matrix must be square of the common rank")
        object.__setattr__(self, "glue", g)
        self._glue_inverse()  # raises if singular

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
