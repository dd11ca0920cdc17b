"""Cech cohomology of line bundle sums on the projective line and on a
two-component nodal curve, over Q and exact.

h_p1 really runs the two-chart Cech complex on a truncated Laurent window,
once, at a window proved large enough; it does not shortcut through the
closed-form answer, which the tests use as an independent oracle instead.
"""

from __future__ import annotations

from collections import namedtuple

from . import linalg


def h_p1(d):
    """(h0, h1) of O(d) on the projective line, by the Cech complex of one
    window, w = max(d, 0).

    At window w the chart sections in the fixed trivialization span t^0..t^w
    and t^(d-w)..t^d, and the overlap window is the hull min(0, d-w) ..
    max(w, d) of the two ranges; the difference map C0 -> C1 sends the first
    chart's t^k to t^k and the second's to -t^k.  Its rank is the rank of its
    transpose, whose rows are those images over columns indexed by the
    monomial degree k: one echelon basis of the 2(w + 1) sections.

    Why w = max(d, 0) suffices: for w >= max(d, 0), window w + 1 adds to
    chart 0 the section t^(w+1) and to chart 1 the section t^(d-w-1), and to
    the overlap exactly those two monomials, as w + 1 > max(w, d) and
    d - w - 1 < min(0, d - w).  The difference map sends the two new sections
    onto the two new monomials, up to sign, so each wider window adds an
    acyclic two-term piece and leaves h0 and h1 as they were.  The windows
    exhaust the Laurent Cech complex of the standard cover, so the dimensions
    at w = max(d, 0) are those of H*(P^1, O(d)).

    It is not a call on a CechLeafData cover of the line: a cover has a fixed
    build cost, and GradedBundleP1.cohomology calls h_p1 once per summand.
    """
    d = linalg._integer(d)
    w = max(d, 0)
    low = min(0, d - w)   # the overlap spans degrees low..w, as w >= d
    # chart 0's t^0..t^w, then chart 1's t^(d-w)..t^d, columns shifted by low
    sections = ({k - low: sign} for start, sign in ((0, 1), (d - w, -1))
                for k in range(start, start + w + 1))
    r = len(linalg.echelon(sections, w - low + 1, reduced=False))
    return 2 * (w + 1) - r, w - low + 1 - r


class GradedBundleP1(namedtuple("GradedBundleP1", "degrees")):
    """Direct sum of line bundles on the projective line, by degrees."""

    __slots__ = ()

    def __new__(cls, degrees):
        degrees = tuple(map(linalg._integer, degrees))
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
        if linalg.rank([dict(enumerate(r)) for r in g]) != left.rank:
            raise ValueError("matrix is singular")
        return tuple.__new__(cls, (left, right, g))

    @classmethod
    def with_identity_glue(cls, left_degrees, right_degrees):
        left = GradedBundleP1(tuple(left_degrees))
        right = GradedBundleP1(tuple(right_degrees))
        n = left.rank
        return cls(left, right, tuple(tuple(int(i == j) for j in range(n)) for i in range(n)))


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
