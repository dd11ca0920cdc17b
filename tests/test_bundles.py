"""Line bundle cohomology on the projective line and on a two-line node."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from logfol import linalg, monoids
from logfol.bundles import GradedBundleP1, SNCCurveBundle, cohomology_snc_curve, h_p1
from logfol.jets import GermContext
from logfol.leafcomplex import leaf_complex_hypercohomology, p1_window_cover
from logfol.semistability import check_normal_degrees

from reference import serre_dual


def h_p1_oracle(d):
    # section counting: degree-d forms in two homogeneous variables
    return (max(0, d + 1), max(0, -d - 1))


# -- projective line ---------------------------------------------------------


@pytest.mark.parametrize("d", [*range(-60, 61), -200, 200])
def test_h_p1_matches_section_count(d):
    assert h_p1(d) == h_p1_oracle(d)


def test_h_p1_far_out_degrees():
    assert h_p1(11) == (12, 0)
    assert h_p1(-9) == (0, 8)


@pytest.mark.parametrize("d", [-7, -1, 0, 1, 9])
def test_h_p1_ranks_one_window_in_one_echelon_call(d, monkeypatch):
    # the 2(w + 1) chart sections of the window w = max(d, 0) go into one
    # basis in one call; nothing is ranked on its own
    calls = []
    echelon = linalg.echelon

    def spy(rows, ncols, basis=None, reduced=True):
        rows = list(rows)
        calls.append((len(rows), basis, reduced))
        return echelon(rows, ncols, basis, reduced)

    monkeypatch.setattr(linalg, "echelon", spy)
    monkeypatch.setattr(linalg, "rank", None)
    assert h_p1(d) == h_p1_oracle(d)
    assert calls == [(2 * (max(d, 0) + 1), None, False)]


@pytest.mark.parametrize("d", range(-8, 13))
def test_wider_windows_of_the_cover_engine_give_h_p1(d):
    # the window argument, through the independent cover engine: every
    # window past max(d, 0) has the cohomology h_p1 reads off max(d, 0)
    w0 = max(d, 0, 1)
    for w in range(w0, w0 + 5):
        assert leaf_complex_hypercohomology(p1_window_cover((d,), w, ())) == (*h_p1(d), 0)


@pytest.mark.parametrize("d", [3, 5])
def test_a_window_one_short_of_the_degree_misses_a_section(d):
    # the window is tight: at w = d - 1 the two charts share only t^1..t^(d-1),
    # so the cover finds d - 1 global sections, not d + 1
    h0, h1, _ = leaf_complex_hypercohomology(p1_window_cover((d,), d - 1, ()))
    assert (h0, h1) == (d - 1, 0) != h_p1(d)


@pytest.mark.parametrize("call", [
    lambda: monoids.contains(monoids.FGMonoid(1, [(2,)]), (Fraction(9, 2),)),
    lambda: h_p1(2.7),
    lambda: GradedBundleP1((1.5, True)),
    lambda: check_normal_degrees(1.5, -1),
    lambda: p1_window_cover((0.5,), 3, ()),
    lambda: linalg.hermite_normal_form([[Fraction(3, 2), 1], [0, 2]]),
    lambda: linalg.hermite_normal_form([[2.7, 1]]),
    lambda: GermContext(2, 2, 4.5),
    lambda: GermContext(2, 2, True),
], ids=["monoid-vector", "h_p1", "graded-bundle", "normal-degrees", "window-cover",
        "hnf-fraction", "hnf-float", "germ-float-order", "germ-bool-order"])
def test_integer_inputs_are_read_not_truncated(call):
    with pytest.raises(ValueError, match="expected an integer"):
        call()


def test_graded_bundle_accounting():
    e = GradedBundleP1((1, -1, 3))
    assert e.rank == 3
    assert sum(d + 1 for d in e.degrees) == 6
    assert e.cohomology() == (6, 0)


def test_graded_bundle_rejects_empty():
    with pytest.raises(ValueError):
        GradedBundleP1(())


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(-5, 5), min_size=1, max_size=4))
def test_euler_characteristic_is_h0_minus_h1(degrees):
    e = GradedBundleP1(tuple(degrees))
    h0, h1 = e.cohomology()
    assert h0 - h1 == sum(d + 1 for d in degrees)


# -- nodal curve ---------------------------------------------------------------


def test_structure_sheaf_of_the_node():
    e = SNCCurveBundle.with_identity_glue((0,), (0,))
    assert cohomology_snc_curve(e) == (1, 0)


def test_scalar_glue_does_not_change_dimensions():
    # line bundles on a tree are classified by degrees alone
    for lam in (Fraction(1), Fraction(2), Fraction(-1, 3)):
        left = GradedBundleP1((0,))
        right = GradedBundleP1((0,))
        e = SNCCurveBundle(left, right, ((lam,),))
        assert cohomology_snc_curve(e) == (1, 0)


def test_triple_o1_is_ample_enough():
    e = SNCCurveBundle.with_identity_glue((1, 1, 1), (1, 1, 1))
    assert cohomology_snc_curve(e) == (9, 0)


def test_mixed_degrees_with_an_obstructed_summand():
    e = SNCCurveBundle.with_identity_glue((1, -1, 3), (1, -1, 3))
    assert cohomology_snc_curve(e) == (10, 1)


def test_unbalanced_degree_pair():
    e = SNCCurveBundle.with_identity_glue((1,), (-1,))
    assert cohomology_snc_curve(e) == (1, 0)


def test_rank_mismatch_rejected():
    with pytest.raises(ValueError):
        SNCCurveBundle.with_identity_glue((1, 2), (1,))


def test_singular_glue_rejected():
    left = GradedBundleP1((0, 0))
    right = GradedBundleP1((0, 0))
    with pytest.raises(ValueError):
        SNCCurveBundle(left, right, ((1, 1), (2, 2)))


def test_unipotent_glue_mixes_summands():
    left = GradedBundleP1((0, 0))
    right = GradedBundleP1((0, 0))
    e = SNCCurveBundle(left, right, ((1, 1), (0, 1)))
    assert cohomology_snc_curve(e) == (2, 0)


@settings(max_examples=25, deadline=None)
@given(
    st.lists(st.integers(-4, 4), min_size=1, max_size=3),
    st.lists(st.integers(-4, 4), min_size=1, max_size=3),
)
def test_node_euler_characteristic(left, right):
    rank = min(len(left), len(right))
    e = SNCCurveBundle.with_identity_glue(tuple(left[:rank]), tuple(right[:rank]))
    h0, h1 = cohomology_snc_curve(e)
    chi = sum(d + 1 for d in e.left.degrees + e.right.degrees) - rank
    assert h0 - h1 == chi


# -- duality ---------------------------------------------------------------------


def random_glue(rng, rank):
    while True:
        g = [[Fraction(rng.randint(-2, 2)) for _ in range(rank)] for _ in range(rank)]
        try:
            return SNCCurveBundle(
                GradedBundleP1((0,) * rank), GradedBundleP1((0,) * rank), tuple(map(tuple, g))
            ).glue
        except ValueError:
            continue


def test_serre_dual_is_an_involution():
    e = SNCCurveBundle.with_identity_glue((2, -1), (0, 3))
    again = serre_dual(serre_dual(e))
    assert again.left.degrees == e.left.degrees
    assert again.right.degrees == e.right.degrees
    assert again.glue == e.glue


def test_serre_duality_swaps_dimensions():
    rng = random.Random(5)
    for _ in range(25):
        rank = rng.randint(1, 3)
        left = tuple(rng.randint(-4, 4) for _ in range(rank))
        right = tuple(rng.randint(-4, 4) for _ in range(rank))
        glue = random_glue(rng, rank)
        e = SNCCurveBundle(GradedBundleP1(left), GradedBundleP1(right), glue)
        h0, h1 = cohomology_snc_curve(e)
        d0, d1 = cohomology_snc_curve(serre_dual(e))
        assert (h0, h1) == (d1, d0)


# -- the ruled-surface family -------------------------------------------------------


@pytest.mark.parametrize("n,expected_h1", [(0, 0), (1, 0), (2, 1), (3, 3), (4, 5)])
def test_ruled_family_obstruction_jumps(n, expected_h1):
    degrees = (1, 1 - n, 1 + n)
    e = SNCCurveBundle.with_identity_glue(degrees, degrees)
    h0, h1 = cohomology_snc_curve(e)
    assert h1 == expected_h1
    dual = cohomology_snc_curve(serre_dual(e))
    assert dual[0] == h1
