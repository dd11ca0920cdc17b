"""Finitely generated submonoids of Z^k: membership, groups, saturation."""

import itertools
import json
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from logfol import cli, linalg, monoids
from logfol.monoids import (
    FGMonoid,
    contains,
    grothendieck_group,
    is_saturated,
    saturate,
)


def brute_members(m, bound):
    """All monoid elements whose coordinates stay within [-bound, bound].

    Breadth-first closure under generator addition; exact, so usable as an
    oracle against the search in `contains`.
    """
    seen = {(0,) * m.ambient_rank}
    frontier = list(seen)
    while frontier:
        nxt = []
        for x in frontier:
            for g in m.generators:
                y = tuple(a + b for a, b in zip(x, g))
                if y not in seen and all(abs(c) <= bound for c in y):
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return seen


def brute_saturation_point(m, x, k_max=12):
    """Does some positive multiple of x land in the monoid?"""
    for k in range(1, k_max + 1):
        if contains(m, tuple(k * c for c in x)) is not None:
            return True
    return False


small_monoids = st.builds(
    FGMonoid,
    st.just(2),
    st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 3)),
        min_size=1,
        max_size=4,
    ).map(tuple),
)


# -- membership ----------------------------------------------------------


def test_contains_numerical_semigroup():
    m = FGMonoid(1, ((3,), (5,)))
    gaps = {1, 2, 4, 7}
    for x in range(0, 16):
        got = contains(m, (x,)) is not None
        assert got == (x not in gaps)


def test_contains_returns_certificate():
    m = FGMonoid(2, ((1, 0), (1, 2)))
    combo = contains(m, (3, 4))
    assert combo is not None
    total = [0, 0]
    for coef, g in zip(combo, m.generators):
        total[0] += coef * g[0]
        total[1] += coef * g[1]
    assert tuple(total) == (3, 4)


@settings(max_examples=50, deadline=None)
@given(small_monoids, st.tuples(st.integers(0, 6), st.integers(0, 6)))
def test_contains_matches_breadth_first_oracle(m, x):
    oracle = x in brute_members(m, 6)
    assert (contains(m, x) is not None) == oracle


def test_contains_mixed_sign_generators():
    m = FGMonoid(1, ((2,), (-3,)))
    # 2a - 3b reaches every integer
    for x in range(-5, 6):
        assert contains(m, (x,)) is not None


# -- Grothendieck group and cone ------------------------------------------


def test_grothendieck_group_examples():
    assert grothendieck_group(FGMonoid(1, ((2,), (3,)))) == ((1,),)
    assert grothendieck_group(FGMonoid(2, ((1, 0), (1, 2)))) == ((1, 0), (0, 2))
    assert grothendieck_group(FGMonoid(2, ((0, 0),))) == ()


# -- saturation -----------------------------------------------------------


def test_saturate_numerical_semigroup_is_n():
    s = saturate(FGMonoid(1, ((2,), (3,))))
    assert s.generators == ((1,),)


def test_saturate_fills_interior_lattice_point():
    s = saturate(FGMonoid(2, ((1, 0), (1, 2))))
    assert contains(s, (1, 1)) is not None
    # the two extreme rays stay extreme
    assert contains(s, (1, 0)) is not None
    assert contains(s, (1, 2)) is not None
    assert contains(s, (0, 1)) is None


def test_saturate_keeps_rank_one_sublattice():
    # <(2, 2)> saturates to <(1, 1)>, not to the full quadrant
    s = saturate(FGMonoid(2, ((2, 2),)))
    assert contains(s, (1, 1)) is not None
    assert contains(s, (1, 0)) is None


def test_is_saturated_examples():
    assert is_saturated(FGMonoid(1, ((1,),)))
    assert not is_saturated(FGMonoid(1, ((2,), (3,))))
    assert is_saturated(FGMonoid(2, ((1, 0), (1, 1), (1, 2))))


@settings(max_examples=30, deadline=None)
@given(small_monoids)
def test_saturate_is_idempotent(m):
    s = saturate(m)
    assert saturate(s).generators == s.generators


@settings(max_examples=30, deadline=None)
@given(small_monoids)
def test_saturate_matches_pointwise_oracle(m):
    s = saturate(m)
    for x in itertools.product(range(0, 4), repeat=2):
        want = brute_saturation_point(m, x)
        assert (contains(s, x) is not None) == want, (m.generators, x)


# -- answers that a bounded search used to get wrong -------------------------


def test_long_witness_on_a_pointed_cone():
    # the budget of the old depth-first search read both of these as "no"
    assert contains(FGMonoid(1, ((1,),)), (60,)) == (60,)
    assert contains(FGMonoid(1, ((1,),)), (5000,)) == (5000,)


def test_witness_is_the_lexicographically_largest():
    m = FGMonoid(1, ((1,), (5,)))
    assert contains(m, (12,)) == (12, 0)
    assert contains(FGMonoid(1, ((5,), (1,))), (12,)) == (2, 2)


def test_pointed_non_membership_is_proved():
    m = FGMonoid(2, ((1, 0), (1, 2)))
    assert contains(m, (1, 1)) is None  # in the cone, not in the group
    assert contains(m, (40, 1)) is None
    assert contains(m, (0, 1)) is None  # outside the cone


def test_saturation_outside_the_old_box():
    # 16 * (1,1,11) = 11*(1,0,8) + 11*(0,1,8) + 5*(1,1,0); (1,1,11) lies
    # outside [-10, 10]^3 in the last coordinate
    s = saturate(FGMonoid(3, ((1, 0, 8), (0, 1, 8), (1, 1, 0))))
    layers = [(1, 1, h) for h in range(16)]
    assert s.generators == tuple(layers[:7]) + ((0, 1, 8), (1, 0, 8)) + tuple(layers[7:])


def test_rank_four_saturation_is_fast():
    start = time.perf_counter()
    s = saturate(FGMonoid(4, ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (1, 1, 1, 5))))
    assert time.perf_counter() - start < 1.0
    assert s.generators == ((0, 0, 1, 0), (0, 1, 0, 0), (1, 0, 0, 0)) + tuple(
        (1, 1, 1, h) for h in range(1, 6)
    )


def test_saturation_of_a_lower_rank_cone_stays_in_its_lattice():
    s = saturate(FGMonoid(3, ((2, 0, 2), (0, 2, 2))))
    assert s.generators == ((0, 1, 1), (1, 0, 1))
    assert contains(s, (1, 1, 1)) is None


# -- non-pointed cones --------------------------------------------------------


def test_non_pointed_no_is_a_proof():
    # the cone of the upper half plane, the group 2Z x Z
    m = FGMonoid(2, ((2, 0), (-2, 0), (0, 1)))
    assert contains(m, (0, -1)) is None  # outside the cone
    assert contains(m, (1, 3)) is None  # outside the group
    assert contains(m, (-4, 3)) is not None


def test_non_pointed_search_decides_no():
    # (0, 1) is in the cone and the group, but the y coordinates 2 and 3 of
    # the generators that are not units never sum to 1: a proven "no"
    m = FGMonoid(2, ((1, 0), (-1, 0), (0, 2), (1, 3)))
    assert contains(m, (0, 1)) is None
    assert contains(m, (0, 5)) == (0, 1, 1, 1)


def test_non_pointed_saturation_generates_the_lattice_points():
    assert saturate(FGMonoid(1, ((2,), (-3,)))).generators == ((-1,), (1,))
    s = saturate(FGMonoid(2, ((1, 0), (-1, 0), (0, 2), (1, 3))))
    for x in itertools.product(range(-3, 4), range(0, 4)):
        assert contains(s, x) is not None
    assert contains(s, (0, -1)) is None


@pytest.mark.parametrize("gens, want", [
    (((1, 0, 0), (1, -1, -2), (1, 2, 0), (-2, -2, 1)),
     ((0, -1, 0), (1, 0, 0), (1, 0, -1), (1, 1, 0), (-1, -2, 0), (1, 2, 0), (1, -1, -2),
      (-2, -2, 1))),
    (((2, 3, 3), (-1, -1, 2), (0, 3, -3), (1, -3, 2)),
     ((0, 0, 1), (0, 1, 0), (1, 0, 0), (0, -1, 1), (0, 1, -1), (-1, -1, 2), (1, -3, 2))),
    (((2, -1), (0, -2), (-3, -1), (-2, 3)), ((-1, 0), (0, -1), (0, 1), (1, 0))),
])
def test_non_pointed_saturations_are_fast(gens, want):
    # the search bounded at 48 steps took 44.5, 2.5 and 0.63 s on these
    # cones for the same generators (Python 3.11, 2 cores)
    start = time.perf_counter()
    assert saturate(FGMonoid(len(gens[0]), gens)).generators == want
    assert time.perf_counter() - start < 1.0


@st.composite
def non_pointed_monoids(draw):
    """Up to three generators and a line: v and -v, or v and -2v."""
    k = draw(st.integers(1, 2))
    entries = st.integers(-3, 3)
    v = draw(st.tuples(*[entries] * k).filter(any))
    gens = draw(st.lists(st.tuples(*[entries] * k), max_size=3))
    s = draw(st.sampled_from([1, 2]))
    return FGMonoid(k, tuple(gens) + (v, tuple(-s * c for c in v)))


@settings(max_examples=60, deadline=None)
@given(non_pointed_monoids())
def test_non_pointed_answers_match_the_closure(m):
    k = m.ambient_rank
    box = list(itertools.product(range(-3, 4), repeat=k))
    reach = brute_members(m, 16)
    for x in box:
        assert (contains(m, x) is not None) == (x in reach), (m.generators, x)
    reach = brute_members(saturate(m), 16)
    for x in box:
        assert (x in reach) == rational_cone_contains(m.nonzero_generators(), x), (m.generators, x)


# -- an oracle independent of the cone algorithm ----------------------------------


def det(rows):
    if len(rows) == 1:
        return rows[0][0]
    return sum(
        (-1) ** j * rows[0][j] * det([r[:j] + r[j + 1 :] for r in rows[1:]])
        for j in range(len(rows))
    )


def saturation_in_box(gens, side):
    """Nonzero points of [0, side]^k some positive multiple of which lies in <gens>.

    The generators are nonnegative and span Q^k, so a cone point x is in a
    simplicial subcone whose determinant d clears its denominators: d*x is in
    the monoid, and multiples up to the largest |d| decide membership.  The
    monoid is listed by breadth-first closure inside the box that holds
    those multiples.
    """
    k = len(gens[0])
    mult = max(abs(det([list(g) for g in sub])) for sub in itertools.combinations(gens, k))
    reach = brute_members(FGMonoid(k, tuple(gens)), mult * side)
    return {
        x
        for x in itertools.product(range(side + 1), repeat=k)
        if any(x) and any(tuple(n * c for c in x) in reach for n in range(1, mult + 1))
    }


def closure_in_box(gens, side):
    k = len(gens[0])
    seen = {(0,) * k}
    frontier = list(seen)
    while frontier:
        frontier = [
            y
            for x in frontier
            for g in gens
            for y in [tuple(a + b for a, b in zip(x, g))]
            if max(y) <= side and y not in seen and not seen.add(y)
        ]
    return seen


@pytest.mark.parametrize("k, count, top", [(3, 6, 3), (4, 3, 2)])
def test_saturation_matches_multiple_oracle(k, count, top):
    rng = random.Random(k)
    done = 0
    while done < count:
        gens = [tuple(rng.randint(0, top) for _ in range(k)) for _ in range(k + 1)]
        if not any(det([list(g) for g in sub]) for sub in itertools.combinations(gens, k)):
            continue
        s = saturate(FGMonoid(k, tuple(gens)))
        side = max(max(g) for g in s.generators)
        sat = saturation_in_box(gens, side)
        assert set(s.generators) <= sat
        # the output generates every point of the saturation in the box ...
        assert closure_in_box(s.generators, side) == sat | {(0,) * k}
        # ... and no generator is a sum of two nonzero saturation points
        for h in s.generators:
            assert not any(
                tuple(a - b for a, b in zip(h, y)) in sat for y in sat if y != h
            ), (gens, h)
        done += 1


# -- integer cone coordinates against rational ones ----------------------------


def rational_cone_contains(gens, x):
    """Cone membership with Fraction coordinates: some maximal independent set
    of generators solves B t = x with t >= 0."""
    k = len(x)

    def columns(vectors):
        return linalg.SparseRows([{j: v[i] for j, v in enumerate(vectors) if v[i]}
                                  for i in range(k)], len(vectors))

    dim = linalg.rank(columns(gens))
    for base in itertools.combinations(gens, dim):
        if linalg.rank(columns(base)) == dim:
            t = linalg.solve(columns(base), x)
            if t is not None and min(t) >= 0:
                return True
    return False


@st.composite
def cones_and_points(draw):
    k = draw(st.integers(1, 4))
    entries = st.integers(-3, 3)
    if draw(st.booleans()):
        gens = draw(st.lists(st.tuples(*[entries] * k), min_size=1, max_size=k + 2))
    else:  # integer combinations of fewer vectors: a cone of lower dimension
        d = draw(st.integers(1, k))
        span = draw(st.lists(st.tuples(*[entries] * k), min_size=d, max_size=d))
        combos = st.lists(st.tuples(*[st.integers(-2, 2)] * d), min_size=1, max_size=k + 2)
        gens = [tuple(sum(c * v[i] for c, v in zip(cs, span)) for i in range(k))
                for cs in draw(combos)]
    gens = [g for g in dict.fromkeys(gens) if any(g)]
    if not gens:
        gens = [(1,) * k]
    coeffs = st.lists(st.integers(-1, 3), min_size=len(gens), max_size=len(gens))
    points = [tuple(sum(c * g[i] for c, g in zip(cs, gens)) for i in range(k))
              for cs in draw(st.lists(coeffs, min_size=1, max_size=4))]
    points += draw(st.lists(st.tuples(*[st.integers(-6, 6)] * k), max_size=3))
    return gens, points


@settings(max_examples=300, deadline=None)
@given(cones_and_points())
def test_integer_cone_membership_matches_rational_coordinates(case):
    gens, points = case
    cone = monoids._Cone(gens)
    for x in points:
        assert cone.contains(x) == rational_cone_contains(gens, x), (gens, x)
    assert cone.pointed == (not any(
        rational_cone_contains(gens, tuple(-c for c in g)) for g in gens))


def test_membership_oracle_sees_every_kind_of_point():
    # lower dimension, mixed signs and non-pointed in one cone: the plane
    # x3 = 0 cut to a half plane
    gens = [(1, 0, 0), (-1, 0, 0), (0, 2, 0), (1, 3, 0)]
    cone = monoids._Cone(gens)
    assert not cone.pointed
    for x, inside in [((5, 1, 0), True), ((-7, 0, 0), True), ((0, -1, 0), False),
                      ((0, 1, 1), False)]:
        assert cone.contains(x) == rational_cone_contains(gens, x) == inside


# -- one cone per monoid, and checked answers ---------------------------------


ROADMAP_CONE = ((5, 1, 0, 0), (0, 4, 1, 0), (0, 0, 3, 2), (1, 0, 0, 7), (2, 3, 1, 1))


def test_rank_four_saturation_with_251_generators():
    m = FGMonoid(4, ROADMAP_CONE)
    s = saturate(m)
    assert len(s.generators) == 251
    for h in s.generators:
        assert all(type(c) is int for c in h)
        assert rational_cone_contains(ROADMAP_CONE, h), h
    assert not is_saturated(m)


# -- the graded walk of a pointed saturation against the pairwise filter -------


def saturation_candidates(cone):
    """The generators and the parallelepiped points of every base, less 0."""
    k = len(cone.gens[0])
    lattice = monoids._orthogonal(cone.equations, k)
    cands = set(cone.gens)
    for base in cone.bases:
        cands.update(monoids._parallelepiped(base, lattice, cone.rows))
    cands.discard((0,) * k)
    return cands


def pairwise_saturation(gens):
    """The Hilbert basis of a pointed cone by the N^2 filter: a candidate goes
    when it is another candidate plus a nonzero cone point."""
    cone = monoids._Cone(gens)
    cands = saturation_candidates(cone)
    kept = [x for x in cands
            if not any(cone.contains(tuple(a - b for a, b in zip(x, y))) for y in cands if y != x)]
    return tuple(sorted(kept, key=lambda v: (sum(map(abs, v)), v)))


@st.composite
def pointed_cones(draw):
    """Generators turned positive on a random integer form w, so that their
    cone is pointed; half of the time they are combinations of d <= k
    vectors, a cone of lower dimension where d < k."""
    k = draw(st.integers(1, 4))
    w = draw(st.tuples(*[st.integers(-2, 2)] * k).filter(any))
    entries = st.integers(-2, 2)
    if draw(st.booleans()):
        gens = draw(st.lists(st.tuples(*[entries] * k), min_size=1, max_size=k + 1))
    else:
        d = draw(st.integers(1, k))
        span = draw(st.lists(st.tuples(*[entries] * k), min_size=d, max_size=d))
        combos = st.lists(st.tuples(*[st.integers(-2, 2)] * d), min_size=1, max_size=k + 1)
        gens = [tuple(sum(c * v[i] for c, v in zip(cs, span)) for i in range(k))
                for cs in draw(combos)]
    signed = []
    for g in gens:
        s = sum(a * b for a, b in zip(w, g))
        if s:
            signed.append(g if s > 0 else tuple(-c for c in g))
    return list(dict.fromkeys(signed)) or [w]


@settings(max_examples=150, deadline=None)
@given(pointed_cones())
def test_pointed_saturation_matches_the_pairwise_filter(gens):
    assert monoids._Cone(gens).pointed
    assert saturate(FGMonoid(len(gens[0]), tuple(gens))).generators == pairwise_saturation(gens)


@pytest.mark.parametrize("gens, most", [
    (ROADMAP_CONE, None),  # at most N * |H|, against the N^2 of the pairwise filter
    (((1, 0), (1, 1000)), 0),  # every candidate (1, j) has the one degree 1000
])
def test_pointed_saturation_tests_candidates_only_against_kept_ones(monkeypatch, gens, most):
    cone = monoids._Cone(list(gens))
    n = len(saturation_candidates(cone))
    tests = []
    original = monoids._Cone.contains

    def spy(self, x):
        tests.append(x)
        return original(self, x)

    monkeypatch.setattr(monoids._Cone, "contains", spy)
    kept = monoids._saturation(cone)
    # the certificate tests each kept generator once; the rest are differences
    differences = len(tests) - len(kept)
    assert differences <= (n * len(kept) if most is None else most)


def test_is_saturated_builds_one_cone(monkeypatch):
    built = []
    init = monoids._Cone.__init__

    def spy(self, gens):
        built.append(gens)
        init(self, gens)

    monkeypatch.setattr(monoids._Cone, "__init__", spy)
    assert is_saturated(FGMonoid(2, ((1, 0), (1, 1), (1, 2))))
    assert len(built) == 1
    assert not is_saturated(FGMonoid(3, ((1, 0, 8), (0, 1, 8), (1, 1, 0))))
    assert len(built) == 2


def write_scene(tmp_path, gens, element=None):
    scene = {"monoid": {"ambient_rank": len(gens[0]), "generators": [list(g) for g in gens]}}
    if element is not None:
        scene["element"] = list(element)
    path = tmp_path / "monoid.json"
    path.write_text(json.dumps(scene))
    return str(path)


def test_a_witness_that_does_not_sum_is_an_internal_error(monkeypatch, tmp_path, capsys):
    scene = write_scene(tmp_path, [(1, 0), (1, 2)], (3, 4))
    assert cli.main(["monoid", "check", scene]) == 0
    capsys.readouterr()
    search = monoids._search

    def perturbed(cone, x):
        witness = search(cone, x)
        return witness and (witness[0] + 1,) + witness[1:]

    monkeypatch.setattr(monoids, "_search", perturbed)
    assert cli.main(["monoid", "check", scene]) == 4
    assert capsys.readouterr().out.startswith(
        "internal: internal error: RuntimeError: monoid membership certificate failed")


def test_corrupted_unit_coefficients_are_an_internal_error(monkeypatch, tmp_path, capsys):
    # (-1, 1) = (0, 1) + (-1, 0); the units (1, 0) and (-1, 0) write the remainder
    scene = write_scene(tmp_path, [(1, 0), (-1, 0), (0, 1)], (-1, 1))
    assert cli.main(["monoid", "check", scene]) == 0
    capsys.readouterr()
    units_write = monoids._Cone.units_write

    def corrupted(cone, y):
        c = units_write(cone, y)
        return c and [c[0] + 1] + c[1:]

    monkeypatch.setattr(monoids._Cone, "units_write", corrupted)
    assert cli.main(["monoid", "check", scene]) == 4
    assert capsys.readouterr().out.startswith(
        "internal: internal error: RuntimeError: monoid membership certificate failed")


def test_a_saturation_point_off_the_cone_is_an_internal_error(monkeypatch, tmp_path, capsys):
    scene = write_scene(tmp_path, [(1, 0), (1, 2)])
    assert cli.main(["monoid", "saturate", scene]) == 0
    capsys.readouterr()
    parallelepiped = monoids._parallelepiped
    monkeypatch.setattr(monoids, "_parallelepiped",
                        lambda *args: parallelepiped(*args) + [(0, 1)])
    assert cli.main(["monoid", "saturate", scene]) == 4
    assert capsys.readouterr().out.startswith(
        "internal: internal error: RuntimeError: saturation certificate failed")
