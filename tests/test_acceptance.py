"""Acceptance gate: nine end-to-end checks with pinned tolerances.

Every check prints one verdict line (run pytest with -s to see them all);
numeric comparisons are exact Fraction equality, and the stated wall-clock
bounds are asserted, not advisory.
"""

import random
import time
from fractions import Fraction

from logfol.bundles import SNCCurveBundle, cohomology_snc_curve, h_p1
from logfol.foliations import FoliationGerm, SNCGlueData, SurfaceOneForm, check_gluing_cocycle
from logfol.jets import GermContext, Jet
from logfol.leafcomplex import constant_cover, verify_obstruction_cocycle
from logfol.logcalc import LogDerivation, LogOneForm
from logfol.monoids import FGMonoid, contains, saturate
from logfol.semistability import cs_index_log, cs_index_surface, find_flat_unit

from identities import ALL_CHECKS, first_failure
from reference import coboundary_triple


def _verdict(num, label, ok, elapsed=None):
    timing = "" if elapsed is None else " (%.3fs)" % elapsed
    print("criterion %d: %-52s %s%s" % (num, label, "PASS" if ok else "FAIL", timing))
    return ok


def node_foliation(lam1, lam2, order=6):
    ctx = GermContext(2, 2, order)
    field = LogDerivation(ctx, (Jet.constant(ctx, lam1), Jet.constant(ctx, lam2)), ())
    return FoliationGerm(ctx, (field,), rank=1)


def linear_model(lam, order=6):
    ctx = GermContext(2, 0, order)
    return SurfaceOneForm(Jet.variable(ctx, 1), Jet.constant(ctx, -lam) * Jet.variable(ctx, 0))


def test_criterion_1_flat_unit_grid():
    start = time.monotonic()
    ok = True
    for lam1 in range(-3, 4):
        for lam2 in range(-3, 4):
            res = find_flat_unit(node_foliation(lam1, lam2))
            ok = ok and (res.ok == (lam1 + lam2 == 0))
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 1.0
    assert _verdict(1, "flat unit on the 7x7 eigenvalue grid", ok, elapsed)


def test_criterion_2_index_pair_relation():
    rng = random.Random(20260825)
    pool = [Fraction(p, q) for p in range(-9, 10) for q in (1, 2, 3, 4)]
    start = time.monotonic()
    ok = True
    for _ in range(100):
        r = rng.choice((2, 3, 4, 5))
        ctx = GermContext(r, r, 4)
        consts = rng.sample(sorted(set(pool)), r)
        dlog = []
        for c in consts:
            terms = {(0,) * r: c}
            for k in range(r):
                e = [0] * r
                e[k] = 1
                terms[tuple(e)] = Fraction(rng.randint(-3, 3))
            dlog.append(Jet.make(ctx, terms))
        form = LogOneForm.make(ctx, dlog, ())
        for i in range(r):
            for j in range(r):
                if i == j:
                    continue
                pair_sum = cs_index_log(form, i, j) + cs_index_log(form, j, i)
                ok = ok and pair_sum == r - 2
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 5.0
    assert _verdict(2, "index pair sums on 100 random tuples", ok, elapsed)


def test_criterion_3_surface_oracle_agreement():
    ok = True
    lams = [Fraction(k, 3) for k in range(-10, 10)]
    assert len(lams) == 20
    for lam in lams:
        ok = ok and cs_index_surface(linear_model(lam)) == lam
    pairs = [(Fraction(k, 2), -Fraction(k, 2)) for k in range(1, 11)]
    pairs += [(Fraction(k), Fraction(k + 1)) for k in range(1, 10)]
    pairs += [(Fraction(0), Fraction(0))]
    assert len(pairs) == 20
    for lam1, lam2 in pairs:
        oracle_sum = cs_index_surface(linear_model(lam1)) + cs_index_surface(linear_model(lam2))
        solved = find_flat_unit(node_foliation(lam1, lam2)).ok
        ok = ok and ((oracle_sum == 0) == solved)
    assert _verdict(3, "surface oracle vs flat-unit solver", ok)


def test_criterion_4_triple_point_gluing():
    def glue(lam):
        return SNCGlueData(
            ("A", "B", "C"),
            ((0, 1, Fraction(lam)), (1, 2, Fraction(1)), (0, 2, Fraction(1))),
            ((0, 1, 2),),
        )

    ok = check_gluing_cocycle(glue(1)).ok
    for lam in (Fraction(2), Fraction(3), Fraction(1, 2), Fraction(-1)):
        res = check_gluing_cocycle(glue(lam))
        ok = ok and not res.ok
        ok = ok and res.failures[0] == (0, 1, 2, lam)
    assert _verdict(4, "triple-point cocycle with certificates", ok)


def test_criterion_5_ruled_family_vanishing():
    start = time.monotonic()
    ok = True
    for n, expected_h1 in ((0, 0), (1, 0), (2, 1), (3, 3), (4, 5)):
        degrees = (1, 1 - n, 1 + n)
        bundle = SNCCurveBundle.with_identity_glue(degrees, degrees)
        h0, h1 = cohomology_snc_curve(bundle)
        ok = ok and h1 == expected_h1
        ok = ok and (h1 == 0) == (n in (0, 1))
        dual_degrees = (-2, n - 2, -n - 2)
        dual = SNCCurveBundle.with_identity_glue(dual_degrees, dual_degrees)
        dual_h0, _ = cohomology_snc_curve(dual)
        ok = ok and dual_h0 == h1
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 1.0
    assert _verdict(5, "ruled-family h1 and its Serre dual", ok, elapsed)


def test_criterion_6_projective_line_table():
    ok = True
    for d in range(-6, 7):
        ok = ok and h_p1(d) == (max(0, d + 1), max(0, -d - 1))
    assert _verdict(6, "line bundle cohomology table on [-6, 6]", ok)


def test_criterion_7_homological_identities():
    start = time.monotonic()
    failures = {name: first_failure(name, seed=0, trials=200) for name in ALL_CHECKS}
    elapsed = time.monotonic() - start
    ok = len(failures) == 8 and not any(failures.values())
    ok = ok and elapsed < 10.0
    assert _verdict(7, "randomized identities, 200 trials each", ok, elapsed), failures


def test_criterion_8_obstruction_round_trip():
    rng = random.Random(8)
    data = constant_cover([[[1, 0], [0, 1], [1, 1]], [[1, 1, -1]]], n_opens=3)

    def rand_vec(d):
        return [Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(d)]

    ok = True
    for _ in range(20):
        rho = [rand_vec(data.row_dim(p, 0)) for p in data.pairs]
        hbar = [rand_vec(data.row_dim((i,), 1)) for i in range(3)]
        theta, gbar, bbar = coboundary_triple(data, rho, hbar)
        report = verify_obstruction_cocycle(data, theta, gbar, bbar)
        ok = ok and report.equations == (True, True, True, True)
        ok = ok and report.is_cocycle and report.is_coboundary
        layers = [
            [list(v) for v in theta],
            [list(v) for v in gbar],
            [list(v) for v in bbar],
        ]
        for li in range(3):
            for si in range(len(layers[li])):
                for ci in range(len(layers[li][si])):
                    bumped = [[list(v) for v in layer] for layer in layers]
                    bumped[li][si][ci] += 1
                    perturbed = verify_obstruction_cocycle(data, *bumped)
                    ok = ok and not all(perturbed.equations)
    assert _verdict(8, "coboundary triples and perturbations", ok)


def brute_saturation(m, x, box=52, multiple=24):
    """Bounded BFS oracle: is some positive multiple of x a sum of generators."""
    zero = (0,) * m.ambient_rank
    seen = {zero}
    frontier = [zero]
    while frontier:
        cur = frontier.pop()
        for g in m.generators:
            nxt = tuple(c + e for c, e in zip(cur, g))
            if all(v <= box for v in nxt) and nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    for k in range(1, multiple + 1):
        if tuple(k * v for v in x) in seen:
            return True
    return False


def test_criterion_9_monoid_saturation():
    ok = True
    sat_n = saturate(FGMonoid(1, ((2,), (3,))))
    ok = ok and sat_n.generators == ((1,),)
    sat_cone = saturate(FGMonoid(2, ((1, 0), (1, 2))))
    ok = ok and contains(sat_cone, (1, 1)) is not None

    rng = random.Random(9)
    done = 0
    while done < 20:
        rank = rng.choice((1, 2))
        gens = set()
        for _ in range(rng.randint(1, 3)):
            g = tuple(rng.randint(0, 3) for _ in range(rank))
            if any(g):
                gens.add(g)
        if not gens:
            continue
        m = FGMonoid(rank, tuple(sorted(gens)))
        sat = saturate(m)
        ok = ok and saturate(sat).generators == sat.generators
        for _ in range(6):
            x = tuple(rng.randint(0, 2) for _ in range(rank))
            member = contains(sat, x) is not None
            ok = ok and member == brute_saturation(m, x)
        done += 1
    assert _verdict(9, "saturation: frozen cases and idempotence", ok)
