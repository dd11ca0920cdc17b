"""Seeded verdict sets for the four workloads, each with its reference.

A workload is a fixed list of verdicts; one pass runs every verdict once.
The seed picks coefficients, signs and the order of the pass, never the
sizes, so every seed costs about the same.  Each verdict carries the
decision it must reach and, where the answer has a certificate, a check of
that certificate written in refcheck.py.  Expected answers come from how
the input was built or from refcheck, never from logfol.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction

import refcheck

EXIT = {"yes": 0, "value": 0, "no": 1, "error": 2, "inconclusive": 3}


@dataclass
class Verdict:
    id: str
    kind: str
    argv: list
    expect: str
    sizes: dict
    check: object = None  # report dict -> bool, run after the decision matches
    known_wrong: str = None  # why the package is known to get this one wrong


class _Builder:
    def __init__(self, out_dir):
        self.out_dir = out_dir
        self.verdicts = []

    def add(self, vid, kind, subcommand, scene, expect, sizes, check=None, known_wrong=None,
            path=None):
        if path is None:
            path = os.path.join(self.out_dir, vid + ".json")
            with open(path, "w") as handle:
                json.dump(scene, handle)
        self.verdicts.append(
            Verdict(vid, kind, subcommand + [path, "--json", "-"], expect, sizes, check, known_wrong)
        )


def _lin_field(coeffs, names):
    """sum c_i * x_i * dx_i as text, skipping zero coefficients."""
    terms = []
    for c, name in zip(coeffs, names):
        if c:
            terms.append((c, "%d*%s*d%s" % (abs(c), name, name)))
    text = ("-" if terms[0][0] < 0 else "") + terms[0][1]
    for c, body in terms[1:]:
        text += (" - " if c < 0 else " + ") + body
    return text


def _unit_check(fields, names, r, order):
    def check(report):
        return refcheck.flat_unit_certified(fields, names, r, order, report["details"]["unit"])

    return check


# --- jet_solve ---


def _shuffled(rng, values):
    out = list(values)
    rng.shuffle(out)
    return out


# The seed permutes fixed coefficient multisets and flips signs; it never
# changes magnitudes, so the fraction growth of the eliminations, and with
# it the cost of a verdict, does not depend on the seed.
BALANCED = (1, 2, -3)  # trace 0: g = 1 is a flat unit
UNBALANCED = (1, 2, -2)  # trace 1: the degree-0 equation is inconsistent


def jet_solve(b, rng, smallest):
    for order in (6,) if smallest else (6, 7, 8):
        for answer in ("yes", "no"):
            # n=4, r=3: a diagonal field and x4 d/dx4 commute; the bracket
            # membership at order - 1 builds the large sparse system.  Orders
            # 9 and up (~7 s at 10, ~17 s at 12) do not fit a timed run.
            names = ["x1", "x2", "x3", "x4"]
            v = _lin_field(_shuffled(rng, BALANCED if answer == "yes" else UNBALANCED), names[:3])
            w = _lin_field([rng.choice((-2, 2))], names[3:])
            scene = {
                "order": order,
                "germ": {"n": 4, "r": 3},
                "fields": {"v": v, "w": w},
                "foliation": {"generators": ["v", "w"], "rank": 2},
            }
            b.add("semistable_n4_pair_o%d_%s" % (order, answer), "semistable-check",
                  ["semistable", "check"], scene, answer, {"n": 4, "gens": 2, "order": order},
                  _unit_check([v, w], names, 3, order) if answer == "yes" else None)

    names = ["x1", "x2", "x3"]
    # two copies at order 10, so the tail rank falls inside that class
    for copy, order in enumerate((6,) if smallest else (6, 8, 10, 10)):
        for answer in ("yes", "no"):
            # n=3, r=3 commuting pair; the second field carries the answer
            v = _lin_field(_shuffled(rng, BALANCED), names)
            w = _lin_field(_shuffled(rng, (2, -1, -1) if answer == "yes" else (2, 1, -2)), names)
            scene = {
                "order": order,
                "germ": {"n": 3, "r": 3},
                "fields": {"v": v, "w": w},
                "foliation": {"generators": ["v", "w"], "rank": 2},
            }
            b.add("semistable_n3_pair_o%d_%s_%d" % (order, answer, copy), "semistable-check",
                  ["semistable", "check"], scene, answer, {"n": 3, "gens": 2, "order": order},
                  _unit_check([v, w], names, 3, order) if answer == "yes" else None)
            if copy < 3:
                _pushout_member(b, rng, 4, order, answer, copy)

    # The cheap kinds run at every order, orders 6 and 7 twice, and make up
    # over half of the pass, so the median falls where their costs are flat
    # rather than between two size classes.
    for copy, order in enumerate((6,) if smallest else (6, 6, 7, 7, 8, 9, 10, 11, 12)):
        for answer in ("yes", "no"):
            # n=3 single field with trace-free nonlinear terms: g = 1 is flat
            # exactly when the constant trace vanishes
            v = _lin_field(_shuffled(rng, BALANCED if answer == "yes" else UNBALANCED), names)
            i, j, k = _shuffled(rng, (1, 2, 3))
            v += " + 2*x%d*x%d^2*dx%d - 2*x%d*x%d^2*dx%d" % (i, k, i, j, k, j)
            scene = {
                "order": order,
                "germ": {"n": 3, "r": 3},
                "fields": {"v": v},
                "foliation": {"generators": ["v"]},
            }
            b.add("semistable_n3_single_o%d_%s_%d" % (order, answer, copy), "semistable-check",
                  ["semistable", "check"], scene, answer, {"n": 3, "gens": 1, "order": order},
                  _unit_check([v], names, 3, order) if answer == "yes" else None)
            if order <= 10:
                _pushout_member(b, rng, 3, order, answer, copy)


def _pushout_member(b, rng, n, order, answer, copy):
    """Candidate sum c_j y_j dy_j against one Euler-type field per branch.

    The restriction to branch i lies in the span of that branch's field
    exactly when the coefficient vectors off index i are proportional; the
    "no" scene breaks proportionality on the last branch only, so both
    answers walk every branch.
    """
    names = ["y%d" % i for i in range(1, n + 1)]
    c = _shuffled(rng, range(1, n + 1))
    scales = _shuffled(rng, (1, 2, 3))
    components = []
    for i in range(3):
        others = [j for j in range(n) if j != i]
        coeffs = [scales[i] * c[j] for j in others]
        if answer == "no" and i == 2:
            coeffs[0] += scales[i]
        components.append({
            "name": "B%d" % i,
            "fields": {"u": _lin_field(coeffs, [names[j] for j in others])},
            "foliation": ["u"],
        })
    scene = {
        "order": order,
        "germ": {"n": n, "r": 3, "names": names},
        "candidate": _lin_field(c, names),
        "components": components,
    }
    b.add("pushout_n%d_o%d_%s_%d" % (n, order, answer, copy), "pushout-member", ["pushout", "member"],
          scene, answer, {"n": n, "order": order})


# --- cover_cohomology ---

M0 = [[1, 0], [0, 1], [1, 1]]
M1 = [[1, 1, -1]]
SL2 = [
    [[0, 0, 0], [0, 2, 0], [0, 0, -2]],
    [[0, -2, 0], [0, 0, 0], [1, 0, 0]],
    [[0, 0, 2], [-1, 0, 0], [0, 0, 0]],
]


def _frac_rows(rows):
    return [[str(Fraction(x)) for x in row] for row in rows]


def _corrector_check(n_opens, theta, gbar, bbar):
    def check(report):
        corr = report["details"]["corrector"]
        rho = [[Fraction(x) for x in v] for v in corr["rho"]]
        hbar = [[Fraction(x) for x in v] for v in corr["hbar"]]
        image = refcheck.constant_cover_coboundary(M0, M1, n_opens, rho, hbar)
        return list(image) == [theta, gbar, bbar]

    return check


def cover_cohomology(b, rng, smallest):
    # Two copies of the largest window and of the middle obstruction size:
    # the tail and the median then fall inside one size class, not between.
    for copy, window in enumerate((8,) if smallest else (8, 16, 24, 32, 48, 48)):
        # O(d) -> O(d + 2) by a quadric: the complex is its cokernel, a
        # length-2 torsion sheaf, shifted into degree 1
        d0 = rng.randint(-2, 2)
        # unit coefficients keep the fraction growth of the elimination, and
        # so the cost, the same for every seed
        poly = [rng.choice((-1, 1)) for _ in range(3)]
        scene = {"leaf_data": {"builder": "p1-windows", "degrees": [d0, d0 + 2],
                               "window": window, "polys": [poly]}}
        b.add("leaf_p1_w%d_%d" % (window, copy), "leaf-complex", ["leaf-complex"], scene, "value",
              {"window": window}, lambda rep: rep["details"]["dims"] == [0, 2, 0, 0])

    for copy, n_opens in enumerate((3,) if smallest else (3, 4, 4, 5, 6)):
        for answer in ("yes", "no"):
            n_pairs = n_opens * (n_opens - 1) // 2
            rho = [[Fraction(rng.randint(-6, 6)) for _ in range(2)] for _ in range(n_pairs)]
            hbar = [[Fraction(rng.randint(-6, 6)) for _ in range(3)] for _ in range(n_opens)]
            theta, gbar, bbar = refcheck.constant_cover_coboundary(M0, M1, n_opens, rho, hbar)
            check = _corrector_check(n_opens, theta, gbar, bbar)
            if answer == "no":
                # M1 applied to the bump is 1, so the third equation fails
                gbar = [list(v) for v in gbar]
                gbar[0][0] += 1
                check = lambda rep: rep["details"]["is_cocycle"] is False
            scene = {
                "leaf_data": {"builder": "constant", "ce": [M0, M1], "opens": n_opens},
                "cochains": {"theta": _frac_rows(theta), "gbar": _frac_rows(gbar),
                             "bbar": _frac_rows(bbar)},
            }
            b.add("obstruction_opens%d_%s_%d" % (n_opens, answer, copy), "obstruction-verify",
                  ["obstruction", "verify"], scene, answer, {"opens": n_opens}, check)

    for m in (5,) if smallest else (5, 15, 30):
        # h_p1 widens its window up to the degree for d >= 0 and stops at
        # once for d < 0, so each side gets one of each
        left = [m, rng.randint(-3, 3), rng.randint(-3, 3)]
        right = [rng.randint(-3, 3), -m, rng.randint(-3, 3)]
        if rng.random() < 0.5:
            left, right = right, left
        h0, h1 = refcheck.h_snc_identity_glue(left, right)
        b.add("snc_deg%d" % m, "cohomology-snc-curve", ["cohomology", "snc-curve"],
              {"bundle": {"left": left, "right": right}}, "value", {"max_abs_degree": m},
              lambda rep, h0=h0, h1=h1: (rep["details"]["h0"], rep["details"]["h1"]) == (h0, h1))

    # Borel inside sl2: mu = 0, so the defect is the coboundary of the
    # reduced perturbation and a corrector exists
    pert = [[rng.randint(-3, 3) for _ in range(3)] for _ in range(2)]
    b.add("lie_sl2_borel", "obstruction-lie", ["obstruction", "lie"],
          {"lie": {"structure": SL2, "sub_basis": [[1, 0, 0], [0, 1, 0]], "perturbation": pert,
                   "mu": [[[0, 0, 0], [0, 0, 0]], [[0, 0, 0], [0, 0, 0]]]}},
          "yes", {"dim": 3})
    if smallest:
        return
    # abelian: the differentials vanish, so the class is mu mod the subalgebra
    zero = [[[0] * 4 for _ in range(4)] for _ in range(4)]
    for answer in ("yes", "no"):
        top = [rng.randint(1, 3), rng.randint(-3, 3)]
        tail = [0, 0] if answer == "yes" else [rng.randint(1, 3), rng.randint(-3, 3)]
        mu_ab = top + tail
        mu = [[[0] * 4, mu_ab], [[-x for x in mu_ab], [0] * 4]]
        pert = [[rng.randint(-3, 3) for _ in range(4)] for _ in range(2)]
        b.add("lie_abelian4_%s" % answer, "obstruction-lie", ["obstruction", "lie"],
              {"lie": {"structure": zero, "sub_basis": [[1, 0, 0, 0], [0, 1, 0, 0]],
                       "perturbation": pert, "mu": mu}},
              answer, {"dim": 4})


# --- monoid_search ---


def _saturation_check(rays):
    basis = refcheck.hilbert_basis_simplicial(rays)

    def check(report):
        out = {tuple(g) for g in report["details"]["generators"]}
        return basis <= out and all(refcheck.in_simplicial_cone(rays, g) for g in out)

    return check


def _group_check(gens):
    expected = [list(row) for row in refcheck.hermite_rows(gens)]
    return lambda report: report["details"]["basis"] == expected


# Cones by their rays.  The seed applies a signed permutation of the
# coordinates, which maps the search box onto itself: every seed costs the
# same while the generators differ.
CONES2 = ([(1, 0), (1, 3)], [(1, 0), (2, 5)], [(1, 1), (1, 3)], [(2, 1), (1, 3)])
CONE3 = [(1, 0, 0), (0, 1, 0), (1, 1, 3)]


def _signed_perm(rng, rays):
    k = len(rays[0])
    perm = _shuffled(rng, range(k))
    signs = [rng.choice((-1, 1)) for _ in range(k)]
    return [tuple(signs[i] * r[perm[i]] for i in range(k)) for r in rays]


def _monoid(rank, gens, element=None):
    scene = {"monoid": {"ambient_rank": rank, "generators": [list(g) for g in gens]}}
    if element is not None:
        scene["element"] = list(element)
    return scene


def _interior_point(rays):
    """A lattice point of the open parallelepiped: not a sum of rays."""
    for p in sorted(refcheck.hilbert_basis_simplicial(rays)):
        if p not in {tuple(r) for r in rays}:
            return p
    raise ValueError("unimodular cone has no interior parallelepiped point")


def monoid_search(b, rng, smallest):
    # rank 1: numerical semigroups <a, b>, coprime, so the saturation is N
    pairs = [(2, 3), (3, 5), (2, 7), (3, 4), (4, 5), (5, 7), (3, 8)]
    for idx in range(2):
        p, q = rng.choice(pairs)
        gens = [(p,), (q,)]
        b.add("sat_r1_%d" % idx, "monoid-saturate", ["monoid", "saturate"], _monoid(1, gens),
              "value", {"rank": 1}, _saturation_check([(1,)]))
    p, q = rng.choice(pairs)
    b.add("check_r1_yes", "monoid-check", ["monoid", "check"], _monoid(1, [(1,), (p,)]),
          "yes", {"rank": 1})
    b.add("check_r1_no", "monoid-check", ["monoid", "check"], _monoid(1, [(p,), (q,)]),
          "no", {"rank": 1})
    n1, n2 = rng.randint(0, 4), rng.randint(1, 4)
    b.add("member_r1_yes", "monoid-check", ["monoid", "check"],
          _monoid(1, [(p,), (q,)], (n1 * p + n2 * q,)), "yes", {"rank": 1})
    b.add("member_r1_no", "monoid-check", ["monoid", "check"],
          _monoid(1, [(p,), (q,)], (p * q - p - q,)), "no", {"rank": 1})
    b.add("member_r1_60", "monoid-check", ["monoid", "check"], _monoid(1, [(1,)], (60,)),
          "yes", {"rank": 1},
          known_wrong="60 = 60 * 1, but the 48-step search budget runs out and reads as no")
    b.add("group_r1", "monoid-group", ["monoid", "group"], _monoid(1, [(2 * p,), (2 * q,)]),
          "value", {"rank": 1}, _group_check([(2 * p,), (2 * q,)]))
    if smallest:
        return

    # rank 2: simplicial cones with small determinant.  Rank-2 searches are
    # the most numerous verdicts, so the median falls among them.
    for idx in range(10):
        rays = _signed_perm(rng, CONES2[idx % len(CONES2)])
        gens = rays + [tuple(2 * x + y for x, y in zip(*rays))]
        b.add("sat_r2_%d" % idx, "monoid-saturate", ["monoid", "saturate"], _monoid(2, gens),
              "value", {"rank": 2}, _saturation_check(rays))
    for idx in range(5):
        rays = _signed_perm(rng, CONES2[idx % len(CONES2)])
        basis = sorted(refcheck.hilbert_basis_simplicial(rays))
        b.add("check_r2_yes_%d" % idx, "monoid-check", ["monoid", "check"], _monoid(2, basis),
              "yes", {"rank": 2})
        b.add("check_r2_no_%d" % idx, "monoid-check", ["monoid", "check"], _monoid(2, rays),
              "no", {"rank": 2})
    rays = _signed_perm(rng, CONES2[3])
    coeffs = (rng.randint(0, 4), rng.randint(1, 4))
    b.add("member_r2_yes", "monoid-check", ["monoid", "check"],
          _monoid(2, rays, [sum(c * r[i] for c, r in zip(coeffs, rays)) for i in range(2)]),
          "yes", {"rank": 2})
    b.add("member_r2_no", "monoid-check", ["monoid", "check"],
          _monoid(2, rays, _interior_point(rays)), "no", {"rank": 2})
    gens = [(rng.randint(-4, 4), rng.randint(-4, 4)) for _ in range(3)] + [(2, 0)]
    b.add("group_r2", "monoid-group", ["monoid", "group"], _monoid(2, gens), "value",
          {"rank": 2}, _group_check(gens))

    # rank 3: the box search runs an rref and a simplex at 21^3 points
    rays = _signed_perm(rng, CONE3)
    b.add("sat_r3", "monoid-saturate", ["monoid", "saturate"], _monoid(3, rays), "value",
          {"rank": 3}, _saturation_check(rays))
    wrong = [(1, 0, 8), (0, 1, 8), (1, 1, 0)]
    b.add("sat_r3_088", "monoid-saturate", ["monoid", "saturate"], _monoid(3, wrong), "value",
          {"rank": 3}, _saturation_check(wrong),
          known_wrong="the output misses (1,1,11): 16*(1,1,11) lies in the monoid, "
                      "but (1,1,11) is outside the search box")
    coeffs = [rng.randint(0, 3) for _ in range(3)]
    b.add("member_r3_yes", "monoid-check", ["monoid", "check"],
          _monoid(3, rays, [sum(c * r[i] for c, r in zip(coeffs, rays)) for i in range(3)]),
          "yes", {"rank": 3})
    b.add("member_r3_no", "monoid-check", ["monoid", "check"],
          _monoid(3, rays, _interior_point(rays)), "no", {"rank": 3})
    gens = [tuple(rng.randint(-4, 4) for _ in range(3)) for _ in range(3)] + [(0, 0, 3)]
    b.add("group_r3", "monoid-group", ["monoid", "group"], _monoid(3, gens), "value",
          {"rank": 3}, _group_check(gens))


# --- scene_suite ---

# The committed scenes, the subcommand each is for, and the answer its note
# states; checks recompute what has a closed form or a certificate.
SCENES = {
    "cs_triple_form": (["cs", "log"], "value", lambda rep: rep["details"]["index"] == "3"),
    "holonomy_pair": (["holonomy"], "yes", None),
    "leaf_windows": (["leaf-complex"], "value", lambda rep: rep["details"]["dims"] == [0, 1, 0, 0]),
    "lie_borel": (["obstruction", "lie"], "yes", None),
    "monoid_cusp": (["monoid", "check"], "no", None),
    "node_balanced": (["semistable", "check"], "yes",
                      _unit_check(["x*dx - y*dy"], ["x", "y"], 2, 6)),
    "node_resonant_tail": (["semistable", "check"], "yes",
                           _unit_check(["x1*dx1 - x2*dx2 + x1*x2*x3*dx3"], ["x1", "x2", "x3"], 3, 8)),
    "node_unbalanced": (["semistable", "check"], "no", None),
    "obstruction_demo": (["obstruction", "verify"], "yes", None),
    "pushout_euler": (["pushout", "member"], "yes", None),
    "ruled_n2": (["cohomology", "snc-curve"], "value",
                 lambda rep: (rep["details"]["h0"], rep["details"]["h1"])
                 == refcheck.h_snc_identity_glue([1, -1, 3], [1, -1, 3])),
    "surface_index": (["cs", "surface"], "value", lambda rep: rep["details"]["index"] == "3"),
    "triple_point_fails": (["pushout", "check"], "no",
                           lambda rep: rep["details"]["failures"][0]["product"] == "2"),
    "triple_point_glues": (["pushout", "check"], "yes", None),
}


def _demo_corrector_check(scene):
    cochains = [[[Fraction(x) for x in v] for v in scene["cochains"][k]]
                for k in ("theta", "gbar", "bbar")]
    return _corrector_check(scene["leaf_data"]["opens"], *cochains)


def scene_suite(b, rng, smallest, scenes_dir):
    for name, (subcommand, expect, check) in SCENES.items():
        path = os.path.join(scenes_dir, name + ".json")
        with open(path) as handle:
            scene = json.load(handle)
        if name == "obstruction_demo":
            check = _demo_corrector_check(scene)
            demo = scene
        b.add("scene_" + name, subcommand[0] + "".join("-" + s for s in subcommand[1:]),
              subcommand, scene, expect, {"scene": name}, check, path=path)
    demo["cochains"]["theta"] = [None]
    b.add("scene_obstruction_theta_null", "obstruction-verify", ["obstruction", "verify"],
          demo, "error", {"scene": "obstruction_demo+theta_null"},
          known_wrong="theta = [null] raises TypeError, which exits 1 (no) instead of 2")
    rng.shuffle(b.verdicts)


WORKLOADS = {
    "jet_solve": jet_solve,
    "cover_cohomology": cover_cohomology,
    "monoid_search": monoid_search,
    "scene_suite": None,
}


def build(workload, seed, out_dir, scenes_dir, smallest=False):
    """The verdicts of one pass of a workload, scenes written to out_dir."""
    rng = random.Random("%s:%d" % (workload, seed))
    b = _Builder(out_dir)
    if workload == "scene_suite":
        scene_suite(b, rng, smallest, scenes_dir)
    else:
        WORKLOADS[workload](b, rng, smallest)
        rng.shuffle(b.verdicts)
    return b.verdicts
