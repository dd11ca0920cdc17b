"""Scene files and the command line wrapper, exercised end to end."""

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from logfol import cli, jets, leafcomplex, linalg, logcalc, semistability
from logfol.cli import Report
from logfol.scene import SceneError, load_scene, scene_fraction

from exact_rule import follows_the_rule
from reference import coboundary_triple


def write_scene(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload, indent=1))
    return str(path)


BALANCED = {
    "germ": {"n": 2, "r": 2},
    "fields": {"v": "x1*dx1 - x2*dx2"},
    "foliation": {"generators": ["v"]},
}

UNBALANCED = {
    "germ": {"n": 2, "r": 2},
    "fields": {"v": "x1*dx1 - 2*x2*dx2"},
    "foliation": {"generators": ["v"]},
}


# -- fractions and file loading ----------------------------------------------------


def test_scene_fraction_accepts_ints_and_strings():
    assert scene_fraction(3, "x") == Fraction(3)
    assert scene_fraction("-7/2", "x") == Fraction(-7, 2)
    assert scene_fraction(" 5/3 ", "x") == Fraction(5, 3)


def test_scene_fraction_rejects_floats_and_booleans():
    with pytest.raises(SceneError, match="floating point is not allowed"):
        scene_fraction(0.5, "glue")
    with pytest.raises(SceneError, match="boolean"):
        scene_fraction(True, "glue")
    with pytest.raises(SceneError, match="cannot read"):
        scene_fraction("three halves", "glue")


def test_the_reader_stores_ints_where_integral():
    values = [linalg._exact(x) for x in (3, "4/2", Fraction(6, 3), " 5/3 ", Fraction(1, 2))]
    assert values == [3, 2, 2, Fraction(5, 3), Fraction(1, 2)]
    assert follows_the_rule(values)


@pytest.mark.parametrize("value, message", [
    (True, "expected a rational, got a boolean"),
    (0.5, 'floating point is not allowed; write rationals as "p/q"'),
    ("1/0", "cannot read '1/0' as a rational"),
    ("three halves", "cannot read 'three halves' as a rational"),
    ([1], "expected a rational, got list"),
    # decimal, exponent and underscore forms, which Fraction() would read
    ("0.5", "cannot read '0.5' as a rational"),
    (".5", "cannot read '.5' as a rational"),
    ("1e3", "cannot read '1e3' as a rational"),
    ("2.5e-1", "cannot read '2.5e-1' as a rational"),
    ("1_000", "cannot read '1_000' as a rational"),
])
def test_the_reader_refuses_what_is_no_exact_number(value, message):
    with pytest.raises(ValueError) as e:
        linalg._exact(value)
    assert str(e.value) == message
    with pytest.raises(SceneError) as e:
        scene_fraction(value, "glue")
    assert str(e.value) == "glue: " + message


def test_a_scene_stores_its_integral_numbers_as_ints():
    lie = load_scene(SCENES / "lie_borel.json", None).lie_data()
    structure = [x for row in lie.algebra.structure for v in row for x in v.values()]
    data = load_scene(SCENES / "obstruction_demo.json", None).leaf_data()
    ce = [x for mats in data.ce.values() for m in mats for row in m for x in row.values()]
    assert structure and ce and all(type(x) is int for x in structure + ce)
    holonomy = load_scene(SCENES / "holonomy_pair.json", None).holonomy()
    assert all(follows_the_rule(h.values) for h in holonomy)


def test_fstr_prints_only_exact_numbers():
    assert [cli._fstr(x) for x in (2, Fraction(-1, 3), Fraction(4))] == ["2", "-1/3", "4"]
    for x in (-0.3333333333333333, True, "1/3"):
        with pytest.raises(TypeError):
            cli._fstr(x)


def test_load_scene_reports_json_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"germ": \n  [}')
    with pytest.raises(SceneError, match=r"line 2, column 4"):
        load_scene(str(path), None)


def test_load_scene_rejects_non_objects(tmp_path):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]")
    with pytest.raises(SceneError, match="JSON object"):
        load_scene(str(path), None)


def test_order_precedence(tmp_path):
    path = write_scene(tmp_path, "s.json", {"order": 4, "germ": {"n": 1}})
    assert load_scene(path, None).order == 4
    assert load_scene(path, order=9).order == 9
    plain = write_scene(tmp_path, "p.json", {"germ": {"n": 1}})
    assert load_scene(plain, None).order == 6


def test_bad_order_is_rejected(tmp_path):
    path = write_scene(tmp_path, "s.json", {"order": 0})
    with pytest.raises(SceneError, match="positive integer"):
        load_scene(path, None)


# -- accessor validation -------------------------------------------------------------


def test_missing_key_names_the_key(tmp_path):
    path = write_scene(
        tmp_path, "s.json",
        {"germ": {"n": 2, "r": 2}, "fields": {"v": "x1*dx1"}},
    )
    scn = load_scene(path, None)
    with pytest.raises(SceneError, match="'foliation'"):
        scn.foliation(scn.germ())


def test_one_form_counts_are_checked(tmp_path):
    path = write_scene(
        tmp_path, "s.json",
        {"germ": {"n": 3, "r": 2}, "one_form": {"dlog": ["1"], "reg": []}},
    )
    with pytest.raises(SceneError, match="need 2 dlog and 1 regular"):
        load_scene(path, None).one_form()


def test_unknown_generator_is_rejected(tmp_path):
    path = write_scene(
        tmp_path, "s.json",
        {
            "germ": {"n": 2, "r": 2},
            "fields": {"v": "x1*dx1"},
            "foliation": {"generators": ["w"]},
        },
    )
    scn = load_scene(path, None)
    with pytest.raises(SceneError, match="unknown field 'w'"):
        scn.foliation(scn.germ())


@pytest.mark.parametrize("subcommand, path, value, first_line", [
    (["semistable", "check"], ["foliation", "generators"], ["w"],
     "error: foliation.generators: unknown field 'w'"),
    # an unknown name is reported before a later non-string name or a bad rank
    (["semistable", "check"], ["foliation", "generators"], ["w", 5],
     "error: foliation.generators: unknown field 'w'"),
    (["semistable", "check"], ["foliation"], {"generators": ["w"], "rank": "x"},
     "error: foliation.generators: unknown field 'w'"),
    (["pushout", "member"], ["components", 1, "foliation"], ["v", 3],
     "error: components[1].foliation: unknown field 'v'"),
])
def test_unknown_generator_is_the_first_error_reported(tmp_path, capsys, subcommand, path,
                                                       value, first_line):
    scene = json.loads(json.dumps(BALANCED if subcommand[0] == "semistable" else PUSHOUT_MEMBER))
    _set_path(scene, path, value)
    assert cli.main(subcommand + [write_scene(tmp_path, "s.json", scene)]) == 2
    assert capsys.readouterr().out.splitlines()[0] == first_line


def test_duplicate_component_names_are_rejected(tmp_path):
    path = write_scene(tmp_path, "s.json", {"components": ["A", "A"]})
    with pytest.raises(SceneError, match="duplicate"):
        load_scene(path, None).component_names()


def test_field_parse_errors_carry_the_key(tmp_path, capsys):
    path = write_scene(
        tmp_path, "s.json",
        {"germ": {"n": 2, "r": 1}, "fields": {"v": "x2*dx1"}},
    )
    scn = load_scene(path, None)
    with pytest.raises(SceneError, match=r"fields\.v.*not tangent"):
        scn.fields(scn.germ())
    assert cli.main(["semistable", "check", write_scene(
        tmp_path, "t.json", dict(BALANCED, fields={"v": "x2*dx1"}))]) == 2
    assert capsys.readouterr().out.splitlines()[0] == (
        "error: fields.v: coefficient of d1 must vanish on {x1 = 0}; "
        "the field is not tangent to the crossing locus")


def _set_path(scene, path, value):
    """Put value at the key path of scene, creating nothing on the way."""
    for key in path[:-1]:
        scene = scene[key]
    scene[path[-1]] = value


SCENES = Path(__file__).resolve().parent.parent / "scenes"

EXPLICIT_LEAF = {
    "leaf_data": {
        "builder": "explicit",
        "opens": ["U0", "U1"],
        "pairs": [[0, 1]],
        "triples": [],
        "spaces": {"U0": [1], "U1": [1], "U0|U1": [1]},
        "restrictions": {
            "U0->U0|U1": [[[1]]],
            "U1->U0|U1": [[[1]]],
        },
        "ce": {"U0": [], "U1": [], "U0|U1": []},
    }
}

FLOAT = 'floating point is not allowed; write rationals as "p/q"'

# (scene: a file in scenes/ or a dict, subcommand, key path, bad value, first output line)
READER_MESSAGES = [
    ("lie_borel", ["obstruction", "lie"], ["lie", "structure", 1, 0, 2], 1.5,
     "error: lie.structure[1][0]: " + FLOAT),
    ("lie_borel", ["obstruction", "lie"], ["lie", "mu", 0, 1, 0], "x",
     "error: lie.mu[0][1]: cannot read 'x' as a rational"),
    ("obstruction_demo", ["leaf-complex"], ["leaf_data", "ce", 0, 1, 0], True,
     "error: leaf_data.ce[0][1][0]: expected a rational, got a boolean"),
    (EXPLICIT_LEAF, ["leaf-complex"], ["leaf_data", "restrictions", "U0->U0|U1", 0, 0, 0], "1/0",
     "error: leaf_data.restrictions.U0->U0|U1[0][0][0]: cannot read '1/0' as a rational"),
    ("leaf_windows", ["leaf-complex"], ["leaf_data", "degrees", 1], "1",
     "error: leaf_data.degrees[1]: expected an integer"),
    ("p1_degree_60", ["cohomology", "p1"], ["degree"], "60",
     "error: degree: expected an integer"),
    ("ruled_n2", ["cohomology", "snc-curve"], ["bundle", "left", 1], 1.5,
     "error: bundle.left[1]: expected an integer"),
    ("ruled_n2", ["cohomology", "snc-curve"], ["bundle", "glue"], [[1, 1.5, 0]],
     "error: bundle.glue[0][1]: " + FLOAT),
    ("monoid_cusp", ["monoid", "check"], ["monoid", "generators", 1, 0], "3",
     "error: monoid.generators[1][0]: expected an integer"),
    ("monoid_cusp", ["monoid", "check"], ["element"], [1, None],
     "error: element[1]: expected an integer"),
    ("holonomy_pair", ["holonomy"], ["holonomy", "inner", 1], 0.5,
     "error: holonomy.inner[1]: " + FLOAT),
    ("cs_triple_form", ["cs", "log"], ["one_form", "dlog", 0], "1 +",
     "error: one_form.dlog[0]: expected a number, name, or '(' (line 1, column 4)"),
    ("surface_index", ["cs", "surface"], ["surface_form", "b"], "-3*w",
     "error: surface_form.b: unknown name 'w' (line 1, column 4)"),
    ("pushout_euler", ["pushout", "member"], ["components", 1, "fields", "u"], "x*dy",
     "error: components[1].fields.u: unknown name 'dy' (line 1, column 3)"),
    ("pushout_euler", ["pushout", "member"], ["candidate"], {"A": "y*dy", "B": "x*"},
     "error: candidate.B: expected a number, name, or '(' (line 1, column 3)"),
    ("pushout_euler", ["pushout", "member"], ["candidate"], "x*dx +",
     "error: candidate: expected a number, name, or '(' (line 1, column 7)"),
    ("obstruction_demo", ["obstruction", "verify"], ["cochains", "gbar", 0, 1], 1.5,
     "error: cochains.gbar[0][1]: " + FLOAT),
    (BALANCED, ["semistable", "check"], ["germ", "names"], ["x2", "y"],
     "error: germ.names: 'x2', the name of variable 1, is the default name of variable 2"),
    ("surface_index", ["cs", "surface"], ["surface_form", "names"], ["y", "y"],
     "error: surface_form.names: 'y', the name of variable 2, is the name of variable 1"),
    (EXPLICIT_LEAF, ["leaf-complex"], ["leaf_data", "spaces", "U0|U1"], [1, "1"],
     "error: leaf_data.spaces.U0|U1: expected an integer"),
    ("cs_triple_form", ["cs", "log"], ["index_pair"], [1, 2.0],
     "error: index_pair[1]: expected an integer"),
    ("lie_borel", ["obstruction", "lie"], ["lie", "sub_basis", 0], [0, 1, "1/0"],
     "error: lie.sub_basis[0][2]: cannot read '1/0' as a rational"),
    ("pushout_euler", ["pushout", "member"], ["params"], {"lam": 1, "y": "1/2"},
     "error: params.y: 'y' names variable 2 of the germ"),
    ("pushout_euler", ["pushout", "member"], ["params"], {"dx": 0, "lam": 1.5},
     "error: params.dx: 'dx' is the derivation token of 'x'"),
    ("cs_triple_form", ["cs", "log"], ["params"], {"x3": 1},
     "error: params.x3: 'x3' names variable 3 of the germ"),
]


@pytest.mark.parametrize("scene, subcommand, path, value, first_line", READER_MESSAGES,
                         ids=[case[-1].split(": ")[1] for case in READER_MESSAGES])
def test_each_reader_names_its_key_path(tmp_path, capsys, scene, subcommand, path, value,
                                        first_line):
    if isinstance(scene, str):
        scene = json.loads((SCENES / ("%s.json" % scene)).read_text())
    scene = json.loads(json.dumps(scene))
    _set_path(scene, path, value)
    assert cli.main(subcommand + [write_scene(tmp_path, "s.json", scene)]) == 2
    assert capsys.readouterr().out.splitlines()[0] == first_line


@pytest.mark.parametrize("names, message", [
    (["x", "dx"], "'dx' names variable 2 and is the derivation token of 'x', variable 1"),
    (["dx1", "y"], "'dx1' names variable 1 and is the derivation token of 'x1', variable 1"),
])
def test_a_name_that_is_a_derivation_token_is_refused_at_germ_names(tmp_path, capsys, names,
                                                                     message):
    scene = dict(BALANCED, germ={"n": 2, "r": 2, "names": names})
    assert cli.main(["semistable", "check", write_scene(tmp_path, "s.json", scene)]) == 2
    assert capsys.readouterr().out.splitlines()[0] == "error: germ.names: " + message


def test_surface_names_may_be_derivation_tokens(tmp_path, capsys):
    # a surface form is a pair of jets and is written in no derivation tokens
    scene = {"surface_form": {"names": ["y", "dy"], "a": "dy", "b": "-3*y"}}
    assert cli.main(["cs", "surface", write_scene(tmp_path, "s.json", scene)]) == 0
    assert "index 3 along the invariant curve" in capsys.readouterr().out


def _name_table_calls(monkeypatch, name):
    """How many name tables the verdict on the committed scene name builds."""
    calls = []
    build = jets.name_table
    counted = lambda *a: calls.append(a) or build(*a)
    monkeypatch.setattr(jets, "name_table", counted)
    monkeypatch.setattr(logcalc, "name_table", counted)
    path = SCENES / ("%s.json" % name)
    assert cli.main(json.loads(path.read_text())["command"] + [str(path)]) == 0
    return len(calls)


@pytest.mark.parametrize("name", ["node_balanced", "semistable_general_syntax"])
def test_a_verdict_builds_its_name_table_once(monkeypatch, capsys, name):
    # the germ's names (node_balanced names them) are checked by the one
    # table derivation_table builds, and params (semistable_general_syntax
    # has one) read that table
    assert _name_table_calls(monkeypatch, name) == 1


@pytest.mark.parametrize("name", ["cs_triple_form", "surface_index"])
def test_a_reader_builds_its_name_table_once(monkeypatch, capsys, name):
    # every expression of a one-form or a surface form is read through the
    # one table its scene built, not through a table of its own
    assert _name_table_calls(monkeypatch, name) == 1


@pytest.mark.parametrize("name", ["node_balanced", "pushout_euler"])
def test_a_verdict_builds_its_derivation_table_once(monkeypatch, capsys, name):
    # the germ's table serves every field read on it, the candidate's and,
    # less the component's own variable and token, each component's
    calls = []
    build = logcalc.derivation_table
    monkeypatch.setattr(logcalc, "derivation_table", lambda *a: calls.append(a) or build(*a))
    path = SCENES / ("%s.json" % name)
    assert cli.main(json.loads(path.read_text())["command"] + [str(path)]) == 0
    assert len(calls) == 1


def test_params_feed_expressions(tmp_path):
    path = write_scene(
        tmp_path, "s.json",
        {
            "germ": {"n": 2, "r": 2},
            "params": {"lam": "-3/2"},
            "fields": {"v": "x1*dx1 + lam*x2*dx2"},
            "foliation": {"generators": ["v"]},
        },
    )
    scn = load_scene(path, None)
    fol = scn.foliation(scn.germ())
    assert fol.generators[0].b[1].constant_term() == Fraction(-3, 2)


def test_a_param_may_be_d_plus_a_derivation_token(tmp_path):
    # the germ's table holds the tokens too; only its variables guard params
    path = write_scene(
        tmp_path, "s.json",
        {
            "germ": {"n": 2, "r": 2},
            "params": {"ddx2": "-3/2"},
            "fields": {"v": "x1*dx1 + ddx2*x2*dx2"},
            "foliation": {"generators": ["v"]},
        },
    )
    scn = load_scene(path, None)
    fol = scn.foliation(scn.germ())
    assert fol.generators[0].b[1].constant_term() == Fraction(-3, 2)


def test_huge_exponents_are_read_in_time(tmp_path):
    # x1^(10^9) dies at order 4, so the field is x1*dx1 - x2*dx2; taking the
    # power by k products instead of by squaring would take hours
    reports = []
    for v in ("x1^1000000000*dx1 + x1*dx1 - x2*dx2", "x1*dx1 - x2*dx2"):
        path = write_scene(tmp_path, "s.json", dict(BALANCED, order=4, fields={"v": v}))
        out = tmp_path / "out.json"
        start = time.monotonic()
        assert cli.main(["semistable", "check", path, "--json", str(out)]) == 0
        assert time.monotonic() - start < 1.0
        reports.append(out.read_text())
    assert reports[0] == reports[1]


# -- report plumbing ------------------------------------------------------------------


def test_report_round_trips_through_dicts():
    rep = Report(
        tool="cs-log",
        decision="value",
        summary="index 3",
        details={"index": "3", "pair": [1, 2]},
        lines=("a", "b"),
        scene="s.json",
        order=6,
    )
    assert Report.from_dict(rep.to_dict()) == rep


def test_exit_codes_by_decision():
    codes = {"yes": 0, "value": 0, "no": 1, "error": 2, "inconclusive": 3}
    for decision, code in codes.items():
        rep = Report(tool="t", decision=decision, summary="", details={})
        assert rep.exit_code() == code


@pytest.mark.parametrize("argv, tool", [
    (list(cmd.words) + ["missing.json"], "-".join(cmd.words))
    for cmd in cli.COMMANDS if cmd.handler
] + [
    (["run", "missing.json"], "run"),
], ids=lambda x: x if isinstance(x, str) else None)
def test_error_reports_are_named_after_their_command(tmp_path, capsys, argv, tool):
    out = tmp_path / "out.json"
    assert cli.main(argv + ["--json", str(out)]) == 2
    report = json.loads(out.read_text())
    if tool == "run":  # a list of one report, for the one file
        (report,) = report
    assert (report["tool"], report["decision"]) == (tool, "error")


# -- flat units -----------------------------------------------------------------------


def test_cli_semistable_yes(tmp_path, capsys):
    path = write_scene(tmp_path, "s.json", BALANCED)
    assert cli.main(["semistable", "check", path]) == 0
    out = capsys.readouterr().out
    assert out.startswith("yes: flat unit exists at order 6 (the unique one)")
    assert "unit = 1" in out


def test_cli_semistable_no(tmp_path, capsys):
    path = write_scene(tmp_path, "s.json", UNBALANCED)
    assert cli.main(["semistable", "check", path]) == 1
    out = capsys.readouterr().out
    assert out.startswith("no: no flat unit; the degree-0 system is inconsistent")


def test_cli_order_override_lands_in_the_report(tmp_path):
    path = write_scene(tmp_path, "s.json", BALANCED)
    json_path = tmp_path / "report.json"
    assert cli.main(["semistable", "check", path, "--order", "3",
                     "--json", str(json_path)]) == 0
    rep = Report.from_dict(json.loads(json_path.read_text()))
    assert rep.order == 3
    assert rep.scene == path


TRIPLE_POINT = {
    "germ": {"n": 3, "r": 3},
    "fields": {"v": "2*x1*dx1 - x2*dx2 - x3*dx3"},
    "foliation": {"generators": ["v"]},
}


def test_cli_semistable_wrong_unit_is_internal(tmp_path, capsys, monkeypatch):
    # the triple point 2 x1 d1 - x2 d2 - x3 d3 has the unique unit 1, and its
    # first unknown is x3 with nabla x3 = -x3: a solver that answered 1 + x3
    # is caught by the certificate, never printed as "yes".  (A node has no
    # unknowns in T1, so there is no coefficient to perturb.)  This is the
    # echelon's answer: the substitution that decides this germ declines.
    solution = linalg.solution

    def perturbed(basis, n):
        x = solution(basis, n)
        x[0] += 1
        return x

    monkeypatch.setattr(semistability, "_substitute", lambda *args: None)
    monkeypatch.setattr(linalg, "solution", perturbed)
    path = write_scene(tmp_path, "s.json", TRIPLE_POINT)
    assert cli.main(["semistable", "check", path]) == 4
    assert "internal error: RuntimeError: flat unit certificate failed" in capsys.readouterr().out


def test_cli_semistable_wrong_substituted_unit_is_internal(tmp_path, capsys, monkeypatch):
    # the same germ on the substitution path: 1 + x3 fails the certificate,
    # and the echelon, asked for the failing degree, finds a unit instead
    substitute = semistability._substitute

    def perturbed(ctx, gens):
        res = substitute(ctx, gens)
        return res._replace(unit=res.unit + jets.Jet.variable(ctx, 2))

    monkeypatch.setattr(semistability, "_substitute", perturbed)
    path = write_scene(tmp_path, "s.json", TRIPLE_POINT)
    assert cli.main(["semistable", "check", path]) == 4
    out = capsys.readouterr().out
    assert "internal error: RuntimeError: flat unit certificate failed" in out
    assert "elimination finds a unit" in out


# -- residue indices --------------------------------------------------------------------


CS_SCENE = {
    "germ": {"n": 3, "r": 3},
    "one_form": {"dlog": ["1", "2", "4"], "reg": []},
    "index_pair": [1, 2],
}


def test_cli_cs_log_value(tmp_path, capsys):
    path = write_scene(tmp_path, "s.json", CS_SCENE)
    assert cli.main(["cs", "log", path]) == 0
    assert "index 3 along the stratum of components 1 and 2" in capsys.readouterr().out


def test_cli_cs_log_default_pair_on_double_germs(tmp_path, capsys):
    scene = {
        "germ": {"n": 2, "r": 2},
        "one_form": {"dlog": ["2", "3"], "reg": []},
    }
    path = write_scene(tmp_path, "s.json", scene)
    assert cli.main(["cs", "log", path]) == 0
    assert "index 0" in capsys.readouterr().out


def test_cli_cs_log_resonance_is_an_error(tmp_path, capsys):
    scene = {
        "germ": {"n": 3, "r": 3},
        "one_form": {"dlog": ["1", "1", "4"], "reg": []},
        "index_pair": [1, 2],
    }
    path = write_scene(tmp_path, "s.json", scene)
    assert cli.main(["cs", "log", path]) == 2
    assert capsys.readouterr().out.startswith("error:")


def test_cli_cs_surface_value(tmp_path, capsys):
    path = write_scene(
        tmp_path, "s.json", {"surface_form": {"a": "z", "b": "-3*y"}}
    )
    assert cli.main(["cs", "surface", path]) == 0
    assert "index 3 along the invariant curve" in capsys.readouterr().out


def test_cli_cs_surface_inconclusive(tmp_path, capsys):
    path = write_scene(
        tmp_path, "s.json", {"surface_form": {"a": "y", "b": "y"}}
    )
    assert cli.main(["cs", "surface", path]) == 3
    assert capsys.readouterr().out.startswith("inconclusive:")


def test_cli_cs_surface_non_invariant(tmp_path):
    path = write_scene(
        tmp_path, "s.json", {"surface_form": {"a": "z", "b": "1"}}
    )
    assert cli.main(["cs", "surface", path]) == 2


# -- gluing ---------------------------------------------------------------------------


def glue_scene(ab, bc, ac):
    return {
        "components": ["A", "B", "C"],
        "double_strata": [
            {"pair": ["A", "B"], "scalar": ab},
            {"pair": ["B", "C"], "scalar": bc},
            {"pair": ["A", "C"], "scalar": ac},
        ],
        "triple_strata": [["A", "B", "C"]],
    }


def test_cli_pushout_check_passes(tmp_path, capsys):
    path = write_scene(tmp_path, "s.json", glue_scene(2, "1/2", 1))
    assert cli.main(["pushout", "check", path]) == 0
    assert "holds on all 1 triple strata" in capsys.readouterr().out


def test_cli_pushout_check_reports_the_product(tmp_path, capsys):
    path = write_scene(tmp_path, "s.json", glue_scene(2, 1, 1))
    assert cli.main(["pushout", "check", path]) == 1
    assert "cocycle fails on A|B|C with product 2" in capsys.readouterr().out


def test_cli_pushout_check_names_a_missing_double_stratum(tmp_path, capsys):
    scene = glue_scene(2, "1/2", 1)
    del scene["double_strata"][1]    # B|C
    path = write_scene(tmp_path, "s.json", scene)
    assert cli.main(["pushout", "check", path]) == 2
    assert capsys.readouterr().out == "error: double_strata: no scalar recorded for stratum B|C\n"


PUSHOUT_MEMBER = {
    "germ": {"n": 2, "r": 2, "names": ["x", "y"]},
    "candidate": "x*dx + y*dy",
    "components": [
        {"name": "A", "fields": {"u": "y*dy"}, "foliation": ["u"]},
        {"name": "B", "fields": {"u": "x*dx"}, "foliation": ["u"]},
    ],
}


def test_cli_pushout_member_yes(tmp_path, capsys):
    path = write_scene(tmp_path, "s.json", PUSHOUT_MEMBER)
    assert cli.main(["pushout", "member", path]) == 0
    assert "restricts into every component foliation" in capsys.readouterr().out


def test_cli_pushout_member_names_the_failing_component(tmp_path, capsys):
    scene = json.loads(json.dumps(PUSHOUT_MEMBER))
    scene["components"][1]["fields"]["u"] = "x*x*dx"
    path = write_scene(tmp_path, "s.json", scene)
    assert cli.main(["pushout", "member", path]) == 1
    assert "component B" in capsys.readouterr().out


@pytest.mark.parametrize("candidate, fields", [
    ("euler", {"euler": "x*dx + y*dy"}),
    ({"A": "y*dy", "B": "x*dx"}, None),
], ids=["named field", "per component"])
def test_cli_pushout_member_reads_every_candidate_form(tmp_path, capsys, candidate, fields):
    scene = dict(json.loads(json.dumps(PUSHOUT_MEMBER)), candidate=candidate)
    if fields is not None:
        scene["fields"] = fields
    assert cli.main(["pushout", "member", write_scene(tmp_path, "s.json", scene)]) == 0
    assert capsys.readouterr().out.startswith("yes: candidate restricts into every component")
    # B's foliation cut down to x^2 dx no longer holds the candidate's x dx
    scene["components"][1]["fields"]["u"] = "x*x*dx"
    assert cli.main(["pushout", "member", write_scene(tmp_path, "t.json", scene)]) == 1
    assert "leaves the foliation on component B" in capsys.readouterr().out


def test_cli_pushout_member_reads_only_the_candidate_field(tmp_path, capsys):
    # the candidate names field u; field w does not parse, but is never read
    scene = dict(json.loads(json.dumps(PUSHOUT_MEMBER)), candidate="u",
                 fields={"u": "x*dx + y*dy", "w": "x*"})
    assert cli.main(["pushout", "member", write_scene(tmp_path, "s.json", scene)]) == 0
    assert capsys.readouterr().out.startswith("yes: candidate restricts into every component")
    scene["fields"]["u"] = "y*"
    assert cli.main(["pushout", "member", write_scene(tmp_path, "t.json", scene)]) == 2
    assert capsys.readouterr().out == (
        "error: fields.u: expected a number, name, or '(' (line 1, column 3)\n")


DEFAULT_NAMED_PUSHOUT = {
    "germ": {"n": 3, "r": 2},
    "candidate": "x1*dx1 + x2*dx2 + x3*dx3",
    "components": [
        {"name": "A", "fields": {"u": "x2*dx2 + x3*dx3"}, "foliation": ["u"]},
        {"name": "B", "fields": {"u": "x1*dx1 + x3*dx3"}, "foliation": ["u"]},
    ],
}


@pytest.mark.parametrize("names, candidate, fields", [
    (None, "x1*dx1 + x2*dx2 + x3*dx3", ("x2*dx2 + x3*dx3", "x1*dx1 + x3*dx3")),
    (["a", "b", "c"], "a*da + b*db + c*dc", ("x2*dx2 + c*dc", "a*da + x3*dx3")),
], ids=["default names", "positional aliases"])
def test_cli_pushout_member_reads_components_in_the_ambient_names(tmp_path, capsys, names,
                                                                  candidate, fields):
    # {x1 = 0} is written in the ambient names of x2 and x3, and x2 there is
    # the ambient x2, not the component's second variable
    scene = dict(json.loads(json.dumps(DEFAULT_NAMED_PUSHOUT)), candidate=candidate)
    if names is not None:
        scene["germ"]["names"] = names
    for component, field in zip(scene["components"], fields):
        component["fields"]["u"] = field
    assert cli.main(["pushout", "member", write_scene(tmp_path, "s.json", scene)]) == 0
    assert "candidate restricts into every component foliation" in capsys.readouterr().out


@pytest.mark.parametrize("component, field", [(0, "x1*dx1"), (1, "x2*dx2")])
def test_cli_pushout_member_refuses_a_component_its_own_variable(tmp_path, capsys, component,
                                                                 field):
    scene = json.loads(json.dumps(DEFAULT_NAMED_PUSHOUT))
    scene["components"][component]["fields"]["u"] = field
    assert cli.main(["pushout", "member", write_scene(tmp_path, "s.json", scene)]) == 2
    assert capsys.readouterr().out.splitlines()[0] == (
        "error: components[%d].fields.u: unknown name %r (line 1, column 1)"
        % (component, field[:2]))


@pytest.mark.parametrize("candidate", ["x1*dx1 + dx2", {}], ids=["ambient", "per component"])
def test_cli_pushout_member_without_components_is_a_vacuous_yes(tmp_path, capsys, candidate):
    # r = 0: no component to restrict to, and the order is the germ's
    scene = {"order": 5, "germ": {"n": 2, "r": 0}, "candidate": candidate, "components": []}
    out = tmp_path / "report.json"
    path = write_scene(tmp_path, "s.json", scene)
    assert cli.main(["pushout", "member", path, "--json", str(out)]) == 0
    report = json.loads(out.read_text())
    assert (report["decision"], report["order"], report["details"]) == ("yes", 5, {"order": 5})


def test_cli_pushout_member_names_the_components_whose_candidates_disagree(tmp_path, capsys):
    # on the stratum {x1 = x2 = 0} A's candidate is x3*dx3 and B's 2*x3*dx3
    scene = dict(json.loads(json.dumps(DEFAULT_NAMED_PUSHOUT)),
                 candidate={"A": "x2*dx2 + x3*dx3", "B": "x1*dx1 + 2*x3*dx3"})
    assert cli.main(["pushout", "member", write_scene(tmp_path, "s.json", scene)]) == 2
    assert capsys.readouterr().out.splitlines()[0] == (
        "error: candidate: the candidates of A and B disagree on their double stratum")


def test_cli_pushout_member_names_the_component_a_germ_cannot_restrict_to(tmp_path, capsys):
    scene = {"germ": {"n": 1, "r": 1}, "candidate": "x1*dx1",
             "components": [{"name": "A", "fields": {"u": "x1*dx1"}, "foliation": ["u"]}]}
    assert cli.main(["pushout", "member", write_scene(tmp_path, "s.json", scene)]) == 2
    assert capsys.readouterr().out.splitlines()[0] == (
        "error: components[0]: cannot restrict a one-variable germ")


# -- cohomology -----------------------------------------------------------------------


def test_cli_cohomology_p1(tmp_path, capsys):
    path = write_scene(tmp_path, "s.json", {"degree": -2})
    assert cli.main(["cohomology", "p1", path]) == 0
    assert "degree -2: h0 = 0, h1 = 1" in capsys.readouterr().out


def test_cli_cohomology_snc_curve(tmp_path, capsys):
    path = write_scene(
        tmp_path, "s.json", {"bundle": {"left": [1, -1, 3], "right": [1, -1, 3]}}
    )
    assert cli.main(["cohomology", "snc-curve", path]) == 0
    assert "h0 = 10, h1 = 1" in capsys.readouterr().out


def test_cli_cohomology_snc_curve_with_glue(tmp_path, capsys):
    path = write_scene(
        tmp_path, "s.json",
        {"bundle": {"left": [0], "right": [0], "glue": [["1/2"]]}},
    )
    assert cli.main(["cohomology", "snc-curve", path]) == 0
    assert "h0 = 1, h1 = 0" in capsys.readouterr().out


# -- leaf complexes ----------------------------------------------------------------------


def test_cli_leaf_complex_constant(tmp_path, capsys):
    path = write_scene(
        tmp_path, "s.json",
        {"leaf_data": {"builder": "constant", "ce": [[[0, 0]]], "opens": 3}},
    )
    assert cli.main(["leaf-complex", path]) == 0
    assert "(2, 1, 0, 0)" in capsys.readouterr().out


def test_cli_leaf_complex_windows(tmp_path, capsys):
    path = write_scene(
        tmp_path, "s.json",
        {"leaf_data": {"builder": "p1-windows", "degrees": [2], "window": 3}},
    )
    assert cli.main(["leaf-complex", path]) == 0
    assert "(3, 0, 0)" in capsys.readouterr().out


def test_cli_leaf_complex_explicit(tmp_path, capsys):
    path = write_scene(tmp_path, "s.json", EXPLICIT_LEAF)
    assert cli.main(["leaf-complex", path]) == 0
    assert "(1, 0, 0)" in capsys.readouterr().out


@pytest.mark.parametrize("key, value, first_line", [
    ("pairs", [[0, 5]], "error: leaf_data.pairs[0]: no open has index 5"),
    ("pairs", [[0, 1, 2]], "error: leaf_data.pairs[0]: no open has index 2"),
    ("pairs", [[0, 1], [-1, 1]], "error: leaf_data.pairs[1]: no open has index -1"),
    ("triples", [[0, 1, 2]], "error: leaf_data.triples[0]: no open has index 2"),
], ids=["pair past the end", "pair of three", "negative index", "triple past the end"])
def test_cli_leaf_complex_explicit_rejects_indices_past_the_opens(tmp_path, capsys, key, value,
                                                                   first_line):
    scene = json.loads(json.dumps(EXPLICIT_LEAF))
    scene["leaf_data"][key] = value
    assert cli.main(["leaf-complex", write_scene(tmp_path, "s.json", scene)]) == 2
    assert capsys.readouterr().out.splitlines()[0] == first_line


@pytest.mark.parametrize("opens, first_line", [
    (["U", "U"], "error: leaf_data.opens[1]: open 'U' has the name of open 0"),
    ([1, "1"], "error: leaf_data.opens[1]: open '1' has the name of open 0"),
], ids=["equal names", "equal once str"])
def test_cli_leaf_complex_explicit_rejects_repeated_open_names(tmp_path, capsys, opens,
                                                               first_line):
    scene = json.loads(json.dumps(EXPLICIT_LEAF))
    scene["leaf_data"]["opens"] = opens
    assert cli.main(["leaf-complex", write_scene(tmp_path, "s.json", scene)]) == 2
    assert capsys.readouterr().out.splitlines()[0] == first_line


@pytest.mark.parametrize("opens, first_line", [
    (["U0->", "U1"], "error: leaf_data.opens[0]: open 'U0->' holds a label separator, | or ->"),
    (["U0", ">-|"], "error: leaf_data.opens[1]: open '>-|' holds a label separator, | or ->"),
], ids=["an arrow", "a bar"])
def test_cli_leaf_complex_explicit_rejects_separators_in_open_names(tmp_path, capsys, opens,
                                                                    first_line):
    # a simplex label joins open names with |, a restriction label two of them
    # with ->; scenes/explicit_separator_open.json names an open like a pair
    scene = json.loads(json.dumps(EXPLICIT_LEAF))
    scene["leaf_data"]["opens"] = opens
    assert cli.main(["leaf-complex", write_scene(tmp_path, "s.json", scene)]) == 2
    assert capsys.readouterr().out.splitlines()[0] == first_line


def test_cli_leaf_complex_explicit_reads_restriction_labels_as_written(tmp_path, capsys):
    # a blank is part of a label; scenes/explicit_blank_names.json names an open " A"
    scene = json.loads(json.dumps(EXPLICIT_LEAF))
    restrictions = scene["leaf_data"]["restrictions"]
    restrictions["U0 -> U0|U1"] = restrictions.pop("U0->U0|U1")
    assert cli.main(["leaf-complex", write_scene(tmp_path, "s.json", scene)]) == 2
    assert capsys.readouterr().out.splitlines()[0] == (
        "error: leaf_data.restrictions.U0 -> U0|U1: unknown simplex label 'U0 '")


# -- obstruction subcommands -----------------------------------------------------------


def obstruction_scene(perturb=False):
    data = leafcomplex.constant_cover([[[1, 0], [0, 1], [1, 1]], [[1, 1, -1]]], 3)
    rho = [[1, 2], [0, 1], [3, -1]]
    hbar = [[1, 0, 2], [0, 0, 1], [1, 1, 1]]
    theta, gbar, bbar = coboundary_triple(data, rho, hbar)
    gbar = [list(map(str, v)) for v in gbar]
    if perturb:
        gbar[0][0] = str(Fraction(gbar[0][0]) + 1)
    return {
        "leaf_data": {
            "builder": "constant",
            "ce": [[[1, 0], [0, 1], [1, 1]], [[1, 1, -1]]],
            "opens": 3,
        },
        "cochains": {
            "theta": [list(map(str, v)) for v in theta],
            "gbar": gbar,
            "bbar": [list(map(str, v)) for v in bbar],
        },
    }


def test_cli_obstruction_verify_yes(tmp_path, capsys):
    path = write_scene(tmp_path, "s.json", obstruction_scene())
    assert cli.main(["obstruction", "verify", path]) == 0
    out = capsys.readouterr().out
    assert "satisfies all four equations and is a total coboundary" in out
    assert "equation 1 (triple overlaps): holds" in out


def test_cli_obstruction_verify_no(tmp_path, capsys):
    path = write_scene(tmp_path, "s.json", obstruction_scene(perturb=True))
    assert cli.main(["obstruction", "verify", path]) == 1
    out = capsys.readouterr().out
    assert "violates the compatibility equations" in out
    assert "fails" in out


def test_cli_obstruction_wrong_corrector_is_internal(tmp_path, capsys, monkeypatch):
    # a solver that answered a corrector off by one in its first coordinate
    # is caught by the certificate, never printed as a total coboundary
    solve = linalg.solve

    def perturbed(a, b):
        x = solve(a, b)
        x[0] += 1
        return x

    path = write_scene(tmp_path, "s.json", obstruction_scene())
    assert cli.main(["obstruction", "verify", path]) == 0
    capsys.readouterr()
    monkeypatch.setattr(linalg, "solve", perturbed)
    assert cli.main(["obstruction", "verify", path]) == 4
    assert capsys.readouterr().out.startswith(
        "internal: internal error: RuntimeError: obstruction certificate failed")


def test_cli_lie_wrong_corrector_is_internal(monkeypatch, capsys):
    # only the corrector's solve is perturbed; _sub_structure's solves for
    # the subalgebra's structure constants are left alone
    solve = linalg.solve

    def perturbed(a, b):
        x = solve(a, b)
        if sys._getframe(1).f_code.co_name == "lie_subalgebra_obstruction":
            x[-1] += 1  # the first coordinate's column is zero: any value maps right
        return x

    path = str(SCENES / "lie_borel.json")
    assert cli.main(["obstruction", "lie", path]) == 0
    capsys.readouterr()
    monkeypatch.setattr(linalg, "solve", perturbed)
    assert cli.main(["obstruction", "lie", path]) == 4
    assert capsys.readouterr().out.startswith(
        "internal: internal error: RuntimeError: Lie corrector certificate failed")


def test_cli_obstruction_verify_rejects_a_null_cochain_row(tmp_path, capsys):
    scene = obstruction_scene()
    scene["cochains"]["theta"] = [None]
    path = write_scene(tmp_path, "s.json", scene)
    assert cli.main(["obstruction", "verify", path]) == 2
    assert "cochains.theta[0]" in capsys.readouterr().out
    with pytest.raises(SceneError, match="expected list"):
        load_scene(path, None).cochains()


SL2 = [
    [[0, 0, 0], [0, 2, 0], [0, 0, -2]],
    [[0, -2, 0], [0, 0, 0], [1, 0, 0]],
    [[0, 0, 2], [-1, 0, 0], [0, 0, 0]],
]


def test_cli_obstruction_lie_vanishing(tmp_path, capsys):
    scene = {
        "lie": {
            "structure": SL2,
            "sub_basis": [[1, 0, 0], [0, 1, 0]],
            "perturbation": [[0, 0, 0], [0, 0, 0]],
            "mu": [[[0, 0, 0], [0, 0, 1]], [[0, 0, -1], [0, 0, 0]]],
        }
    }
    path = write_scene(tmp_path, "s.json", scene)
    assert cli.main(["obstruction", "lie", path]) == 0
    assert "class vanishes; a corrector exists" in capsys.readouterr().out


def test_cli_obstruction_lie_blocked(tmp_path, capsys):
    solvable = [
        [[0, 0, 0], [0, 1, 0], [0, 0, 1]],
        [[0, -1, 0], [0, 0, 0], [0, 0, 0]],
        [[0, 0, -1], [0, 0, 0], [0, 0, 0]],
    ]
    scene = {
        "lie": {
            "structure": solvable,
            "sub_basis": [[1, 0, 0], [0, 1, 0]],
            "perturbation": [[0, 0, 0], [0, 0, 0]],
            "mu": [[[0, 0, 0], [0, 0, 1]], [[0, 0, -1], [0, 0, 0]]],
        }
    }
    path = write_scene(tmp_path, "s.json", scene)
    assert cli.main(["obstruction", "lie", path]) == 1
    assert "does not vanish" in capsys.readouterr().out


# -- holonomy and monoids --------------------------------------------------------------


def test_cli_holonomy_compatible(tmp_path, capsys):
    scene = {
        "holonomy": {"inner": [2, "1/2"], "outer": ["1/2", 2]},
        "normal_degrees": [1, -1],
    }
    path = write_scene(tmp_path, "s.json", scene)
    assert cli.main(["holonomy", path]) == 0
    assert "gluing data is compatible" in capsys.readouterr().out


def test_cli_holonomy_incompatible(tmp_path, capsys):
    scene = {"holonomy": {"inner": [2, 1], "outer": [1, 1]}}
    path = write_scene(tmp_path, "s.json", scene)
    assert cli.main(["holonomy", path]) == 1


def test_cli_monoid_saturate(tmp_path, capsys):
    path = write_scene(
        tmp_path, "s.json", {"monoid": {"ambient_rank": 1, "generators": [[2], [3]]}}
    )
    assert cli.main(["monoid", "saturate", path]) == 0
    out = capsys.readouterr().out
    assert "saturation generated by 1 vectors" in out
    assert "(1,)" in out


def test_cli_monoid_group(tmp_path, capsys):
    path = write_scene(
        tmp_path, "s.json",
        {"monoid": {"ambient_rank": 2, "generators": [[1, 0], [1, 2]]}},
    )
    assert cli.main(["monoid", "group", path]) == 0
    assert "difference group of rank 2" in capsys.readouterr().out


def test_cli_monoid_membership(tmp_path, capsys):
    scene = {"monoid": {"ambient_rank": 1, "generators": [[2], [3]]}, "element": [5]}
    path = write_scene(tmp_path, "s.json", scene)
    assert cli.main(["monoid", "check", path]) == 0
    scene["element"] = [1]
    path = write_scene(tmp_path, "t.json", scene)
    assert cli.main(["monoid", "check", path]) == 1


def test_cli_monoid_saturation_check(tmp_path):
    not_sat = write_scene(
        tmp_path, "a.json", {"monoid": {"ambient_rank": 1, "generators": [[2], [3]]}}
    )
    sat = write_scene(
        tmp_path, "b.json", {"monoid": {"ambient_rank": 1, "generators": [[1]]}}
    )
    assert cli.main(["monoid", "check", not_sat]) == 1
    assert cli.main(["monoid", "check", sat]) == 0


def monoid_check(tmp_path, gens, element):
    scene = {"monoid": {"ambient_rank": len(element), "generators": gens}, "element": element}
    path = write_scene(tmp_path, "m.json", scene)
    out = tmp_path / "m.out.json"
    code = cli.main(["monoid", "check", path, "--json", str(out)])
    return code, json.loads(out.read_text())


def test_cli_monoid_long_witnesses_are_found(tmp_path):
    code, rep = monoid_check(tmp_path, [[1]], [60])
    assert (code, rep["decision"], rep["details"]["witness"]) == (0, "yes", [60])
    code, rep = monoid_check(tmp_path, [[1]], [5000])
    assert (code, rep["details"]["witness"]) == (0, [5000])


def test_cli_monoid_non_pointed_no_is_decided(tmp_path):
    code, rep = monoid_check(tmp_path, [[1, 0], [-1, 0], [0, 2], [1, 3]], [0, 1])
    assert (code, rep["decision"]) == (1, "no")
    code, rep = monoid_check(tmp_path, [[1, 0], [-1, 0], [0, 2], [1, 3]], [0, -1])
    assert (code, rep["decision"]) == (1, "no")


# -- plumbing: errors, json, batch mode --------------------------------------------------


def test_cli_requires_a_scene(capsys):
    assert cli.main(["semistable", "check"]) == 2
    assert "a scene file is required" in capsys.readouterr().err


def test_cli_reports_scene_errors(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{ nope }")
    assert cli.main(["semistable", "check", str(path)]) == 2
    assert capsys.readouterr().out.startswith("error:")


def test_cli_rejects_floats_in_scenes(tmp_path, capsys):
    path = write_scene(tmp_path, "s.json", glue_scene(0.5, 2, 1))
    assert cli.main(["pushout", "check", path]) == 2
    assert "floating point is not allowed" in capsys.readouterr().out


def test_cli_rejects_non_string_generator_names(tmp_path, capsys):
    scene = dict(BALANCED, foliation={"generators": [["v"]]})
    path = write_scene(tmp_path, "s.json", scene)
    assert cli.main(["semistable", "check", path]) == 2
    assert "error: foliation.generators[0]: expected str" in capsys.readouterr().out
    scene = json.loads(json.dumps(PUSHOUT_MEMBER))
    scene["components"][1]["foliation"] = [{"u": 1}]
    path = write_scene(tmp_path, "t.json", scene)
    assert cli.main(["pushout", "member", path]) == 2
    assert "error: components[1].foliation[0]: expected str" in capsys.readouterr().out


@pytest.mark.parametrize("bad", [None, -1, {}])
def test_cli_rejects_leaf_polys_that_are_not_lists(tmp_path, capsys, bad):
    scene = {"leaf_data": {"builder": "p1-windows", "degrees": [0, 1], "polys": [bad]}}
    path = write_scene(tmp_path, "s.json", scene)
    assert cli.main(["leaf-complex", path]) == 2
    assert "error: leaf_data.polys[0]: expected list" in capsys.readouterr().out


@pytest.mark.parametrize("bad", [{}, [[]], [None], None, 1])
def test_cli_rejects_strata_names_that_are_not_strings(tmp_path, capsys, bad):
    scene = glue_scene(2, 1, 1)
    scene["double_strata"][1]["pair"][0] = bad
    path = write_scene(tmp_path, "s.json", scene)
    assert cli.main(["pushout", "check", path]) == 2
    assert "error: double_strata[1].pair: expected a component name" in capsys.readouterr().out
    scene = glue_scene(2, 1, 1)
    scene["triple_strata"][0][2] = bad
    path = write_scene(tmp_path, "t.json", scene)
    assert cli.main(["pushout", "check", path]) == 2
    assert "error: triple_strata[0]: expected a component name" in capsys.readouterr().out


def test_cli_maps_unexpected_exceptions_to_internal(tmp_path, capsys, monkeypatch):
    def crash(m):
        raise TypeError("unhashable type: 'list'")

    monkeypatch.setattr(cli.monoids, "saturate", crash)
    path = write_scene(tmp_path, "s.json", {"monoid": {"ambient_rank": 1, "generators": [[2]]}})
    out = tmp_path / "out.json"
    assert cli.main(["monoid", "saturate", path, "--json", str(out)]) == 4
    assert "internal: internal error: TypeError: unhashable type" in capsys.readouterr().out
    rep = json.loads(out.read_text())
    assert rep["decision"] == "internal"
    assert "in crash" in rep["details"]["traceback"]
    assert cli.EXIT_BY_DECISION["internal"] not in (0, 1, 3)


def test_cli_maps_a_key_error_to_internal(tmp_path, capsys, monkeypatch):
    # a KeyError is no input error: only SceneError and ValueError exit 2
    def crash(glue):
        raise KeyError("stratum")

    monkeypatch.setattr(cli.foliations, "check_gluing_cocycle", crash)
    path = write_scene(tmp_path, "s.json", glue_scene(2, "1/2", 1))
    assert cli.main(["pushout", "check", path]) == 4
    assert capsys.readouterr().out.startswith("internal: internal error: KeyError")


def test_cli_json_report_round_trips(tmp_path, capsys):
    path = write_scene(tmp_path, "s.json", CS_SCENE)
    json_path = tmp_path / "out.json"
    assert cli.main(["cs", "log", path, "--json", str(json_path)]) == 0
    rep = Report.from_dict(json.loads(json_path.read_text()))
    assert rep.tool == "cs-log"
    assert rep.decision == "value"
    assert rep.details["index"] == "3"
    assert rep.exit_code() == 0


def test_cli_json_to_stdout(tmp_path, capsys):
    path = write_scene(tmp_path, "s.json", BALANCED)
    assert cli.main(["semistable", "check", path, "--json", "-"]) == 0
    out = capsys.readouterr().out
    payload = json.loads(out[out.index("{"):])
    assert payload["decision"] == "yes"


SEMISTABLE = ["semistable", "check"]


def write_batch(tmp_path):
    """Two scenes for run, a yes and a no, in the order given."""
    return [write_scene(tmp_path, "a_yes.json", dict(BALANCED, command=SEMISTABLE)),
            write_scene(tmp_path, "b_no.json", dict(UNBALANCED, command=SEMISTABLE))]


def test_cli_batch_mode_takes_the_worst_code(tmp_path, capsys):
    json_path = tmp_path / "batch_report"
    assert cli.main(["run"] + write_batch(tmp_path) + ["--json", str(json_path)]) == 1
    out = capsys.readouterr().out
    assert "a_yes.json: yes:" in out
    assert "b_no.json: no:" in out
    reports = [Report.from_dict(d) for d in json.loads(json_path.read_text())]
    assert [r.decision for r in reports] == ["yes", "no"]
    assert [r.tool for r in reports] == ["semistable-check"] * 2


def test_run_runs_each_scene_through_its_own_command(tmp_path, capsys):
    paths = [write_scene(tmp_path, "m.json", {"command": ["monoid", "group"],
                                              "monoid": {"ambient_rank": 1, "generators": [[2]]}}),
             write_scene(tmp_path, "c.json", dict(CS_SCENE, command=["cs", "log"])),
             write_scene(tmp_path, "n.json", dict(BALANCED, command=SEMISTABLE))]
    assert cli.main(["run", "--order", "4", "--json", "-"] + paths) == 0
    out = capsys.readouterr().out
    reports = json.loads(out[out.index("["):])
    assert [(r["tool"], r["order"]) for r in reports] == [
        ("monoid-group", 4), ("cs-log", 4), ("semistable-check", 4)]
    # each is the report its command gives the scene alone
    for path, report in zip(paths, reports):
        words = json.loads(Path(path).read_text())["command"]
        assert cli.main(words + [path, "--order", "4", "--json", "-"]) == 0
        out = capsys.readouterr().out
        assert json.loads(out[out.index("{"):]) == report


def test_run_reads_its_files_among_its_options(tmp_path, capsys):
    json_path = tmp_path / "out.json"
    argv = ["run", str(SCENES / "node_balanced.json"), "--json", str(json_path),
            str(SCENES / "node_unbalanced.json")]
    assert cli.main(argv) == 1
    out = capsys.readouterr().out
    assert "node_balanced.json: yes:" in out and "node_unbalanced.json: no:" in out
    reports = json.loads(json_path.read_text())
    assert [(r["tool"], r["decision"]) for r in reports] == [
        ("semistable-check", "yes"), ("semistable-check", "no")]


def test_run_names_only_the_arguments_it_leaves_over(monkeypatch, capsys):
    # the files around an unknown option are run's own; the error names
    # the option alone, and no scene runs
    monkeypatch.setenv("COLUMNS", "80")
    argv = ["run", str(SCENES / "node_balanced.json"), "--bogus",
            str(SCENES / "node_unbalanced.json")]
    with pytest.raises(SystemExit) as e:
        cli.main(argv)
    assert e.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("usage: logfol [-h] COMMAND ...\n"
                   "logfol: error: unrecognized arguments: --bogus\n")


NAMES_NO_COMMAND = "is no command that reads a scene"


# (id, the scene's "command", the error after "command: ")
BAD_COMMANDS = [
    ("missing", None, "expected a list of command words"),
    ("a string", "semistable check", "expected a list of command words"),
    ("a word not a string", ["semistable", 1], "expected a list of command words"),
    ("empty", [], "'' " + NAMES_NO_COMMAND),
    ("unknown", ["frobnicate"], "'frobnicate' " + NAMES_NO_COMMAND),
    ("a group", ["semistable"], "'semistable' " + NAMES_NO_COMMAND),
    ("with options", ["semistable", "check", "--order", "4"],
     "'semistable check --order 4' " + NAMES_NO_COMMAND),
    ("help", ["-h"], "'-h' " + NAMES_NO_COMMAND),
    ("run", ["run"], "'run' " + NAMES_NO_COMMAND),
    ("selftest", ["selftest"], "'selftest' " + NAMES_NO_COMMAND),
    ("a removed alias", ["cs", "paper"], "'cs paper' " + NAMES_NO_COMMAND),
]


@pytest.mark.parametrize("command, message", [case[1:] for case in BAD_COMMANDS],
                         ids=[case[0] for case in BAD_COMMANDS])
def test_run_reports_a_scene_that_names_no_command_at_command(tmp_path, capsys, command,
                                                              message):
    scene = dict(BALANCED) if command is None else dict(BALANCED, command=command)
    bad = write_scene(tmp_path, "bad.json", scene)
    good = write_scene(tmp_path, "good.json", dict(BALANCED, command=SEMISTABLE))
    json_path = tmp_path / "out.json"
    # the error is the file's own report, and the run goes on to the next file
    assert cli.main(["run", bad, good, "--json", str(json_path)]) == 2
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "bad.json: error: command: " + message
    assert out[1].startswith("good.json: yes:")
    reports = json.loads(json_path.read_text())
    assert [(r["tool"], r["decision"]) for r in reports] == [
        ("run", "error"), ("semistable-check", "yes")]


def test_run_reports_a_file_it_cannot_read_and_goes_on(tmp_path, capsys):
    good = write_scene(tmp_path, "good.json", dict(BALANCED, command=SEMISTABLE))
    (tmp_path / "bad.json").write_text("[1]")
    assert cli.main(["run", str(tmp_path / "missing.json"), str(tmp_path / "bad.json"),
                     good]) == 2
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("missing.json: error: ")
    assert out[1] == "bad.json: error: %s: a scene must be a JSON object" % (tmp_path / "bad.json")
    assert out[2].startswith("good.json: yes:")


def run_into_closed_pipe(argv):
    """Run the CLI in a child whose stdout is a pipe with no reader left;
    (exit code, stderr)."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    src = str(Path(cli.__file__).resolve().parent.parent)
    try:
        proc = subprocess.run([sys.executable, "-m", "logfol.cli"] + argv, stdout=write_end,
                              stderr=subprocess.PIPE, env=dict(os.environ, PYTHONPATH=src),
                              cwd=Path(__file__).resolve().parent.parent, timeout=120)
    finally:
        os.close(write_end)
    return proc.returncode, proc.stderr.decode()


def test_closed_stdout_keeps_the_decided_exit_code():
    # a decided "yes" whose report cannot be printed is still exit 0, not 1 ("no")
    assert run_into_closed_pipe(["semistable", "check", "scenes/node_balanced.json"]) == (0, "")
    assert run_into_closed_pipe(["semistable", "check", "scenes/node_unbalanced.json"]) == (1, "")


def test_closed_stdout_still_runs_every_scene_and_writes_the_json(tmp_path):
    paths = write_batch(tmp_path)
    json_path = tmp_path / "batch_report"
    assert run_into_closed_pipe(["run"] + paths + ["--json", str(json_path)]) == (1, "")
    reports = [Report.from_dict(d) for d in json.loads(json_path.read_text())]
    assert [r.decision for r in reports] == ["yes", "no"]
    assert run_into_closed_pipe(["run"] + paths + ["--json", "-"]) == (1, "")


def test_an_interrupt_ends_the_run_by_the_signal(tmp_path):
    # a SIGINT is caught nowhere, so Python ends the process by the signal
    # and no interrupted run can exit 1, which reads as "no"; the signal is
    # sent once the first scene has printed its one line, while the second,
    # a saturation with 6141 generators that takes several seconds, is running
    fast = write_scene(tmp_path, "fast.json", {"command": ["monoid", "check"], "element": [5],
                                               "monoid": {"ambient_rank": 1, "generators": [[2], [3]]}})
    slow = write_scene(tmp_path, "slow.json", {"command": ["monoid", "saturate"], "monoid": {
        "ambient_rank": 4, "generators": [[1, 0, 0, 788], [0, 1, 0, 756], [0, 0, 1, 852],
                                          [1, 1, 1, 1], [3, 5, 7, 2]]}})
    src = str(Path(cli.__file__).resolve().parent.parent)
    proc = subprocess.Popen([sys.executable, "-m", "logfol.cli", "run", fast, slow],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=dict(os.environ, PYTHONPATH=src))
    first = proc.stdout.readline()
    proc.send_signal(signal.SIGINT)
    try:
        rest, _ = proc.communicate(timeout=120)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise
    assert first == b"fast.json: yes: (5,) lies in the monoid\n"
    assert (proc.returncode, rest) == (-signal.SIGINT, b"")


@pytest.mark.parametrize("batch", [False, True])
def test_cli_unwritable_json_path_is_an_input_error(tmp_path, capsys, batch):
    path = write_scene(tmp_path, "s.json", dict(BALANCED, command=SEMISTABLE))
    target = tmp_path / "missing" / "out.json"
    argv = ["run", path] if batch else ["semistable", "check", path]
    assert cli.main(argv + ["--json", str(target)]) == 2
    captured = capsys.readouterr()
    assert "yes:" in captured.out
    assert captured.err.startswith("cannot write the report to %s:" % target)
    assert "Traceback" not in captured.err
    assert not target.exists()


def test_cli_batch_mode_requires_scenes(tmp_path, capsys):
    assert cli.main(["run"]) == 2
    assert capsys.readouterr().err == "a scene file is required\n"
    assert cli.main(["run", "--order", "4"]) == 2
    assert capsys.readouterr().err == "a scene file is required\n"


def test_cli_without_a_command_prints_help(capsys):
    assert cli.main([]) == 2
    assert "COMMAND" in capsys.readouterr().out


# -- the command table and the parser built for one command ----------------------------

# one argv per row of cli.COMMANDS, with every option a row takes
PARITY_ARGV = [
    ["monoid", "saturate", "s.json", "--order", "5", "--json", "-"],
    ["monoid", "group", "s.json"],
    ["monoid", "check", "s.json", "--json", "out.json"],
    ["semistable", "check", "s.json", "--order", "9"],
    ["cs", "log", "--order", "4", "s.json"],
    ["cs", "surface", "s.json"],
    ["pushout", "check", "s.json", "--json", "-"],
    ["pushout", "member", "s.json", "--order", "4"],
    ["cohomology", "p1", "s.json", "--json", "-"],
    ["cohomology", "snc-curve", "s.json"],
    ["leaf-complex", "s.json", "--order", "3"],
    ["obstruction", "verify", "s.json"],
    ["obstruction", "lie", "s.json"],
    ["holonomy", "s.json", "--json", "-"],
    ["run", "a.json", "b.json", "--order", "4", "--json", "-"],
]

# every leaf as it is named: the table's words
LEAF_NAMES = [cmd.words for cmd in cli.COMMANDS]


def _choices(parser, dest):
    return next(a for a in parser._actions if a.dest == dest).choices


def _row(words):
    """The table row that words name."""
    return next(cmd for cmd in cli.COMMANDS if cmd.words == tuple(words))


def test_parity_argv_name_every_leaf():
    named = {tuple(argv[:len(words)]) for argv in PARITY_ARGV for words in LEAF_NAMES}
    assert set(LEAF_NAMES) <= named


@pytest.mark.parametrize("argv", PARITY_ARGV, ids=" ".join)
def test_pruned_parser_gives_the_full_tree_namespace(argv, monkeypatch):
    # main reads a named leaf with that leaf's parser alone, so only the
    # tree's routing keys are missing from its namespace
    monkeypatch.setenv("COLUMNS", "80")
    full = vars(cli.build_parser([]).parse_args(argv))
    routing = {"command", "subcommand"}
    assert vars(cli._parse(argv)) == {k: v for k, v in full.items() if k not in routing}
    assert full["cmd"] in cli.COMMANDS


@pytest.mark.parametrize("words", LEAF_NAMES, ids=" ".join)
def test_pruned_parser_gives_the_full_tree_help(words, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    argv = list(words) + ["-h"]
    helps = []
    for run in (cli.build_parser([]).parse_args, cli.main):
        with pytest.raises(SystemExit) as e:
            run(argv)
        assert e.value.code == 0
        helps.append(capsys.readouterr().out)
    assert helps[0] == helps[1]
    assert helps[0].startswith("usage: logfol %s [-h]" % " ".join(_row(words).words))


@pytest.mark.parametrize("words", LEAF_NAMES, ids=" ".join)
def test_a_named_leaf_builds_only_its_path(words):
    # the leaf's own parser, with no top or group parser above it
    parser = cli.build_parser(list(words) + ["s.json"])
    row = _row(words)
    assert parser.prog == "logfol " + " ".join(row.words)
    assert parser.words == row.words
    assert parser.get_default("cmd") is row
    assert not any(isinstance(a, argparse._SubParsersAction) for a in parser._actions)


@pytest.mark.parametrize("argv", [
    ["semistable", "check", "s.json", "--bogus"],
    ["semistable", "check", "s.json", "two.json"],
    ["semistable", "check", "s.json", "--order", "x"],
    ["cs", "log", "s.json", "--pair"],
    ["cohomology", "p1", "s.json", "--deg"],
], ids=" ".join)
def test_usage_errors_read_as_the_whole_tree_words_them(argv, monkeypatch, capsys):
    # what the leaf cannot take whole goes to the tree, whose top-level
    # usage names an unrecognized argument; the leaf's own errors keep its usage
    monkeypatch.setenv("COLUMNS", "80")
    errs = []
    for run in (cli.build_parser([]).parse_args, cli.main):
        with pytest.raises(SystemExit) as e:
            run(argv)
        assert e.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        errs.append(err)
    assert errs[0] == errs[1]
    if argv[-1] in ("--bogus", "two.json", "--pair", "--deg"):
        assert errs[1] == ("usage: logfol [-h] COMMAND ...\n"
                           "logfol: error: unrecognized arguments: %s\n" % argv[-1])
    else:
        assert errs[1].startswith("usage: logfol %s [-h]" % " ".join(_row(tuple(argv[:2])).words))


# "leaf" only starts a leaf's word, so it names no leaf; "paper" is no name of "cs log"
@pytest.mark.parametrize("argv", [["leaf"], [], ["-h"], ["monoid"], ["bogus"], ["cs", "bogus"],
                                  ["cs", "paper"]])
def test_anything_but_a_leaf_builds_the_whole_tree(argv):
    top = _choices(cli.build_parser(argv), "command")
    assert list(top) == list(dict.fromkeys(cmd.words[0] for cmd in cli.COMMANDS))
    for cmd in cli.COMMANDS:
        if len(cmd.words) == 2:
            leaves = _choices(top[cmd.words[0]], "subcommand")
            assert cmd.words[1] in leaves


def test_cli_exits_2_without_a_leaf_or_on_bad_arguments(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    assert cli.main([]) == 2
    out = capsys.readouterr().out
    assert out.startswith("usage: logfol [-h] COMMAND ...")
    assert all(cmd.words[0] in out for cmd in cli.COMMANDS)
    for group in sorted(cli._GROUPS):
        assert cli.main([group]) == 2
        out = capsys.readouterr().out
        # the group's own usage and its leaves, not the top-level help
        assert out.startswith("usage: logfol %s [-h] WHAT ..." % group)
        listed = {line.split()[0] for line in out.splitlines()
                  if line.startswith("    ") and line[4] != " "}
        assert listed == {cmd.words[1] for cmd in cli.COMMANDS if cmd.words[0] == group}
    for word in ("bogus", "selftest"):  # selftest is a command no longer
        with pytest.raises(SystemExit) as e:
            cli.main([word])
        assert e.value.code == 2
        assert "invalid choice: '%s'" % word in capsys.readouterr().err
    with pytest.raises(SystemExit) as e:
        cli.main(["semistable", "check", "s.json", "--order", "x"])
    assert e.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: logfol semistable check [-h]")
    assert "argument --order: invalid int value: 'x'" in err


def test_cli_reads_sys_argv_when_given_no_argv(monkeypatch, capsys):
    monkeypatch.setattr("sys.argv", ["logfol", "cohomology", "p1",
                                     str(SCENES / "p1_degree_minus_60.json")])
    assert cli.main() == 0
    assert capsys.readouterr().out.startswith("value: degree -60: h0 = 0, h1 = 59")


def test_readme_lists_every_command():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    start = readme.index("Subcommands:")
    listed = readme[start:readme.index("\n\n", start)]
    for words in LEAF_NAMES:
        assert "`%s`" % " ".join(words) in listed


def test_kept_parsers_answer_as_fresh_processes(monkeypatch, capsys):
    # each command's parser is built once per process; a run of mixed commands,
    # options, help and usage errors must read exactly as separate processes
    runs = [
        ["semistable", "check", "scenes/node_balanced.json"],
        ["cs", "log", "scenes/cs_triple_form_21.json"],
        ["--help"],
        ["semistable", "check", "scenes/node_balanced.json", "--order", "4"],
        ["semistable", "check", "--order", "x", "scenes/node_balanced.json"],
        ["semistable"],
        ["frobnicate"],
        ["cohomology", "p1", "scenes/p1_degree_60.json"],
        ["cs", "log", "scenes/cs_triple_form.json"],
        ["semistable", "check", "--help"],
        ["semistable", "check", "scenes/node_unbalanced.json"],
    ]
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, COLUMNS="80", NO_COLOR="1",
               PYTHONPATH=str(Path(cli.__file__).resolve().parent.parent))
    for key in ("COLUMNS", "NO_COLOR"):
        monkeypatch.setenv(key, env[key])
    monkeypatch.chdir(root)
    cli._tree.cache_clear()
    cli._leaf.cache_clear()
    for argv in runs + runs:
        try:
            code = cli.main(list(argv))
        except SystemExit as e:
            code = e.code
        out, err = capsys.readouterr()
        fresh = subprocess.run([sys.executable, "-m", "logfol.cli"] + argv, capture_output=True,
                               text=True, env=env, cwd=root, timeout=120)
        assert (code, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr), argv
    # the whole tree, for help, a group alone and an unknown word, and the
    # three leaf parsers of semistable check, cs log and cohomology p1
    assert cli._tree.cache_info().currsize == 1
    assert cli._leaf.cache_info().currsize == 3
