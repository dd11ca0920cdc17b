"""Every committed scene, run through the command it names, gives its
whole expected report.

Each file in scenes/ names its command ("command", the words of a row of
cli.COMMANDS) and pins its answer ("expect": the --json report of that
command on the file, without its "scene" path).  Each scene is run twice:
without --json, its exit code must follow from the pinned decision
(cli.EXIT_BY_DECISION) and its printed lines from the pinned decision,
summary and lines; with --json, its report must equal the pin.  So a change
that alters any answer, witness, summary or report line fails here.  To write a pin, run
`logfol <command> scene.json --json -` and copy the report less "scene".
A seeded fuzz then mutates each scene, and puts each scene with a germ on
every small germ shape, and checks that no mutant crashes the CLI: malformed
input must end in a report, never in exit 4 or an exception.
"""

import copy
import json
import random
from pathlib import Path

import pytest

from logfol import cli

SCENES = Path(__file__).resolve().parent.parent / "scenes"
CORPUS = sorted(p.stem for p in SCENES.glob("*.json"))


def read_scene(name):
    return json.loads((SCENES / ("%s.json" % name)).read_text())


def test_every_scene_names_a_command_that_reads_it():
    rows = {cmd.words for cmd in cli.COMMANDS if cmd.needs_scene and cmd.handler}
    for name in CORPUS:
        assert tuple(read_scene(name)["command"]) in rows, name


def scene_argv(name):
    return read_scene(name)["command"] + [str(SCENES / ("%s.json" % name))]


@pytest.mark.parametrize("name", CORPUS)
def test_scene_gives_its_expected_answer(name, capsys):
    """Without --json: the exit code and printed lines its expect implies."""
    expect = read_scene(name)["expect"]
    code = cli.main(scene_argv(name))
    printed = ["%s: %s" % (expect["decision"], expect["summary"])]
    printed += ["  %s" % line for line in expect["lines"]]
    assert capsys.readouterr().out.splitlines() == printed
    assert code == cli.EXIT_BY_DECISION[expect["decision"]]


@pytest.mark.parametrize("name", CORPUS)
def test_scene_report_matches_golden(name, tmp_path):
    """With --json: the whole report, less its scene path, is the expect."""
    out = tmp_path / "report.json"
    code = cli.main(scene_argv(name) + ["--json", str(out)])
    report = json.loads(out.read_text())
    del report["scene"]
    assert report == read_scene(name)["expect"]
    assert code == cli.EXIT_BY_DECISION[report["decision"]]


# what a mutation may put in place of any value; deleting the key is the other move
REPLACEMENTS = (None, [], {}, "x", 1.5, True, -1, 0, [None], "1/0", [[]])
MUTANTS_PER_SCENE = 40


def _paths(node, path=()):
    """Every key path below node, through dicts and lists, parents first."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield path + (key,)
        yield from _paths(child, path + (key,))


def mutate(scene, rng):
    """A copy of scene with one key or list entry deleted or its value replaced."""
    scene = copy.deepcopy(scene)
    path = rng.choice(list(_paths(scene)))
    parent = scene
    for key in path[:-1]:
        parent = parent[key]
    move = rng.randrange(len(REPLACEMENTS) + 1)
    if move == len(REPLACEMENTS):
        del parent[path[-1]]
    else:
        parent[path[-1]] = copy.deepcopy(REPLACEMENTS[move])
    return scene


def _corpus_case(name):
    """A corpus scene as the fuzz takes it: command and expect come off
    first, so the mutants are those of the scene the command reads."""
    scene = read_scene(name)
    command = scene.pop("command")
    del scene["expect"]
    return pytest.param(name, scene, command, MUTANTS_PER_SCENE, id=name)


# Besides the corpus, the fuzz mutates this two-row cover written with the
# explicit leaf_data builder; scenes/explicit_cover.json has one row.  Its
# opens, pairs and triples are a few of its 48 key paths, hence the larger
# mutant count.
EXPLICIT_COVER = {
    "leaf_data": {
        "builder": "explicit",
        "opens": ["U0", "U1"],
        "pairs": [[0, 1]],
        "triples": [],
        "spaces": {"U0": [1, 1], "U1": [1, 1], "U0|U1": [1, 1]},
        "restrictions": {
            "U0->U0|U1": [[[1]], [[1]]],
            "U1->U0|U1": [[[1]], [[1]]],
        },
        "ce": {"U0": [[[1]]], "U1": [[[1]]], "U0|U1": [[[1]]]},
    }
}
EXPLICIT_MUTANTS = 400

FUZZED = [_corpus_case(name) for name in CORPUS]
FUZZED.append(pytest.param("explicit_cover", EXPLICIT_COVER, ["leaf-complex"], EXPLICIT_MUTANTS,
                           id="two_row_explicit_cover"))


def _resized(values, k, extra):
    """The list values cut or padded to k entries, padding entry i extra(i)."""
    return values[:k] + [extra(i) for i in range(len(values), k)]


def _renamed(component, i):
    """A copy of a component entry, a name or an object, named anew by i."""
    if isinstance(component, str):
        return "%s%d" % (component, i)
    return dict(copy.deepcopy(component), name="%s%d" % (component["name"], i))


def reshapes(scene):
    """The scene on every germ of n = 1..4 variables with r = 0..n crossing,
    at its order capped at 6: its names, one_form.dlog and .reg and its
    components resized to match, the padding distinct names, distinct
    constants, x1 and renamed copies."""
    for n in range(1, 5):
        for r in range(n + 1):
            shaped = copy.deepcopy(scene)
            germ = shaped["germ"]
            germ.update(n=n, r=r)
            if "names" in germ:
                germ["names"] = _resized(germ["names"], n, lambda i: "x%d" % (i + 1))
            shaped["order"] = min(shaped.get("order", 6), 6)
            form = shaped.get("one_form")
            if form is not None:
                form["dlog"] = _resized(form["dlog"], r, lambda i: str(i + 1))
                form["reg"] = _resized(form.get("reg", []), n - r, lambda i: "x1")
            comps = shaped.get("components")
            if comps:
                shaped["components"] = _resized(comps, r,
                                                lambda i: _renamed(comps[i % len(comps)], i))
            yield "n=%d r=%d" % (n, r), shaped


@pytest.mark.parametrize("seed, original, command, mutants", FUZZED)
def test_mutated_scenes_never_crash(seed, original, command, mutants, tmp_path, capsys):
    # random mutants, then a scene with a germ on every germ shape
    rng = random.Random(seed)
    cases = [("mutant %d" % trial, mutate(original, rng)) for trial in range(mutants)]
    if "germ" in original:
        cases += reshapes(original)
    path = tmp_path / "mutant.json"
    crashes = []
    for label, mutant in cases:
        path.write_text(json.dumps(mutant))
        code = cli.main(command + [str(path)])
        out = capsys.readouterr().out
        if code not in (0, 1, 2, 3):
            crashes.append("%s, exit %d: %s\n%s" % (label, code, json.dumps(mutant), out))
    assert not crashes, "\n".join(crashes)
