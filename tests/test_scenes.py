"""Every committed scene, run through the command it names, gives its
expected exit and, where there is one, its golden report.

Each file in scenes/ names its command ("command", the words of a row of
cli.COMMANDS) and its expected answer ("expect": the exit code and, as
"says", a string the output must contain).  The golden files in
tests/golden/ hold the --json report of 14 of them, with the scene path
written relative to the repository root.  A change that alters any answer,
witness, summary or report line fails here.  A seeded fuzz then mutates
each golden scene and checks that no mutant crashes the CLI: malformed
input must end in a report, never in exit 4 or an exception.
"""

import copy
import json
import random
from pathlib import Path

import pytest

from logfol import cli

ROOT = Path(__file__).resolve().parent.parent
SCENES = ROOT / "scenes"
GOLDEN = Path(__file__).resolve().parent / "golden"
CORPUS = sorted(p.stem for p in SCENES.glob("*.json"))
GOLDEN_NAMES = sorted(p.stem for p in GOLDEN.glob("*.json"))


def read_scene(name):
    return json.loads((SCENES / ("%s.json" % name)).read_text())


def scene_report(name, out_dir):
    """The scene's --json report, with the scene path made repo-relative."""
    out = Path(out_dir) / ("%s.json" % name)
    scene = SCENES / ("%s.json" % name)
    code = cli.main(read_scene(name)["command"] + [str(scene), "--json", str(out)])
    report = json.loads(out.read_text())
    report["scene"] = "scenes/%s.json" % name
    return code, report


def test_every_scene_names_a_command_that_reads_it():
    rows = {cmd.words for cmd in cli.COMMANDS if cmd.needs_scene and cmd.handler}
    assert set(GOLDEN_NAMES) <= set(CORPUS)
    for name in CORPUS:
        scene = read_scene(name)
        assert tuple(scene["command"]) in rows, name
        assert set(scene["expect"]) <= {"exit", "says"}, name
        if name in GOLDEN_NAMES:
            golden = json.loads((GOLDEN / ("%s.json" % name)).read_text())
            assert scene["expect"]["exit"] == cli.EXIT_BY_DECISION[golden["decision"]], name


@pytest.mark.parametrize("name", CORPUS)
def test_scene_gives_its_expected_answer(name, capsys):
    scene = read_scene(name)
    expect = scene["expect"]
    assert cli.main(scene["command"] + [str(SCENES / ("%s.json" % name))]) == expect["exit"]
    assert expect.get("says", "") in capsys.readouterr().out


@pytest.mark.parametrize("name", GOLDEN_NAMES)
def test_scene_report_matches_golden(name, tmp_path, capsys):
    code, report = scene_report(name, tmp_path)
    golden = json.loads((GOLDEN / ("%s.json" % name)).read_text())
    assert report == golden
    assert code == cli.EXIT_BY_DECISION[golden["decision"]]


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


# Besides the golden scenes, the fuzz mutates this two-row cover written with
# the explicit leaf_data builder.  scenes/explicit_cover.json and
# explicit_bad_pair.json use that builder too, with one row, but are not
# fuzzed.  Its opens, pairs and triples are a few of its 48 key paths, hence
# the larger mutant count.
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

FUZZED = [(name, MUTANTS_PER_SCENE) for name in GOLDEN_NAMES]
FUZZED.append(("explicit_cover", EXPLICIT_MUTANTS))


@pytest.mark.parametrize("name, mutants", FUZZED, ids=[f[0] for f in FUZZED])
def test_mutated_scenes_never_crash(name, mutants, tmp_path, capsys):
    if name == "explicit_cover":
        original, command = EXPLICIT_COVER, ["leaf-complex"]
    else:
        # command and expect come off first, so the mutants are those of the
        # scene the command reads
        original = read_scene(name)
        command = original.pop("command")
        del original["expect"]
    rng = random.Random(name)
    path = tmp_path / ("%s.json" % name)
    crashes = []
    for trial in range(mutants):
        mutant = mutate(original, rng)
        path.write_text(json.dumps(mutant))
        code = cli.main(command + [str(path)])
        out = capsys.readouterr().out
        if code not in (0, 1, 2, 3):
            crashes.append("mutant %d, exit %d: %s\n%s" % (trial, code, json.dumps(mutant), out))
    assert not crashes, "\n".join(crashes)
