"""Every committed scene, run through its subcommand, gives its golden report.

The golden files in tests/golden/ hold the --json report of each scene in
scenes/, with the scene path written relative to the repository root.  A
change that alters any answer, witness, summary or report line fails here.
A seeded fuzz then mutates each scene and checks that no mutant crashes the
CLI: malformed input must end in a report, never in exit 4 or an exception.
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

# scene name -> the subcommand it is written for
SUBCOMMAND = {
    "cs_triple_form": ["cs", "log"],
    "holonomy_pair": ["holonomy"],
    "leaf_windows": ["leaf-complex"],
    "lie_borel": ["obstruction", "lie"],
    "monoid_cusp": ["monoid", "check"],
    "node_balanced": ["semistable", "check"],
    "node_resonant_tail": ["semistable", "check"],
    "node_unbalanced": ["semistable", "check"],
    "obstruction_demo": ["obstruction", "verify"],
    "pushout_euler": ["pushout", "member"],
    "ruled_n2": ["cohomology", "snc-curve"],
    "surface_index": ["cs", "surface"],
    "triple_point_fails": ["pushout", "check"],
    "triple_point_glues": ["pushout", "check"],
}


def scene_report(name, out_dir):
    """The scene's --json report, with the scene path made repo-relative."""
    out = Path(out_dir) / ("%s.json" % name)
    scene = SCENES / ("%s.json" % name)
    code = cli.main(SUBCOMMAND[name] + [str(scene), "--json", str(out)])
    report = json.loads(out.read_text())
    report["scene"] = "scenes/%s.json" % name
    return code, report


def test_every_scene_has_a_subcommand():
    assert sorted(p.stem for p in SCENES.glob("*.json")) == sorted(SUBCOMMAND)


@pytest.mark.parametrize("name", sorted(SUBCOMMAND))
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


# No file in scenes/ uses the explicit leaf_data builder, so one is fuzzed from
# here; it stays out of scenes/ so that the goldens cover the committed scenes
# only.  Its opens, pairs and triples are a few of its 48 key paths, hence the
# larger mutant count.
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

FUZZED = [(name, SUBCOMMAND[name], MUTANTS_PER_SCENE) for name in sorted(SUBCOMMAND)]
FUZZED.append(("explicit_cover", ["leaf-complex"], EXPLICIT_MUTANTS))


@pytest.mark.parametrize("name, subcommand, mutants", FUZZED, ids=[f[0] for f in FUZZED])
def test_mutated_scenes_never_crash(name, subcommand, mutants, tmp_path, capsys):
    if name == "explicit_cover":
        original = EXPLICIT_COVER
    else:
        original = json.loads((SCENES / ("%s.json" % name)).read_text())
    rng = random.Random(name)
    path = tmp_path / ("%s.json" % name)
    crashes = []
    for trial in range(mutants):
        mutant = mutate(original, rng)
        path.write_text(json.dumps(mutant))
        code = cli.main(subcommand + [str(path)])
        out = capsys.readouterr().out
        if code not in (0, 1, 2, 3):
            crashes.append("mutant %d, exit %d: %s\n%s" % (trial, code, json.dumps(mutant), out))
    assert not crashes, "\n".join(crashes)
