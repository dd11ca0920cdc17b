"""Every committed scene, run through its subcommand, gives its golden report.

The golden files in tests/golden/ hold the --json report of each scene in
scenes/, with the scene path written relative to the repository root.  A
change that alters any answer, witness, summary or report line fails here.
"""

import json
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
