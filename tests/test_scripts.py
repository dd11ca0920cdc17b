"""The scripts in scripts/ run against the library and produce valid scenes."""

import runpy
from pathlib import Path

from logfol import cli

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load(name):
    return runpy.run_path(str(SCRIPTS / name))


def test_generated_obstruction_scene_verifies(tmp_path):
    make = load("make_obstruction_scene.py")["main"]
    good = tmp_path / "good.json"
    bad = tmp_path / "bad.json"
    assert make(["--seed", "0", "-o", str(good)]) == 0
    assert make(["--seed", "0", "--perturb", "-o", str(bad)]) == 0
    assert cli.main(["obstruction", "verify", str(good)]) == 0
    assert cli.main(["obstruction", "verify", str(bad)]) == 1


def test_desk_examples_run(capsys):
    assert load("desk_examples.py")["main"]([]) == 0
    out = capsys.readouterr().out
    assert "hypercohomology" in out
    assert "all arithmetic exact" in out
