"""Every public function and method in src/logfol has a caller in src/logfol.

A name counts as called when some Name, Attribute or import in the package
names it outside its own definition.  Code only the tests reach belongs in
tests/reference.py, not in the library.  The check matches names, not
objects, so a method that shares its name with any other name in the
package (a local variable, another method) passes unseen.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "logfol"

# public definitions kept without a caller in src/logfol, each with its reason
KEPT = {
    "cli.Report.from_dict": "the documented --json round trip: a report file reads back as a Report",
    "leafcomplex.CechLeafData.cech_matrix": "perfbench/tracer.py METHODS looks it up by name",
    "leafcomplex.CechLeafData.ce_matrix": "perfbench/tracer.py METHODS looks it up by name",
    "linalg.nullspace": "the kernel certificates that ROADMAP.md plans build on it",
    "jets.Jet.variable": "a constructor of the value type, which the tests build jets with",
}


def _definitions(tree):
    """(qualified name, def node) of each public module-level function and
    public method."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef):
                    yield "%s.%s" % (node.name, sub.name), sub


def _uses(tree):
    """(name, line) of every Name, Attribute and imported name in tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2], node.lineno


def uncalled():
    """Qualified names of the public definitions no code in src/logfol names."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    uses = {}
    for module, tree in trees.items():
        for name, line in _uses(tree):
            uses.setdefault(name, []).append((module, line))
    out = []
    for module, tree in trees.items():
        for qualname, node in _definitions(tree):
            own = range(node.lineno, node.end_lineno + 1)
            if not node.name.startswith("_") and all(
                    m == module and line in own for m, line in uses.get(node.name, ())):
                out.append("%s.%s" % (module, qualname))
    return out


def test_every_public_definition_has_a_caller():
    assert sorted(set(uncalled()) - set(KEPT)) == []


def test_every_kept_definition_still_has_no_caller():
    assert sorted(set(KEPT) - set(uncalled())) == []
