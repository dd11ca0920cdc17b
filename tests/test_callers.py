"""Every public function and method in src/logfol has a caller in src/logfol,
and every parameter default is omitted by some call there.

A name counts as called when some Name, Attribute or import in the package
names it outside its own definition.  Code only the tests reach belongs in
tests/reference.py, not in the library.  The check matches names, not
objects, so a method that shares its name with any other name in the
package (a local variable, another method) passes unseen.

A default that every call in the package passes is a value only the tests
leave out, so the parameter is required instead.  Calls are matched by name
too, the class name for __new__ and __init__: a default of a method that
shares its name with another callable (LogOneForm.make and Jet.make) is
taken as omitted when either is called without it.
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


# --- parameter defaults: one that no call in src/logfol omits only serves the tests ---

# defaults kept although every call in src/logfol passes them, each with its reason
KEPT_DEFAULTS = {
    "jets.jet_from_string.table": "the tests read jets on the default names x1..xn",
    "jets.jet_from_string.params": "the tests read jets with no named constants",
    "logcalc.derivation_from_string.table": "the tests read fields on the default names x1..xn",
    "logcalc.derivation_from_string.params": "the tests read fields with no named constants",
}


def _defaults(tree):
    """(qualified name, called name, parameter, position) of each parameter
    with a default.  A call passes no self or cls, so a method's positions
    start after it, and __new__ and __init__ are called by the class name.
    (The package has no static method and no keyword-only parameter.)"""
    def params(qualname, called, node, skip):
        names = [a.arg for a in node.args.args]
        for k in range(len(names) - len(node.args.defaults), len(names)):
            yield qualname, called, names[k], k - skip

    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield from params(node.name, node.name, node, 0)
        elif isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef):
                    called = node.name if sub.name in ("__new__", "__init__") else sub.name
                    yield from params("%s.%s" % (node.name, sub.name), called, sub, 1)


def _calls(tree):
    """(name, positional count, keyword names) of every call in tree that
    names its callee and unpacks no * or ** argument."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if (name is not None and not any(isinstance(a, ast.Starred) for a in node.args)
                    and all(k.arg is not None for k in node.keywords)):
                yield name, len(node.args), {k.arg for k in node.keywords}


def unomitted():
    """Qualified names of the parameter defaults that no call in src/logfol
    omits."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    calls = {}
    for tree in trees.values():
        for name, count, keywords in _calls(tree):
            calls.setdefault(name, []).append((count, keywords))
    out = []
    for module, tree in trees.items():
        for qualname, called, param, position in _defaults(tree):
            if not any(param not in keywords and count <= position
                       for count, keywords in calls.get(called, ())):
                out.append("%s.%s.%s" % (module, qualname, param))
    return out


def test_every_default_is_omitted_by_some_call():
    assert sorted(set(unomitted()) - set(KEPT_DEFAULTS)) == []


def test_every_kept_default_is_still_passed_by_every_call():
    assert sorted(set(KEPT_DEFAULTS) - set(unomitted())) == []
