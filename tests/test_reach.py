"""Every executable statement of src/logfol runs in the corpus, or ALLOWED
names it with its reason.

The corpus run is CI's: `python -m logfol.cli run scenes/*.json --json PATH`
at the scenes' own orders and at --order 1, 2 and 4, less the scenes of
UNTRACED.  It runs under
sys.settrace in a fresh interpreter, so the package's imports and its
per-process caches run under the trace too.  (sys.monitoring would be
cheaper, but it exists only from Python 3.12.)

A statement is keyed by its module, the qualified name of the function or
class it sits in ("<module>" at the top level) and the stripped text of its
first line, never by a line number, so an edit elsewhere moves no key.  A
statement counts as run when any of its lines does.  The test fails on a
statement that no run reaches and ALLOWED does not name, and on an ALLOWED
entry that the corpus now reaches.  Each entry's reason is of one kind:

    certificate  a RuntimeError re-check that only the named mutation test
                 reaches
    cli          the help, a usage error, a closed pipe, an unwritable
                 --json path, the internal-error report or a refusal that
                 no scene file can carry; the CI line or test that reaches
                 it is named
    tracer       perfbench/tracer.py looks the method up by name, or only
                 such a method reaches the statement
    invariant    a check on values that the package built itself, such as
                 a context mismatch between them, which no input reaches
    recursion    a refusal of input nested past the recursion limit, which
                 only a scene of UNTRACED reaches

So a new branch or refusal in src/logfol comes with a scene that reaches
it, or with an entry here that says why none can.
"""

import ast
import json
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "logfol"
ORDERS = ((), ("--order", "1"), ("--order", "2"), ("--order", "4"))

# run in the child: argv is the package directory, the file that the exit
# codes and the lines run go to, the --json path and the scene files.  A
# code object of the package is traced until each of its lines has run
# (left holds the lines still to run, or None outside the package), so the
# solvers' loops soon run untraced.
CHILD = r"""
import json, runpy, sys

package, out, report, scenes = sys.argv[1], sys.argv[2], sys.argv[3], sys.argv[4:]
left, lines = {}, {}


def line(frame, event, arg):
    if event == "line":
        left[frame.f_code].discard(frame.f_lineno)
    return line


def call(frame, event, arg):
    code = frame.f_code
    if code not in left:
        if code.co_filename.startswith(package):
            lines[code] = {n for _, _, n in code.co_lines() if n}
            left[code] = set(lines[code])
        else:
            left[code] = None
    todo = left[code]
    if todo is None:
        return None
    todo.discard(frame.f_lineno)
    return line if todo else None


codes = []
sys.settrace(call)
for order in %r:
    sys.argv = ["logfol", "run", *order, *scenes, "--json", report]
    try:
        runpy.run_module("logfol.cli", run_name="__main__", alter_sys=True)
    except SystemExit as e:
        codes.append(e.code)
sys.settrace(None)
hits = [(code.co_filename, n) for code in lines for n in lines[code] - left[code]]
with open(out, "w") as f:
    json.dump({"codes": codes, "hits": hits}, f)
""" % (ORDERS,)

KINDS = ("certificate", "cli", "tracer", "invariant", "recursion")

# scenes that recurse past the interpreter's limit: there the trace
# function's own frame is one too many, which unsets the trace for the rest
# of the run, so the traced run leaves them out
UNTRACED = {"semistable_nested_parentheses"}

# (module, enclosing function or class, statement text, reason) of each
# statement the corpus does not run
ALLOWED = [
    ("cli", "_fstr", 'raise TypeError("%r is no exact number" % (x,))  # a float above all',
     "invariant: every number a report prints is an int or a Fraction that the package built; "
     "test_fstr_prints_only_exact_numbers"),
    ("cli", "_named_command",
     'raise SceneError("%r is no command that reads a scene" % " ".join(words), "command")',
     "cli: a file in scenes/ names a command (test_every_scene_names_a_command_that_reads_it);"
     " test_run_reports_a_scene_that_names_no_command_at_command"),
    ("cli", "_named_command", 'raise SceneError("expected a list of command words", "command")',
     "cli: a file in scenes/ names a command (test_every_scene_names_a_command_that_reads_it);"
     " test_run_reports_a_scene_that_names_no_command_at_command"),
    ("cli", "_run_one",
     "except Exception as e:  # a crash must not read as yes, no or inconclusive",
     "cli: the internal-error report; test_cli_maps_unexpected_exceptions_to_internal"),
    ("cli", "_run_one", "import traceback  # here, not at the top: it adds ~3 ms to every start-up",
     "cli: the internal-error report; test_cli_maps_unexpected_exceptions_to_internal"),
    ("cli", "_run_one", 'message = "internal error: %s: %s" % (type(e).__name__, e)',
     "cli: the internal-error report; test_cli_maps_unexpected_exceptions_to_internal"),
    ("cli", "_run_one",
     'report, order = Report("internal", message, {"traceback": traceback.format_exc()}), None',
     "cli: the internal-error report; test_cli_maps_unexpected_exceptions_to_internal"),
    ("cli", "_say", "except BrokenPipeError:",
     "cli: a closed pipe; CI's head -c 0 line, test_closed_stdout_keeps_the_decided_exit_code"),
    ("cli", "_say", "os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())",
     "cli: a closed pipe; CI's head -c 0 line, test_closed_stdout_keeps_the_decided_exit_code"),
    ("cli", "_write_json", "_say(text)",
     "cli: --json - writes to stdout; test_cli_json_to_stdout"),
    ("cli", "_write_json", "except OSError as e:",
     "cli: an unwritable --json path; CI's /nonexistent/x.json line, "
     "test_cli_unwritable_json_path_is_an_input_error"),
    ("cli", "_write_json",
     'print("cannot write the report to %s: %s" % (path, e.strerror or e), file=sys.stderr)',
     "cli: an unwritable --json path; CI's /nonexistent/x.json line, "
     "test_cli_unwritable_json_path_is_an_input_error"),
    ("cli", "_write_json", "return False",
     "cli: an unwritable --json path; CI's /nonexistent/x.json line, "
     "test_cli_unwritable_json_path_is_an_input_error"),
    ("cli", "_write_json", "return True",
     "cli: --json - writes to stdout; test_cli_json_to_stdout"),
    ("cli", "main", 'parser.error("%r begins with no command" % " ".join(words))',
     "cli: words that begin no command; CI's monoid line, "
     "test_cli_exits_2_without_a_leaf_or_on_bad_arguments"),
    ("cli", "main", 'parser.error("unrecognized arguments: %s" % " ".join(scenes[1:]))',
     "cli: a second scene file for a command that reads one; "
     "test_usage_errors_read_as_the_whole_tree_words_them"),
    ("cli", "main", 'parser.error("unrecognized arguments: %s" % " ".join(unknown))',
     "cli: an option the parser does not know; CI's --bogus lines, "
     "test_usage_errors_read_as_the_whole_tree_words_them"),
    ("cli", "main", "parser.print_help()",
     "cli: no words print the help; test_cli_without_a_command_prints_help"),
    ("cli", "main", 'print("a scene file is required", file=sys.stderr)',
     "cli: run with no scene file; test_cli_batch_mode_requires_scenes"),
    ("cli", "main", "return 2",
     "cli: the exit of no words, of run with no scene file and of an unwritable --json path; "
     "test_cli_without_a_command_prints_help, test_cli_batch_mode_requires_scenes, "
     "test_cli_unwritable_json_path_is_an_input_error"),
    ("cli", "main", "return 2",
     "cli: the exit of no words, of run with no scene file and of an unwritable --json path; "
     "test_cli_without_a_command_prints_help, test_cli_batch_mode_requires_scenes, "
     "test_cli_unwritable_json_path_is_an_input_error"),
    ("cli", "main", "return 2",
     "cli: the exit of no words, of run with no scene file and of an unwritable --json path; "
     "test_cli_without_a_command_prints_help, test_cli_batch_mode_requires_scenes, "
     "test_cli_unwritable_json_path_is_an_input_error"),
    ("exprs", "parse_polynomial", 'reader.error("parentheses nested too deeply", text.index("("))',
     "recursion: scenes/semistable_nested_parentheses.json, "
     "test_scene_gives_its_expected_answer"),
    ("foliations", "FoliationGerm.__new__", 'raise ValueError("generator context mismatch")',
     "invariant: the fields of a foliation are read on its germ"),
    ("foliations", "SurfaceOneForm.__new__",
     'raise ValueError("form coefficients in different contexts")',
     "invariant: both coefficients are read on the one surface germ"),
    ("foliations", "SurfaceOneForm.__new__",
     'raise ValueError("surface forms live on a smooth 2-variable germ")',
     "invariant: the scene builds every surface form on a smooth germ of two variables"),
    ("foliations", "_UnitPivots.__init__", 'raise ValueError("generator context mismatch")',
     "invariant: a target is read on the germ of the generators it is tested against"),
    ("foliations", "_reproduces", "return False",
     "certificate: test_a_corrupted_span_solve_is_an_internal_error"),
    ("foliations", "span_membership",
     'raise RuntimeError("span membership certificate failed: the coefficients "',
     "certificate: test_a_corrupted_span_solve_is_an_internal_error"),
    ("jets", "GermContext.component",
     'raise ValueError("component index %d is not a crossing variable" % i)',
     "invariant: every caller restricts to a crossing component"),
    ("jets", "Jet.__mul__", "if isinstance(other, (int, Fraction)):",
     "tracer: perfbench/tracer.py METHODS looks it up by name; the solvers multiply by mul_to"),
    ("jets", "Jet.__mul__", "return self.mul_to(other, self.ctx.order)",
     "tracer: perfbench/tracer.py METHODS looks it up by name; the solvers multiply by mul_to"),
    ("jets", "Jet.__mul__", "return self.scale(other)",
     "tracer: perfbench/tracer.py METHODS looks it up by name; the solvers multiply by mul_to"),
    ("jets", "Jet.__mul__", "self._check(other)",
     "tracer: perfbench/tracer.py METHODS looks it up by name; the solvers multiply by mul_to"),
    ("jets", "Jet._check", 'raise TypeError("expected a Jet")',
     "invariant: the jets a command adds or multiplies are read on one germ"),
    ("jets", "Jet._check", "raise ValueError(",
     "invariant: the jets a command adds or multiplies are read on one germ"),
    ("jets", "Jet.invert", 'raise ValueError("jet has zero constant term, not invertible")',
     "invariant: only units are inverted, entries picked by their nonzero constant term and "
     "residue denominators divided by their lowest power"),
    ("jets", "Jet.scale", "c = _exact(c)",
     "tracer: the scalar branch of Jet.__mul__, which perfbench/tracer.py METHODS looks it up "
     "by name"),
    ("jets", "Jet.scale", "if c == 0:",
     "tracer: the scalar branch of Jet.__mul__, which perfbench/tracer.py METHODS looks it up "
     "by name"),
    ("jets", "Jet.scale", "return Jet(self.ctx, {e: c * v for e, v in self.terms.items()})",
     "tracer: the scalar branch of Jet.__mul__, which perfbench/tracer.py METHODS looks it up "
     "by name"),
    ("jets", "Jet.scale", "return Jet.zero(self.ctx)",
     "tracer: the scalar branch of Jet.__mul__, which perfbench/tracer.py METHODS looks it up "
     "by name"),
    ("jets", "Jet.univariate", 'raise ValueError("jet is not univariate in variable %d" % i)',
     "invariant: both jets that cs surface reads this way have x1 set to 0"),
    ("jets", "_Value.__setattr__", 'raise AttributeError("cannot assign to field %r" % name)',
     "invariant: values are read-only, and no code assigns to one; "
     "test_values_are_read_only_and_equal_by_value"),
    ("jets", "_normal_terms", "continue",
     "invariant: Jet.make's callers pass nonzero coefficients on nonnegative exponents of the "
     "germ's width"),
    ("jets", "_normal_terms",
     'raise ValueError("exponent %r does not match %d variables" % (e, ctx.n))',
     "invariant: Jet.make's callers pass nonzero coefficients on nonnegative exponents of the "
     "germ's width"),
    ("jets", "_normal_terms", 'raise ValueError("negative exponent in %r" % (e,))',
     "invariant: Jet.make's callers pass nonzero coefficients on nonnegative exponents of the "
     "germ's width"),
    ("leafcomplex", "CechLeafData._blocks", "return",
     "tracer: a bidegree outside the complex reaches _blocks only through cech_matrix and "
     "ce_matrix, which perfbench/tracer.py METHODS looks it up by name"),
    ("leafcomplex", "CechLeafData._matrix", "continue",
     "tracer: a block outside the target bidegrees comes only from cech_matrix and ce_matrix, "
     "which perfbench/tracer.py METHODS looks it up by name"),
    ("leafcomplex", "CechLeafData.ce_matrix",
     "return self._matrix([(p, q)], [(p, q + 1)], scale=(-1) ** p)",
     "tracer: perfbench/tracer.py METHODS looks it up by name"),
    ("leafcomplex", "CechLeafData.cech_matrix", "return self._matrix([(p, q)], [(p + 1, q)])",
     "tracer: perfbench/tracer.py METHODS looks it up by name"),
    ("leafcomplex", "LieModuleData.__new__",
     'raise ValueError("action does not respect the bracket")',
     "invariant: the modules are the adjoint action of a checked subalgebra and its quotient, "
     "one matrix per basis vector"),
    ("leafcomplex", "LieModuleData.__new__",
     'raise ValueError("need one action matrix per basis vector")',
     "invariant: the modules are the adjoint action of a checked subalgebra and its quotient, "
     "one matrix per basis vector"),
    ("leafcomplex", "lie_subalgebra_obstruction",
     'raise RuntimeError("Lie corrector certificate failed: the differential does not "',
     "certificate: test_cli_lie_wrong_corrector_is_internal"),
    ("leafcomplex", "verify_obstruction_cocycle",
     'raise RuntimeError("obstruction certificate failed: the total differential does not "',
     "certificate: test_cli_obstruction_wrong_corrector_is_internal"),
    ("logcalc", "LogDerivation.__init__",
     'raise ValueError("coefficient counts do not match the context")',
     "invariant: fields are built with one coefficient per basis field"),
    ("logcalc", "LogDerivation.apply", 'raise ValueError("jet context mismatch")',
     "invariant: a field is applied to jets on its own germ"),
    ("logcalc", "_check_ctx", 'raise ValueError("%s has mismatched context" % what)',
     "invariant: coefficients are read on the germ of their field or form"),
    ("logcalc", "lie_bracket", 'raise ValueError("derivation context mismatch")',
     "invariant: the generators of a foliation share its germ"),
    ("monoids", "_Cone.coordinates", "return None",
     "invariant: every point tested lies in the span of the generators, the difference group "
     "checked first"),
    ("monoids", "_saturation", "raise RuntimeError(",
     "certificate: test_a_saturation_point_off_the_cone_is_an_internal_error"),
    ("monoids", "_witness", "raise RuntimeError(",
     "certificate: test_a_witness_that_does_not_sum_is_an_internal_error"),
    ("scene", "_numbers", "raise",
     "invariant: the entry read again fails as the list did, so the error is raised before"),
    ("scene", "load_scene", "except OSError as e:",
     "cli: a file that holds no scene object carries no command; "
     "test_load_scene_reports_json_position, test_load_scene_rejects_non_objects, "
     "test_run_reports_a_file_it_cannot_read_and_goes_on"),
    ("scene", "load_scene", "except json.JSONDecodeError as e:",
     "cli: a file that holds no scene object carries no command; "
     "test_load_scene_reports_json_position, test_load_scene_rejects_non_objects, "
     "test_run_reports_a_file_it_cannot_read_and_goes_on"),
    ("scene", "load_scene", 'raise SceneError("a scene must be a JSON object", str(path))',
     "cli: a file that holds no scene object carries no command; "
     "test_load_scene_reports_json_position, test_load_scene_rejects_non_objects, "
     "test_run_reports_a_file_it_cannot_read_and_goes_on"),
    ("scene", "load_scene", "except RecursionError:",
     "cli: a file that holds no scene object carries no command; "
     "test_load_scene_refuses_json_nested_too_deeply"),
    ("scene", "load_scene", 'raise SceneError("JSON nested too deeply", str(path))',
     "cli: a file that holds no scene object carries no command; "
     "test_load_scene_refuses_json_nested_too_deeply"),
    ("scene", "load_scene",
     'raise SceneError("line %d, column %d: %s" % (e.lineno, e.colno, e.msg), str(path))',
     "cli: a file that holds no scene object carries no command; "
     "test_load_scene_reports_json_position, test_load_scene_rejects_non_objects, "
     "test_run_reports_a_file_it_cannot_read_and_goes_on"),
    ("scene", "load_scene", "raise SceneError(str(e))",
     "cli: a file that holds no scene object carries no command; "
     "test_load_scene_reports_json_position, test_load_scene_rejects_non_objects, "
     "test_run_reports_a_file_it_cannot_read_and_goes_on"),
    ("semistability", "find_flat_unit",
     'raise RuntimeError("flat unit certificate failed: nabla_v g is not zero "',
     "certificate: test_a_wrong_flat_unit_is_caught_before_it_is_returned"),
    ("semistability", "find_flat_unit",
     'raise RuntimeError("flat unit certificate failed: the substituted unit is not flat "',
     "certificate: test_a_wrong_substituted_unit_is_caught_before_it_is_returned"),
    ("semistability", "nabla", 'raise ValueError("derivation and section context mismatch")',
     "invariant: the unit is solved on the germ of its field"),
]


def _code_lines(code):
    """The line of every instruction of code and of the code nested in it."""
    for _, _, line in code.co_lines():
        if line:
            yield line
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            yield from _code_lines(const)


def _statements(tree):
    """{line: (enclosing qualified name, first line)} of the innermost
    statement or except clause around each line."""
    owner = {}

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.stmt, ast.excepthandler)):
                for line in range(child.lineno, child.end_lineno + 1):
                    owner[line] = (scope, child.lineno)
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = child.name if scope == "<module>" else "%s.%s" % (scope, child.name)
            visit(child, inner)

    visit(tree, "<module>")
    return owner


def unreached(hits):
    """Counter of the (module, scope, text) keys of the statements of
    src/logfol that hits, a set of (file name, line), does not touch."""
    out = Counter()
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text()
        owner = _statements(ast.parse(source))
        lines = source.splitlines()

        def statements(numbers):
            return {owner.get(n, ("<module>", n)) for n in numbers}

        executable = statements(_code_lines(compile(source, str(path), "exec")))
        ran = statements(n for f, n in hits if f == str(path))
        for scope, first in executable - ran:
            out[path.stem, scope, lines[first - 1].strip()] += 1
    return out


def corpus_hits(tmp_path):
    """(file name, line) of every line that the corpus runs, traced."""
    scenes = sorted(str(p) for p in (ROOT / "scenes").glob("*.json") if p.stem not in UNTRACED)
    out = tmp_path / "hits.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run(
        [sys.executable, "-c", CHILD, str(SRC) + os.sep, str(out), str(tmp_path / "r.json"),
         *scenes], env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    assert run.returncode == 0 and run.stderr == "", run.stderr
    traced = json.loads(out.read_text())
    # the worst pinned decision is inconclusive, at every order
    assert traced["codes"] == [3] * len(ORDERS)
    return {(f, n) for f, n in traced["hits"]}


def test_every_unreached_statement_is_allowed_and_every_allowed_one_unreached(tmp_path):
    missed = unreached(corpus_hits(tmp_path))
    allowed = Counter(entry[:3] for entry in ALLOWED)
    assert sorted((missed - allowed).elements()) == []
    assert sorted((allowed - missed).elements()) == []


def test_every_allowed_statement_has_a_reason_of_one_kind():
    for module, scope, text, reason in ALLOWED:
        assert reason.partition(":")[0] in KINDS, (module, scope, text)


def test_every_test_a_reason_names_exists():
    # each test_... word of a reason names a test function or a module under tests/
    defined = set()
    for path in (ROOT / "tests").glob("*.py"):
        defined.add(path.stem)
        defined.update(node.name for node in ast.walk(ast.parse(path.read_text()))
                       if isinstance(node, ast.FunctionDef))
    named = {word for *_, reason in ALLOWED for word in re.findall(r"\btest_\w+", reason)}
    assert named and sorted(named - defined) == []
