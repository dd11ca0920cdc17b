"""Command line front end.

Every subcommand produces a Report; the exit code is a pure function of the
report's decision field:

    0  yes, or a value was computed
    1  no
    2  malformed input or an undefined quantity (a SceneError or ValueError)
    3  inconclusive at the truncation order in force
    4  internal error: any other exception, a KeyError or TypeError among them

Reports serialize to JSON with --json, every field of the report, so
downstream tooling can rely on the file alone.  A --json path that cannot
be written is said on stderr and ends in exit 2, whatever the report
decided.  A stdout whose reader has gone (a closed pipe) changes no
exit code: the rest of the output goes to devnull.

The commands live in one table, COMMANDS: each row gives a command's words,
handler and help.  Every command reads scene files, its one input besides
the common --order and --json, and its handler takes one scene alone.
Every report, error reports included, is named after its row: its tool is
the row's words joined by "-".  One parser, built on first use and kept
for the process, reads the options wherever they stand and every other
word into one list; main takes a row's words from the front of that list,
and the rest are its scene files, one for every row but run.  Words that
begin no row, an option it does not know and a second scene file are
refused with its usage line; no words at all print its help and exit 2.
The run row has no handler: it runs each scene file through the row whose
words the scene lists in its "command" key, at run's --order, prints
"name: decision: summary" per file and exits with the worst code.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache

from . import bundles, foliations, jets, leafcomplex, monoids, semistability
from .foliations import InconclusiveAtOrderError
from .scene import Scene, SceneError, _at, load_scene

EXIT_BY_DECISION = {"yes": 0, "value": 0, "no": 1, "error": 2, "inconclusive": 3, "internal": 4}


class Report(namedtuple("Report", "decision summary details lines scene order tool",
                        defaults=((), None, None, None))):
    """What a command answers; scene, order and tool (the command's words
    joined by "-") are written by _run_one alone."""

    __slots__ = ()

    def exit_code(self):
        return EXIT_BY_DECISION[self.decision]

    def to_dict(self):
        return dict(self._asdict(), lines=list(self.lines))


def _fstr(x):
    if type(x) is not int and type(x) is not Fraction:
        raise TypeError("%r is no exact number" % (x,))  # a float above all
    return str(x)


def _vec_strs(v):
    return [_fstr(x) for x in v]


def _nested_strs(rows):
    return [_vec_strs(row) for row in rows]


# --- handlers; each takes the scene and returns a Report ---


def _cmd_monoid_saturate(scn: Scene):
    m = scn.monoid()
    sat = monoids.saturate(m)
    gens = [list(g) for g in sat.generators]
    return Report(
        decision="value",
        summary="saturation generated by %d vectors" % len(gens),
        details={"ambient_rank": m.ambient_rank, "generators": gens},
        lines=tuple(str(tuple(g)) for g in gens),
    )


def _cmd_monoid_group(scn: Scene):
    m = scn.monoid()
    basis = monoids.grothendieck_group(m)
    return Report(
        decision="value",
        summary="difference group of rank %d" % len(basis),
        details={"ambient_rank": m.ambient_rank, "basis": [list(b) for b in basis]},
        lines=tuple(str(tuple(b)) for b in basis),
    )


def _cmd_monoid_check(scn: Scene):
    m = scn.monoid()
    element = scn.monoid_element(m)
    if element is not None:
        witness = monoids.contains(m, element)
        found = witness is not None
        return Report(
            decision="yes" if found else "no",
            summary="%r %s the monoid" % (element, "lies in" if found else "is not found in"),
            details={
                "element": list(element),
                "witness": list(witness) if found else None,
            },
        )
    sat = monoids.is_saturated(m)
    return Report(
        decision="yes" if sat else "no",
        summary="monoid is %ssaturated" % ("" if sat else "not "),
        details={"saturated": sat},
    )


def _cmd_semistable_check(scn: Scene):
    germ = scn.germ()
    fol = scn.foliation(germ)
    names = germ[1]
    with _at("foliation"):  # generators that are not involutive are an input error
        res = semistability.find_flat_unit(fol)
    if res.ok:
        unit_str = jets.format_jet(res.unit, names=names)
        qualifier = "the unique one" if res.unique else "one of several"
        return Report(
            decision="yes",
            summary="flat unit exists at order %d (%s)" % (res.order, qualifier),
            details={"unit": unit_str, "unique": bool(res.unique), "order": res.order},
            lines=("unit = %s" % unit_str,),
        )
    return Report(
        decision="no",
        summary="no flat unit; the degree-%d system is inconsistent" % res.failing_degree,
        details={"failing_degree": res.failing_degree, "order": res.order},
    )


def _cmd_cs_log(scn: Scene):
    form = scn.one_form()
    i, j = scn.index_pair(form.ctx)
    value = semistability.cs_index_log(form, i - 1, j - 1)
    return Report(
        decision="value",
        summary="index %s along the stratum of components %d and %d" % (_fstr(value), i, j),
        details={"index": _fstr(value), "pair": [i, j]},
    )


def _cmd_cs_surface(scn: Scene):
    form = scn.surface_form()
    value = semistability.cs_index_surface(form)
    return Report(
        decision="value",
        summary="index %s along the invariant curve" % _fstr(value),
        details={"index": _fstr(value)},
    )


def _cmd_pushout_check(scn: Scene):
    glue = scn.glue_data()
    res = foliations.check_gluing_cocycle(glue)
    failures = [
        {
            "triple": [glue.components[i] for i in (a, b, c)],
            "product": _fstr(product),
        }
        for (a, b, c, product) in res.failures
    ]
    if res.ok:
        summary = "cocycle condition holds on all %d triple strata" % len(glue.triples)
    else:
        worst = failures[0]
        summary = "cocycle fails on %s with product %s" % (
            "|".join(worst["triple"]),
            worst["product"],
        )
    return Report(
        decision="yes" if res.ok else "no",
        summary=summary,
        details={"failures": failures, "triples": len(glue.triples)},
        lines=tuple(
            "%s: product %s" % ("|".join(f["triple"]), f["product"]) for f in failures
        ),
    )


def _cmd_pushout_member(scn: Scene):
    ctx, candidates, fols, names = scn.pushout_inputs()
    res = foliations.pushout_membership(candidates, fols, germ_ctx=ctx)
    if res.ok:
        return Report(
            decision="yes",
            summary="candidate restricts into every component foliation (order %d)" % res.order,
            details={"order": res.order},
        )
    failing = names[res.failing_component]
    return Report(
        decision="no",
        summary="candidate leaves the foliation on component %s (order %d)" % (failing, res.order),
        details={"failing_component": failing, "order": res.order},
    )


def _cmd_cohomology_p1(scn: Scene):
    deg = scn.degree()
    h0, h1 = bundles.h_p1(deg)
    return Report(
        decision="value",
        summary="degree %d: h0 = %d, h1 = %d" % (deg, h0, h1),
        details={"deg": deg, "h0": h0, "h1": h1},
    )


def _cmd_cohomology_snc(scn: Scene):
    bundle = scn.bundle()
    h0, h1 = bundles.cohomology_snc_curve(bundle)
    return Report(
        decision="value",
        summary="h0 = %d, h1 = %d" % (h0, h1),
        details={
            "left": list(bundle.left.degrees),
            "right": list(bundle.right.degrees),
            "h0": h0,
            "h1": h1,
        },
    )


def _cmd_leaf_complex(scn: Scene):
    data = scn.leaf_data()
    dims = leafcomplex.leaf_complex_hypercohomology(data)
    return Report(
        decision="value",
        summary="hypercohomology dimensions %s" % (tuple(dims),),
        details={
            "dims": list(dims),
            "opens": list(data.opens),
            "rows": data.n_rows,
        },
    )


def _cmd_obstruction_verify(scn: Scene):
    data = scn.leaf_data()
    theta, gbar, bbar = scn.cochains(data)
    rep = leafcomplex.verify_obstruction_cocycle(data, theta, gbar, bbar)
    names = ("triple overlaps", "rows vs pairs", "pairs vs opens", "top row")
    lines = tuple(
        "equation %d (%s): %s" % (k + 1, names[k], "holds" if ok else "fails")
        for k, ok in enumerate(rep.equations)
    )
    details = {
        "equations": list(rep.equations),
        "is_cocycle": rep.is_cocycle,
        "is_coboundary": rep.is_coboundary,
        "corrector": None,
    }
    if rep.corrector is not None:
        rho, hbar = rep.corrector
        details["corrector"] = {"rho": _nested_strs(rho), "hbar": _nested_strs(hbar)}
    summary = (
        "obstruction triple satisfies all four equations"
        if rep.is_cocycle
        else "obstruction triple violates the compatibility equations"
    )
    if rep.is_cocycle and rep.is_coboundary:
        summary += " and is a total coboundary"
    return Report(
        decision="yes" if rep.is_cocycle else "no",
        summary=summary,
        details=details,
        lines=lines,
    )


def _cmd_obstruction_lie(scn: Scene):
    data = scn.lie_data()
    res = leafcomplex.lie_subalgebra_obstruction(data)
    details = {
        "quotient_dim": res.quotient_dim,
        "cocycle": _nested_strs(res.cocycle),
        "is_cocycle": res.is_cocycle,
        "vanishes": res.vanishes,
        "corrector": _nested_strs(res.corrector) if res.corrector is not None else None,
    }
    summary = (
        "obstruction class vanishes; a corrector exists"
        if res.vanishes
        else "obstruction class does not vanish"
    )
    return Report(
        decision="yes" if res.vanishes else "no",
        summary=summary,
        details=details,
    )


def _cmd_holonomy(scn: Scene):
    h1, h2 = scn.holonomy()
    with _at("holonomy"):  # tuples of different lengths are an input error
        compatible = semistability.check_holonomy_compatibility(h1, h2)
    details = {
        "inner": _vec_strs(h1.values),
        "outer": _vec_strs(h2.values),
        "compatible": compatible,
    }
    ok = compatible
    degrees = scn.normal_degrees()
    if degrees is not None:
        degrees_ok = semistability.check_normal_degrees(*degrees)
        details["normal_degrees"] = list(degrees)
        details["normal_degrees_opposite"] = degrees_ok
        ok = ok and degrees_ok
    summary = "gluing data is %scompatible" % ("" if ok else "not ")
    return Report(
        decision="yes" if ok else "no",
        summary=summary,
        details=details,
    )


# --- wiring ---


def _named_command(scn):
    """For run: the row of the command that scene scn names; a SceneError at
    "command" if it names none (run itself has no handler)."""
    words = scn.raw.get("command")
    if not isinstance(words, list) or not all(isinstance(w, str) for w in words):
        raise SceneError("expected a list of command words", "command")
    for cmd in COMMANDS:
        if cmd.handler is not None and list(cmd.words) == words:
            return cmd
    raise SceneError("%r is no command that reads a scene" % " ".join(words), "command")


def _run_one(cmd, scene_path, order):
    """The report of the row cmd's command on scene_path at the --order
    given (None for the scene's own), error reports included, named after
    the command; for run, the command the scene names.  Its scene, order and
    tool are written here and nowhere else: a decided or inconclusive
    report's order is the scene's in force; an error or internal report has
    none."""
    try:
        scn = load_scene(scene_path, order=order)
        if cmd.handler is None:
            cmd = _named_command(scn)
        order = scn.order
        report = cmd.handler(scn)
    except InconclusiveAtOrderError as e:
        report = Report("inconclusive", str(e), {})
    except (SceneError, ValueError) as e:
        report, order = Report("error", str(e) or type(e).__name__, {}), None
    except Exception as e:  # a crash must not read as yes, no or inconclusive
        import traceback  # here, not at the top: it adds ~3 ms to every start-up

        message = "internal error: %s: %s" % (type(e).__name__, e)
        report, order = Report("internal", message, {"traceback": traceback.format_exc()}), None
    return report._replace(scene=str(scene_path), order=order, tool="-".join(cmd.words))


def _say(text):
    """Print text and flush it.  When the reader of stdout has gone, stdout
    is pointed at devnull, as the "Note on SIGPIPE" in the documentation of
    Python's signal module does, and the run goes on to its own exit code."""
    try:
        print(text, flush=True)
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _print_report(report, prefix):
    _say("%s%s: %s" % (prefix, report.decision, report.summary))
    for line in report.lines:
        _say("%s  %s" % (prefix, line))


def _write_json(path, payload):
    """Write payload to path ("-" for stdout); False, said on stderr, if it cannot."""
    text = json.dumps(payload, indent=2, sort_keys=True)
    if path == "-":
        _say(text)
        return True
    try:
        with open(path, "w") as handle:
            handle.write(text + "\n")
    except OSError as e:
        print("cannot write the report to %s: %s" % (path, e.strerror or e), file=sys.stderr)
        return False
    return True


# --- the command table: one row per command ---


# words: ("monoid", "saturate"), or one word such as ("holonomy",); handler: the
# function of the scene that answers, None for run alone.  A namedtuple, as every
# record in the package is a namedtuple or a plain class with __slots__: a
# dataclass generates and execs its methods on every start, and importing
# dataclasses brings inspect and ast with it.
_Command = namedtuple("_Command", "words handler help")


COMMANDS = (
    _Command(("monoid", "saturate"), _cmd_monoid_saturate, "generators of the saturation"),
    _Command(("monoid", "group"), _cmd_monoid_group, "Hermite basis of the difference group"),
    _Command(("monoid", "check"), _cmd_monoid_check,
             "is the scene's element a member; without an element, is the monoid saturated"),
    _Command(("semistable", "check"), _cmd_semistable_check, "decide existence of a flat unit"),
    _Command(("cs", "log"), _cmd_cs_log, "index of a log one-form along a double stratum"),
    _Command(("cs", "surface"), _cmd_cs_surface, "index of a dy + b dz along {y = 0}"),
    _Command(("pushout", "check"), _cmd_pushout_check, "scalar cocycle condition on triples"),
    _Command(("pushout", "member"), _cmd_pushout_member,
             "does a candidate field restrict into every component foliation"),
    _Command(("cohomology", "p1"), _cmd_cohomology_p1, "line bundle on the projective line"),
    _Command(("cohomology", "snc-curve"), _cmd_cohomology_snc,
             "bundle on two projective lines glued at a node"),
    _Command(("leaf-complex",), _cmd_leaf_complex, "hypercohomology dimensions of cover data"),
    _Command(("obstruction", "verify"), _cmd_obstruction_verify,
             "four compatibility equations of a triple over a cover"),
    _Command(("obstruction", "lie"), _cmd_obstruction_lie,
             "obstruction class of a perturbed subalgebra inclusion"),
    _Command(("holonomy",), _cmd_holonomy,
             "holonomy and normal degree compatibility of a stratum"),
    _Command(("run",), None, "run each scene file through the command it names; worst exit"),
)


@lru_cache(maxsize=None)
def build_parser():
    """The one parser: the options, then the words of a row of COMMANDS and
    its scene files; built on first use and kept for the process."""
    rows = "\n".join("  %-22s%s" % (" ".join(cmd.words), cmd.help) for cmd in COMMANDS)
    parser = argparse.ArgumentParser(
        prog="logfol",
        usage="%(prog)s [-h] [--order N] [--json PATH] COMMAND SCENE ...",
        description="exact checks for foliations on crossing germs: flat units, indices,\n"
        "gluing cocycles, cover obstructions",
        epilog="commands:\n" + rows,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--order", type=int, metavar="N",
                        help="truncation order override (default: scene value, else 6)")
    parser.add_argument("--json", dest="json_path", metavar="PATH",
                        help='write the report as JSON to PATH ("-" for stdout)')
    parser.add_argument("words", nargs="*", metavar="COMMAND SCENE",
                        help="a command's words, then its scene file (run: any number)")
    return parser


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser()
    # argparse takes the words up to the first option; the later ones are left over
    args, rest = parser.parse_known_args(argv)
    unknown = [a for a in rest if a.startswith("-")]
    if unknown:
        parser.error("unrecognized arguments: %s" % " ".join(unknown))
    words = args.words + rest
    if not words:
        parser.print_help()
        return 2
    cmd = next((cmd for cmd in COMMANDS if tuple(words[:len(cmd.words)]) == cmd.words), None)
    if cmd is None:
        parser.error("%r begins with no command" % " ".join(words))
    scenes = words[len(cmd.words):]
    if not scenes:
        print("a scene file is required", file=sys.stderr)
        return 2
    batch = cmd.handler is None
    if not batch and len(scenes) > 1:
        parser.error("unrecognized arguments: %s" % " ".join(scenes[1:]))
    reports = []
    for path in scenes:
        reports.append(_run_one(cmd, path, args.order))
        _print_report(reports[-1], prefix="%s: " % os.path.basename(path) if batch else "")
    payload = [r.to_dict() for r in reports] if batch else reports[0].to_dict()
    if args.json_path and not _write_json(args.json_path, payload):
        return 2
    return max(r.exit_code() for r in reports)


if __name__ == "__main__":
    sys.exit(main())
