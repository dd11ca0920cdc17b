"""Run one workload in this (fresh) process and print its results as JSON.

run.py starts this file as a child so that the child's peak resident
memory is the workload's alone.  One client, closed loop: each verdict is
logfol.cli.main(argv) on a generated scene file, and the next starts when
the report is out.  The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import gzip
import io
import json
import os
import shutil
import statistics
import sys
from time import perf_counter

import calib
import tracer as tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")

# Per workload: seconds one pass takes on the reference machine (2 cores,
# Python 3.11), and passes per round.  A round holds enough passes that the
# tail rank falls inside the slowest size class; a run does as many whole
# rounds as --seconds holds on that machine, at least one, and reports the
# median of the per-round metrics.  Every run of a workload therefore does
# the same work with the same number of samples.
PLAN = {
    "jet_solve": (11.0, 2),
    "cover_cohomology": (2.4, 8),
    "monoid_search": (9.0, 1),
    "scene_suite": (0.1, 20),
}

# (layer, stats) pairs reported by the traced pass; BENCHMARK.json lists
# the same names.  Values are per pass of the workload's verdict set.
PER_LAYER = [
    ("linalg.rref", ("calls", "self_s", "cells", "nnz_share")),
    ("linalg.solve", ("calls", "self_s", "inconsistent_share")),
    ("linalg.rank", ("calls", "self_s")),
    ("linalg.nullspace", ("calls", "self_s")),
    ("linalg.nonneg_rational_solution", ("calls", "self_s", "feasible_share")),
    ("linalg.in_row_span_q", ("calls", "self_s", "hit_share")),
    ("linalg.hermite_normal_form", ("calls", "self_s")),
    ("linalg.mat_mul", ("calls", "self_s")),
    ("semistability.find_flat_unit", ("calls", "self_s", "solves_per_call")),
    ("foliations.span_membership", ("calls", "self_s", "member_share")),
    ("foliations.involutivity_check", ("calls", "self_s")),
    ("foliations.pushout_membership", ("calls", "self_s")),
    ("jets.Jet.mul", ("calls", "self_s")),
    ("jets.Jet.make", ("calls", "self_s")),
    ("logcalc.LogDerivation.apply", ("calls", "self_s")),
    ("logcalc.lie_bracket", ("calls", "self_s")),
    ("leafcomplex.CechLeafData.init", ("calls", "self_s")),
    ("leafcomplex.total_matrix", ("calls", "self_s", "cells", "nnz_share")),
    ("leafcomplex.cech_matrix", ("calls", "self_s")),
    ("leafcomplex.ce_matrix", ("calls", "self_s")),
    ("leafcomplex.leaf_complex_hypercohomology", ("calls", "self_s")),
    ("leafcomplex.verify_obstruction_cocycle", ("calls", "self_s")),
    ("leafcomplex.lie_subalgebra_obstruction", ("calls", "self_s")),
    ("bundles.h_p1", ("calls", "self_s", "rank_calls_per_call")),
    ("bundles.cohomology_snc_curve", ("calls", "self_s")),
    ("monoids.saturate", ("calls", "self_s")),
    ("monoids.in_cone", ("calls", "self_s", "hit_share")),
    ("monoids.grothendieck_group", ("calls", "self_s")),
    ("monoids.contains", ("calls", "self_s", "found_share")),
    ("cli.build_parser", ("calls", "self_s")),
    ("cli.main", ("calls", "self_s")),
    ("scene.load_scene", ("calls", "self_s")),
    ("scene.accessors", ("calls", "self_s")),
    ("exprs.parse_polynomial", ("calls", "self_s")),
    ("jets.jet_from_string", ("calls", "self_s")),
    ("logcalc.derivation_from_string", ("calls", "self_s")),
    ("trace", ("overhead_s", "overhead_share")),
]

UNITS = {
    "calls": ("count", "lower"),
    "self_s": ("s", "lower"),
    "cells": ("count", "lower"),
    "overhead_s": ("s", "lower"),
    "overhead_share": ("share", "lower"),
    "solves_per_call": ("1/call", "lower"),
    "rank_calls_per_call": ("1/call", "lower"),
}
SHARE_UNIT = ("share", "higher")

# numerator counter of each ratio, over the layer's calls
RATIOS = {
    "inconsistent_share": "inconsistent",
    "feasible_share": "feasible",
    "hit_share": "hits",
    "member_share": "hits",
    "found_share": "hits",
    "solves_per_call": "solves",
    "rank_calls_per_call": "rank_calls",
}


def per_layer_names():
    """[(metric name, unit, better)] in report order."""
    out = []
    for layer, stats in PER_LAYER:
        for stat in stats:
            unit, better = UNITS.get(stat, SHARE_UNIT)
            out.append(("%s.%s" % (layer, stat), unit, better))
    return out


# --- running verdicts ---


def run_verdict(cli, verdict):
    """(seconds, exit code, stdout, exception name) for one CLI call."""
    buf = io.StringIO()
    crash = None
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(list(verdict.argv))
    except SystemExit as e:
        code = e.code if isinstance(e.code, int) else 2
    except Exception as e:  # an uncaught exception ends the real CLI with exit 1
        code, crash = 1, type(e).__name__
    return perf_counter() - t0, code, buf.getvalue(), crash


def judge(verdict, code, out, crash):
    """(matches the reference, reason) for one verdict's output."""
    if crash:
        return False, "raised %s" % crash
    expected = workloads.EXIT[verdict.expect]
    if code != expected:
        return False, "exit %s, expected %d (%s)" % (code, expected, verdict.expect)
    try:
        report = json.loads(out[out.index("\n{") + 1:])
    except ValueError:
        return False, "no JSON report on stdout"
    if report.get("decision") != verdict.expect:
        return False, "decision %r, expected %r" % (report.get("decision"), verdict.expect)
    if verdict.check is not None:
        try:
            if not verdict.check(report):
                return False, "reference check failed"
        except (KeyError, TypeError, ValueError) as e:
            return False, "reference check could not read the report: %r" % (e,)
    return True, ""


class Runner:
    def __init__(self, cli, verdicts):
        self.cli = cli
        self.verdicts = verdicts
        self.judged = {}  # (verdict id, exit code, stdout, crash) -> (ok, why)
        self.records = []  # (verdict index, seconds, ok, why, scaled seconds)
        self.calibrator = calib.Calibrator()

    def run_passes(self, passes, tracer=None):
        """Run whole passes; return the summed verdict seconds of each."""
        pass_seconds = []
        for _ in range(passes):
            total = 0.0
            for index, verdict in enumerate(self.verdicts):
                gc.collect()
                if tracer is not None:
                    tracer.verdict = index
                wall, code, out, crash = run_verdict(self.cli, verdict)
                position = self.calibrator.after(wall)
                key = (verdict.id, code, out, crash)
                if key not in self.judged:
                    self.judged[key] = judge(verdict, code, out, crash)
                ok, why = self.judged[key]
                self.records.append([index, wall, ok, why, position])
                total += wall
            pass_seconds.append(total)
        return pass_seconds

    def scaled(self, records):
        """Records with the position replaced by calibrated seconds.

        The kernel timings after a verdict are taken later, so scaling waits
        until the passes are done.
        """
        return [(i, w, ok, why, w * self.calibrator.scale(pos)) for i, w, ok, why, pos in records]


def timing(walls):
    walls = sorted(walls)
    n = len(walls)
    # the highest percentile with at least ten verdicts beyond it, or the
    # maximum when there are too few verdicts for one
    tail_rank = n - 11 if n >= 11 else n - 1
    return {
        "verdicts_per_s": n / sum(walls),
        "verdict_p50_s": statistics.median(walls),
        "verdict_tail_s": walls[tail_rank],
    }, 100.0 * (tail_rank + 1) / n


def end_to_end(records, rounds):
    """Medians over rounds of the metrics of calibrated seconds.

    The same statistics of the raw seconds go into the stats.
    """
    n = len(records)
    size = n // rounds
    chunks = [records[k * size:(k + 1) * size] for k in range(rounds)]
    failed = sum(1 for r in records if not r[2])

    def median_over_rounds(column):
        per_round = [timing([r[column] for r in chunk])[0] for chunk in chunks]
        return {key: statistics.median(m[key] for m in per_round) for key in per_round[0]}

    metrics = median_over_rounds(4)
    metrics["correct_share"] = (n - failed) / n
    return metrics, {
        "verdicts": n,
        "failed": failed,
        "failed_share": failed / n,
        "rounds": rounds,
        "tail_percentile": timing([r[4] for r in chunks[0]])[1],
        "tail_samples_per_round": size,
        "raw": median_over_rounds(1),
    }


def failures(records, verdicts):
    seen = {}
    for index, _, ok, why, _ in records:
        if not ok:
            v = verdicts[index]
            entry = seen.setdefault(v.id, {"id": v.id, "why": why, "known_wrong": v.known_wrong,
                                           "count": 0})
            entry["count"] += 1
    return list(seen.values())


def layer_metrics(tracer, passes, overhead_s, untraced_s):
    layers = tracer.layers()
    counters = tracer.counters
    values = {}
    for name, unit, _ in per_layer_names():
        layer, stat = name.rsplit(".", 1)
        calls = layers.get(layer, {}).get("calls", 0)
        if stat == "calls":
            value = calls / passes
        elif stat == "self_s":
            value = layers.get(layer, {}).get("self_s", 0.0) / passes
        elif stat == "cells":
            value = counters.get(name, 0) / passes
        elif stat == "nnz_share":
            cells = counters.get(layer + ".cells", 0)
            value = counters.get(layer + ".nnz", 0) / cells if cells else 0.0
        elif stat == "overhead_s":
            value = overhead_s / passes
        elif stat == "overhead_share":
            value = overhead_s / untraced_s
        else:
            value = counters.get("%s.%s" % (layer, RATIOS[stat]), 0) / calls if calls else 0.0
        values[name] = {"value": value, "unit": unit}
    return values


def sweep(records, verdicts, tracer=None):
    """Median seconds per verdict, tagged with its sizes: the scaling record."""
    by_index = {}
    for index, wall, _, _, scaled in records:
        by_index.setdefault(index, []).append((scaled, wall))
    rows = []
    for index, walls in sorted(by_index.items()):
        v = verdicts[index]
        row = {"id": v.id, "kind": v.kind, "sizes": v.sizes, "expect": v.expect,
               "median_s": statistics.median(w[0] for w in walls),
               "raw_median_s": statistics.median(w[1] for w in walls), "runs": len(walls)}
        if tracer is not None and index in tracer.verdict_systems:
            row["largest_system"] = dict(zip(("rows", "cols", "nnz"), tracer.verdict_systems[index]))
        rows.append(row)
    return rows


def traced_run(args, runner, verdicts, passes, result):
    """Untraced passes, then the same passes traced; per-layer metrics."""
    untraced = runner.run_passes(passes)
    untraced_records = len(runner.records)
    tracer = tracing.Tracer()
    tracing.install(tracer)
    gc.collect()
    traced = runner.run_passes(passes, tracer=tracer)
    records = runner.scaled(runner.records)
    # calibrated seconds, so that machine drift between the halves does not
    # count as overhead
    untraced_s = sum(r[4] for r in records[:untraced_records])
    overhead = sum(r[4] for r in records[untraced_records:]) - untraced_s
    metrics = layer_metrics(tracer, passes, overhead, untraced_s)
    top = sorted(tracer.layers().items(), key=lambda kv: -kv[1]["self_s"])[:10]
    result["top_self_s"] = [
        {"layer": name, "self_s": v["self_s"] / passes, "share_of_wall": v["self_s"] / sum(traced)}
        for name, v in top]
    result["tracing_overhead_s"] = overhead / passes
    result["sweep"] = sweep(records[:untraced_records], verdicts, tracer)
    trace_path = os.path.join(OUT, "trace-%s-seed%d.json.gz" % (args.workload, args.seed))
    with gzip.open(trace_path, "wt") as handle:
        json.dump({
            "workload": args.workload,
            "seed": args.seed,
            "verdicts": [{"index": i, "id": v.id, "kind": v.kind, "sizes": v.sizes}
                         for i, v in enumerate(verdicts)],
            "sweep": result["sweep"],
            "layers": tracer.layers(),
            "counters": tracer.counters,
            "systems": [{"function": f, "caller": c, "calls": e[0], "max_rows": e[1],
                         "max_cols": e[2], "cells": e[3], "nnz": e[4]}
                        for (f, c), e in sorted(tracer.systems.items())],
            "spans": tracer.spans(),
        }, handle)
    result["trace_file"] = os.path.relpath(trace_path, ROOT)
    return untraced + traced, metrics, end_to_end(records, 1)[1]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--passes", type=int, default=None,
                        help="run this many passes instead of the number --seconds implies")
    parser.add_argument("--smallest", action="store_true",
                        help="only the smallest size of every verdict kind")
    args = parser.parse_args(argv)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    from logfol import cli

    if not os.path.abspath(cli.__file__).startswith(os.path.join(ROOT, "src") + os.sep):
        raise SystemExit("logfol was not imported from %s" % os.path.join(ROOT, "src"))

    scene_dir = os.path.join(OUT, "scenes-%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    os.makedirs(scene_dir)
    try:
        verdicts = workloads.build(args.workload, args.seed, scene_dir,
                                   os.path.join(ROOT, "scenes"), smallest=args.smallest)
        gc.collect()
        gc.freeze()
        runner = Runner(cli, verdicts)
        result = {}
        # the traced run splits its time between an untraced and a traced half
        budget = args.seconds / (1 + args.trace)
        nominal_s, per_round = PLAN[args.workload]
        rounds = 1 if args.passes else max(1, round(budget / (nominal_s * per_round)))
        passes = args.passes or rounds * per_round
        if args.trace == 0:
            pass_s = runner.run_passes(passes)
            records = runner.scaled(runner.records)
            metrics, stats = end_to_end(records, rounds)
            result["sweep"] = sweep(records, verdicts)
        else:
            pass_s, metrics, stats = traced_run(args, runner, verdicts, passes, result)
        result.update({
            "correct": all(r[2] or verdicts[r[0]].known_wrong for r in runner.records),
            "calibration_kernel_s": {
                "median": statistics.median(runner.calibrator.samples),
                "samples": len(runner.calibrator.samples),
                "reference": calib.REFERENCE_S,
            },
            "attempted": stats["verdicts"],
            "failed": stats["failed"],
            "metrics": metrics,
            "stats": stats,
            "passes": len(pass_s),
            "pass_s_median": statistics.median(pass_s),
            "pass_s_range": [min(pass_s), max(pass_s)],
            "verdicts_per_pass": len(verdicts),
            "failures": failures(runner.records, verdicts),
        })
    finally:
        shutil.rmtree(scene_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
