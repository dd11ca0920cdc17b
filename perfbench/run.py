#!/usr/bin/env python3
"""logfol benchmark: one workload, one seed, one JSON line of results.

    python3 perfbench/run.py --workload jet_solve --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selfcheck

Run from anywhere inside a checkout; the package is imported from the
checkout's src/.  With --trace 0 the last line carries the end-to-end
metrics, with --trace 1 the per-layer metrics.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading

import calib

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("jet_solve", "cover_cohomology", "monoid_search", "scene_suite")
SETUP_CHILDREN = 11
WORKER_LIMIT_S = 170

SETUP_CODE = """
import time
t0 = time.perf_counter()
import logfol.cli
t1 = time.perf_counter()
import os
print(repr(t1 - t0), os.path.abspath(logfol.cli.__file__))
"""


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def measure_setup():
    """Median seconds a fresh interpreter spends importing logfol.cli.

    One child at a time; the first, untimed, compiles the bytecode cache.
    Each import time is scaled by the calibration kernel timed around it.
    Returns (median scaled seconds, median raw seconds).
    """
    calibrator = calib.Calibrator()
    samples = []
    for i in range(SETUP_CHILDREN + 1):
        out = subprocess.run([sys.executable, "-c", SETUP_CODE], env=child_env(), cwd=ROOT,
                             capture_output=True, text=True, check=True, timeout=60).stdout
        seconds, path = out.split()
        if not path.startswith(SRC + os.sep):
            raise RuntimeError("logfol.cli imported from %s, not from %s" % (path, SRC))
        calibrator.samples.append(calib.kernel_seconds())
        if i:
            samples.append((float(seconds), len(calibrator.samples) - 1))
    scaled = [s * calibrator.scale(pos) for s, pos in samples]
    return statistics.median(scaled), statistics.median(s for s, _ in samples)


def run_worker(argv):
    """(parsed last stdout line, peak resident MiB) of one worker process."""
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py")] + argv,
                            cwd=ROOT, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(WORKER_LIMIT_S, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
        proc.stdout.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise RuntimeError("worker %s exited with %d" % (" ".join(argv), proc.returncode))
    return json.loads(out.strip().splitlines()[-1]), usage.ru_maxrss / 1024.0


def fingerprint(seed):
    sha = None
    # only the checkout's own repository: git would otherwise search the
    # directories above it
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or None
        except OSError:
            pass
    digest = hashlib.sha256()
    lines = 0
    pkg = os.path.join(SRC, "logfol")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as handle:
                data = handle.read()
            digest.update(name.encode() + b"\0" + data)
            lines += data.count(b"\n")
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
        "seed": seed,
    }


def benchmark(args):
    worker_argv = ["--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
    detail = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
              "fingerprint": fingerprint(args.seed)}
    if args.trace == 0:
        setup_s, detail["setup_raw_s"] = measure_setup()
    result, peak_mib = run_worker(worker_argv)
    metrics = result.pop("metrics")
    if args.trace == 0:
        metrics = {
            "verdicts_per_s": {"value": metrics["verdicts_per_s"], "unit": "1/s"},
            "verdict_p50_s": {"value": metrics["verdict_p50_s"], "unit": "s"},
            "verdict_tail_s": {"value": metrics["verdict_tail_s"], "unit": "s"},
            "correct_share": {"value": metrics["correct_share"], "unit": "share"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_mib, "unit": "MiB"},
        }
    detail.update({k: result[k] for k in result if k not in ("correct", "attempted", "failed")})
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": bool(result["correct"]), "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


def selfcheck():
    """Every workload once at its smallest sizes, plus a BENCHMARK.json check."""
    sys.path.insert(0, HERE)
    from worker import per_layer_names

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    problems = []
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from %s" % (WORKLOADS,))
    if [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] != per_layer_names():
        problems.append("BENCHMARK.json per_layer differs from worker.PER_LAYER")
    for workload in WORKLOADS:
        result, _ = run_worker(["--workload", workload, "--seed", "0", "--passes", "1",
                                "--smallest"])
        for f in result["failures"]:
            tag = "known wrong" if f["known_wrong"] else "MISMATCH"
            print("%s: %s %s (%s)" % (workload, tag, f["id"], f["why"]))
            if not f["known_wrong"]:
                problems.append("%s: %s" % (workload, f["id"]))
        print("%s: %d verdicts, %d failed" % (workload, result["attempted"], result["failed"]))
    for p in problems:
        print("selfcheck: " + p, file=sys.stderr)
    print("selfcheck: %s" % ("FAIL" if problems else "ok"))
    return 1 if problems else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selfcheck", action="store_true",
                        help="run every workload once at its smallest sizes and check answers")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "logfol", "cli.py")):
        print("no logfol package under %s; run from a logfol checkout" % SRC, file=sys.stderr)
        return 2
    if args.selfcheck:
        return selfcheck()
    if args.workload is None or args.seconds < 1:
        parser.error("--workload and a positive --seconds are required")
    return benchmark(args)


if __name__ == "__main__":
    sys.exit(main())
