"""Layer tracing from outside the package.

install() replaces the public functions of every logfol module, plus the
named methods below, with wrappers that record one span per call: name,
start, end, parent span and verdict id.  Every alias is patched, so a name
imported with "from .scene import load_scene" is traced too.  Spans stay in
memory in flat arrays until the run writes them out.

Self time is a span's duration minus the time its child spans cover.  The
probes add the counts the per-layer ratios need; their own cost is kept out
of every span's self time.
"""

from __future__ import annotations

import functools
import inspect
import sys
from array import array
from time import perf_counter

# Elementwise helpers called per matrix entry or per jet term; tracing them
# would make the wrappers the largest cost of the traced pass.
SKIP = {
    "linalg.frac", "linalg.zeros", "linalg.identity", "linalg.vec_add", "linalg.vec_sub",
    "linalg.vec_scale", "linalg.is_zero_vec", "linalg.is_zero_mat",
    "semistability.t1_monomial_alive",
}

# Linear-algebra entry points whose input system shape is recorded.
SYSTEMS = ("linalg.rref", "linalg.solve", "linalg.rank", "linalg.nullspace",
           "linalg.nonneg_rational_solution", "linalg.inverse")


def _shape(a):
    rows = len(a)
    cols = len(a[0]) if rows else 0
    nnz = sum(1 for row in a for x in row if x)
    return rows, cols, nnz


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.calls = []
        self.self_s = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_verdict = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = []  # frames [span index, name id, child seconds]
        self.counters = {}
        self.systems = {}  # (linalg function, calling layer) -> [calls, max rows, max cols, cells, nnz]
        self.verdict_systems = {}  # verdict id -> largest (rows, cols, nnz)
        self.verdict = -1

    def _intern(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
        return self._ids[name]

    def count(self, key, amount=1):
        self.counters[key] = self.counters.get(key, 0) + amount

    def caller(self):
        """Name of the nearest open span outside linalg."""
        for frame in reversed(self.stack):
            name = self.names[frame[1]]
            if not name.startswith("linalg."):
                return name
        return "-"

    def wrap(self, name, fn):
        nid = self._intern(name)
        probe = PROBES.get(name)
        stack = self.stack
        starts, ends = self.span_start, self.span_end
        calls, self_s = self.calls, self.self_s

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            idx = len(starts)
            self.span_name.append(nid)
            self.span_parent.append(parent[0] if parent else -1)
            self.span_verdict.append(self.verdict)
            frame = [idx, nid, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            starts.append(t0)
            ends.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                ends[idx] = t1
                self_s[nid] += t1 - t0 - frame[2]
                calls[nid] += 1
                if parent is not None:
                    parent[2] += t1 - t0
            if probe is not None:
                tp = perf_counter()
                probe(self, name, args, result, parent)
                if parent is not None:
                    parent[2] += perf_counter() - tp
            return result

        return traced

    def record_system(self, name, a, parent):
        if parent is not None and self.names[parent[1]].startswith("linalg."):
            return None  # counted once, where the system enters linalg
        rows, cols, nnz = _shape(a)
        entry = self.systems.setdefault((name, self.caller()), [0, 0, 0, 0, 0])
        entry[0] += 1
        entry[1] = max(entry[1], rows)
        entry[2] = max(entry[2], cols)
        entry[3] += rows * cols
        entry[4] += nnz
        best = self.verdict_systems.get(self.verdict)
        if best is None or rows * cols > best[0] * best[1]:
            self.verdict_systems[self.verdict] = (rows, cols, nnz)
        return rows, cols, nnz

    def spans(self):
        """Columns of every span recorded, for writing out."""
        return {
            "names": self.names,
            "name": self.span_name.tolist(),
            "parent": self.span_parent.tolist(),
            "verdict": self.span_verdict.tolist(),
            "start": self.span_start.tolist(),
            "end": self.span_end.tolist(),
        }

    def layers(self):
        return {name: {"calls": self.calls[i], "self_s": self.self_s[i]}
                for i, name in enumerate(self.names) if self.calls[i]}


# --- probes: counts measured where the work happens ---


def _system_probe(tracer, name, args, result, parent):
    shape = tracer.record_system(name, args[0], parent)
    if name == "linalg.rref":
        rows, cols, nnz = shape or _shape(args[0])
        tracer.count("linalg.rref.cells", rows * cols)
        tracer.count("linalg.rref.nnz", nnz)
    if name == "linalg.solve" and result is None:
        tracer.count("linalg.solve.inconsistent")
    if name == "linalg.nonneg_rational_solution" and result is not None:
        tracer.count("linalg.nonneg_rational_solution.feasible")
    if name == "linalg.solve" and parent is not None:
        if tracer.names[parent[1]] == "semistability.find_flat_unit":
            tracer.count("semistability.find_flat_unit.solves")
    if name == "linalg.rank" and parent is not None:
        if tracer.names[parent[1]] == "bundles.h_p1":
            tracer.count("bundles.h_p1.rank_calls")


def _hit_probe(tracer, name, args, result, parent):
    if result is not None and result is not False:
        tracer.count(name + ".hits")


def _matrix_out_probe(tracer, name, args, result, parent):
    rows, cols, nnz = _shape(result)
    tracer.count(name + ".cells", rows * cols)
    tracer.count(name + ".nnz", nnz)


PROBES = {name: _system_probe for name in SYSTEMS}
PROBES.update({
    "linalg.in_row_span_q": _hit_probe,
    "foliations.span_membership": _hit_probe,
    "monoids.contains": _hit_probe,
    "monoids.in_cone": _hit_probe,
    "leafcomplex.total_matrix": _matrix_out_probe,
})

# Methods traced by name: (module, class, attribute, span name).
METHODS = [
    ("jets", "Jet", "__mul__", "jets.Jet.mul"),
    ("jets", "Jet", "make", "jets.Jet.make"),
    ("logcalc", "LogDerivation", "apply", "logcalc.LogDerivation.apply"),
    ("leafcomplex", "CechLeafData", "__init__", "leafcomplex.CechLeafData.init"),
    ("leafcomplex", "CechLeafData", "total_matrix", "leafcomplex.total_matrix"),
    ("leafcomplex", "CechLeafData", "cech_matrix", "leafcomplex.cech_matrix"),
    ("leafcomplex", "CechLeafData", "ce_matrix", "leafcomplex.ce_matrix"),
]


def install(tracer):
    """Wrap logfol's public functions and the methods above, every alias."""
    modules = [m for name, m in sorted(sys.modules.items())
               if name == "logfol" or name.startswith("logfol.")]
    wrapped = {}
    for mod in modules:
        short = mod.__name__.rsplit(".", 1)[-1]
        for attr, obj in vars(mod).items():
            name = "%s.%s" % (short, attr)
            if (attr.startswith("_") or not inspect.isfunction(obj)
                    or obj.__module__ != mod.__name__ or name in SKIP):
                continue
            wrapped[obj] = tracer.wrap(name, obj)
    for mod in modules:
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                setattr(mod, attr, wrapped[obj])

    package = sys.modules["logfol"]
    targets = [(getattr(getattr(package, m), c), a, n) for m, c, a, n in METHODS]
    scene_cls = package.scene.Scene
    targets += [(scene_cls, a, "scene.accessors") for a, obj in vars(scene_cls).items()
                if not a.startswith("_") and inspect.isfunction(obj)]
    for cls, attr, name in targets:
        raw = vars(cls)[attr]
        fn = raw.__func__ if isinstance(raw, classmethod) else raw
        traced = tracer.wrap(name, fn)
        for alias, obj in list(vars(cls).items()):
            if obj is raw:
                setattr(cls, alias, classmethod(traced) if isinstance(raw, classmethod) else traced)
