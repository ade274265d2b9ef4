"""Spans around the public functions of each tatemirror module.

``install`` wraps every public function of each layer module, plus the
series arithmetic ``QSeries.__mul__`` and ``QSeries.__add__``, and rebinds
every name that refers to one of them in any tatemirror namespace, so that
names imported into another module (``fukaya`` takes ``j_range`` from
``theta`` and ``nullspace`` from ``_linalg``) are counted too.

Each wrapped call records a span: name, start, end, parent span and op id.
Spans stay in memory in flat arrays and are written out when the run ends.
Self time is a span's duration minus the durations of its child spans; the
program has one thread, so child spans never overlap.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import sys
from array import array
from collections import Counter
from time import perf_counter

LAYERS = ("theta", "lattice", "fukaya", "exactnum", "weierstrass", "_linalg",
          "hochschild", "cli")


def _layer(module_name: str) -> str:
    """Metric prefix of a module: names may not start with an underscore."""
    return module_name.lstrip("_")


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.stack = [(-1, None, ())]  # (span index, name, args) of open spans
        self.op = -1
        self.errors = Counter()
        self.counts = Counter()
        self._seen = {}

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name: str, args=()) -> int:
        idx = len(self.span_name)
        self.span_name.append(self._name_id(name))
        self.span_parent.append(self.stack[-1][0])
        self.span_op.append(self.op)
        self.span_end.append(0.0)
        self.stack.append((idx, name, args))
        self.span_start.append(perf_counter())
        return idx

    def close(self, idx: int):
        self.span_end[idx] = perf_counter()
        self.stack.pop()

    def wrap(self, func, name, layer: str, observe=None):
        """A traced stand-in for func; ``name`` may depend on the arguments."""
        def traced(*args, **kwargs):
            span_name = name(args, kwargs) if callable(name) else name
            idx = self.open(span_name, args)
            try:
                result = func(*args, **kwargs)
            except Exception:
                self.errors[layer] += 1
                raise
            finally:
                self.close(idx)
            if observe is not None:
                observe(self, args, kwargs, result)
            return result
        traced.__wrapped__ = func
        return traced

    def note_repeat(self, name: str, args, kwargs):
        """Count a call whose arguments already appeared in this run."""
        key = (args, tuple(sorted(kwargs.items())))
        seen = self._seen.setdefault(name, set())
        if key in seen:
            self.counts[f"{name}.repeats"] += 1
        else:
            seen.add(key)

    def parent_name(self) -> str | None:
        """Name of the innermost open span (the caller, inside an observer)."""
        return self.stack[-1][1]

    def write(self, path: str):
        """Write every span as one tab-separated line, gzip-compressed."""
        with gzip.open(path, "wt") as fh:
            fh.write("span\tname\tstart_s\tend_s\tparent\top\n")
            for i in range(len(self.span_name)):
                fh.write(f"{i}\t{self.names[self.span_name[i]]}\t{self.span_start[i]!r}\t"
                         f"{self.span_end[i]!r}\t{self.span_parent[i]}\t{self.span_op[i]}\n")

    def span_totals(self):
        """Per span name: (calls, busy seconds, self seconds)."""
        n = len(self.span_name)
        dur = [self.span_end[i] - self.span_start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += dur[i]
        calls, busy, self_s = Counter(), Counter(), Counter()
        for i in range(n):
            name = self.names[self.span_name[i]]
            calls[name] += 1
            busy[name] += dur[i]
            self_s[name] += dur[i] - child[i]
        return calls, busy, self_s


# -- observers: counts taken where the work happens ---------------------------

def _observe_lambda_exp(tr, args, kwargs, result):
    tr.note_repeat("theta.lambda_exp", args, kwargs)
    if tr.parent_name() == "theta.theta_mul":
        tr.counts["theta.shifts"] += 1
        order = tr.stack[-1][2][0].order
        if result < order:
            tr.counts["theta.shifts_hit"] += 1


def _observe_count_perturbed(tr, args, kwargs, result):
    tr.note_repeat("lattice.count_perturbed", args, kwargs)
    if tr.parent_name() == "fukaya.enumerate_triangles":
        tr.counts["fukaya.shifts"] += 1


def _observe_enumerate_triangles(tr, args, kwargs, result):
    tr.note_repeat("fukaya.enumerate_triangles", args, kwargs)
    tr.counts["fukaya.triangles_kept"] += len(result)


def _observe_qseries_mul(tr, args, kwargs, result):
    this, other = args
    if isinstance(other, type(this)):
        tr.counts["exactnum.QSeries.mul.coeff_mults"] += this.order * (this.order + 1) // 2


def _rref_name(args, kwargs):
    ring = args[1] if len(args) > 1 else kwargs["ring"]
    return "linalg.rref.gf" if ring.kind == "GF" else "linalg.rref.qq"


def _observe_rref(tr, args, kwargs, result):
    rows = args[0] if args else kwargs["rows"]
    name = _rref_name(args, kwargs)
    tr.counts[f"{name}.cells"] += len(rows) * len(rows[0]) if rows else 0
    tr.counts["linalg.rref.rows"] += len(rows)
    tr.counts["linalg.rref.pivots"] += len(result[1])


def _observe_suite(tr, args, kwargs, result):
    tr.counts["cli.checks"] += len(result.checks)
    tr.counts["cli.checks_failed"] += sum(c.status != "pass" for c in result.checks)


OBSERVERS = {
    "theta.lambda_exp": _observe_lambda_exp,
    "lattice.count_perturbed": _observe_count_perturbed,
    "fukaya.enumerate_triangles": _observe_enumerate_triangles,
    "linalg.rref": _observe_rref,
}


def install(tracer: Tracer):
    """Wrap the layers' public functions and rebind every reference to them.

    Returns a function that restores the original bindings.
    """
    modules = {short: importlib.import_module(f"tatemirror.{short}") for short in LAYERS}
    wrappers = {}  # id(original) -> (original, wrapper)
    for short, mod in modules.items():
        layer = _layer(short)
        for attr, obj in vars(mod).items():
            if (attr.startswith("_") or not inspect.isfunction(obj)
                    or obj.__module__ != mod.__name__):
                continue
            name = f"{layer}.{attr}"
            observe = OBSERVERS.get(name)
            if layer == "cli" and attr.endswith("_suite"):
                observe = _observe_suite
            span = _rref_name if name == "linalg.rref" else name
            wrappers[id(obj)] = (obj, tracer.wrap(obj, span, layer, observe))
    qseries = modules["exactnum"].QSeries
    for op, observe in (("mul", _observe_qseries_mul), ("add", None)):
        func = vars(qseries)[f"__{op}__"]
        wrappers[id(func)] = (func, tracer.wrap(func, f"exactnum.QSeries.{op}",
                                                "exactnum", observe))

    package = [m for name, m in sys.modules.items()
               if name == "tatemirror" or name.startswith("tatemirror.")]
    rebound = [(m, attr, obj) for m in package for attr, obj in vars(m).items()
               if id(obj) in wrappers and wrappers[id(obj)][0] is obj]
    rebound += [(qseries, attr, vars(qseries)[attr])
                for attr in ("__mul__", "__rmul__", "__add__", "__radd__")]
    for where, attr, obj in rebound:
        setattr(where, attr, wrappers[id(obj)][1])

    def restore():
        for where, attr, obj in rebound:
            setattr(where, attr, obj)
    return restore


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict:
    """Every per-layer metric the traced run can report, by name."""
    calls, busy, self_s = tracer.span_totals()
    counts = tracer.counts
    out = {}
    for name in calls:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.busy_s"] = busy[name]
        out[f"{name}.self_s"] = self_s[name]
    for name in ("theta.lambda_exp", "lattice.count_perturbed",
                 "fukaya.enumerate_triangles"):
        out[f"{name}.repeat_ratio"] = _ratio(counts[f"{name}.repeats"], calls[name])
    out["theta.j_hit_ratio"] = _ratio(counts["theta.shifts_hit"], counts["theta.shifts"])
    out["fukaya.triangles_kept"] = counts["fukaya.triangles_kept"]
    out["fukaya.j_hit_ratio"] = _ratio(counts["fukaya.triangles_kept"],
                                       counts["fukaya.shifts"])
    out["exactnum.QSeries.mul.coeff_mults"] = counts["exactnum.QSeries.mul.coeff_mults"]
    for field in ("qq", "gf"):
        out[f"linalg.rref.{field}.cells"] = counts[f"linalg.rref.{field}.cells"]
    out["linalg.rref.pivot_ratio"] = _ratio(counts["linalg.rref.pivots"],
                                            counts["linalg.rref.rows"])
    out["cli.checks"] = counts["cli.checks"]
    out["cli.checks_failed"] = counts["cli.checks_failed"]
    for short in LAYERS:
        out[f"{_layer(short)}.errors"] = tracer.errors[_layer(short)]
    return out
