"""Tests of the benchmark itself.

    python3 -m pytest perfbench/test_perfbench.py -q

The traced runs take about two minutes on a 2-core machine.
"""

from __future__ import annotations

import importlib
import inspect
import json
import os
import re
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path[:0] = [BENCH_DIR, os.path.join(ROOT, "src")]

import run  # noqa: E402
import tracer  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)

PINNED_GRID = {
    "theta.lambda_exp.calls": 25794,
    "lattice.count_perturbed.calls": 19992,
    "lattice.row_formula_count.calls": 7435,
    "theta.theta_mul.calls": 1001,
    "fukaya.floer_product.calls": 1001,
}

# the workload on which each per-layer metric must record work; the longest
# matching prefix wins
HOME = {
    "theta": "grid",
    "lattice": "grid",
    "fukaya": "grid",
    "fukaya.enumerate_triangles.repeat_ratio": "assoc",
    "fukaya.floer_mul": "assoc",
    "fukaya.relation_kernel": "mirror",
    "exactnum": "mirror",
    "exactnum.QSeries.add": "assoc",
    "weierstrass": "mirror",
    "linalg": "hochschild",
    "hochschild": "hochschild",
    "cli": "hochschild",
    "run": "grid",
}
ZERO_AT_THIS_COMMIT = re.compile(r"\.errors$|^cli\.checks_failed$")
EXACT = re.compile(r"\.(calls|cells|coeff_mults|checks|checks_failed|errors|"
                   r"triangles_kept|\w*_ratio)$")


def _traced(workload, seed):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
         "--seed", str(seed), "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return {name: m["value"] for name, m in result["metrics"].items()}


_cache = {}


def traced(workload, seed=1):
    if (workload, seed) not in _cache:
        _cache[(workload, seed)] = _traced(workload, seed)
    return _cache[(workload, seed)]


def _exact(metrics):
    return {k: v for k, v in metrics.items()
            if EXACT.search(k) and k != "run.trace_overhead_ratio"}


def test_benchmark_json_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_every_binding_of_a_public_function_is_wrapped():
    restore = tracer.install(tracer.Tracer())
    try:
        fukaya = importlib.import_module("tatemirror.fukaya")
        theta = importlib.import_module("tatemirror.theta")
        linalg = importlib.import_module("tatemirror._linalg")
        qseries = importlib.import_module("tatemirror.exactnum").QSeries
        assert fukaya.j_range is theta.j_range
        assert fukaya.weighted_mean is theta.weighted_mean
        for name in ("nullspace", "solve_right", "transpose"):
            assert getattr(fukaya, name) is getattr(linalg, name)
        assert qseries.__rmul__ is qseries.__mul__ and qseries.__radd__ is qseries.__add__
        for short in tracer.LAYERS:
            mod = importlib.import_module(f"tatemirror.{short}")
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__.startswith("tatemirror."):
                    assert attr.startswith("_") or hasattr(obj, "__wrapped__"), \
                        f"{short}.{attr} is not traced"
    finally:
        restore()
    assert not hasattr(importlib.import_module("tatemirror.fukaya").j_range, "__wrapped__")


def test_grid_counts_are_pinned_and_do_not_depend_on_the_seed():
    first, second = traced("grid", 1), traced("grid", 2)
    for name, count in PINNED_GRID.items():
        assert first[name] == count, name
    assert _exact(first) == _exact(second)


def test_counts_repeat_exactly_at_the_same_seed():
    assert _exact(_traced("assoc", 3)) == _exact(traced("assoc", 3))


@pytest.mark.parametrize("name", [m["name"] for m in SPEC["per_layer"]])
def test_each_layer_metric_records_work_on_its_workload(name):
    home = HOME[max((p for p in HOME if name == p or name.startswith(p + ".")), key=len)]
    value = traced(home, 3 if home == "assoc" else 1)[name]
    if ZERO_AT_THIS_COMMIT.search(name):
        assert value == 0
    else:
        assert value > 0


def _passes(times_ms, error=None, work=None):
    return {"setup_s": 0.01, "setup_raw_s": 0.02, "wall_s": sum(times_ms) / 1e3,
            "wall_raw_s": 0.1, "peak_rss_mib": 10.0,
            "ops": [[i, t / 1e3, error] for i, t in enumerate(times_ms)],
            "work": work or {"pairs": 1}, "expected_work": {"pairs": 1}}


def test_times_are_medians_and_the_tail_has_ten_ops_beyond_it():
    values, notes = run.end_to_end([_passes(list(range(1, 1002)))])
    assert values["op_tail_ms"] == pytest.approx(991)
    assert values["op_p50_ms"] == pytest.approx(501)
    assert "p99.0 of 1001 distinct ops, 10 beyond it" in notes["op_tail_ms"]
    # too few ops for a percentile with ten beyond it: the slowest op
    values, _ = run.end_to_end([_passes([1, 5, 3]), _passes([2, 9, 4]), _passes([3, 7, 8])])
    assert values["op_tail_ms"] == pytest.approx(7)
    assert values["op_p50_ms"] == pytest.approx(4)
    assert values["wall_s"] == pytest.approx(0.015)


def test_probe_ratio_is_the_median_idle_over_in_pass_speed_at_the_edges():
    passes = [dict(_passes([1]), idle_speeds=idle, edge_speeds=edge)
              for idle, edge in (([0.5, 0.6], [0.5, 0.5]), ([0.4, 0.9], [0.4, 0.3]))]
    assert run.probe_ratio(passes) == pytest.approx(1.1)


def test_failed_ops_and_short_work_are_reported():
    assert run.check([_passes([1, 2])]) == (2, 0, [])
    attempted, failed, problems = run.check([_passes([1, 2], error="WrongOutput: x")])
    assert (attempted, failed, len(problems)) == (2, 2, 2)
    _, failed, problems = run.check([_passes([1], work={"pairs": 0})])
    assert failed == 0 and problems


def test_a_timed_run_reports_every_end_to_end_metric_and_the_probe_check():
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", "mirror",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 15
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert re.search(r"^  probe_ratio +\d", proc.stdout, re.M)


def test_exits_nonzero_without_a_result_when_the_sources_are_missing(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "grid", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
