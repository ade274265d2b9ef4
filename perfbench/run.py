"""Benchmark of the tatemirror exact-verification lab.

    python3 perfbench/run.py --workload grid --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Each pass of a workload runs in a fresh interpreter (``worker.py``), one
pass at a time: a single process, no threads.  With ``--trace 0`` the run
repeats passes for about ``--seconds`` seconds (at least three) and prints
the end-to-end metrics of BENCHMARK.json as medians over the passes, with
times corrected for the host's speed (``speed.py``); the speed is also
measured between passes, and a pass whose in-pass speed differs from it by
more than the ``wall_s`` bound, beyond what it differed in the baseline, is
flagged.  With
``--trace 1`` it makes one pass without tracing and one traced pass, and
prints the per-layer metrics.  Every op is verified exactly; the last line
is a JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
The exit code is 1 when an op failed or a pass did less than the full work,
and 2, with no result line, when the benchmark could not run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import speed

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")
BASELINE = os.path.join(BENCH_DIR, "baseline.json")
WORKLOADS = ("grid", "assoc", "mirror", "hochschild")
MIN_PASSES = 3
TIME_LIMIT_S = 170  # a run must end within 180 s
TAIL_BEYOND = 10  # the tail percentile has at least this many ops beyond it
TAIL_MIN_OPS = 100  # fewer distinct ops than this: the tail is the slowest op


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def _spawn(cmd, deadline):
    timeout = deadline - time.perf_counter()
    if timeout <= 0:
        raise BenchError("time limit reached")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_env(), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{cmd[1:]} exceeded the time limit") from None
    if proc.returncode != 0:
        raise BenchError(f"{cmd[1:]} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    return proc.stdout


def warm_up(deadline):
    """Import everything once so that bytecode compilation is not timed."""
    if not os.path.isdir(os.path.join(SRC, "tatemirror")):
        raise BenchError(f"no tatemirror sources under {SRC}")
    _spawn([sys.executable, "-c",
            f"import sys; sys.path.insert(0, {BENCH_DIR!r}); import workloads, tracer, speed"],
           deadline)


def run_pass(workload, seed, deadline, spans=None):
    cmd = [sys.executable, os.path.join(BENCH_DIR, "worker.py"),
           "--workload", workload, "--seed", str(seed)]
    if spans:
        cmd += ["--spans", spans]
    t0 = time.perf_counter()
    result = json.loads(_spawn(cmd, deadline).strip().splitlines()[-1])
    result["elapsed_s"] = time.perf_counter() - t0
    return result


def check(passes):
    """(attempted, failed, problems) over every pass, checking full work."""
    attempted = failed = 0
    problems = []
    for i, p in enumerate(passes):
        attempted += len(p["ops"])
        for key, _, error in p["ops"]:
            if error is not None:
                failed += 1
                problems.append(f"pass {i} op {key}: {error}")
        if p["work"] != p["expected_work"]:
            problems.append(f"pass {i} did {p['work']}, expected {p['expected_work']}")
    return attempted, failed, problems


def end_to_end(passes):
    """End-to-end metrics as medians over passes, with notes for the report.

    Times are corrected for the host's speed (``speed.py``); the medians of
    the raw times go in the notes.
    """
    per_op = {}
    for p in passes:
        for key, seconds, _ in p["ops"]:
            per_op.setdefault(key, []).append(seconds)
    op_times = sorted(statistics.median(v) for v in per_op.values())
    n = len(op_times)
    tail = n - 1 - TAIL_BEYOND if n >= TAIL_MIN_OPS else n - 1
    r = len(passes)

    def median(key):
        return statistics.median(p[key] for p in passes)

    values = {
        "setup_s": median("setup_s"),
        "wall_s": median("wall_s"),
        "op_p50_ms": statistics.median(op_times) * 1e3,
        "op_tail_ms": op_times[tail] * 1e3,
        "peak_rss_mib": median("peak_rss_mib"),
    }
    notes = {
        "setup_s": f"median of {r} passes; raw {median('setup_raw_s'):.4g} s",
        "wall_s": f"median of {r} passes; raw {median('wall_raw_s'):.4g} s",
        "op_p50_ms": f"median of {n} distinct ops, each the median of its {r} passes",
        "op_tail_ms": f"p{100 * (tail + 1) / n:.1f} of {n} distinct ops, "
                      f"{n - 1 - tail} beyond it",
        "peak_rss_mib": f"median of {r} passes, getrusage ru_maxrss",
    }
    return values, notes


def measure(workload, seed, seconds, trace, deadline):
    """Run the passes; returns (passes, metric values, notes)."""
    warm_up(deadline)
    if trace:
        os.makedirs(OUT_DIR, exist_ok=True)
        spans = os.path.join(OUT_DIR, f"spans-{workload}-seed{seed}.tsv.gz")
        plain = run_pass(workload, seed, deadline)
        traced = run_pass(workload, seed, deadline, spans)
        values = dict(traced["layers"])
        values["run.cpu_s"] = plain["cpu_s"]
        values["run.trace_overhead_ratio"] = traced["wall_raw_s"] / plain["wall_raw_s"]
        return [plain, traced], values, {"spans": spans}
    start = time.perf_counter()
    passes = []
    before = speed.idle_speed()
    while True:
        passes.append(run_pass(workload, seed, deadline))
        after = speed.idle_speed()
        passes[-1]["idle_speeds"] = [before, after]
        before = after
        now = time.perf_counter()
        typical = statistics.median(p["elapsed_s"] for p in passes)
        if now + typical > deadline or (
                len(passes) >= MIN_PASSES and now - start + typical > seconds):
            break
    values, notes = end_to_end(passes)
    return passes, values, notes


def probe_ratio(passes):
    """Idle over in-pass speed: above 1 when the probe ran slow in the passes.

    The idle speed is measured in this process just before and just after
    each pass, when no pass runs, and compared with the in-pass speed over
    the first and the last ``speed.EDGE_WINDOW_S`` of the pass; the result
    is the median of those ratios.  Comparing the edges, not the whole pass,
    keeps the host's drift during a pass out of the ratio.
    """
    return statistics.median(idle / edge for p in passes
                             for idle, edge in zip(p["idle_speeds"], p["edge_speeds"]))


def baseline_probe_ratio(workload):
    """The workload's median probe ratio in ``baseline.json``, else 1."""
    try:
        with open(BASELINE) as fh:
            return json.load(fh)["workloads"][workload]["probe_ratio"]["median"]
    except (OSError, ValueError, KeyError):
        return 1.0


def run_workload(spec, workload, seed, seconds, trace) -> int:
    deadline = time.perf_counter() + TIME_LIMIT_S
    passes, values, notes = measure(workload, seed, seconds, trace, deadline)
    attempted, failed, problems = check(passes)
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
               for m in declared}

    print(f"tatemirror benchmark: workload {workload}, seed {seed}, "
          f"{'traced' if trace else len(passes)} passes, Python {sys.version.split()[0]}, "
          f"nproc {os.cpu_count()}")
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']!r:>24} {m['unit']:6s} {notes.get(name, '')}")
    print(f"  {'fail_ratio':40s} {failed / attempted!r:>24} {'':6s} "
          f"{failed} failed of {attempted} attempted")
    if trace:
        print(f"  spans written to {os.path.relpath(notes['spans'], ROOT)}")
    else:
        ratio, expected = probe_ratio(passes), baseline_probe_ratio(workload)
        bound = next(m["bound"] for m in spec["end_to_end"] if m["name"] == "wall_s")
        print(f"  {'probe_ratio':40s} {ratio!r:>24} {'':6s} idle over in-pass speed; "
              f"baseline {expected:.4g}")
        if abs(ratio / expected - 1) > bound:
            print(f"  WARNING: probe_ratio {ratio:.4g} is off its baseline {expected:.4g} "
                  f"by more than the wall_s bound: the passes may slow or speed up the "
                  f"probe itself, and their corrected times be off", file=sys.stderr)
    for line in problems[:20]:
        print(f"  FAILED {line}", file=sys.stderr)
    correct = not problems
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    sys.stdout.flush()
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        return max(run_workload(spec, w, args.seed, args.seconds, args.trace)
                   for w in names)
    except (BenchError, OSError, ValueError) as e:
        print(f"benchmark could not run: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
