"""Run-to-run spread of the end-to-end metrics; writes the baseline file.

    python3 perfbench/spread.py --out perfbench/baseline.json

Runs ``run.py`` once per seed (1 to 10), one run at a time, for each
workload.  For every end-to-end metric it reports the median of the
runs and their spread: the distance between the first and third quartiles
(``statistics.quantiles(values, n=4)``) as a share of the median, next to the
metric's bound from BENCHMARK.json, and the same for the speed probe's
``probe_ratio`` with the number of runs that would flag it against this
baseline.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SEEDS = range(1, 11)


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", help="write the medians and spreads here as JSON")
    args = parser.parse_args(argv)

    seconds = spec["run_seconds"]
    doc = {"python": platform.python_version(), "nproc": os.cpu_count(),
           "machine": platform.machine(), "run_seconds": seconds, "runs": len(SEEDS),
           "workloads": {}}
    worst = 0.0
    for workload in [w["name"] for w in spec["workloads"]]:
        runs = []
        for seed in SEEDS:
            proc = subprocess.run(
                [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                sys.stderr.write(proc.stdout + proc.stderr)
                return proc.returncode
            metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
            # the speed probe's check, printed by run.py beside the metrics
            ratio = next(line.split()[1] for line in proc.stdout.splitlines()
                         if line.startswith("  probe_ratio "))
            metrics["probe_ratio"] = {"value": float(ratio), "unit": "ratio"}
            runs.append(metrics)
        rows = {}
        for m in spec["end_to_end"] + [{"name": "probe_ratio", "unit": "ratio"}]:
            values = [r[m["name"]]["value"] for r in runs]
            q1, q2, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / q2
            rows[m["name"]] = {"unit": m["unit"], "median": q2, "spread": spread,
                               "bound": m.get("bound"), "values": values}
            bound = f"bound {m['bound']:.0%}" if "bound" in m else "no bound"
            print(f"{workload:11s} {m['name']:14s} median {q2:12.6g} {m['unit']:5s} "
                  f"spread {spread:7.2%}  {bound}", flush=True)
            if m["name"] not in ("setup_s", "probe_ratio"):
                worst = max(worst, spread / m["bound"])
        # the runs that run.py would flag against this baseline
        probe = rows["probe_ratio"]
        probe["flagged"] = sum(abs(v / probe["median"] - 1) > rows["wall_s"]["bound"]
                               for v in probe["values"])
        print(f"{workload:11s} probe_ratio flagged in {probe['flagged']} of {len(runs)} runs")
        doc["workloads"][workload] = rows
    print(f"largest spread as a share of its bound (setup_s aside): {worst:.2f}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
