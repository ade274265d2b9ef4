"""One pass of a workload in a fresh interpreter; prints one JSON line.

    python3 perfbench/worker.py --workload grid --seed 1 [--spans PATH]

``run.py`` starts this once per pass, so in-process caches start cold, as
they do for a user of the CLI.  ``setup`` covers importing tatemirror and
generating the inputs; the ops compute and verify the workload.  Each time
is reported twice: as measured, less the speed probe's own time (``raw``),
and corrected for the host's speed (see ``speed.py``); ``edge_speeds`` is
the probe's speed over the first and the last ``speed.EDGE_WINDOW_S`` of the
ops.  With ``--spans`` the pass is traced instead: there is no speed probe,
spans are kept in memory and written to PATH when the pass ends, and the
per-layer metrics are added to the output.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import sys
import time

import speed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spans", help="trace the pass and write its spans here")
    args = parser.parse_args(argv)

    probe = speed.SpeedProbe()
    tracer = None
    intervals = []  # (key, start, end, error); the setup has key None
    with contextlib.nullcontext() if args.spans else probe:
        start = time.perf_counter()
        import workloads
        ops = workloads.make_ops(args.workload, args.seed)
        intervals.append((None, start, time.perf_counter(), None))

        if args.spans:
            import tracer as tracing
            tracer = tracing.Tracer()
            tracing.install(tracer)

        work = dict.fromkeys(workloads.EXPECTED_WORK[args.workload], 0)
        cpu0 = time.process_time()
        loop_start = time.perf_counter()
        for key, op_args in ops:
            span = None
            if tracer is not None:
                tracer.op = key
                span = tracer.open("bench.op")
            start = time.perf_counter()
            error = None
            try:
                done = workloads.run_op(args.workload, op_args)
            except Exception as e:  # a failed op is recorded, not fatal
                error = f"{type(e).__name__}: {e}"
            else:
                for name, n in done.items():
                    work[name] += n
            intervals.append((key, start, time.perf_counter(), error))
            if span is not None:
                tracer.close(span)
        loop_end = time.perf_counter()
        cpu_s = time.process_time() - cpu0

    probe_s = probe.own_time(loop_start, loop_end)
    if args.spans:
        times = [(end - start, end - start) for _, start, end, _ in intervals]
    else:
        times = [(probe.corrected(start, end), end - start - probe.own_time(start, end))
                 for _, start, end, _ in intervals]
    (setup_s, setup_raw_s), op_times = times[0], times[1:]
    usage = [resource.getrusage(who).ru_maxrss
             for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)]
    out = {
        "setup_s": setup_s,
        "setup_raw_s": setup_raw_s,
        "wall_s": sum(t for t, _ in op_times),
        "wall_raw_s": loop_end - loop_start - probe_s,
        "cpu_s": cpu_s - probe_s,
        # a pass that starts processes also counts their peak
        "peak_rss_mib": max(usage) / 1024,
        "ops": [[key, t, error] for (key, _, _, error), (t, _) in zip(intervals[1:], op_times)],
        "work": work,
        "expected_work": workloads.EXPECTED_WORK[args.workload],
    }
    if tracer is None:
        out["edge_speeds"] = [probe.mean_speed(loop_start, loop_start + speed.EDGE_WINDOW_S),
                              probe.mean_speed(loop_end - speed.EDGE_WINDOW_S, loop_end)]
    else:
        tracer.write(args.spans)
        out["layers"] = tracing.layer_metrics(tracer)
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
