"""Benchmark of the linecoh pipeline on one seeded workload.

    python3 bench/run.py --workload b3-scan --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the library is imported from its
``src`` directory.  The run sets the workload up three times (the median
set-up time is reported), then repeats the workload's op schedule for
``--seconds`` seconds and checks every answer.  Every reported time is
scaled to a nominal host speed by ``hostclock`` (the unscaled figures are
printed too).  With ``--trace 0`` it reports
the end-to-end metrics of BENCHMARK.json; with ``--trace 1`` it alternates
untraced and traced passes over the whole schedule, reports the per-layer
metrics per traced pass, and writes the spans to
``.bench_work/trace-<workload>-<seed>.json``.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

from hostclock import NOMINAL, HostClock

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"
SETUPS = 3


def import_library():
    """Import linecoh from this checkout's src, and from nowhere else."""
    src = ROOT / "src"
    if not (src / "linecoh" / "__init__.py").is_file():
        sys.exit(f"error: no linecoh sources under {src}")
    sys.path.insert(0, str(src))
    import linecoh

    if Path(linecoh.__file__).resolve().parent != src / "linecoh":
        sys.exit(f"error: imported linecoh from {linecoh.__file__}, not {src}")


def _quantile(samples, q):
    """Inclusive linear-interpolation quantile, 0 <= q <= 1."""
    ordered = sorted(samples)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def _timed_body(workload, seconds, clock):
    """Run ops until ``seconds`` of wall time have passed; returns counts,
    the marks around every op, and the marks around the body."""
    marks = []
    attempted = failed = 0
    k = 0
    begin = clock.mark()
    while True:
        a = clock.mark()
        done, wrong = workload.run_op(k % workload.cycle_len)
        b = clock.mark()
        marks.append((a, b))
        attempted += done
        failed += wrong
        k += 1
        if b[0] - begin[0] >= seconds:
            return attempted, failed, marks, (begin, b)


def _traced_body(workload, seconds, tracer, clock):
    """Alternate an untraced and a traced pass over the whole op schedule
    until ``seconds`` of wall time have passed; returns counts, traced
    passes and the traced / untraced (scaled) time ratio."""
    attempted = failed = 0
    spent = {False: 0.0, True: 0.0}
    passes = 0
    begin = clock.mark()
    while True:
        for traced in (False, True):
            if traced:
                tracer.install()
            a = clock.mark()
            try:
                for k in range(workload.cycle_len):
                    tracer.op_id = passes * workload.cycle_len + k
                    done, wrong = workload.run_op(k)
                    attempted += done
                    failed += wrong
            finally:
                tracer.uninstall()
                spent[traced] += clock.scaled(a, clock.mark())
        passes += 1
        if time.perf_counter() - begin[0] >= seconds:
            return attempted, failed, passes, spent[True] / spent[False]


def _metric_list(key):
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)[key]


def _report(values, specs):
    metrics = {}
    for spec in specs:
        name = spec["name"]
        metrics[name] = {"value": values[name], "unit": spec["unit"]}
        print(f"{name} {values[name]:.6g} {spec['unit']}")
    return metrics


def main(argv=None):
    clock = HostClock()
    clock.start()
    start = clock.mark()
    try:
        return _run(argv, clock, start)
    finally:
        clock.stop()


def _run(argv, clock, start):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_library()
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}")
    import_s = clock.scaled(start, clock.mark())
    specs = _metric_list("per_layer" if args.trace else "end_to_end")

    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, str(workdir))
        setups = []
        for _ in range(SETUPS):
            a = clock.mark()
            workload.setup()
            setups.append(clock.scaled(a, clock.mark()))
        print(f"workload {args.workload} seed {args.seed} ops per schedule {workload.cycle_len}")

        if args.trace:
            tracer = spans.Tracer()
            attempted, failed, passes, overhead = _traced_body(
                workload, args.seconds, tracer, clock
            )
            seconds = lambda t0, t1: clock.scaled((t0, 0.0), (t1, 0.0))
            values = tracer.layer_metrics(passes, overhead, seconds)
            _, own = tracer.times(seconds)
            total = sum(own.values())
            print(f"traced passes {passes}; self-time shares of {total:.6g} s traced:")
            for span, secs in sorted(own.items(), key=lambda kv: -kv[1]):
                print(f"  {span} {secs / total:.3f}")
            under = tracer.self_seconds_under("scalars.rank", "mincomplex.", seconds)
            print(f"  (scalars.rank under mincomplex {under / total:.3f})")
            for name in tracer.missing:
                print(f"trace: missing {name}", file=sys.stderr)
            tracer.dump(WORK / f"trace-{args.workload}-{args.seed}.json")
        else:
            attempted, failed, marks, (begin, end) = _timed_body(
                workload, args.seconds, clock
            )
            latencies = [clock.scaled(a, b) for a, b in marks]
            raw = [b[0] - a[0] for a, b in marks]
            values = {
                "setup_s": import_s + statistics.median(setups),
                "ops_per_s": attempted / clock.scaled(begin, end),
                "op_p50_ms": 1e3 * _quantile(latencies, 0.50),
                "op_p95_ms": 1e3 * _quantile(latencies, 0.95),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            print(
                f"latency samples {len(latencies)}, attempted {attempted} in"
                f" {end[0] - begin[0]:.3f} s wall; unscaled ops_per_s"
                f" {attempted / (end[0] - begin[0]):.6g}, op_p50_ms"
                f" {1e3 * _quantile(raw, 0.5):.6g}, op_p95_ms {1e3 * _quantile(raw, 0.95):.6g}"
            )
        print(
            f"host reference median {1e3 * statistics.median(clock.durations):.4g} ms"
            f" over {len(clock.durations)} samples (nominal {1e3 * NOMINAL:.4g} ms)"
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"fail_ratio {failed / attempted:.6g} ratio ({failed} of {attempted})")
    metrics = _report(values, specs)
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
