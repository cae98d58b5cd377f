"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/spread.py --workload b3-scan --seeds 1-10 [--trace 1] [--json out.json]

Runs ``bench/run.py`` once per seed, one process at a time, with the
``run_seconds`` of BENCHMARK.json, and prints per metric the median, the
quartiles from ``statistics.quantiles(values, n=4)`` and the spread
(q3 - q1) / median next to the metric's bound.  ``--json`` also writes the
machine facts, the raw values and the summary.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def machine():
    """Facts about the host the figures were measured on."""
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next(
                line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")
            )
    except (OSError, StopIteration):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": model,
        "python": platform.python_version(),
        "system": f"{platform.system()} {platform.machine()}",
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", default=None)
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    report = {}
    ok = True
    for workload in args.workload:
        runs = []
        for seed in args.seeds:
            cmd = [
                sys.executable, str(ROOT / "bench" / "run.py"),
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace),
            ]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                sys.exit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            ok = ok and result["correct"]
            runs.append({"seed": seed, **result})
            print(f"{workload} seed {seed} correct={result['correct']} failed={result['failed']}", flush=True)
        summary = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            spread = (q3 - q1) / med if med else 0.0
            summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread}
            bound = bounds.get(name) if not args.trace else None
            print(
                f"  {name:26s} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g}"
                f" spread {spread:.4f}" + (f" bound {bound}" if bound else "")
            )
        report[workload] = {"runs": runs, "summary": summary}
    if args.json:
        out = {
            "machine": machine(),
            "run_seconds": bench["run_seconds"],
            "trace": args.trace,
            "workloads": report,
        }
        Path(args.json).write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
