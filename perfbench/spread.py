"""Seed-to-seed spread of the end-to-end metrics, against BENCHMARK.json.

    python3 perfbench/spread.py --seeds 10 [--workload mmr ...] [--out FILE] [--traced]

Runs ``run.py`` once per workload and seed, one process at a time, and
prints for every end-to-end metric the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the quartile distance
as a share of the median, next to the metric's bound.  A spread should stay
below a third of its bound.  ``--out`` saves every run's values as JSON,
with the host's facts; ``--traced`` adds one traced run per workload (the
first seed) and saves its per-layer metrics too.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def host_facts():
    import numpy

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "machine": platform.machine()}


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append",
                    help="workload to run (repeatable; default: all)")
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--out", help="write every run's metrics here as JSON")
    ap.add_argument("--traced", action="store_true",
                    help="also make one traced run per workload")
    args = ap.parse_args(argv)
    names = args.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    def run(name, seed, trace):
        cmd = [*bench["command"], "--workload", name, "--seed", str(seed),
               "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        if proc.returncode or not res["correct"]:
            sys.exit(f"{name} seed {seed} failed:\n{proc.stdout}\n{proc.stderr}")
        metrics = {k: v["value"] for k, v in res["metrics"].items()}
        print(f"{name} seed {seed} trace {trace}: "
              + " ".join(f"{k}={v:.4g}" for k, v in metrics.items()), flush=True)
        return metrics

    runs = {}
    traced = {}
    for name in names:
        runs[name] = [run(name, seed, 0)
                      for seed in range(args.first_seed, args.first_seed + args.seeds)]
        if args.traced:
            traced[name] = run(name, args.first_seed, 1)
    summary = {}
    worst = 0.0
    for name in names:
        summary[name] = {}
        for metric, bound in bounds.items():
            s = summarize([r[metric] for r in runs[name]])
            summary[name][metric] = s
            if metric != "setup_s":
                worst = max(worst, s["spread"] / bound)
            print(f"{name:9s} {metric:12s} median {s['median']:10.4f}  "
                  f"q1 {s['q1']:10.4f}  q3 {s['q3']:10.4f}  spread {s['spread']:.3f}"
                  f"  bound {bound}")
    print(f"largest spread/bound (setup_s excluded): {worst:.3f}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"host": host_facts(), "summary": summary, "runs": runs,
                       "traced": traced}, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
