"""Layered benchmark for pathevac.

Run one workload (the last stdout line is the JSON result):

    python3 perfbench/run.py --workload mmr --seed 1 --seconds 25 --trace 0

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics.  ``--all`` runs every workload, each in its own process, and
prints one table; ``--selftest`` runs the tiny-size checks.  See
perfbench/README.md.

The workload runs as a closed loop in this one process: one client, no
threads, each job starting when the previous one ends.  A round is the
workload's fixed job list, run in order; rounds repeat on identical inputs
until ``--seconds`` is used up.  Output checks run outside the timed
region: every job's first output gets the full check, and a later output
is accepted only if it equals the first.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import layers  # noqa: E402
import workloads  # noqa: E402
from library import ROOT, import_library, load_instances, require_sources  # noqa: E402

SETUP_PROBES = 11
MIN_TRACED_ROUNDS = 2

END_TO_END = {
    "wall_s": "s",
    "job_p50_s": "s",
    "job_p90_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}


def per_layer_units():
    units = {}
    for name in layers.COUNT_METRICS:
        units[name] = "count"
    for name in layers.SELF_TIME_PARTS + ["batch.init_s", "trace.wall_s", "trace.overhead_s"]:
        units[name] = "s"
    units["regret.cache.solved_ratio"] = "ratio"
    units["batch.lanes_per_s"] = "1/s"
    return units


def time_setup(needs_cli, files):
    """Median set-up time of fresh processes that do only the set-up."""
    cmd = [sys.executable, os.path.join(HERE, "library.py"),
           "cli" if needs_cli else "nocli", *files]
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(cmd, check=True, timeout=120, cwd=ROOT,
                              capture_output=True, text=True)
        times.append(float(proc.stdout.split()[-1]))
    return statistics.median(times)


def interquartile_mean(values):
    """Mean of the middle half of the sorted values (the median for <= 3).

    Robust to a stray slow round like the median, but it averages more
    rounds, so it varies less from run to run on a host whose speed drifts.
    """
    v = sorted(values)
    cut = len(v) // 4
    return statistics.fmean(v[cut:len(v) - cut]) if len(v) > 3 else statistics.median(v)


def percentile(values, q):
    """q-th percentile (q in 1..99) with interpolation between samples."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class Runner:
    """The closed loop: rounds of jobs, timing, checks and failure counts."""

    def __init__(self, jobs, tamper):
        self.jobs = jobs
        self.tamper = tamper
        self.first = {}  # job label -> (output, problem or None)
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def run_round(self, tracer=None, round_no=0):
        """Run every job once; returns the per-job latencies."""
        latencies = []
        for job in self.jobs:
            if tracer is not None:
                tracer.job_id = f"r{round_no}/{job.label}"
            t0 = time.perf_counter()
            try:
                out = job.run(self.tamper)
                err = None
            except Exception as exc:  # a job that raises counts as failed
                out, err = None, f"{type(exc).__name__}: {exc}"
            latencies.append(time.perf_counter() - t0)
            if tracer is not None:
                tracer.end_job()
            self.attempted += 1
            problem = err if err is not None else self._check(job, out)
            if problem is not None:
                self.failed += 1
                if len(self.problems) < 5:
                    self.problems.append(f"{job.label}: {problem}")
        return latencies

    def _check(self, job, out):
        seen = self.first.get(job.label)
        if seen is not None and seen[0] == out:
            return seen[1]
        try:
            problem = job.check(out)
        except Exception as exc:  # a check that raises is a failed check
            problem = f"check raised {type(exc).__name__}: {exc}"
        if seen is None:
            self.first[job.label] = (out, problem)
        elif problem is None:
            problem = "output differs from the first round's"
        return problem


def measure(runner, seconds, trace, min_rounds):
    """Rounds until ``seconds`` are used; alternate plain/traced when tracing.

    An untraced run makes at least ``min_rounds`` rounds, a traced one at
    least one plain and two traced rounds.
    """
    tracer = layers.Tracer() if trace else None
    plain = []   # (round wall, latencies)
    traced = []  # per-layer metrics of each traced round
    deadline = time.perf_counter() + seconds
    last = {False: 0.0, True: 0.0}
    round_no = 0
    while True:
        # Plain, traced, traced, plain, ...: the first round is always plain,
        # so the full output checks never run under the tracer.
        with_trace = trace and round_no % 3 != 0
        t0 = time.perf_counter()
        if with_trace:
            tracer.reset_round()
            tracer.install()
            try:
                lat = runner.run_round(tracer, round_no)
            finally:
                tracer.uninstall()
            traced.append(tracer.round_metrics(sum(lat)))
        else:
            lat = runner.run_round()
            plain.append((sum(lat), lat))
        last[with_trace] = time.perf_counter() - t0
        round_no += 1
        # Free the round's reference cycles (BiHeap trees, trackers) before
        # the next one, so every round starts from the same heap and the
        # peak RSS is one round's, not however many rounds fit in the time.
        gc.collect()
        if trace:
            enough = len(traced) >= MIN_TRACED_ROUNDS
        else:
            enough = len(plain) >= min_rounds
        next_traced = trace and round_no % 3 != 0
        if enough and time.perf_counter() + last[next_traced] > deadline:
            break
    return plain, traced, tracer


def end_to_end_metrics(plain, setup_s):
    walls = [w for w, _ in plain]
    lat = [x for _, ls in plain for x in ls]
    return {
        "wall_s": interquartile_mean(walls),
        "job_p50_s": statistics.median(lat),
        "job_p90_s": percentile(lat, 90),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }, len(walls), len(lat)


def per_layer_metrics(plain, traced):
    """Metrics of the median traced round, so its self times add up exactly."""
    order = sorted(range(len(traced)), key=lambda i: traced[i]["trace.wall_s"])
    m = dict(traced[order[(len(order) - 1) // 2]])
    m["trace.overhead_s"] = (
        statistics.median(t["trace.wall_s"] for t in traced)
        - statistics.median(w for w, _ in plain)
    )
    return m


def count_mismatches(traced):
    first = traced[0]
    return [
        f"{name}: {first[name]} then {t[name]}"
        for t in traced[1:]
        for name in layers.COUNT_METRICS
        if t[name] != first[name]
    ]


def write_trace(path, workload, seed, tracer, traced):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({
            "workload": workload,
            "seed": seed,
            "span_fields": ["name", "start", "end", "parent", "job"],
            "spans": tracer.spans,
            "rounds": traced,
        }, fh)
        fh.write("\n")


def run_workload(args):
    require_sources()
    units = per_layer_units() if args.trace else END_TO_END
    base = os.path.join(ROOT, ".perfbench")
    workdir = os.path.join(base, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        rng = random.Random(f"perfbench/{args.workload}/{args.seed}")
        wl = workloads.WORKLOADS[args.workload](args.size, rng, workdir)
        setup_s = time_setup(wl.needs_cli, wl.instance_files)
        lib = import_library(wl.needs_cli)
        runner = Runner(wl.jobs(lib, load_instances(lib, wl.instance_files)), args.tamper)
        plain, traced, tracer = measure(runner, args.seconds, args.trace, wl.min_rounds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    problems = list(runner.problems)
    if args.trace:
        metrics = per_layer_metrics(plain, traced)
        problems += [f"count differs between rounds: {p}" for p in count_mismatches(traced)]
        trace_path = os.path.join(base, "traces", f"{args.workload}-seed{args.seed}.json")
        write_trace(trace_path, args.workload, args.seed, tracer, traced)
        print(f"trace: {len(traced)} traced and {len(plain)} plain rounds; spans in {trace_path}")
    else:
        metrics, rounds, samples = end_to_end_metrics(plain, setup_s)
        print(f"{args.workload}: {rounds} rounds of {len(runner.jobs)} job(s); "
              f"job percentiles over {samples} samples; "
              f"fail_frac {runner.failed / runner.attempted:.4f} "
              f"({runner.failed}/{runner.attempted}); round walls "
              + " ".join(f"{w:.3f}" for w, _ in plain))
    for p in problems:
        print(f"FAIL {p}", file=sys.stderr)
    correct = not problems and runner.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0 if correct else 1


# ---------------------------------------------------------------------------
# --all and --selftest: each workload run in its own process
# ---------------------------------------------------------------------------


def run_child(extra):
    cmd = [sys.executable, os.path.abspath(__file__), *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{' '.join(extra)}: no output (exit {proc.returncode})\n{proc.stderr}")
    return proc.returncode, json.loads(lines[-1]), proc.stderr


def run_all(args):
    rows = []
    for name in workloads.WORKLOADS:
        code, res, err = run_child(["--workload", name, "--seed", str(args.seed),
                                    "--seconds", str(args.seconds), "--trace", str(args.trace),
                                    "--size", args.size])
        m = {k: v["value"] for k, v in res["metrics"].items()}
        m["fail_frac"] = res["failed"] / res["attempted"]
        rows.append((name, m, res))
        sys.stderr.write(err)
    names = list(rows[0][1])
    print("metric".ljust(28) + "".join(n.rjust(14) for n, _, _ in rows))
    for key in names:
        print(key.ljust(28) + "".join(f"{m[key]:14.6g}" for _, m, _ in rows))
    return 0 if all(r["correct"] for _, _, r in rows) else 1


def selftest(args):
    """Tiny sizes: every metric present, no failures; tampered values fail."""
    bad = []
    per_layer = per_layer_units()
    for name in workloads.WORKLOADS:
        before = len(bad)
        for trace, want in ((0, END_TO_END), (1, per_layer)):
            code, res, err = run_child(["--workload", name, "--seed", "7", "--seconds", "1",
                                        "--trace", str(trace), "--size", "tiny"])
            missing = set(want) - set(res["metrics"])
            if code or not res["correct"] or res["failed"] or missing:
                bad.append(f"{name} trace={trace}: exit {code}, {res}, missing {missing}\n{err}")
            if trace:
                m = {k: v["value"] for k, v in res["metrics"].items()}
                parts = sum(m[k] for k in layers.SELF_TIME_PARTS)
                if abs(parts - m["trace.wall_s"]) > 1e-6 * max(1.0, m["trace.wall_s"]):
                    bad.append(f"{name}: self times sum to {parts}, wall {m['trace.wall_s']}")
        code, res, err = run_child(["--workload", name, "--seed", "7", "--seconds", "1",
                                    "--trace", "0", "--size", "tiny", "--tamper"])
        if res["correct"] or res["failed"] != res["attempted"]:
            bad.append(f"{name}: value+1 not caught: {res}")
        print(f"selftest {name}: " + ("ok" if len(bad) == before else f"{len(bad) - before} failed"))
    for b in bad:
        print(f"FAIL {b}", file=sys.stderr)
    print("selftest passed" if not bad else f"selftest failed ({len(bad)})")
    return 0 if not bad else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--size", choices=sorted(workloads.SIZES), default="full")
    ap.add_argument("--tamper", action="store_true",
                    help="raise every job's value by one before its check (checks must fail)")
    ap.add_argument("--all", action="store_true", help="run every workload, print one table")
    ap.add_argument("--selftest", action="store_true", help="tiny-size self-test")
    args = ap.parse_args(argv)
    if args.selftest:
        return selftest(args)
    if args.all:
        return run_all(args)
    if args.workload is None:
        ap.error("--workload is required")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
