"""The four workloads: seeded input generation, jobs and output checks.

Inputs are generated here, without pathevac, and written in the library's
JSON file formats, so the program only ever sees the generated files.  A
job calls the library through its public functions, looked up on their
modules at call time so that a traced run sees the rebound boundaries.
Each job's check runs outside the timed region.

Job parameters follow a fixed design rather than independent draws: every
seed gets the same sizes, k values, capacities and paces, in a shuffled
order, with random coordinates, weights and plans.  The total work of a round is then
nearly the same for every seed, so seed-to-seed spread measures the
program, not the luck of the draw.
"""

from __future__ import annotations

import contextlib
import io
import json
import os

SIZES = {
    "full": {
        "mmr": {"n": 120, "k": 5},
        "optk": {"a_n": 10_000, "b_n": 1_500, "k": 10},
        # At least five rounds of 20 jobs: ten samples above the 90th percentile.
        "pipeline": {"jobs": 20, "n_lo": 16, "n_hi": 48, "min_rounds": 5},
        "audit": {"n": 1000, "ks": [3, 5, 8]},
    },
    "tiny": {
        "mmr": {"n": 16, "k": 3},
        "optk": {"a_n": 300, "b_n": 100, "k": 4},
        "pipeline": {"jobs": 3, "n_lo": 9, "n_hi": 12},
        "audit": {"n": 40, "ks": [3, 5, 8]},
    },
}


# ---------------------------------------------------------------------------
# Input generation (benchmark side, no pathevac)
# ---------------------------------------------------------------------------


def _instance_obj(rng, n, gap_max, w_lo, w_hi, dw_max, capacity, tau):
    """Instance file object: gaps in [1, gap_max], w- in [w_lo, w_hi],
    w+ = w- + [0, dw_max]."""
    x = 0
    vertices = []
    for i in range(n + 1):
        if i:
            x += rng.randint(1, gap_max)
        lo = rng.randint(w_lo, w_hi)
        vertices.append({"x": x, "w_min": lo, "w_max": lo + rng.randint(0, dw_max)})
    return {"vertices": vertices, "capacity": capacity, "tau": tau}


def _criterion7_instance(rng, n, capacity):
    """Gaps in [1, 5], intervals [1, 200], tau 1; scenario weights in [1, 100]."""
    x = 0
    vertices = []
    for i in range(n + 1):
        if i:
            x += rng.randint(1, 5)
        vertices.append({"x": x, "w_min": 1, "w_max": 200})
    scenario = [rng.randint(1, 100) for _ in range(n + 1)]
    return {"vertices": vertices, "capacity": capacity, "tau": 1}, scenario


def _write_json(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)


def _random_plan(rng, n, k):
    """Random k-part plan: distinct cut points, a uniform sink per part."""
    bounds = sorted(rng.sample(range(n), k - 1)) + [n]
    sinks = []
    lo = 0
    for r in bounds:
        sinks.append(rng.randint(lo, r))
        lo = r + 1
    return bounds, sinks


# ---------------------------------------------------------------------------
# Checks shared by jobs
# ---------------------------------------------------------------------------


def k_feasible(lib, inst, s, k, cm, limit):
    """Can k parts, each with one-sink time <= limit, cover the path?

    Greedy: each part grows as far right as its optimal one-sink time
    allows.  That time only grows with the part, so the end of each part is
    found by galloping then bisection, O(n log n) one-sink evaluations in
    total.  Uses ``optimal_one_sink`` only, never the DP's trackers.
    """
    if limit < 0:
        return False
    n = inst.n

    def fits(lo, hi):
        return lib.optk.optimal_one_sink(inst, s, lo, hi, cm)[0] <= limit

    lo = 0
    for _ in range(k):
        good, bad, step = lo, n + 1, 1
        while good < n:
            probe = min(n, good + step)
            if not fits(lo, probe):
                bad = probe
                break
            good = probe
            step *= 2
        while bad - good > 1:
            mid = (good + bad) // 2
            if fits(lo, mid):
                good = mid
            else:
                bad = mid
        lo = good + 1
        if lo > n:
            return True
    return False


class Job:
    """One unit of work: ``run`` is timed, ``check`` is not."""

    def __init__(self, label, run, check):
        self.label = label
        self.run = run
        self.check = check


def _bump(out, tamper):
    """The job's output, with its value raised by one when tampering."""
    return (out[0] + 1,) + out[1:] if tamper else out


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class Workload:
    """Generates inputs into a work directory and builds the jobs."""

    needs_cli = False

    def __init__(self, size, rng, workdir):
        self.p = SIZES[size][self.name]
        self.min_rounds = self.p.get("min_rounds", 2)
        self.rng = rng
        self.dir = workdir
        self.instance_files = []
        self.generate()

    def instance_path(self, label):
        path = os.path.join(self.dir, f"{label}.json")
        self.instance_files.append(path)
        return path


class Mmr(Workload):
    """One ``solve_minmax_regret_dp``: criterion 7's minmax shape."""

    name = "mmr"

    def generate(self):
        obj = _instance_obj(self.rng, self.p["n"], 10, 1, 50, 50, 1, 2)
        _write_json(self.instance_path("mmr"), obj)

    def jobs(self, lib, insts):
        inst, k = insts[0], self.p["k"]

        def run(tamper):
            res = lib.minmax.solve_minmax_regret_dp(inst, k)
            return _bump((res.value, res.plan.boundaries, res.plan.sinks), tamper)

        def check(out):
            value, bounds, sinks = out
            plan = lib.model.Plan(bounds, sinks)
            if plan.k != k or lib.model.validate_plan(inst, plan):
                return "plan invalid"
            cache = lib.regret.build_scenario_opt_cache(inst, k, fill="lazy")
            got, _ = lib.regret.max_regret_of_plan(inst, plan, cache)
            return None if got == value else f"max regret {got} != {value}"

        return [Job("mmr", run, check)]


class OptK(Workload):
    """Two ``solve_optimal_k_sink`` jobs: the heapq path and the BiHeap path."""

    name = "optk"

    def generate(self):
        self.scenarios = []
        for label, n, c in (("a", self.p["a_n"], 1), ("b", self.p["b_n"], 3)):
            obj, w = _criterion7_instance(self.rng, n, c)
            _write_json(self.instance_path(f"optk_{label}"), obj)
            self.scenarios.append(w)

    def jobs(self, lib, insts):
        k = self.p["k"]
        cms = (lib.model.CostModel.SIMPLIFIED, lib.model.CostModel.DISCRETE)
        out = []
        for label, inst, w, cm in zip("ab", insts, self.scenarios, cms):
            s = lib.model.Scenario(tuple(w))
            out.append(Job(f"optk_{label}", *self._job(lib, inst, s, k, cm)))
        return out

    @staticmethod
    def _job(lib, inst, s, k, cm):
        def run(tamper):
            res = lib.optk.solve_optimal_k_sink(inst, s, k, cm)
            return _bump((res.value, res.plan.boundaries, res.plan.sinks), tamper)

        def check(out):
            value, bounds, sinks = out
            plan = lib.model.Plan(bounds, sinks)
            if plan.k != k or lib.model.validate_plan(inst, plan):
                return "plan invalid"
            got, _ = lib.evac.eval_plan(inst, s, plan, cm)
            if got != value:
                return f"plan evaluates to {got}, not {value}"
            if not k_feasible(lib, inst, s, k, cm, value):
                return f"greedy cover rejects {value}"
            if k_feasible(lib, inst, s, k, cm, value - 1):
                return f"greedy cover accepts {value - 1}"
            return None

        return run, check


class Pipeline(Workload):
    """``cli.main`` for gen -> solve-mmr -o plan -> verify, per job."""

    name = "pipeline"
    needs_cli = True

    def generate(self):
        p = self.p
        count = p["jobs"]
        # A fixed design, shuffled: n evenly over [n_lo, n_hi], with k,
        # capacity and tau cycling along it.  Coordinates and weights come
        # from each job's own seed.
        self.params = [
            {"n": p["n_lo"] + i * (p["n_hi"] - p["n_lo"]) // (count - 1),
             "k": 2 + i % 3, "capacity": 1 + (i // 3) % 3, "tau": 1 + i % 2,
             "seed": self.rng.randrange(1 << 30)}
            for i in range(count)
        ]
        self.rng.shuffle(self.params)

    def jobs(self, lib, insts):
        return [Job(f"pipeline_{i}", *self._job(lib, i, p)) for i, p in enumerate(self.params)]

    def _job(self, lib, idx, p):
        inst_path = os.path.join(self.dir, f"job{idx}_instance.json")
        plan_path = os.path.join(self.dir, f"job{idx}_plan.json")
        gen = ["gen", "--n", str(p["n"]), "--capacity", str(p["capacity"]),
               "--tau", str(p["tau"]), "--seed", str(p["seed"]), "-o", inst_path]
        solve = ["solve-mmr", inst_path, "--k", str(p["k"]), "-o", plan_path]
        verify = ["verify", inst_path, plan_path]

        def run(tamper):
            codes = []
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                for argv in (gen, solve, verify):
                    if tamper and argv is verify:
                        _bump_plan_objective(plan_path)
                    codes.append(_cli_exit(lib, argv))
                    if codes[-1] != 0:
                        break
            lines = sink.getvalue().splitlines()
            return tuple(codes), (lines[-1] if lines else "")

        def check(out):
            codes, last = out
            if codes != (0, 0, 0):
                return f"exit codes {codes}: {last}"
            return None if last.startswith("PASS") else f"verify said {last!r}"

        return run, check


def _cli_exit(lib, argv):
    try:
        return lib.cli.main(argv)
    except SystemExit as exc:  # argparse rejects bad arguments by exiting
        return exc.code if isinstance(exc.code, int) else 2


def _bump_plan_objective(path):
    with open(path, encoding="utf-8") as fh:
        obj = json.load(fh)
    obj["objective"] += 1
    _write_json(path, obj)


class Audit(Workload):
    """``max_regret_of_plan`` of random k-plans, each with a fresh lazy cache."""

    name = "audit"

    def generate(self):
        n = self.p["n"]
        _write_json(self.instance_path("audit"),
                    _instance_obj(self.rng, n, 10, 1, 50, 50, 1, 2))
        ks = list(self.p["ks"])
        self.rng.shuffle(ks)
        self.plans = [_random_plan(self.rng, n, k) for k in ks]

    def jobs(self, lib, insts):
        inst = insts[0]
        return [Job(f"audit_{i}", *self._job(lib, inst, lib.model.Plan(tuple(b), tuple(s))))
                for i, (b, s) in enumerate(self.plans)]

    @staticmethod
    def _job(lib, inst, plan):
        def run(tamper):
            # A fresh lazy cache per plan, as ``pathevac verify`` builds it.
            cache = lib.regret.build_scenario_opt_cache(inst, plan.k, fill="lazy")
            value, witness = lib.regret.max_regret_of_plan(inst, plan, cache)
            return _bump((value, witness.t1, witness.t2), tamper)

        def check(out):
            value, t1, t2 = out
            d = lib.model.ScenarioDescriptor(t1, t2)
            s = lib.model.realize_scenario(inst, d)
            # No cache: the optimum comes from the fixed-scenario DP.
            got = lib.regret.regret_of_plan(inst, plan, s)
            return None if got == value else f"witness regret {got} != {value}"

        return run, check


WORKLOADS = {cls.name: cls for cls in (Mmr, OptK, Pipeline, Audit)}
