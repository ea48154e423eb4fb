"""Tracing of pathevac's layer boundaries, done from outside the program.

The tracer rebinds each boundary name where its callers look it up (a
module global of the calling module, or a class attribute for methods),
so the program itself is unchanged.  Every wrapped call pushes a frame on
one stack; when it returns, its duration is added to its group's busy time
and, minus the time its traced children took, to the group's self time.
Because every traced interval is split between exactly one group's self
time and its parent, the self times of all groups plus the time spent
outside any boundary add up to the traced wall time.

Coarse boundaries (a few calls per job) also record one span each:
``(name, start, end, parent span index, job id)``.  Hot boundaries (up to
millions of calls per job: BiHeap operations, evacuation-time kernels,
scenario realization) only aggregate a count and busy time, so memory
stays bounded.
"""

from __future__ import annotations

import importlib
from time import perf_counter

import numpy as np

# (group, module, attribute path, hot).  The attribute path is either a
# module global or ``Class.method``; a group is a layer, or one boundary of
# a layer when the layer has several worth telling apart.
BOUNDARIES = [
    ("cli", "cli", "main", False),
    ("minmax", "minmax", "solve_minmax_regret_dp", False),
    ("minmax", "cli", "solve_minmax_regret_dp", False),
    ("regret.rji", "minmax", "compute_rji", False),
    ("regret.tables", "regret", "build_lookup_tables", False),
    ("regret.cache", "regret", "ScenarioOptCache.ensure", False),
    ("regret.audit", "regret", "max_regret_of_plan", False),
    ("regret.audit", "cli", "max_regret_of_plan", False),
    ("batch.init", "_batch", "ScenarioBatchEngine.__init__", False),
    ("batch.solve", "_batch", "ScenarioBatchEngine.solve", False),
    ("optk", "optk", "solve_optimal_k_sink", False),
    ("optk", "cli", "solve_optimal_k_sink", False),
    ("biheap", "biheap", "BiHeap.insert", True),
    ("biheap", "biheap", "BiHeap.delete", True),
    ("biheap", "biheap", "BiHeap.add_w", True),
    ("biheap", "biheap", "BiHeap.add_l", True),
    ("biheap", "biheap", "BiHeap.max_entry", True),
    ("evac", "regret", "eval_plan", True),
    ("evac", "regret", "eval_side", True),
    ("evac", "cli", "eval_plan", True),
    ("evac", "optk", "eval_all_sinks", True),
    ("evac", "minmax", "eval_all_sinks", True),
    ("model", "regret", "realize_scenario", True),
    ("model", "minmax", "realize_scenario", True),
    ("model", "model", "validate_instance", False),
    ("model", "optk", "validate_instance", False),
    ("model", "cli", "validate_instance", False),
    ("model", "cli", "load_instance", False),
    ("model", "cli", "save_instance", False),
    ("model", "cli", "load_plan", False),
    ("model", "cli", "save_plan", False),
    ("scenario_gen", "regret", "enumerate_partition_candidates", False),
]

GROUPS = sorted({b[0] for b in BOUNDARIES})

# Counts harvested from the program's results and from boundary arguments.
COUNTERS = [
    "optk.j_increments", "optk.sink_moves", "minmax.j_increments",
    "regret.rji.sink_evals", "regret.rji.sink_moves", "regret.cache.requested",
    "regret.cache.solved", "batch.lanes", "scenario_gen.candidates",
    "biheap.tree_nodes_touched", "biheap.heap_pops",
]


def _resolve(module, path):
    owner = module
    parts = path.split(".")
    for p in parts[:-1]:
        owner = getattr(owner, p)
    return owner, parts[-1]


class Tracer:
    """Per-round layer statistics plus the coarse spans of every round."""

    def __init__(self):
        self.spans = []
        self.job_id = None
        self.stats = {g: [0, 0.0, 0.0] for g in GROUPS}  # calls, busy, self
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.top_s = 0.0  # time inside outermost traced calls
        self._stack = []
        self._open = []  # indices of open coarse spans
        self._heaps = []
        self._patches = []

    def reset_round(self):
        """Zero the per-round statistics (in place: the wrappers hold them)."""
        for st in self.stats.values():
            st[:] = [0, 0.0, 0.0]
        for key in self.counts:
            self.counts[key] = 0
        self.top_s = 0.0
        self._heaps.clear()

    # -- wrapping -------------------------------------------------------------

    def _wrap(self, group, name, fn, hot, before=None, after=None):
        st = self.stats[group]
        stack = self._stack
        spans = self.spans
        opened = self._open
        tracer = self

        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            frame = [0.0]
            stack.append(frame)
            if not hot:
                sid = len(spans)
                spans.append(None)
                opened.append(sid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                d = t1 - t0
                st[0] += 1
                st[1] += d
                st[2] += d - frame[0]
                if stack:
                    stack[-1][0] += d
                else:
                    tracer.top_s += d
                if not hot:
                    opened.pop()
                    spans[sid] = (name, t0, t1, opened[-1] if opened else None,
                                  tracer.job_id)
            if after is not None:
                after(result)
            return result

        return traced

    def install(self):
        """Rebind every boundary; :meth:`uninstall` restores the originals."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for group, modname, path, hot in BOUNDARIES:
            module = importlib.import_module(f"pathevac.{modname}")
            owner, attr = _resolve(module, path)
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            before, after = self._hooks(path)
            setattr(owner, attr, self._wrap(group, f"{modname}.{path}", original,
                                            hot, before, after))
            self._patches.append((owner, attr, original))
        cache_cls = importlib.import_module(f"pathevac.regret").ScenarioOptCache
        self._count_calls(cache_cls, "_compute", "regret.cache.solved",
                          lambda args: int(args[1].shape[0]))
        heap_cls = importlib.import_module(f"pathevac.biheap").BiHeap
        init = heap_cls.__dict__["__init__"]
        heaps = self._heaps

        def collecting_init(heap, *args, **kwargs):
            init(heap, *args, **kwargs)
            heaps.append(heap)

        heap_cls.__init__ = collecting_init
        self._patches.append((heap_cls, "__init__", init))

    def _count_calls(self, cls, attr, counter, amount):
        """Rebind a method to add ``amount(args)`` to a counter; no timing."""
        original = cls.__dict__[attr]
        counts = self.counts

        def counting(*args, **kwargs):
            counts[counter] += amount(args)
            return original(*args, **kwargs)

        setattr(cls, attr, counting)
        self._patches.append((cls, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- counters harvested from the program's own results ---------------------

    def _hooks(self, path):
        c = self.counts
        if path == "solve_optimal_k_sink":
            def after(res):
                c["optk.j_increments"] += sum(res.counters["j_increments_per_row"])
                c["optk.sink_moves"] += res.counters["sink_moves"]
            return None, after
        if path == "solve_minmax_regret_dp":
            def after(res):
                c["minmax.j_increments"] += res.counters["j_increments_total"]
            return None, after
        if path == "compute_rji":
            def after(res):
                c["regret.rji.sink_evals"] += res.counters["sink_evals"]
                c["regret.rji.sink_moves"] += res.counters["sink_moves"]
            return None, after
        if path == "ScenarioOptCache.ensure":
            def before(args, kwargs):
                c["regret.cache.requested"] += int(np.size(args[1]))
            return before, None
        if path == "ScenarioBatchEngine.solve":
            def before(args, kwargs):
                c["batch.lanes"] += int(np.asarray(args[2]).size)
            return before, None
        if path == "enumerate_partition_candidates":
            def after(res):
                c["scenario_gen.candidates"] += len(res)
            return None, after
        return None, None

    def end_job(self):
        """Fold the counters of every BiHeap the job created into the round."""
        for h in self._heaps:
            self.counts["biheap.tree_nodes_touched"] += h.counters["tree_nodes_touched"]
            self.counts["biheap.heap_pops"] += h.counters["heap_pops"]
        self._heaps.clear()

    # -- per-round summary ------------------------------------------------------

    def round_metrics(self, wall_s):
        """Per-layer metrics of the round just traced (wall_s: its job time)."""
        s = self.stats
        c = self.counts
        m = {}
        m["cli.calls"] = s["cli"][0]
        m["cli.self_s"] = s["cli"][2]
        m["minmax.self_s"] = s["minmax"][2]
        m["minmax.j_increments"] = c["minmax.j_increments"]
        m["regret.rji.self_s"] = s["regret.rji"][2]
        m["regret.rji.sink_evals"] = c["regret.rji.sink_evals"]
        m["regret.rji.sink_moves"] = c["regret.rji.sink_moves"]
        m["regret.tables.self_s"] = s["regret.tables"][2]
        m["regret.cache.self_s"] = s["regret.cache"][2]
        m["regret.cache.requested"] = c["regret.cache.requested"]
        m["regret.cache.solved"] = c["regret.cache.solved"]
        req = c["regret.cache.requested"]
        m["regret.cache.solved_ratio"] = c["regret.cache.solved"] / req if req else 0.0
        m["regret.audit.self_s"] = s["regret.audit"][2]
        m["batch.calls"] = s["batch.solve"][0]
        m["batch.lanes"] = c["batch.lanes"]
        m["batch.self_s"] = s["batch.init"][2] + s["batch.solve"][2]
        m["batch.init_s"] = s["batch.init"][2]
        busy = s["batch.solve"][1]
        m["batch.lanes_per_s"] = c["batch.lanes"] / busy if busy else 0.0
        m["optk.calls"] = s["optk"][0]
        m["optk.self_s"] = s["optk"][2]
        m["optk.j_increments"] = c["optk.j_increments"]
        m["optk.sink_moves"] = c["optk.sink_moves"]
        m["biheap.ops"] = s["biheap"][0]
        m["biheap.self_s"] = s["biheap"][2]
        m["biheap.tree_nodes_touched"] = c["biheap.tree_nodes_touched"]
        m["biheap.heap_pops"] = c["biheap.heap_pops"]
        m["evac.calls"] = s["evac"][0]
        m["evac.self_s"] = s["evac"][2]
        m["model.calls"] = s["model"][0]
        m["model.self_s"] = s["model"][2]
        m["scenario_gen.candidates"] = c["scenario_gen.candidates"]
        m["scenario_gen.self_s"] = s["scenario_gen"][2]
        m["bench.self_s"] = wall_s - self.top_s
        m["trace.wall_s"] = wall_s
        return m


# Metrics that sum to ``trace.wall_s`` (every group's self time once).
SELF_TIME_PARTS = [
    "cli.self_s", "minmax.self_s", "regret.rji.self_s", "regret.tables.self_s",
    "regret.cache.self_s", "regret.audit.self_s", "batch.self_s", "optk.self_s",
    "biheap.self_s", "evac.self_s", "model.self_s", "scenario_gen.self_s",
    "bench.self_s",
]

# Per-layer metrics that are counts: they must repeat exactly.
COUNT_METRICS = [
    "cli.calls", "minmax.j_increments", "regret.rji.sink_evals",
    "regret.rji.sink_moves", "regret.cache.requested", "regret.cache.solved",
    "batch.calls", "batch.lanes", "optk.calls", "optk.j_increments",
    "optk.sink_moves", "biheap.ops", "biheap.tree_nodes_touched",
    "biheap.heap_pops", "evac.calls", "model.calls", "scenario_gen.candidates",
]
