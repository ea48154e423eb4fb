"""The benchmark's layer tracer still finds every name it rebinds.

``perfbench/layers.py`` rebinds module globals and class attributes of
pathevac by name, and reads BiHeap counter keys and the counter keys of
the solvers' results; a rename in the library would otherwise only show up
in a traced benchmark run.
"""

from __future__ import annotations

import importlib
import random
from pathlib import Path

from pathevac.biheap import BiHeap
from pathevac.model import CostModel

from conftest import rand_instance, rand_scenario

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_installs_and_harvests_biheap_counters(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    layers = importlib.import_module("layers")
    original_insert = BiHeap.insert
    tracer = layers.Tracer()
    try:
        tracer.install()  # KeyError/AttributeError when a traced name is gone
        h = BiHeap(3)
        h.insert(5, 1)
        h.insert(7, 2)
        h.delete(0)
        tracer.end_job()
        assert tracer.stats["biheap"][0] == 3
        assert tracer.counts["biheap.tree_nodes_touched"] == h.counters["tree_nodes_touched"] > 0
        assert tracer.counts["biheap.heap_pops"] == h.counters["heap_pops"]
    finally:
        tracer.uninstall()
    assert BiHeap.insert is original_insert


def test_tracer_counts_equal_solver_counters(monkeypatch):
    """The counters the tracer harvests from a traced minmax DP and a traced
    c=3 discrete k-sink DP equal the counters those results carry, so a
    renamed counter key fails here; the k-sink DP makes no BiHeap work."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    layers = importlib.import_module("layers")
    minmax = importlib.import_module("pathevac.minmax")
    optk = importlib.import_module("pathevac.optk")
    rng = random.Random(31)
    tracer = layers.Tracer()
    try:
        tracer.install()
        res = minmax.solve_minmax_regret_dp(rand_instance(rng, 9, capacities=(1,)), 3)
        tracer.end_job()
        assert tracer.stats["regret.rji"][0] == tracer.stats["minmax"][0] == 1
        assert tracer.counts["regret.rji.sink_evals"] == res.counters["rji_sink_evals"] > 0
        assert tracer.counts["regret.rji.sink_moves"] == res.counters["rji_sink_moves"]
        assert tracer.counts["minmax.j_increments"] == res.counters["j_increments_total"] > 0

        tracer.reset_round()
        inst = rand_instance(rng, 30, capacities=(3,))
        res = optk.solve_optimal_k_sink(inst, rand_scenario(rng, inst), 3, CostModel.DISCRETE)
        tracer.end_job()
        assert tracer.stats["optk"][0] == 1
        assert tracer.counts["optk.j_increments"] == sum(res.counters["j_increments_per_row"]) > 0
        assert tracer.counts["optk.sink_moves"] == res.counters["sink_moves"] > 0
        # the k-sink DP keeps sliding-window maxima and builds no BiHeap
        assert tracer.stats["biheap"][0] == 0
        assert tracer.counts["biheap.tree_nodes_touched"] == 0
    finally:
        tracer.uninstall()
