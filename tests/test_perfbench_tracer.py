"""The benchmark's layer tracer still finds every name it rebinds.

``perfbench/layers.py`` rebinds module globals and class attributes of
pathevac by name, and reads BiHeap counter keys; a rename in the library
would otherwise only show up in a traced benchmark run.
"""

from __future__ import annotations

import importlib
from pathlib import Path

from pathevac.biheap import BiHeap

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
