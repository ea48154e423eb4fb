"""pathevac: optimal and minmax-regret k-sink evacuation planning on paths.

A path network has vertices at integer coordinates, uniform integer edge
capacity, and integer per-vertex weights (evacuee counts) known only up to
intervals.  This package computes:

* exact evacuation times for sinks, parts, and whole plans (two cost models),
* optimal k-sink plans for a fixed scenario in O(n + the sum of the DP's
  band widths) amortized, O(k n) at worst,
* minmax-regret k-sink plans over all interval scenarios (DP and
  nested-search solvers),

with exact integer arithmetic throughout, plus brute-force oracles, a
candidate-scenario generator, a vectorized scenario-optimum cache, and a CLI
(generate / solve / verify).
"""

from .biheap import BiHeap
from .evac import (
    EvacSideResult,
    Side,
    eval_all_sinks,
    eval_one_sink,
    eval_plan,
    eval_side,
    simulate_evacuation,
)
from .model import (
    CostModel,
    InvalidInstanceError,
    PathInstance,
    Plan,
    Scenario,
    ScenarioDescriptor,
    instance_from_obj,
    instance_to_obj,
    load_instance,
    load_plan,
    plan_from_obj,
    plan_to_obj,
    realize_scenario,
    save_instance,
    save_plan,
    scenario_within_bounds,
    validate_instance,
    validate_plan,
)
from .optk import (
    OptKResult,
    SubpathTracker,
    optimal_one_sink,
    solve_optimal_k_sink,
)
from .minmax import (
    MmrResult,
    solve_minmax_regret_bs,
    solve_minmax_regret_dp,
)
from .oracle import (
    brute_minmax_regret,
    brute_optimal_k_sink,
    brute_rji_matrix,
    naive_biheap_mirror,
)
from .regret import (
    EvacLookupTables,
    RjiMatrix,
    ScenarioOptCache,
    build_lookup_tables,
    build_scenario_opt_cache,
    compute_rji,
    max_regret_of_plan,
    regret_of_plan,
)
from .scenario_gen import enumerate_partition_candidates

__version__ = "0.1.0"


def __getattr__(name: str):
    # Lazy so that importing the library never pulls in argparse, and so
    # ``python -m pathevac.cli`` does not see the module pre-imported.
    if name == "cli_main":
        from .cli import main

        return main
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
