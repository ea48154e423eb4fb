"""
Interval uncertainty, candidate scenarios, and plan regret
==========================================================

When each vertex weight is only known to lie in an interval, a plan is
judged by its regret under a scenario: its evacuation time minus the best
time any k-sink plan could have achieved for that same scenario.

The worst case over the whole weight box is always attained on one of the
O(n^2) scenarios that set a contiguous run of vertices to their upper
bounds and everything else to its lower bound — and for a fixed plan, on
one of the O(n) runs anchored at a part boundary.  That turns worst-case
analysis into table lookups.
"""

import random

import numpy as np

from pathevac import (
    CostModel,
    Plan,
    ScenarioDescriptor,
    Side,
    build_lookup_tables,
    build_scenario_opt_cache,
    compute_rji,
    enumerate_partition_candidates,
    eval_plan,
    eval_side,
    max_regret_of_plan,
    realize_scenario,
    regret_of_plan,
)
from pathevac.model import PathInstance

rng = random.Random(3)

# --- an instance with genuinely uncertain weights --------------------------------

n = 12
coords = [0]
for _ in range(n):
    coords.append(coords[-1] + rng.randint(1, 5))
wminus = tuple(rng.randint(1, 8) for _ in range(n + 1))
wplus = tuple(lo + rng.randint(0, 10) for lo in wminus)
inst = PathInstance(tuple(coords), wminus, wplus, capacity=1, tau=1)
print(f"n={n}; weight intervals like {list(zip(wminus, wplus))[:4]} ...")

# --- the candidate scenarios -------------------------------------------------------

# one per window 0 <= t1 <= t2 <= n+1: the upper triangle of an (n+2)^2 grid
t1s, t2s = np.triu_indices(n + 2)
print(f"\n{t1s.size} global candidate scenarios "
      f"(= (n+2)(n+3)/2 = {(n + 2) * (n + 3) // 2})")
d = ScenarioDescriptor(3, 7)
s = realize_scenario(inst, d)
print(f"candidate {tuple(d)} realizes to weights {s.weights}")

# --- optimal times for every candidate, in one vectorized sweep --------------------

k = 3
cache = build_scenario_opt_cache(inst, k)  # batch engine over all candidates
# The cache keeps its optima in a keyed store; ``values`` builds a dense
# read-only matrix from it on each read, holding the optimum of candidate
# (t1, t2) at [t1, t2] for t1 <= t2.  Read it once.
opt = cache.values
v = opt[t1s, t2s]
print(f"\noptimal {k}-sink time per candidate: min {int(v.min())}, max {int(v.max())}")

# --- regret of one concrete plan -----------------------------------------------------

plan = Plan(boundaries=(4, 9, n), sinks=(2, 7, 11))
r = regret_of_plan(inst, plan, s)  # the plan's time minus a fresh k-sink optimum
print(f"\nplan parts {plan.parts()}, sinks {plan.sinks}")
print(f"regret under candidate {tuple(d)}: {r}")
assert r == eval_plan(inst, s, plan, CostModel.SIMPLIFIED)[0] - opt[d.t1, d.t2]

value, witness = max_regret_of_plan(inst, plan, cache)
print(f"worst-case regret {value}, attained by candidate {tuple(witness)}")
per_part = enumerate_partition_candidates(inst, plan.boundaries)
print(f"(checked {len(per_part)} part-anchored candidates, not the full box)")
ws = realize_scenario(inst, witness)
assert regret_of_plan(inst, plan, ws) == value

# --- the lookup tables behind the fast path ------------------------------------------

# The worst-case regret of part [l, r] with sink t is max(A[l, t], C[t, r]),
# two O(n^2) tables of side times and scenario optima: A[l, t] is the worst
# regret of sink t's left side over the candidates that raise a run
# starting at l, C[t, r] that of its right side over the runs ending at r.
tables = build_lookup_tables(inst, cache)
t_sink = 6
worst_left = max(
    eval_side(inst, realize_scenario(inst, ScenarioDescriptor(0, m)), 0, t_sink,
              t_sink, Side.LEFT, CostModel.SIMPLIFIED).time - opt[0, m]
    for m in range(t_sink + 1)
)
print(f"\nA[0, {t_sink}] = {int(tables.A[0, t_sink])}")
assert tables.A[0, t_sink] == worst_left
print(f"right-side worst regret of sink 0 for each part end, C[0, r]: "
      f"{[int(v) for v in tables.C[0]]}")
r_end = 9
# over every run, the empty one (r_end + 1, r_end + 1) included: the table
# leaves that one out, as on optima a one-vertex run never does worse
worst_right = max(
    eval_side(inst, realize_scenario(inst, ScenarioDescriptor(m, r_end + 1)), t_sink,
              r_end, t_sink, Side.RIGHT, CostModel.SIMPLIFIED).time
    - opt[m, r_end + 1]
    for m in range(t_sink + 1, r_end + 2)
)
print(f"C[{t_sink}, {r_end}] = {int(tables.C[t_sink, r_end])}")
assert tables.C[t_sink, r_end] == worst_right

# --- minimal worst-case regret of every subpath ---------------------------------------

rji = compute_rji(inst, cache)
print(f"\nR[j, i] holds the best single-sink worst-case regret of each "
      f"subpath; R[0, {n}] = {int(rji.R[0, n])} "
      f"(best sink {int(rji.sink[0, n])})")
print(f"sink search: {rji.counters['sink_evals']} reads of C (one per cell "
      f"plus one per move), {rji.counters['sink_moves']} sink moves")
