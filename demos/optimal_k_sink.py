"""
Optimal k-sink placement for a fixed scenario
=============================================

Given exact weights, where should k sinks go, and where should the path be
cut into k parts, to minimize the time until everyone is out?

The solver runs a dynamic program over part right-ends whose inner minimizer
only ever moves right (the objective is a max of one increasing and one
decreasing sequence), with each candidate part maintained incrementally by
two sliding-window maxima of fixed per-vertex keys.  Each row scans only the
positions a plan within an upper bound can use; total work is O(k n) at
worst.
"""

import argparse
import random
import time

from pathevac import (
    CostModel,
    PathInstance,
    Scenario,
    brute_optimal_k_sink,
    eval_plan,
    solve_optimal_k_sink,
)

parser = argparse.ArgumentParser(description=__doc__)
parser.add_argument("--seed", type=int, default=0)
parser.add_argument("--n", type=int, default=60, help="index of the last vertex")
args = parser.parse_args()

rng = random.Random(args.seed)

# --- a random instance ---------------------------------------------------------

coords = [0]
for _ in range(args.n):
    coords.append(coords[-1] + rng.randint(1, 6))
w = tuple(rng.randint(1, 30) for _ in range(args.n + 1))
inst = PathInstance(tuple(coords), w, w, capacity=3, tau=1)
s = Scenario(w)
print(f"n={inst.n}, total weight {sum(w)}, length {coords[-1]}, "
      f"capacity {inst.capacity}")

# --- more sinks help, with diminishing returns -----------------------------------

print("\n k | evac time | plan (boundaries / sinks)")
prev = None
for k in range(1, 7):
    res = solve_optimal_k_sink(inst, s, k, CostModel.DISCRETE)
    print(f"{k:2d} | {res.value:9d} | {list(res.plan.boundaries)} / "
          f"{list(res.plan.sinks)}")
    got, _ = eval_plan(inst, s, res.plan, CostModel.DISCRETE)
    assert got == res.value  # the reported plan really achieves the value
    if prev is not None:
        assert res.value <= prev  # extra sinks never hurt
    prev = res.value

# --- the DP's work is at most linear in n per row --------------------------------
# A row stops once it exceeds the worst part of the equal-count 4-part cover,
# an upper bound on the answer, and starts where a plan within that bound can
# next use it, so every row scans a band; the trackers measure a sink move
# before making it and count only the moves they make.

res = solve_optimal_k_sink(inst, s, 4, CostModel.DISCRETE)
starts = res.counters["row_starts"]
incs = res.counters["j_increments_per_row"]
print(f"\nDP rows start at {starts}; split-pointer increments per row: "
      f"{incs} (each at most n={inst.n}; the last part starts at the last "
      f"row's start plus its count, {starts[-1] + incs[-1]}); "
      f"sink moves: {res.counters['sink_moves']}")
assert starts[-1] + incs[-1] == res.plan.boundaries[-2] + 1

# --- exhaustive check on a small instance ----------------------------------------

small_coords = [0]
for _ in range(9):
    small_coords.append(small_coords[-1] + rng.randint(1, 4))
sw = tuple(rng.randint(1, 8) for _ in range(10))
small = PathInstance(tuple(small_coords), sw, sw, capacity=2, tau=2)
ss = Scenario(sw)
for k in (1, 2, 3):
    for cm in (CostModel.DISCRETE, CostModel.SIMPLIFIED):
        want, _ = brute_optimal_k_sink(small, ss, k, cm)
        got = solve_optimal_k_sink(small, ss, k, cm).value
        assert got == want, (k, cm, got, want)
print("\nDP values match exhaustive enumeration on a 10-vertex instance")

# --- and it scales -----------------------------------------------------------------

big_n = 50_000
big_coords = list(range(0, 2 * (big_n + 1), 2))
bw = tuple(rng.randint(1, 50) for _ in range(big_n + 1))
big = PathInstance(tuple(big_coords), bw, bw, capacity=1, tau=1)
t0 = time.perf_counter()
res = solve_optimal_k_sink(big, Scenario(bw), 8, CostModel.SIMPLIFIED)
dt = time.perf_counter() - t0
print(f"n={big_n}, k=8 solved in {dt:.1f}s (value {res.value})")
