"""Brute-force reference oracles.

These deliberately share no code with the optimized solvers except the model
types and the direct (non-incremental) evacuation formulas, so that agreement
between an oracle and a solver is meaningful evidence of correctness.  All
oracles are size-guarded; they exist for testing, not for production use.
"""

from __future__ import annotations

import itertools
from typing import Optional, Sequence

from .evac import eval_one_sink
from .model import CostModel, PathInstance, Plan, Scenario

__all__ = [
    "brute_optimal_k_sink",
    "brute_minmax_regret",
    "brute_rji_matrix",
    "naive_biheap_mirror",
]


def _partitions(n: int, k: int):
    """All boundary tuples (r_1 < ... < r_k = n) of [0, n] into k non-empty parts."""
    for inner in itertools.combinations(range(n), k - 1):
        yield inner + (n,)


def _parts_of(boundaries: Sequence[int]) -> list[tuple[int, int]]:
    out = []
    lo = 0
    for r in boundaries:
        out.append((lo, r))
        lo = r + 1
    return out


def brute_optimal_k_sink(
    inst: PathInstance,
    s: Scenario,
    k: int,
    cm: str = CostModel.DISCRETE,
) -> tuple[int, Plan]:
    """Exhaustive optimal k-sink: all part boundaries x all sinks.

    Size-guarded to n <= 12, k <= 4.  Ties break to the first partition in
    combination order and the leftmost minimizing sink per part.
    """
    n = inst.n
    if n > 12 or k > 4:
        raise ValueError(f"brute_optimal_k_sink guard exceeded: n={n}, k={k}")
    if not (1 <= k <= n + 1):
        raise ValueError(f"k out of range: k={k}, n={n}")

    part_best: dict[tuple[int, int], tuple[int, int]] = {}
    for l in range(n + 1):
        for r in range(l, n + 1):
            best_t, best_y = None, None
            for y in range(l, r + 1):
                t = eval_one_sink(inst, s, l, r, y, cm)
                if best_t is None or t < best_t:
                    best_t, best_y = t, y
            part_best[(l, r)] = (best_t, best_y)

    best_val: Optional[int] = None
    best_plan: Optional[Plan] = None
    for bounds in _partitions(n, k):
        parts = _parts_of(bounds)
        val = max(part_best[p][0] for p in parts)
        if best_val is None or val < best_val:
            best_val = val
            best_plan = Plan(bounds, tuple(part_best[p][1] for p in parts))
    return best_val, best_plan


def _corner_scenarios(inst: PathInstance) -> list[Scenario]:
    """All scenarios with every weight at one of its interval endpoints."""
    choices = [
        (lo,) if lo == hi else (lo, hi)
        for lo, hi in zip(inst.wminus, inst.wplus)
    ]
    return [Scenario(w) for w in itertools.product(*choices)]


def brute_minmax_regret(inst: PathInstance, k: int) -> tuple[int, Plan]:
    """Exhaustive minmax regret: min over all plans of max over corner scenarios.

    Size-guarded to n <= 8, k <= 3.  Uses the simplified cost model (the
    regret pipeline's model).  A plan's scan over the corners stops as soon
    as its regret reaches the best value found so far.
    """
    n = inst.n
    if n > 8 or k > 3:
        raise ValueError(f"brute_minmax_regret guard exceeded: n={n}, k={k}")
    if not (1 <= k <= n + 1):
        raise ValueError(f"k out of range: k={k}, n={n}")
    cm = CostModel.SIMPLIFIED

    scenarios = _corner_scenarios(inst)
    nsc = len(scenarios)

    # Per-(part, sink) times for every corner, then per-part minima.
    part_time: dict[tuple[int, int, int], list[int]] = {}
    part_min: dict[tuple[int, int], list[int]] = {}
    for l in range(n + 1):
        for r in range(l, n + 1):
            col_min: Optional[list[int]] = None
            for y in range(l, r + 1):
                col = [eval_one_sink(inst, s, l, r, y, cm) for s in scenarios]
                part_time[(l, r, y)] = col
                if col_min is None:
                    col_min = list(col)
                else:
                    col_min = [min(a, b) for a, b in zip(col_min, col)]
            part_min[(l, r)] = col_min

    partitions = list(_partitions(n, k))
    # Optimal k-sink time per corner, by explicit partition enumeration.
    opt = [
        min(
            max(part_min[p][ci] for p in _parts_of(bounds))
            for bounds in partitions
        )
        for ci in range(nsc)
    ]

    best_val: Optional[int] = None
    best_plan: Optional[Plan] = None
    for bounds in partitions:
        parts = _parts_of(bounds)
        for sinks in itertools.product(*[range(l, r + 1) for l, r in parts]):
            cols = [part_time[(l, r, y)] for (l, r), y in zip(parts, sinks)]
            worst = None
            for ci in range(nsc):
                reg = max(col[ci] for col in cols) - opt[ci]
                if worst is None or reg > worst:
                    worst = reg
                if best_val is not None and worst >= best_val:
                    break
            if best_val is None or worst < best_val:
                best_val = worst
                best_plan = Plan(bounds, sinks)
    return best_val, best_plan


def brute_rji_matrix(inst: PathInstance, k: int) -> list[list[Optional[int]]]:
    """Exhaustive per-part minmax regret R(j, i): all sinks x all candidates.

    R[j][i] = min over sinks t in [j, i] of the max, over the part's full
    left/right-anchored candidate family (spill-overs included), of
    (part evacuation time under the realized scenario) - (optimal k-sink time
    under it).  Opt values come from brute_optimal_k_sink.  Size-guarded to
    n <= 10, k <= 3.
    """
    n = inst.n
    if n > 10 or k > 3:
        raise ValueError(f"brute_rji_matrix guard exceeded: n={n}, k={k}")
    cm = CostModel.SIMPLIFIED

    opt_memo: dict[tuple[int, int], int] = {}
    scen_memo: dict[tuple[int, int], Scenario] = {}

    def realized(t1: int, t2: int) -> Scenario:
        key = (t1, t2)
        if key not in scen_memo:
            scen_memo[key] = Scenario(
                tuple(
                    inst.wplus[v] if t1 <= v < t2 else inst.wminus[v]
                    for v in range(n + 1)
                )
            )
        return scen_memo[key]

    def opt_of(t1: int, t2: int) -> int:
        key = (t1, t2)
        if key not in opt_memo:
            opt_memo[key] = brute_optimal_k_sink(inst, realized(t1, t2), k, cm)[0]
        return opt_memo[key]

    R: list[list[Optional[int]]] = [[None] * (n + 1) for _ in range(n + 1)]
    for j in range(n + 1):
        for i in range(j, n + 1):
            cands: list[tuple[int, int]] = []
            seen = set()
            for t1, t2 in itertools.chain(
                ((j, m) for m in range(j, i + 2)),
                ((m, i + 1) for m in range(j, i + 2)),
            ):
                if (t1, t2) not in seen:
                    seen.add((t1, t2))
                    cands.append((t1, t2))
            best = None
            for t in range(j, i + 1):
                worst = None
                for t1, t2 in cands:
                    reg = (
                        eval_one_sink(inst, realized(t1, t2), j, i, t, cm)
                        - opt_of(t1, t2)
                    )
                    if worst is None or reg > worst:
                        worst = reg
                if best is None or worst < best:
                    best = worst
            R[j][i] = best
    return R


def naive_biheap_mirror(ops: Sequence[tuple], c: int) -> list[Optional[int]]:
    """Replay a Bi-Heap op stream on an explicit pair list; answer after every op.

    Ops: ("insert", W, L) assigning ids 0, 1, 2, ... in order; ("delete", id);
    ("addw", w) and ("addl", l) applied eagerly to every live pair.  The
    answer after each op is max(ceil(W/c) + L) over live pairs, or None when
    empty.  Deleting a dead or unknown id raises ValueError.

    Each answer rescans every live pair, with the ceiling written inline as
    ceil(W/c) = -floor(-W/c): the rescan is most of the mirror's time, and
    a function call per pair made the mirror a third slower.
    """
    if c < 1:
        raise ValueError("capacity must be >= 1")
    pairs: dict[int, list[int]] = {}
    next_id = 0
    answers: list[Optional[int]] = []
    for op in ops:
        kind = op[0]
        if kind == "insert":
            pairs[next_id] = [int(op[1]), int(op[2])]
            next_id += 1
        elif kind == "delete":
            if op[1] not in pairs:
                raise ValueError(f"stale delete of id {op[1]}")
            del pairs[op[1]]
        elif kind == "addw":
            for p in pairs.values():
                p[0] += op[1]
        elif kind == "addl":
            for p in pairs.values():
                p[1] += op[1]
        else:
            raise ValueError(f"unknown op: {op!r}")
        if pairs:
            answers.append(max(l - (-w // c) for w, l in pairs.values()))
        else:
            answers.append(None)
    return answers
