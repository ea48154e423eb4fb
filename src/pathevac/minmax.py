"""Minmax-regret k-sink planning (simplified cost model).

Two independent solvers compute a plan minimizing worst-case regret over the
candidate scenario set:

* :func:`solve_minmax_regret_dp` — dynamic programming over part right-ends
  on top of the precomputed subpath-regret matrix R[j, i] (see
  :func:`pathevac.regret.compute_rji`), run by the split DP of
  :mod:`pathevac.optk` with R as the part cost: O(n) pointer moves per row.
* :func:`solve_minmax_regret_bs` — nested binary search.  The value of an
  optimal ``i``-part cover of a prefix is non-decreasing in the prefix end,
  while the regret of the final part is non-increasing in its left end, so
  the optimal split bracketing can be found by bisection at every level.
  Its subpath regrets are computed from scratch (per-scenario evaluation
  folds), making it a structurally different cross-check for the DP solver.

Both return an :class:`MmrResult`: the exact integer value, a concrete
plan and the solver's work counters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .evac import eval_all_sinks
from .model import (
    CostModel,
    PathInstance,
    Plan,
    ScenarioDescriptor,
    realize_scenario,
    require_k,
)
from .optk import _MatrixRow, _plan_from_splits, _split_dp, solve_optimal_k_sink
from .regret import ScenarioOptCache, compute_rji

__all__ = [
    "MmrResult",
    "solve_minmax_regret_dp",
    "solve_minmax_regret_bs",
]


@dataclass
class MmrResult:
    value: int
    plan: Plan
    counters: dict = field(default_factory=dict)


def _validate(inst: PathInstance, k: int) -> int:
    """``k`` as an ``int``; ValueError unless ``inst`` is valid and 1 <= k <= n+1."""
    inst.require_valid()
    return require_k(inst, k)


# ---------------------------------------------------------------------------
# Dynamic-programming solver
# ---------------------------------------------------------------------------


def solve_minmax_regret_dp(inst: PathInstance, k: int) -> MmrResult:
    """Minmax-regret plan via dynamic programming over the R matrix.

    M(q, i), the best worst-case regret of q parts covering [0, i], is the
    min over j of max(M(q-1, j-1), R[j, i]), with M(1, i) = R[0, i]: the
    k-sink recurrence of :mod:`pathevac.optk` with R as the part cost, so
    it runs on that module's DP, which keeps the rightmost optimal split.
    Sinks are the ones :func:`~pathevac.regret.compute_rji` picked for R.
    """
    k = _validate(inst, k)
    n = inst.n
    rji = compute_rji(inst, ScenarioOptCache(inst, k))
    R = rji.R
    value, splits, drops, _ = _split_dp(n, k, lambda j0: _MatrixRow(R, j0))
    plan = _plan_from_splits(n, splits, lambda j, i: int(rji.sink[j, i]))

    # Internal consistency: the plan's parts must reproduce the DP value.
    worst = max(int(R[l, r]) for l, r in plan.parts())
    if worst != value:
        raise RuntimeError(f"plan's worst part regret {worst} != DP value {value}")

    counters = {
        "j_increments_per_row": drops,
        "j_increments_total": sum(drops),
        "rji_sink_evals": rji.counters.get("sink_evals"),
        "rji_sink_moves": rji.counters.get("sink_moves"),
    }
    return MmrResult(value=value, plan=plan, counters=counters)


# ---------------------------------------------------------------------------
# Nested binary-search solver
# ---------------------------------------------------------------------------


def solve_minmax_regret_bs(inst: PathInstance, k: int) -> MmrResult:
    """Minmax-regret plan via nested binary search over split points.

    Subpath regrets are evaluated directly: for part [l, r], fold the
    per-sink evacuation times of every part-anchored candidate scenario and
    take the minimum over sinks.  Scenario optima come from per-scenario
    dynamic-program runs, independent of the batch cache.
    """
    k = _validate(inst, k)
    n = inst.n
    counters = {"rlr_evals": 0, "solve_evals": 0, "probe_steps": 0, "opt_scenarios": 0}

    opt_memo: dict[ScenarioDescriptor, int] = {}

    def opt_of(d: ScenarioDescriptor) -> int:
        v = opt_memo.get(d)
        if v is None:
            s = realize_scenario(inst, d)
            v = solve_optimal_k_sink(inst, s, k, CostModel.SIMPLIFIED).value
            counters["opt_scenarios"] += 1
            opt_memo[d] = v
        return v

    rlr_memo: dict[tuple[int, int], tuple[int, int]] = {}

    def rlr(l: int, r: int) -> tuple[int, int]:
        """(min worst-case regret of part [l, r], leftmost minimizing sink)."""
        got = rlr_memo.get((l, r))
        if got is not None:
            return got
        counters["rlr_evals"] += 1
        seen: set[tuple[int, int]] = set()
        cands: list[ScenarioDescriptor] = []
        for m in range(l, r + 2):
            for d in ((l, m), (m, r + 1)):
                if d not in seen:
                    seen.add(d)
                    cands.append(ScenarioDescriptor(*d))
        acc: Optional[list[int]] = None
        for d in cands:
            s = realize_scenario(inst, d)
            o = opt_of(d)
            evs = eval_all_sinks(inst, s, l, r, CostModel.SIMPLIFIED)
            if acc is None:
                acc = [e - o for e in evs]
            else:
                for idx, e in enumerate(evs):
                    v = e - o
                    if v > acc[idx]:
                        acc[idx] = v
        v = min(acc)
        res = (v, l + acc.index(v))
        rlr_memo[(l, r)] = res
        return res

    solve_memo: dict[tuple[int, int], tuple[int, tuple[int, ...], tuple[int, ...]]] = {}

    def solve(i: int, rend: int) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
        """Best cover of [0, rend] by i parts: (value, part ends, sinks)."""
        key = (i, rend)
        got = solve_memo.get(key)
        if got is not None:
            return got
        counters["solve_evals"] += 1
        if i == 1:
            v, y = rlr(0, rend)
            res = (v, (rend,), (y,))
        else:
            # Last part is [ell, rend]; prefix value grows with ell while the
            # last part's regret shrinks, so bisect to the crossing.
            lo, hi = i - 1, rend
            while hi - lo >= 2:
                m = (lo + hi) // 2
                counters["probe_steps"] += 1
                if solve(i - 1, m - 1)[0] >= rlr(m, rend)[0]:
                    hi = m
                else:
                    lo = m
            best: Optional[tuple[int, tuple[int, ...], tuple[int, ...]]] = None
            for ell in sorted({lo, hi}):
                gv, ge, gs = solve(i - 1, ell - 1)
                hv, hy = rlr(ell, rend)
                v = max(gv, hv)
                if best is None or v < best[0]:
                    best = (v, ge + (rend,), gs + (hy,))
            res = best
        solve_memo[key] = res
        return res

    value, ends, sinks = solve(k, n)
    plan = Plan(ends, sinks)
    return MmrResult(value=value, plan=plan, counters=dict(counters))

