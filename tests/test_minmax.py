"""Minmax-regret solvers: DP and nested binary search."""

from __future__ import annotations

import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathevac._batch import INT64_HEADROOM
from pathevac.minmax import solve_minmax_regret_bs, solve_minmax_regret_dp
from pathevac.model import InvalidInstanceError, PathInstance, validate_plan
from pathevac.oracle import brute_minmax_regret
from pathevac.regret import (
    ScenarioOptCache,
    build_scenario_opt_cache,
    compute_rji,
    max_regret_of_plan,
)

from conftest import rand_instance, rand_plan


def mk_uncertain(rng: random.Random, n: int, w_max: int = 8) -> PathInstance:
    return rand_instance(rng, n, w_max=w_max, capacities=(1,), taus=(1, 2))


def test_certain_weights_zero_regret():
    inst = PathInstance((0, 2, 3, 7), (2, 1, 3, 1), (2, 1, 3, 1))
    for k in (1, 2, 3, 4):
        dp = solve_minmax_regret_dp(inst, k)
        bs = solve_minmax_regret_bs(inst, k)
        assert dp.value == bs.value == 0
        assert validate_plan(inst, dp.plan) == []
        assert validate_plan(inst, bs.plan) == []


def test_single_vertex():
    inst = PathInstance((0,), (2,), (5,))
    assert solve_minmax_regret_dp(inst, 1).value == 0
    assert solve_minmax_regret_bs(inst, 1).value == 0


def test_matches_brute_force():
    rng = random.Random(61)
    for _ in range(30):
        inst = mk_uncertain(rng, rng.randint(0, 7), w_max=6)
        k = rng.randint(1, min(3, inst.n + 1))
        want, _ = brute_minmax_regret(inst, k)
        dp = solve_minmax_regret_dp(inst, k)
        bs = solve_minmax_regret_bs(inst, k)
        assert dp.value == want, (inst, k)
        assert bs.value == want, (inst, k)
        cache = build_scenario_opt_cache(inst, k)
        assert max_regret_of_plan(inst, dp.plan, cache)[0] == dp.value
        assert max_regret_of_plan(inst, bs.plan, cache)[0] == bs.value


def test_dp_equals_bs_medium():
    rng = random.Random(62)
    for _ in range(15):
        inst = mk_uncertain(rng, rng.randint(8, 25))
        k = rng.randint(1, 3)
        dp = solve_minmax_regret_dp(inst, k)
        assert dp.value == solve_minmax_regret_bs(inst, k).value, (inst, k)
        assert validate_plan(inst, dp.plan) == []


def test_solvers_are_deterministic():
    rng = random.Random(63)
    inst = mk_uncertain(rng, 15)
    assert solve_minmax_regret_dp(inst, 3) == solve_minmax_regret_dp(inst, 3)
    assert solve_minmax_regret_bs(inst, 3) == solve_minmax_regret_bs(inst, 3)


def test_dp_counters_and_no_better_random_plan():
    rng = random.Random(64)
    inst = mk_uncertain(rng, 20)
    res = solve_minmax_regret_dp(inst, 4)
    n = inst.n
    incs = res.counters["j_increments_per_row"]
    assert len(incs) == 4
    assert incs[0] == 0
    for v in incs[1:]:
        assert v <= n
    cache = build_scenario_opt_cache(inst, 4)
    assert max_regret_of_plan(inst, res.plan, cache)[0] == res.value
    for _ in range(30):
        plan = rand_plan(rng, inst, 4)
        assert max_regret_of_plan(inst, plan, cache)[0] >= res.value


def _matrix_reference(R, sink, k):
    """The DP over R with dense (k+1) x (n+1) value and split matrices, each
    row's pointer starting at j = q-1 (the first split that leaves q-1
    vertices to the left); returns (value, ends, sinks, increments per row)."""
    n = R.shape[0] - 1
    big = np.int64(1 << 62)
    M = np.full((k + 1, n + 1), big, dtype=np.int64)
    argJ = np.full((k + 1, n + 1), -1, dtype=np.int64)
    M[1] = R[0]
    argJ[1] = 0
    increments = [0]
    for q in range(2, k + 1):
        jc = q - 1
        prev = M[q - 1]
        inc = 0
        for i in range(q - 1, n + 1):
            cur = max(int(prev[jc - 1]), int(R[jc, i]))
            while jc < i and prev[jc] <= cur:
                jc += 1
                inc += 1
                cur = max(int(prev[jc - 1]), int(R[jc, i]))
            M[q, i] = cur
            argJ[q, i] = jc
        increments.append(inc)
    ends, sinks = [], []
    i = n
    for q in range(k, 0, -1):
        j = int(argJ[q, i])
        ends.append(i)
        sinks.append(int(sink[j, i]))
        i = j - 1
    assert i == -1
    return int(M[k, n]), tuple(reversed(ends)), tuple(reversed(sinks)), increments


def test_dp_matches_matrix_reference():
    rng = random.Random(66)
    for trial in range(300):
        n = rng.randint(0, 20)
        if trial % 3 == 0:
            # few distinct weights and gaps, so that ties are common
            inst = rand_instance(rng, n, w_max=2, gap_max=1, capacities=(1,), taus=(1, 2))
        else:
            inst = mk_uncertain(rng, n)
        k = rng.randint(1, n + 1)
        rji = compute_rji(inst, build_scenario_opt_cache(inst, k))
        want_v, want_ends, want_sinks, want_incr = _matrix_reference(rji.R, rji.sink, k)
        res = solve_minmax_regret_dp(inst, k)
        assert res.value == want_v, (inst, k)
        assert res.plan.boundaries == want_ends, (inst, k)
        assert res.plan.sinks == want_sinks, (inst, k)
        # The shared DP's pointer starts at vertex 0, so row q advances it
        # q - 1 more times than the reference's, which starts at q - 1.
        incr = res.counters["j_increments_per_row"]
        assert incr == [w + q for q, w in enumerate(want_incr)], (inst, k)
        assert res.counters["j_increments_total"] == sum(incr)
        assert res.counters["rji_sink_evals"] == rji.counters["sink_evals"]
        assert res.counters["rji_sink_moves"] == rji.counters["sink_moves"]


def _best_cover(R, end, parts):
    """Least worst part regret over all covers of [0, end] by ``parts`` parts."""
    best = None
    for cuts in itertools.combinations(range(end), parts - 1):
        ends = cuts + (end,)
        lo, worst = 0, None
        for e in ends:
            worst = R[lo, e] if worst is None else max(worst, R[lo, e])
            lo = e + 1
        best = worst if best is None else min(best, worst)
    return int(best)


def test_last_part_starts_at_rightmost_optimal_split():
    rng = random.Random(67)
    for trial in range(120):
        n = rng.randint(1, 9)
        if trial % 2 == 0:
            inst = rand_instance(rng, n, w_max=2, gap_max=1, capacities=(1,), taus=(1, 2))
        else:
            inst = mk_uncertain(rng, n)
        for k in range(2, min(4, n + 1) + 1):
            R = compute_rji(inst, build_scenario_opt_cache(inst, k)).R
            # f(j): best plan whose last part is [j, n]; the prefix [0, j-1]
            # needs at least k-1 vertices.
            f = {j: max(_best_cover(R, j - 1, k - 1), int(R[j, n]))
                 for j in range(k - 1, n + 1)}
            best = min(f.values())
            j_star = max(j for j, v in f.items() if v == best)
            res = solve_minmax_regret_dp(inst, k)
            assert res.value == best, (inst, k)
            assert res.plan.boundaries[-2] + 1 == j_star, (inst, k)
            assert res.counters["j_increments_per_row"][-1] == j_star


def test_dp_fills_the_cache_once(monkeypatch):
    """One complete fill: the lookup tables complete the solver's cache, and
    nothing asks for its entries before or after."""
    calls = []
    ensure = ScenarioOptCache.ensure

    def counted(self, t1s, t2s):
        calls.append(len(t1s))
        return ensure(self, t1s, t2s)

    monkeypatch.setattr(ScenarioOptCache, "ensure", counted)
    inst = mk_uncertain(random.Random(68), 12)
    solve_minmax_regret_dp(inst, 3)
    assert calls == [(inst.n + 2) * (inst.n + 3) // 2]


def test_bs_counters_present():
    rng = random.Random(65)
    inst = mk_uncertain(rng, 18)
    res = solve_minmax_regret_bs(inst, 3)
    for key in ("rlr_evals", "solve_evals", "probe_steps", "opt_scenarios"):
        assert key in res.counters
        assert res.counters[key] >= 0


def test_k_validation():
    inst = PathInstance((0, 1), (1, 1), (2, 2))
    with pytest.raises(ValueError):
        solve_minmax_regret_dp(inst, 0)
    with pytest.raises(ValueError):
        solve_minmax_regret_dp(inst, 3)
    with pytest.raises(ValueError):
        solve_minmax_regret_bs(inst, 3)


@pytest.mark.parametrize("solve", [solve_minmax_regret_dp, solve_minmax_regret_bs],
                         ids=["dp", "bs"])
@pytest.mark.parametrize("k", [True, 2.0, "2", None], ids=repr)
def test_k_must_be_an_integer(solve, k):
    # True was solved as k = 1 by bs and failed with a TypeError in dp
    inst = PathInstance((0, 1, 3), (1, 1, 2), (2, 3, 2))
    with pytest.raises(ValueError, match="k must be an integer, got"):
        solve(inst, k)


@pytest.mark.parametrize("solve", [solve_minmax_regret_dp, solve_minmax_regret_bs],
                         ids=["dp", "bs"])
def test_k_accepts_numpy_integers(solve):
    inst = PathInstance((0, 1, 3), (1, 1, 2), (2, 3, 2))
    assert solve(inst, np.int64(2)) == solve(inst, 2)


@settings(deadline=None, max_examples=60)
@given(data=st.data())
def test_int64_headroom_boundary(data):
    """Just below the headroom bound max|x| * tau + sum(w+) < 2^60 the int64
    DP solver agrees with the pure-int one; at or past it the cache rejects
    the instance."""
    n = data.draw(st.integers(1, 6))
    tau = data.draw(st.integers(1, 4))
    k = data.draw(st.integers(1, 2))
    gaps = [data.draw(st.integers(1, 5)) for _ in range(n)]
    wminus = [data.draw(st.integers(1, 9)) for _ in range(n + 1)]
    wplus = [lo + data.draw(st.integers(0, 9)) for lo in wminus]
    slack = data.draw(st.integers(0, 1000))
    negative = data.draw(st.booleans())
    total = sum(wplus)

    def placed(far):
        """Coordinates whose largest magnitude is ``far``, at either end."""
        xs = [0]
        for g in gaps:
            xs.append(xs[-1] + g)
        xs = [x - xs[-1] + far for x in xs] if not negative else [x - far for x in xs]
        return PathInstance(tuple(xs), tuple(wminus), tuple(wplus), tau=tau)

    below = placed((INT64_HEADROOM - 1 - slack - total) // tau)
    above = placed(-(-(INT64_HEADROOM + slack - total) // tau))
    assert solve_minmax_regret_dp(below, k).value == solve_minmax_regret_bs(below, k).value
    with pytest.raises(InvalidInstanceError):
        ScenarioOptCache(above, k)
    with pytest.raises(InvalidInstanceError):
        solve_minmax_regret_dp(above, k)
