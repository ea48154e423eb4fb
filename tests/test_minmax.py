"""Minmax-regret solvers: DP and nested binary search."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathevac._batch import INT64_HEADROOM
from pathevac.minmax import solve_minmax_regret_bs, solve_minmax_regret_dp
from pathevac.model import InvalidInstanceError, PathInstance, validate_plan
from pathevac.oracle import brute_minmax_regret
from pathevac.regret import ScenarioOptCache, build_scenario_opt_cache, max_regret_of_plan

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
