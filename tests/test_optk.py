"""Optimal k-sink dynamic program and subpath trackers."""

from __future__ import annotations

import random

import pytest

from pathevac.evac import eval_one_sink
from pathevac.model import (
    CostModel,
    InvalidInstanceError,
    PathInstance,
    Plan,
    Scenario,
)
from pathevac.optk import (
    SubpathTracker,
    _FastTracker,
    _prefix_weights,
    optimal_k_sink,
    optimal_one_sink,
    solve_optimal_k_sink,
)
from pathevac.oracle import brute_optimal_k_sink

from conftest import rand_instance, rand_scenario

UNIT = PathInstance((0, 1, 2), (1, 1, 1), (1, 1, 1))
UNIT_S = Scenario((1, 1, 1))
HEAVY = PathInstance((0, 1, 2), (2, 2, 2), (2, 2, 2), capacity=2)
HEAVY_S = Scenario((2, 2, 2))


def test_one_sink_examples():
    assert optimal_one_sink(UNIT, UNIT_S, 0, 2, CostModel.SIMPLIFIED) == (2, 1)
    assert optimal_one_sink(HEAVY, HEAVY_S, 0, 2, CostModel.DISCRETE) == (1, 1)


def test_two_sinks_example():
    value, plan = optimal_k_sink(UNIT, UNIT_S, 2, CostModel.SIMPLIFIED)
    assert value == 2
    assert plan == Plan((1, 2), (0, 2))


def test_one_sink_per_vertex_is_free():
    value, plan = optimal_k_sink(UNIT, UNIT_S, 3, CostModel.SIMPLIFIED)
    assert value == 0
    assert plan == Plan((0, 1, 2), (0, 1, 2))


def test_input_validation():
    with pytest.raises(InvalidInstanceError):
        optimal_k_sink(PathInstance((0, 0), (1, 1), (1, 1)), Scenario((1, 1)), 1)
    with pytest.raises(ValueError):
        optimal_k_sink(UNIT, Scenario((1, 1)), 1)
    with pytest.raises(ValueError):
        optimal_k_sink(UNIT, UNIT_S, 0)
    with pytest.raises(ValueError):
        optimal_k_sink(UNIT, UNIT_S, 4)


def test_matches_brute_force_small():
    rng = random.Random(21)
    for _ in range(120):
        inst = rand_instance(rng, rng.randint(0, 9))
        s = rand_scenario(rng, inst)
        k = rng.randint(1, min(3, inst.n + 1))
        for cm in (CostModel.DISCRETE, CostModel.SIMPLIFIED):
            want, _ = brute_optimal_k_sink(inst, s, k, cm)
            got, plan = optimal_k_sink(inst, s, k, cm)
            assert got == want, (inst, s, k, cm)
            # the returned plan actually achieves the value
            worst = max(
                eval_one_sink(inst, s, l, r, y, cm)
                for (l, r), y in zip(plan.parts(), plan.sinks)
            )
            assert worst == got


def test_counters_bounded_linearly():
    rng = random.Random(22)
    for _ in range(20):
        inst = rand_instance(rng, rng.randint(4, 30))
        s = rand_scenario(rng, inst)
        k = rng.randint(1, 4)
        res = solve_optimal_k_sink(inst, s, k, CostModel.SIMPLIFIED)
        n = inst.n
        assert len(res.counters["j_increments_per_row"]) == k
        for inc in res.counters["j_increments_per_row"]:
            assert inc <= 2 * n
        assert res.counters["sink_moves"] <= 3 * k * (n + 1)


def test_value_non_increasing_in_k():
    rng = random.Random(23)
    for _ in range(10):
        inst = rand_instance(rng, 12)
        s = rand_scenario(rng, inst)
        for cm in (CostModel.DISCRETE, CostModel.SIMPLIFIED):
            values = [solve_optimal_k_sink(inst, s, k, cm).value for k in range(1, 14)]
            assert values == sorted(values, reverse=True), (inst, s, cm)
            assert values[-1] == 0  # one sink per vertex


def _fast_tracker(inst, s, cm):
    return _FastTracker(inst, s, cm == CostModel.DISCRETE, 0, _prefix_weights(s))


@pytest.mark.parametrize("make", [SubpathTracker, _fast_tracker],
                         ids=["SubpathTracker", "_FastTracker"])
def test_tracker_window_matches_direct_eval(make):
    rng = random.Random(24)
    for _ in range(40):
        inst = rand_instance(rng, rng.randint(1, 10))
        s = rand_scenario(rng, inst)
        cm = rng.choice([CostModel.DISCRETE, CostModel.SIMPLIFIED])
        if make is _fast_tracker and cm == CostModel.DISCRETE:
            # the fast tracker's discrete model is the unit-capacity one
            inst = PathInstance(inst.coords, inst.wminus, inst.wplus, tau=inst.tau)
        tr = make(inst, s, cm)
        n = inst.n
        # grow to the full path, then shrink from the left
        for i in range(n + 1):
            tr.append(i)
            want, _ = optimal_one_sink(inst, s, 0, i, cm)
            assert tr.theta() == want, ("grow", inst, s, cm, i)
        for j in range(n):
            tr.drop_left()
            want, _ = optimal_one_sink(inst, s, j + 1, n, cm)
            assert tr.theta() == want, ("shrink", inst, s, cm, j)
