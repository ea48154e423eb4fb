"""Evacuation-time evaluation: frozen examples, invariants, simulation."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathevac.evac import (
    Side,
    ceil_div,
    eval_all_sinks,
    eval_one_sink,
    eval_plan,
    eval_side,
    simulate_evacuation,
)
from pathevac.model import CostModel, PathInstance, Plan, Scenario

from conftest import rand_instance, rand_scenario

UNIT = PathInstance((0, 1, 2), (1, 1, 1), (1, 1, 1))
UNIT_S = Scenario((1, 1, 1))
HEAVY = PathInstance((0, 1, 2), (2, 2, 2), (2, 2, 2), capacity=2)
HEAVY_S = Scenario((2, 2, 2))


def test_ceil_div():
    assert ceil_div(5, 2) == 3
    assert ceil_div(4, 2) == 2
    assert ceil_div(0, 3) == 0
    assert ceil_div(-3, 2) == -1


def test_one_sink_simplified_example():
    assert eval_one_sink(UNIT, UNIT_S, 0, 2, 1, CostModel.SIMPLIFIED) == 2


def test_one_sink_discrete_example():
    assert eval_one_sink(HEAVY, HEAVY_S, 0, 2, 1, CostModel.DISCRETE) == 1


def test_eval_side_left_keeps_leftmost_argmax():
    res = eval_side(UNIT, UNIT_S, 0, 2, 2, Side.LEFT, CostModel.DISCRETE)
    assert (res.time, res.argmax_index) == (2, 0)


def test_eval_side_discrete_capacity_batches():
    res = eval_side(HEAVY, HEAVY_S, 0, 2, 1, Side.LEFT, CostModel.DISCRETE)
    assert (res.time, res.argmax_index) == (1, 0)


def test_eval_side_empty_side_is_zero():
    res = eval_side(UNIT, UNIT_S, 0, 2, 0, Side.LEFT, CostModel.DISCRETE)
    assert (res.time, res.argmax_index) == (0, None)


def test_eval_plan_single_sink():
    assert eval_plan(UNIT, UNIT_S, Plan((2,), (1,)), CostModel.SIMPLIFIED) == (2, 0)


def test_eval_plan_two_parts():
    plan = Plan((0, 2), (0, 1))
    assert eval_plan(UNIT, UNIT_S, plan, CostModel.SIMPLIFIED) == (2, 1)


def test_eval_plan_singletons_is_zero():
    plan = Plan((0, 1, 2), (0, 1, 2))
    assert eval_plan(UNIT, UNIT_S, plan, CostModel.SIMPLIFIED) == (0, 0)
    assert eval_plan(UNIT, UNIT_S, plan, CostModel.DISCRETE) == (0, 0)


def test_eval_plan_rejects_invalid():
    with pytest.raises(ValueError):
        eval_plan(UNIT, UNIT_S, Plan((1,), (0,)), CostModel.SIMPLIFIED)


@pytest.mark.parametrize("weights", [(1, 1), (1, 1, 1, 1)], ids=["short", "long"])
@pytest.mark.parametrize("call", [
    lambda s: eval_plan(UNIT, s, Plan((2,), (1,)), CostModel.SIMPLIFIED),
    lambda s: eval_side(UNIT, s, 0, 1, 1, Side.LEFT, CostModel.DISCRETE),
    lambda s: eval_one_sink(UNIT, s, 0, 1, 0, CostModel.DISCRETE),
    lambda s: eval_all_sinks(UNIT, s, 0, 1, CostModel.SIMPLIFIED),
    lambda s: simulate_evacuation(UNIT, s, 0, 1, 0),
], ids=["eval_plan", "eval_side", "eval_one_sink", "eval_all_sinks", "simulate"])
def test_scenario_of_wrong_length_rejected(call, weights):
    """A scenario needs one weight per vertex; neither a shorter one (which
    would index past its end) nor a longer one (whose extra weights would be
    ignored) is evaluated."""
    with pytest.raises(ValueError, match="scenario has .* weights, instance has 3 vertices"):
        call(Scenario(weights))


def test_all_sinks_simplified_example():
    assert eval_all_sinks(UNIT, UNIT_S, 0, 2, CostModel.SIMPLIFIED) == [3, 2, 3]


def test_all_sinks_single_vertex():
    one = PathInstance((0,), (4,), (4,))
    assert eval_all_sinks(one, Scenario((4,)), 0, 0, CostModel.SIMPLIFIED) == [0]
    assert eval_all_sinks(one, Scenario((4,)), 0, 0, CostModel.DISCRETE) == [0]


def test_all_sinks_matches_one_sink_everywhere():
    rng = random.Random(11)
    for _ in range(120):
        inst = rand_instance(rng, rng.randint(0, 9))
        s = rand_scenario(rng, inst)
        lo = rng.randint(0, inst.n)
        hi = rng.randint(lo, inst.n)
        for cm in (CostModel.DISCRETE, CostModel.SIMPLIFIED):
            got = eval_all_sinks(inst, s, lo, hi, cm)
            want = [eval_one_sink(inst, s, lo, hi, y, cm) for y in range(lo, hi + 1)]
            assert got == want, (inst, s, lo, hi, cm)


def test_simplified_equals_discrete_capacity_one_plus_one():
    rng = random.Random(12)
    for _ in range(150):
        inst = rand_instance(rng, rng.randint(2, 9), capacities=(1,))
        s = rand_scenario(rng, inst)
        sink = rng.randint(1, inst.n - 1)  # both sides non-empty
        disc = eval_one_sink(inst, s, 0, inst.n, sink, CostModel.DISCRETE)
        simp = eval_one_sink(inst, s, 0, inst.n, sink, CostModel.SIMPLIFIED)
        assert simp == disc + 1


def test_simulation_one_vertex_example():
    inst = PathInstance((0, 3), (5, 1), (5, 1), capacity=2, tau=1)
    s = Scenario((5, 1))
    # 5 evacuees 3 away, dispatched 2 per tick: last group leaves at t=2,
    # arrives at 2 + 3 = 5.
    assert simulate_evacuation(inst, s, 0, 1, 1) == 5
    assert eval_one_sink(inst, s, 0, 1, 1, CostModel.DISCRETE) == 5


def test_simulation_everyone_at_sink():
    inst = PathInstance((0,), (7,), (7,), capacity=3)
    assert simulate_evacuation(inst, Scenario((7,)), 0, 0, 0) == 0


def test_simulation_matches_analysis_small_sweep():
    rng = random.Random(13)
    for _ in range(60):
        inst = rand_instance(rng, rng.randint(0, 6))
        s = rand_scenario(rng, inst)
        for sink in range(inst.n + 1):
            sim = simulate_evacuation(inst, s, 0, inst.n, sink)
            ana = eval_one_sink(inst, s, 0, inst.n, sink, CostModel.DISCRETE)
            assert sim == ana, (inst, s, sink)


@settings(deadline=None, max_examples=60)
@given(
    data=st.data(),
    n=st.integers(min_value=0, max_value=7),
)
def test_one_sink_is_max_of_sides(data, n):
    coords = [0]
    for _ in range(n):
        coords.append(coords[-1] + data.draw(st.integers(1, 4)))
    w = [data.draw(st.integers(1, 6)) for _ in range(n + 1)]
    c = data.draw(st.sampled_from([1, 2, 3]))
    inst = PathInstance(tuple(coords), tuple(w), tuple(w), capacity=c)
    s = Scenario(tuple(w))
    sink = data.draw(st.integers(0, n))
    for cm in (CostModel.DISCRETE, CostModel.SIMPLIFIED):
        left = eval_side(inst, s, 0, n, sink, Side.LEFT, cm).time
        right = eval_side(inst, s, 0, n, sink, Side.RIGHT, cm).time
        assert eval_one_sink(inst, s, 0, n, sink, cm) == max(left, right)
