"""Instance/scenario/plan data model and serialization."""

from __future__ import annotations

import random

import numpy as np
import pytest

from pathevac.model import (
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

from conftest import rand_instance


GOOD = PathInstance((0, 2, 5), (1, 2, 1), (3, 2, 4), capacity=2, tau=1)


def test_basic_properties():
    assert GOOD.n == 2
    assert GOOD.num_vertices == 3
    GOOD.require_valid()


def test_validate_instance_messages():
    bad = PathInstance((0, 5, 5), (1, 3, 0), (2, 2, 1), capacity=0, tau=0)
    msgs = validate_instance(bad)
    assert "coords not strictly increasing at index 2" in msgs
    assert "weight interval empty at index 1" in msgs
    assert "weight lower bound not positive at index 2" in msgs
    assert "capacity not positive" in msgs
    assert "tau not positive" in msgs


def test_validate_instance_length_mismatch():
    bad = PathInstance((0, 1), (1,), (1, 1), capacity=1, tau=1)
    assert validate_instance(bad)


def test_require_valid_raises():
    bad = PathInstance((0, 0), (1, 1), (1, 1))
    with pytest.raises(InvalidInstanceError):
        bad.require_valid()


@pytest.mark.parametrize("make", [
    lambda: PathInstance((0, 1.7, 3.2), (1, 1, 1), (1, 1, 1)),
    lambda: PathInstance((0, 1, 3), (1, 1.5, 1), (1, 2, 1)),
    lambda: PathInstance((0, 1, 3), (1, 1, 1), (1, 2.0, 1)),
    lambda: PathInstance((0, 1, 3), (1, 1, 1), (1, 1, 1), capacity=1.5),
    lambda: PathInstance((0, 1, 3), (1, 1, 1), (1, 1, 1), tau=2.0),
    lambda: PathInstance((0, 1, 3), (1, 1, 1), (1, 1, 1), capacity=True),
    lambda: PathInstance((0, True, 3), (1, 1, 1), (1, 1, 1)),
    lambda: Scenario((1, 2.5)),
    lambda: Scenario((1, False)),
    lambda: Plan((0, 1.0), (0, 1)),
    lambda: Plan((0, 1), (0, 1.9)),
    lambda: Plan((0, 1), ("0", 1)),
], ids=["coord", "w_min", "w_max", "capacity", "tau", "capacity-bool", "coord-bool",
        "weight", "weight-bool", "boundary", "sink", "sink-str"])
def test_constructors_reject_non_integers(make):
    # a float is not truncated and a bool is not taken for 0 or 1
    with pytest.raises(ValueError, match="must be an integer, got"):
        make()


@pytest.mark.parametrize("w", [(3, -4, 2, 6), (0, 0, 0, 0)], ids=["negative", "zeros"])
def test_scenario_rejects_weights_below_one(w):
    # On PathInstance((0, 3, 4, 9), (1,) * 4, (5,) * 4, capacity=2, tau=1) and
    # k = 2, (3, -4, 2, 6) gave a DP optimum of 4 where the brute force found 3,
    # and all zeros a one-sink time of 5 where the simulation found 0.
    with pytest.raises(ValueError, match="scenario weights must be at least 1"):
        Scenario(w)


def test_constructors_accept_numpy_integers():
    inst = PathInstance(np.array([0, 2, 5]), np.array([1, 2, 1]), np.array([3, 2, 4]),
                        capacity=np.int64(2), tau=np.int32(1))
    assert inst == GOOD
    assert all(type(v) is int for v in inst.coords + (inst.capacity, inst.tau))
    assert Scenario(np.array([1, 2])).weights == (1, 2)
    assert Plan(np.array([0, 2]), np.array([0, 1])) == Plan((0, 2), (0, 1))


def test_cost_model_check():
    assert CostModel.check("discrete") == CostModel.DISCRETE
    assert CostModel.check("simplified") == CostModel.SIMPLIFIED
    with pytest.raises(ValueError):
        CostModel.check("continuous")


def test_plan_parts_and_k():
    plan = Plan((1, 2), (0, 2))
    assert plan.k == 2
    assert plan.parts() == [(0, 1), (2, 2)]


def test_validate_plan_catches_bad_plans():
    assert validate_plan(GOOD, Plan((2,), (1,))) == []
    assert validate_plan(GOOD, Plan((1,), (2,)))  # sink outside its part
    assert validate_plan(GOOD, Plan((1, 2), (0, 1)))  # sink 1 not in [2, 2]
    assert validate_plan(GOOD, Plan((1,), (0,)))  # does not cover the path
    assert validate_plan(GOOD, Plan((2, 2), (0, 2)))  # non-increasing ends


def test_realize_scenario_and_bounds():
    d = ScenarioDescriptor(1, 2)
    s = realize_scenario(GOOD, d)
    assert s.weights == (1, 2, 1)
    assert realize_scenario(GOOD, ScenarioDescriptor(np.int64(1), np.int32(2))) == s
    assert scenario_within_bounds(GOOD, s)
    assert realize_scenario(GOOD, ScenarioDescriptor(0, 0)).weights == GOOD.wminus
    assert realize_scenario(GOOD, ScenarioDescriptor(0, 3)).weights == GOOD.wplus
    assert not scenario_within_bounds(GOOD, Scenario((1, 1, 1)))  # w_min of vertex 1 is 2
    with pytest.raises(ValueError, match="at least 1"):
        Scenario((0, 2, 1))
    assert not scenario_within_bounds(GOOD, Scenario((1, 2)))
    with pytest.raises(ValueError):
        realize_scenario(GOOD, ScenarioDescriptor(2, 1))
    with pytest.raises(ValueError):
        realize_scenario(GOOD, ScenarioDescriptor(0, 4))


@pytest.mark.parametrize("d", [(0.5, 2.5), (0, 2.0), (True, 2), (0, True), ("1", 2)],
                         ids=["floats", "float-t2", "bool-t1", "bool-t2", "string"])
def test_realize_scenario_rejects_non_integer_descriptors(d):
    # (0.5, 2.5) would realize upper bounds on [1, 3), and True would act as 1
    with pytest.raises(ValueError, match="t[12] must be an integer, got"):
        realize_scenario(GOOD, ScenarioDescriptor(*d))


def test_instance_roundtrip_is_deterministic(tmp_path):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_instance(GOOD, str(p1))
    save_instance(GOOD, str(p2))
    assert p1.read_bytes() == p2.read_bytes()
    assert load_instance(str(p1)) == GOOD
    obj = instance_to_obj(GOOD)
    assert instance_from_obj(obj) == GOOD


def test_instance_from_obj_rejects_malformed():
    with pytest.raises(InvalidInstanceError):
        instance_from_obj({"vertices": 3, "capacity": 1, "tau": 1})
    with pytest.raises(InvalidInstanceError):
        instance_from_obj({"capacity": 1, "tau": 1})


@pytest.mark.parametrize("field", ["x", "w_min", "w_max", "capacity", "tau"])
def test_instance_from_obj_names_the_non_integer_field(field):
    obj = instance_to_obj(GOOD)
    if field in ("capacity", "tau"):
        obj[field] = 1.5
    else:
        obj["vertices"][1][field] = 1.5
    with pytest.raises(InvalidInstanceError) as exc:
        instance_from_obj(obj)
    assert str(exc.value) == f"malformed instance object: {field} must be an integer, got 1.5"


@pytest.mark.parametrize("field", ["r", "sink"])
def test_plan_from_obj_names_the_non_integer_field(field):
    obj = plan_to_obj(Plan((1, 2), (0, 2)), 7, "evac_time")
    obj["parts"][0][field] = 1.5
    with pytest.raises(ValueError) as exc:
        plan_from_obj(obj)
    assert type(exc.value) is ValueError
    assert str(exc.value) == f"{field} must be an integer, got 1.5"


def test_plan_roundtrip(tmp_path):
    plan = Plan((1, 2), (0, 2))
    path = tmp_path / "plan.json"
    save_plan(plan, 42, "evac_time", str(path))
    got, objective, kind = load_plan(str(path))
    assert got == plan
    assert objective == 42
    assert kind == "evac_time"
    with pytest.raises(ValueError):
        plan_to_obj(plan, 0, "speed")
    obj = plan_to_obj(plan, 0, "max_regret")
    obj["objective_kind"] = "speed"
    with pytest.raises(ValueError):
        plan_from_obj(obj)
    obj = plan_to_obj(plan, 0, "max_regret")
    obj["parts"][1]["l"] = 0  # overlapping parts
    with pytest.raises(ValueError):
        plan_from_obj(obj)


def test_random_instances_validate(seed=5):
    rng = random.Random(seed)
    for _ in range(50):
        inst = rand_instance(rng, rng.randint(0, 10))
        assert validate_instance(inst) == []
