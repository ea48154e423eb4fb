"""Candidate scenario enumeration (the per-part family)."""

from __future__ import annotations

import random

import numpy as np
import pytest

from pathevac.model import PathInstance, Plan, ScenarioDescriptor
from pathevac.scenario_gen import enumerate_partition_candidates

from conftest import rand_instance, rand_plan


def test_partition_candidates_structure():
    inst = PathInstance((0, 1, 2, 4), (1,) * 4, (2,) * 4)
    plan = Plan((1, 3), (0, 2))
    cands = enumerate_partition_candidates(inst, plan.boundaries)
    # all under valid global bounds, part indices correct, no dup per part
    seen = set()
    for part, d in cands:
        assert part in (0, 1)
        assert 0 <= d.t1 <= d.t2 <= inst.n + 1
        assert (part, d) not in seen
        seen.add((part, d))
    # part 0 = [0, 1]: left family (0, m) m in 0..2, right family (m, 2)
    part0 = [d for p, d in cands if p == 0]
    assert ScenarioDescriptor(0, 0) in part0
    assert ScenarioDescriptor(0, 2) in part0
    assert ScenarioDescriptor(1, 2) in part0
    # part 1 = [2, 3]: families anchored at 2 and 4
    part1 = [d for p, d in cands if p == 1]
    assert ScenarioDescriptor(2, 4) in part1
    assert ScenarioDescriptor(3, 4) in part1


def test_partition_candidates_accepts_boundaries_sequence():
    inst = PathInstance((0, 1, 2, 4), (1,) * 4, (2,) * 4)
    plan = Plan((1, 3), (0, 2))
    assert enumerate_partition_candidates(inst, plan.boundaries) == (
        enumerate_partition_candidates(inst, [1, 3]))


def test_singleton_part_candidates_collapse():
    inst = PathInstance((0, 1), (1, 1), (2, 2))
    cands = enumerate_partition_candidates(inst, (0, 1))
    part0 = [d for p, d in cands if p == 0]
    # dedup is by descriptor identity: both empty windows (0,0) and (1,1)
    # appear even though they realize to the same all-lower scenario
    assert set(part0) == {
        ScenarioDescriptor(0, 0),
        ScenarioDescriptor(0, 1),
        ScenarioDescriptor(1, 1),
    }
    from pathevac.model import realize_scenario

    assert realize_scenario(inst, ScenarioDescriptor(1, 1)) == realize_scenario(
        inst, ScenarioDescriptor(0, 0)
    )


def test_partition_candidates_reject_bad_boundaries():
    inst = PathInstance((0, 1, 2), (1,) * 3, (2,) * 3)
    with pytest.raises(ValueError):
        enumerate_partition_candidates(inst, ())
    with pytest.raises(ValueError):
        enumerate_partition_candidates(inst, (1,))  # does not end at n
    with pytest.raises(ValueError):
        enumerate_partition_candidates(inst, (1, 1, 2))  # not increasing


def test_partition_candidates_subset_of_global():
    rng = random.Random(32)
    for _ in range(30):
        inst = rand_instance(rng, rng.randint(0, 9))
        k = rng.randint(1, min(4, inst.n + 1))
        plan = rand_plan(rng, inst, k)
        # the global family: every window 0 <= t1 <= t2 <= n+1
        global_set = set(zip(*(t.tolist() for t in np.triu_indices(inst.n + 2))))
        for _part, d in enumerate_partition_candidates(inst, plan.boundaries):
            assert d in global_set
