"""Scenario-optimum cache, lookup tables, plan regret, and the R matrix."""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathevac import _batch
from pathevac._batch import ScenarioBatchEngine
from pathevac.evac import Side, eval_plan, eval_side
from pathevac.model import (
    CostModel,
    PathInstance,
    Plan,
    ScenarioDescriptor,
    realize_scenario,
)
from pathevac.optk import solve_optimal_k_sink
from pathevac.oracle import brute_rji_matrix
from pathevac.regret import (
    _UNSET,
    ScenarioOptCache,
    build_lookup_tables,
    build_scenario_opt_cache,
    compute_rji,
    max_regret_of_plan,
    regret_of_plan,
)
from pathevac.scenario_gen import enumerate_partition_candidates

from conftest import check_rji_invariants, rand_instance, rand_plan


def unit_interval_instance():
    return PathInstance((0, 1, 2), (1, 1, 1), (3, 3, 3))


def mk_uncertain(rng: random.Random, n: int, w_max: int = 8) -> PathInstance:
    return rand_instance(rng, n, w_max=w_max, capacities=(1,), taus=(1, 2))


def mk_interval(rng: random.Random, n: int) -> PathInstance:
    """Random instance with about a fifth of its weights point intervals."""
    coords = sorted(rng.sample(range(4 * n + 2), n + 1))
    wminus = [rng.randint(1, 9) for _ in range(n + 1)]
    wplus = [lo if rng.random() < 0.2 else lo + rng.randint(1, 8) for lo in wminus]
    return PathInstance(tuple(coords), tuple(wminus), tuple(wplus),
                        capacity=rng.randint(1, 3), tau=rng.randint(1, 3))


# -- cache -------------------------------------------------------------------


def test_cache_batch_equals_reference_engine():
    rng = random.Random(51)
    for _ in range(12):
        inst = mk_uncertain(rng, rng.randint(0, 9))
        k = rng.randint(1, min(3, inst.n + 1))
        a = build_scenario_opt_cache(inst, k, engine="batch")
        b = build_scenario_opt_cache(inst, k, engine="reference")
        assert np.array_equal(a.values, b.values)


def test_anchor_path_equals_plain_chunks(monkeypatch):
    """A complete fill large enough for anchor brackets equals the same lanes
    solved in chunks below the lane threshold, and the per-scenario DP."""
    calls = []
    brackets = ScenarioBatchEngine._brackets

    def counted(self, t1, t2, optima):
        def anchors(a1, a2):
            calls.append(t1.shape[0])
            return optima(a1, a2)

        return brackets(self, t1, t2, anchors)

    monkeypatch.setattr(ScenarioBatchEngine, "_brackets", counted)
    rng = random.Random(59)
    n = 60
    t1, t2 = np.triu_indices(n + 2)
    assert t1.size >= _batch._ANCHOR_MIN_LANES
    chunk = _batch._ANCHOR_MIN_LANES // 2
    for it, k in enumerate((1, 2, 4, 6)):
        inst = rand_instance(rng, n, w_max=30, capacities=(1,), taus=(1, 2, 3))
        if it % 2 == 0:  # point intervals: every bracket with an inner window is closed
            inst = PathInstance(inst.coords, inst.wminus, inst.wminus, tau=inst.tau)
        eng = ScenarioBatchEngine(inst)
        calls.clear()
        full = eng.solve(k, t1, t2)
        assert calls == [t1.size]
        parts = [eng.solve(k, t1[i:i + chunk], t2[i:i + chunk])
                 for i in range(0, t1.size, chunk)]
        assert calls == [t1.size]
        assert np.array_equal(full, np.concatenate(parts))
        for idx in rng.sample(range(t1.size), 8):
            d = ScenarioDescriptor(int(t1[idx]), int(t2[idx]))
            want = solve_optimal_k_sink(inst, realize_scenario(inst, d), k,
                                        CostModel.SIMPLIFIED).value
            assert full[idx] == want, (k, d)


def test_anchor_path_on_every_call_equals_reference_engine(monkeypatch):
    """Complete fills with anchor brackets on every call, however few its
    lanes, equal the per-scenario DP."""
    monkeypatch.setattr(_batch, "_ANCHOR_MIN_LANES", 1)
    rng = random.Random(60)
    for _ in range(100):
        n = rng.randint(0, 25)
        inst = mk_interval(rng, n)
        k = rng.randint(1, n + 1)
        a = build_scenario_opt_cache(inst, k, engine="batch")
        b = build_scenario_opt_cache(inst, k, engine="reference")
        assert np.array_equal(a.values, b.values), (inst, k)


@settings(deadline=None, max_examples=40)
@given(data=st.data())
def test_greedy_positions_monotone_in_bound(data):
    """The fact behind the position brackets: per lane and part, the greedy's
    sink and part end at bound v are at most those at v + 1.  Probing v + 1
    inside the brackets that v and v + 2 give changes nothing."""
    n = data.draw(st.integers(0, 12))
    inst = mk_interval(random.Random(data.draw(st.integers(0, 2**32 - 1))), n)
    k = data.draw(st.integers(1, n + 1))
    eng = ScenarioBatchEngine(inst)
    t1, t2 = (a.astype(np.int64) for a in np.triu_indices(n + 2))
    free_low = np.zeros((2, min(k, n + 1), t1.size), dtype=np.int32)
    free_high = np.full_like(free_low, n)

    def probe(v, low=free_low, high=free_high):
        ok, at, _got, _nxt = eng._feasible(np.full(t1.size, v, dtype=np.int64), t1, t2,
                                           low, high)
        return ok, at

    for v in data.draw(st.lists(st.integers(0, int(eng._upper(t1, t2).max())),
                                min_size=1, max_size=4)):
        runs = [probe(v + i) for i in range(3)]
        for ok, at in runs:
            assert np.all(at[0] <= at[1])
        for (ok0, at0), (ok1, at1) in zip(runs, runs[1:]):
            assert np.all(at0 <= at1), v
            assert np.all(ok0 <= ok1), v
        ok, at = probe(v + 1, runs[0][1], runs[2][1])
        assert np.array_equal(ok, runs[1][0]) and np.array_equal(at, runs[1][1]), v


@settings(deadline=None, max_examples=40)
@given(data=st.data())
def test_greedy_critical_values_exact(data):
    """The facts behind ``_bisect``'s jumps, on every lane: a feasible probe's
    ``got`` is a feasible time in [OPT, v], and an infeasible probe's
    ``nxt`` > v is a bound just below which the greedy builds the same
    plan and still fails."""
    n = data.draw(st.integers(0, 12))
    inst = mk_interval(random.Random(data.draw(st.integers(0, 2**32 - 1))), n)
    k = data.draw(st.integers(1, n + 1))
    eng = ScenarioBatchEngine(inst)
    t1, t2 = (a.astype(np.int64) for a in np.triu_indices(n + 2))
    opt = build_scenario_opt_cache(inst, k, engine="reference").values[t1, t2]
    low = np.zeros((2, min(k, n + 1), t1.size), dtype=np.int32)
    high = np.full_like(low, n)

    def probe(v):
        return eng._feasible(v, t1, t2, low, high)

    top = int(eng._upper(t1, t2).max())
    bounds = [np.full(t1.size, v, dtype=np.int64)
              for v in data.draw(st.lists(st.integers(0, top), min_size=1, max_size=3))]
    # and per lane, a few steps off its optimum
    bounds += [np.maximum(opt + d, 0) for d in data.draw(st.lists(st.integers(-3, 3), max_size=2))]
    for v in bounds:
        ok, at, got, nxt = probe(v)
        assert np.array_equal(ok, v >= opt), v
        assert np.all(got[ok] <= v[ok]) and np.all(got[ok] >= opt[ok]), v
        assert np.all(probe(got)[0][ok]), v
        assert np.all(nxt[~ok] > v[~ok]) and np.all(nxt[~ok] <= opt[~ok]), v
        ok2, at2, _got, _nxt = probe(np.where(ok, v, nxt - 1))
        assert not np.any(ok2[~ok]), v
        assert np.array_equal(at2[:, :, ~ok], at[:, :, ~ok]), v


@settings(deadline=None, max_examples=40)
@given(data=st.data())
def test_bisect_finds_optimum_from_any_bracket(data):
    """``_bisect``'s contract, on every lane: from any bracket [lo, hi] with
    0 <= lo <= OPT <= hi it returns OPT.  The brackets mix closed, narrow
    and wide ones, so lanes close on different probes and the open lanes
    are compacted several times."""
    n = data.draw(st.integers(0, 12))
    inst = mk_interval(random.Random(data.draw(st.integers(0, 2**32 - 1))), n)
    k = data.draw(st.integers(1, n + 1))
    eng = ScenarioBatchEngine(inst)
    t1, t2 = (a.astype(np.int64) for a in np.triu_indices(n + 2))
    opt = build_scenario_opt_cache(inst, k, engine="reference").values[t1, t2]
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    d = rng.integers(0, 1 << rng.integers(0, 16, size=(2, t1.size)))
    d[:, rng.random(t1.size) < 0.25] = 0
    lo = np.maximum(opt - d[0], 0)
    hi = opt + d[1]
    assert np.array_equal(eng._bisect(k, t1, t2, lo.copy(), hi.copy()), opt)


@settings(deadline=None, max_examples=40)
@given(data=st.data())
def test_optimum_monotone_and_delta_bounded(data):
    """The two facts behind the anchor brackets, on the per-scenario DP:
    adding one vertex to the window of upper bounds never lowers the
    optimum and raises it by at most that vertex's w+ - w-."""
    n = data.draw(st.integers(0, 8))
    coords = [0]
    for _ in range(n):
        coords.append(coords[-1] + data.draw(st.integers(1, 5)))
    wminus = [data.draw(st.integers(1, 8)) for _ in range(n + 1)]
    wplus = [lo + data.draw(st.integers(0, 8)) for lo in wminus]
    inst = PathInstance(tuple(coords), tuple(wminus), tuple(wplus),
                        tau=data.draw(st.integers(1, 3)))
    k = data.draw(st.integers(1, min(3, n + 1)))
    v = build_scenario_opt_cache(inst, k, engine="reference").values
    delta = [hi - lo for lo, hi in zip(wminus, wplus)]
    for t1 in range(n + 2):
        for t2 in range(t1, n + 2):
            if t2 <= n:
                assert v[t1, t2] <= v[t1, t2 + 1] <= v[t1, t2] + delta[t2]
            if t1 > 0:
                assert v[t1, t2] <= v[t1 - 1, t2] <= v[t1, t2] + delta[t1 - 1]


def test_brackets_hold_every_lane():
    """Every lane's optimum lies in its anchor bracket [lo, hi], with anchor
    optima from the per-scenario DP, on every lane: lanes inside one grid
    cell, lanes ending at n + 1 and the empty windows included.  With point
    intervals every bracket is closed."""
    rng = random.Random(65)
    for it, n in enumerate((0, 3, 4, 9, 17, 30, 31, 32, 33, 40)):
        inst = mk_interval(rng, n)
        if it % 2:
            inst = PathInstance(inst.coords, inst.wminus, inst.wminus,
                                inst.capacity, inst.tau)
        k = rng.randint(1, min(4, n + 1))
        ref = build_scenario_opt_cache(inst, k, engine="reference")
        t1, t2 = (a.astype(np.int64) for a in np.triu_indices(n + 2))
        opt = ref.values
        lo, hi = ScenarioBatchEngine(inst)._brackets(t1, t2, lambda a1, a2: opt[a1, a2])
        v = opt[t1, t2]
        assert np.all(lo <= v) and np.all(v <= hi), (inst, k)
        if it % 2:
            assert np.array_equal(lo, hi), (inst, k)


def _top_level_cases(rng, count, n_max):
    """Seeded instances with k = 1, 2, n + 1 and random in turn; every third
    one all point intervals and every third one tie-heavy."""
    for it in range(count):
        n = rng.randint(0, n_max)
        inst = mk_interval(rng, n)
        if it % 3 == 1:
            inst = PathInstance(inst.coords, inst.wminus, inst.wminus,
                                inst.capacity, inst.tau)
        elif it % 3 == 2:
            wminus = [rng.randint(1, 2) for _ in range(n + 1)]
            wplus = [lo + rng.randint(0, 1) for lo in wminus]
            inst = PathInstance(inst.coords, tuple(wminus), tuple(wplus),
                                inst.capacity, inst.tau)
        k = min((1, 2, n + 1, rng.randint(1, n + 1))[it % 4], n + 1)
        yield it, inst, k


def test_top_level_brackets_hold_every_lane(monkeypatch):
    """Below the anchor lane count, with more lanes than vertices, every
    lane's optimum lies in its top-level bracket from the all-lower and
    all-upper optima, which is closed on point intervals; and every
    bisection of a fill starts from a bracket with 0 <= lo <= hi."""
    bisect = ScenarioBatchEngine._bisect

    def checked_bisect(self, k, t1, t2, lo, hi):
        assert np.all((lo >= 0) & (lo <= hi))
        return bisect(self, k, t1, t2, lo, hi)

    monkeypatch.setattr(ScenarioBatchEngine, "_bisect", checked_bisect)
    rng = random.Random(69)
    for it, inst, k in _top_level_cases(rng, 32, 40):
        n = inst.n
        ref = build_scenario_opt_cache(inst, k, engine="reference")
        t1, t2 = (a.astype(np.int64) for a in np.triu_indices(n + 2))
        assert n + 1 < t1.size < _batch._ANCHOR_MIN_LANES
        eng = ScenarioBatchEngine(inst)
        lo, hi = eng._top_level(k, t1, t2)
        assert eng._extreme_optima(k) == [ref.values[0, 0], ref.values[0, n + 1]]
        v = ref.values[t1, t2]
        assert np.all(lo <= v) and np.all(v <= hi), (inst, k)
        if it % 3 == 1:
            assert np.array_equal(lo, hi), (inst, k)
        assert np.array_equal(eng.solve(k, t1, t2), v), (inst, k)


SHAPES = ("weight", "distance", "point", "ties")


def _shaped_instance(rng, n, shape):
    """Random instance of one shape: weight-dominated (unit gaps, weights and
    deltas in the hundreds), distance-dominated (gaps far above weights),
    all point intervals, or tie-heavy (weights 1-2, deltas 0-1)."""
    gap, w, dw = {"weight": ((1, 1), (100, 200), (100, 200)),
                  "distance": ((200, 400), (1, 3), (0, 3)),
                  "point": ((1, 9), (1, 30), (0, 0)),
                  "ties": ((1, 3), (1, 2), (0, 1))}[shape]
    coords = [0]
    for _ in range(n):
        coords.append(coords[-1] + rng.randint(*gap))
    wminus = [rng.randint(*w) for _ in range(n + 1)]
    wplus = [lo + rng.randint(*dw) for lo in wminus]
    return PathInstance(tuple(coords), tuple(wminus), tuple(wplus),
                        capacity=rng.randint(1, 3), tau=rng.randint(1, 3))


def _headroom_instance(rng, n, weight_share):
    """Instance with max|x| * tau + sum(w+) just below 2^60, about
    ``weight_share`` of it in the weights, on either side of 0."""
    tau = rng.randint(1, 3)
    share = weight_share // (n + 1)
    wminus = [rng.randint(1, share // 2) for _ in range(n + 1)]
    wplus = [lo if rng.random() < 0.2 else lo + rng.randint(1, share // 2) for lo in wminus]
    far = (_batch.INT64_HEADROOM - 1 - rng.randint(0, 1000) - sum(wplus)) // tau
    xs = sorted(rng.sample(range(1, far), n))
    xs = [-far] + [x - far for x in xs] if rng.random() < 0.5 else xs + [far]
    inst = PathInstance(tuple(xs), tuple(wminus), tuple(wplus),
                        capacity=rng.randint(1, 3), tau=tau)
    reach = max(abs(xs[0]), abs(xs[-1])) * tau + sum(wplus)
    assert _batch.INT64_HEADROOM - 2000 - tau < reach < _batch.INT64_HEADROOM
    return inst


def _assert_plan_bounds_hold(inst, k):
    n = inst.n
    t1, t2 = (a.astype(np.int64) for a in np.triu_indices(n + 2))
    lo, hi = ScenarioBatchEngine(inst)._plan_bounds(k, t1, t2)
    v = build_scenario_opt_cache(inst, k, engine="reference").values[t1, t2]
    assert np.all(0 <= lo) and np.all(lo <= v) and np.all(v <= hi), (inst, k)


def test_plan_bounds_hold_every_lane():
    """Every lane's optimum lies in its plan bracket [lo, hi], with 0 <= lo,
    on weight-dominated, distance-dominated, point-interval and tie-heavy
    instances, with k = 1, 2, n + 1 and random, on the one-vertex path and
    at the int64 headroom."""
    rng = random.Random(72)
    for it in range(48):
        n = rng.randint(0, 30)
        k = min((1, 2, n + 1, rng.randint(1, n + 1))[it % 4], n + 1)
        _assert_plan_bounds_hold(_shaped_instance(rng, n, SHAPES[it // 4 % 4]), k)
    for shape in SHAPES:
        _assert_plan_bounds_hold(_shaped_instance(rng, 0, shape), 1)
    for it in range(12):
        n = rng.randint(1, 8)
        inst = _headroom_instance(rng, n, (3 << 58, 1 << 50, 1 << 59)[it % 3])
        _assert_plan_bounds_hold(inst, (1, 2, n + 1, rng.randint(1, n + 1))[it % 4])


@settings(deadline=None, max_examples=40)
@given(data=st.data())
def test_plan_bounds_hold_every_lane_on_drawn_instances(data):
    """The plan brackets of ``test_plan_bounds_hold_every_lane`` on drawn
    shapes, sizes and k."""
    n = data.draw(st.integers(0, 12))
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
    inst = _shaped_instance(rng, n, data.draw(st.sampled_from(SHAPES)))
    k = data.draw(st.sampled_from((1, min(2, n + 1), n + 1)) | st.integers(1, n + 1))
    _assert_plan_bounds_hold(inst, k)


def test_audit_takes_top_level_only_where_it_narrows(monkeypatch):
    """The audit's rule: a weight-dominated audit, whose plan brackets are
    narrower than most candidates' delta sums, never calls the
    fixed-scenario DP; a point-interval audit takes the top level, so every
    bracket closes and the threshold search makes no probe.  Value and
    witness equal those of every candidate realized and evaluated."""
    from pathevac import optk

    solve = optk.solve_optimal_k_sink
    probe = ScenarioBatchEngine._probe
    dp_calls = []
    probes = {"weight": 0, "point": 0}

    def counted(*args):
        dp_calls.append(args)
        return solve(*args)

    def recorded_probe(self, *args):
        probes[shape] += 1
        return probe(self, *args)

    monkeypatch.setattr(optk, "solve_optimal_k_sink", counted)
    monkeypatch.setattr(ScenarioBatchEngine, "_probe", recorded_probe)
    rng = random.Random(73)
    for shape in ("weight", "point"):
        for it in range(12):
            n = rng.randint(16, 60)
            inst = _shaped_instance(rng, n, shape)
            k = rng.randint(1, n // 8) if it % 2 else (1, 2, n + 1)[it // 2 % 3]
            if shape == "weight":  # parts of at least 8 vertices: narrow plan brackets
                k = min(k, n // 8)
            plan = rand_plan(rng, inst, k)
            want = _max_regret_per_candidate(
                inst, plan, build_scenario_opt_cache(inst, k, engine="reference", fill="lazy"))
            dp_calls.clear()
            assert max_regret_of_plan(inst, plan) == want, (inst, plan)
            assert probes["point"] == 0, (inst, plan)
            assert len(dp_calls) == (2 if shape == "point" else 0), (inst, plan)
    assert probes["weight"] > 0


@pytest.mark.parametrize("extreme", [0, 1], ids=("all_lower", "all_upper"))
@pytest.mark.parametrize("error", [1, -1])
def test_wrong_extreme_optimum_raises(monkeypatch, extreme, error):
    """An all-lower or all-upper optimum off by one from the DP that the
    batch engine calls raises RuntimeError in a fill (top level and anchor
    stage) and in an audit that takes the top level (point intervals), and
    leaves no value in the cache; an audit from its plan brackets alone
    (weight-dominated) never calls the DP and stays exact."""
    from pathevac import optk

    solve = optk.solve_optimal_k_sink
    dp_calls = []

    def off_by_one(inst, s, k, cm=CostModel.DISCRETE):
        dp_calls.append(k)
        res = solve(inst, s, k, cm)
        if s.weights == (inst.wminus, inst.wplus)[extreme]:
            res.value += error
        return res

    monkeypatch.setattr(optk, "solve_optimal_k_sink", off_by_one)
    rng = random.Random(70)
    for n in (3, 12, 60):
        inst = rand_instance(rng, n, w_max=9)
        k = rng.randint(1, min(4, n))
        cache = ScenarioOptCache(inst, k)
        with pytest.raises(RuntimeError, match="does not certify"):
            cache.complete()
        assert np.all(cache.values == _UNSET)
        point = _shaped_instance(rng, n, "point")
        cache = ScenarioOptCache(point, k)
        with pytest.raises(RuntimeError, match="does not certify"):
            max_regret_of_plan(point, rand_plan(rng, point, k), cache)
        assert np.all(cache.values == _UNSET)
        heavy = _shaped_instance(rng, n + 16, "weight")
        plan = rand_plan(rng, heavy, min(k, heavy.n // 8))
        dp_calls.clear()
        got = max_regret_of_plan(heavy, plan)
        assert dp_calls == [], (heavy, plan)
        assert got == _max_regret_per_candidate(heavy, plan, build_scenario_opt_cache(
            heavy, plan.k, engine="reference", fill="lazy"))


def test_all_sinks_and_one_vertex_optima_are_zero():
    """With k = n + 1, and on the one-vertex path, every optimum is 0; the
    top level certifies 0 without probing below it."""
    rng = random.Random(71)
    for n in (0, 0, 1, 2, 5, 17, 60):
        inst = mk_interval(rng, n)
        for k in {1, n + 1}:
            cache = build_scenario_opt_cache(inst, k)
            t1, t2 = np.triu_indices(n + 2)
            if k == n + 1:
                assert np.all(cache.values[t1, t2] == 0), (inst, k)
            assert np.array_equal(
                cache.values, build_scenario_opt_cache(inst, k, engine="reference").values)


def test_solve_rejects_arguments_outside_contract():
    """k must lie in 1..n+1 whatever the lane count (k = 0 once read the
    int64 maximum)."""
    eng = ScenarioBatchEngine(unit_interval_instance())
    for k in (0, 4):
        for t1, t2 in (([0], [1]), ([0, 0, 0, 0, 1], [0, 1, 2, 3, 3])):
            with pytest.raises(ValueError, match="out of range"):
                eng.solve(k, t1, t2)


def test_cache_lazy_fill_and_ensure():
    inst = unit_interval_instance()
    cache = build_scenario_opt_cache(inst, 1, fill="lazy")
    assert np.all(cache.values == _UNSET)
    d = ScenarioDescriptor(0, 3)
    cache.ensure([d.t1], [d.t2])
    s = realize_scenario(inst, d)
    want = solve_optimal_k_sink(inst, s, 1, CostModel.SIMPLIFIED).value
    assert cache.values[d.t1, d.t2] == want
    assert np.count_nonzero(cache.values != _UNSET) == 1
    with pytest.raises(ValueError):
        cache.ensure([2], [1])
    with pytest.raises(ValueError):
        cache.ensure([0], [5])
    with pytest.raises(ValueError):
        build_scenario_opt_cache(inst, 9)


def _count_computes(monkeypatch):
    """Record the lanes of every ``ScenarioOptCache._compute`` call."""
    calls = []
    compute = ScenarioOptCache._compute

    def recording(cache, t1a, t2a):
        calls.append(list(zip(t1a.tolist(), t2a.tolist())))
        return compute(cache, t1a, t2a)

    monkeypatch.setattr(ScenarioOptCache, "_compute", recording)
    return calls


def test_cache_ensure_solves_each_missing_lane_once(monkeypatch):
    """``ensure`` solves the distinct lanes it does not hold, in one
    ``_compute`` call in key order; a repeated ``ensure`` of held lanes
    solves nothing, and every held optimum equals the reference engine's."""
    calls = _count_computes(monkeypatch)
    rng = random.Random(71)
    for engine in ("batch", "reference"):
        for _ in range(6):
            n = rng.randint(0, 12)
            inst = mk_interval(rng, n)
            k = rng.randint(1, n + 1)
            want = build_scenario_opt_cache(inst, k, engine="reference").values
            cache = ScenarioOptCache(inst, k, engine=engine)
            t1, t2 = np.triu_indices(n + 2)
            lanes = [(int(a), int(b)) for a, b in zip(t1, t2) if rng.random() < 0.5]
            first = rng.sample(lanes, len(lanes) // 2)
            for batch in (first, lanes, lanes[::-1] + first):
                calls.clear()
                # duplicated and unsorted descriptors
                asked = batch + batch[: len(batch) // 3]
                rng.shuffle(asked)
                held = cache.values != _UNSET
                cache.ensure([a for a, _ in asked], [b for _, b in asked])
                missing = sorted({(a, b) for a, b in asked if not held[a, b]})
                assert calls == ([missing] if missing else []), (engine, inst, k)
            v = cache.values
            assert np.count_nonzero(v != _UNSET) == len(set(lanes))
            for a, b in lanes:
                assert v[a, b] == want[a, b], (engine, inst, k, a, b)


def test_cache_values_is_a_read_only_view():
    """A write into ``values`` raises instead of being lost, and a complete
    cache's ``values`` is its whole triangle."""
    rng = random.Random(72)
    inst = mk_interval(rng, 6)
    cache = build_scenario_opt_cache(inst, 2)
    v = cache.values
    with pytest.raises(ValueError):
        v[0, 1] = 5
    with pytest.raises(ValueError):
        cache.values[:] = 0
    assert np.array_equal(cache.values, v)
    t1, t2 = np.triu_indices(inst.n + 2)
    assert np.all(v[t1, t2] != _UNSET)
    assert np.count_nonzero(v != _UNSET) == t1.size


@pytest.mark.parametrize("k", [True, 2.0, "2", None], ids=repr)
def test_cache_rejects_non_integer_k(k):
    # True was accepted here and failed with a TypeError at fill
    with pytest.raises(ValueError, match="k must be an integer, got"):
        ScenarioOptCache(unit_interval_instance(), k)


def test_cache_accepts_numpy_integer_k():
    inst = unit_interval_instance()
    cache = build_scenario_opt_cache(inst, np.int64(2))
    assert cache.k == 2 and type(cache.k) is int
    assert np.array_equal(cache.values, build_scenario_opt_cache(inst, 2).values)


def test_cache_ensure_rejects_unequal_shapes():
    cache = build_scenario_opt_cache(unit_interval_instance(), 1, fill="lazy")
    with pytest.raises(ValueError, match="t1s and t2s must have equal shapes"):
        cache.ensure([0, 1], [2])
    with pytest.raises(ValueError, match="t1s and t2s must have equal shapes"):
        cache.ensure([[0], [1]], [2, 2])
    assert np.all(cache.values == _UNSET)


NON_INTEGER_DESCRIPTORS = [
    ([0.9], [2.7]),
    ([0], [2.0]),
    (["1"], [2]),
    ([0], ["2"]),
    ([True], [2]),
    ([0, 1.5], [2, 2]),
]
NON_INTEGER_IDS = ["floats", "float-t2", "string-t1", "string-t2", "bool", "one-float"]


@pytest.mark.parametrize("t1s,t2s", NON_INTEGER_DESCRIPTORS, ids=NON_INTEGER_IDS)
def test_cache_ensure_rejects_non_integer_descriptors(t1s, t2s):
    cache = build_scenario_opt_cache(unit_interval_instance(), 1, fill="lazy")
    with pytest.raises(ValueError, match="descriptors must be integers"):
        cache.ensure(t1s, t2s)
    assert np.all(cache.values == _UNSET)


@pytest.mark.parametrize("t1s,t2s", NON_INTEGER_DESCRIPTORS, ids=NON_INTEGER_IDS)
def test_batch_solve_rejects_non_integer_descriptors(t1s, t2s):
    with pytest.raises(ValueError, match="descriptors must be integers"):
        ScenarioBatchEngine(unit_interval_instance()).solve(1, t1s, t2s)


def test_descriptors_accept_integer_dtypes():
    inst = unit_interval_instance()
    eng = ScenarioBatchEngine(inst)
    want = eng.solve(1, [0, 1], [3, 2])
    for dtype in (np.int8, np.uint16, np.int32, np.uint64):
        got = eng.solve(1, np.array([0, 1], dtype=dtype), np.array([3, 2], dtype=dtype))
        assert np.array_equal(got, want)
    assert eng.solve(1, [], []).shape == (0,)
    cache = build_scenario_opt_cache(inst, 1, fill="lazy")
    cache.ensure([], [])
    cache.ensure(np.array([0], dtype=np.uint8), np.array([3], dtype=np.int16))
    assert cache.values[0, 3] == want[0]


def test_two_dimensional_descriptors_read_flat():
    """Descriptor arrays of any equal shape are read flat: a 2-D ``ensure``
    leaves the keyed store exactly as the flat call does, sorted and
    distinct, a complete fill after it holds every lane once, and a 2-D
    ``solve`` equals the flat one."""
    inst = PathInstance((0, 3, 7, 8, 12), (1, 2, 1, 3, 1), (4, 2, 5, 3, 2))
    t1s, t2s = [[0, 1], [0, 1]], [[3, 2], [3, 2]]
    grid, flat, ref = (build_scenario_opt_cache(inst, 2, engine=engine, fill="lazy")
                       for engine in ("batch", "batch", "reference"))
    grid.ensure(t1s, t2s)
    flat.ensure(np.ravel(t1s), np.ravel(t2s))
    assert np.array_equal(grid._keys, flat._keys) and np.array_equal(grid._opts, flat._opts)
    assert np.all(np.diff(grid._keys) > 0)
    grid.complete()
    ref.complete()
    assert grid._keys.size == (inst.n + 2) * (inst.n + 3) // 2
    assert np.array_equal(grid.values, ref.values)
    eng = ScenarioBatchEngine(inst)
    assert np.array_equal(eng.solve(2, t1s, t2s), eng.solve(2, np.ravel(t1s), np.ravel(t2s)))


# -- lookup tables -------------------------------------------------------------


def _lanes(*cols):
    return [np.asarray(c, dtype=np.int64) for c in cols]


def test_table_values_small_example():
    inst = unit_interval_instance()
    eng = ScenarioBatchEngine(inst)

    def theta_l(l, t, t1, t2):
        return int(eng.theta_l(*_lanes([l], [t], [t1], [t2]))[0])

    def theta_r(t, r, t1, t2):
        return int(eng.theta_r(*_lanes([t], [r], [t1], [t2]))[0])

    # left side of sink 2 over [0, 1]: all-lower 3, split 5, all-upper 7
    assert [theta_l(0, 2, 0, m) for m in range(3)] == [3, 5, 7]
    # right side of sink 0 over [1, 2]
    assert theta_r(0, 2, 1, 3) == 7
    assert theta_r(0, 2, 2, 3) == 5
    assert theta_l(0, 0, 0, 0) == 0
    assert theta_r(2, 2, 0, 0) == 0
    assert theta_l(0, 2, 0, 0) == 3
    assert theta_r(0, 2, 0, 0) == 3
    # the empty window (r+1, r+1) is all lower bounds, like (0, 0)
    assert theta_r(0, 2, 3, 3) == 3
    cache = build_scenario_opt_cache(inst, 1)
    tables = build_lookup_tables(inst, cache)
    # A[0, 2] = max over m in [1, 2] of theta_l(0, 2, 0, m) - v[0, m]
    # = max(5-3, 7-4); the empty window m = 0 gives 3-2, which never decides
    assert cache.values[0, :3].tolist() == [2, 3, 4]
    assert tables.A[0, 2] == 3
    # C[0, 2] = max over m in [1, 2] of theta_r(0, 2, m, 3) - v[m, 3]
    # = max(7-4, 5-3); the empty window m = 3 gives 3-2
    assert cache.values[1:, 3].tolist() == [4, 3, 2]
    assert tables.C[0, 2] == 3
    # the empty windows: A[l, l] = -v[l, l] and C[r, r] = -v[r+1, r+1]
    assert np.diagonal(tables.A).tolist() == np.diagonal(tables.C).tolist() == [-2] * 3


def test_table_rows_match_direct_evaluation():
    """Engine side times == eval_side on the left-anchored, right-anchored
    and all-lower families."""
    rng = random.Random(52)
    for _ in range(25):
        inst = mk_uncertain(rng, rng.randint(0, 10))
        eng = ScenarioBatchEngine(inst)
        n = inst.n
        left = [(l, t, l, m) for l in range(n + 1) for t in range(l, n + 1)
                for m in range(l, t + 1)]
        left += [(l, t, 0, 0) for l in range(n + 1) for t in range(l, n + 1)]
        right = [(t, r, m, r + 1) for t in range(n + 1) for r in range(t + 1, n + 1)
                 for m in range(t + 1, r + 1)]
        right += [(t, r, 0, 0) for t in range(n + 1) for r in range(t, n + 1)]
        got_left = eng.theta_l(*_lanes(*zip(*left)))
        got_right = eng.theta_r(*_lanes(*zip(*right)))
        for (l, t, t1, t2), got in zip(left, got_left):
            s = realize_scenario(inst, ScenarioDescriptor(t1, t2))
            want = eval_side(inst, s, l, t, t, Side.LEFT, CostModel.SIMPLIFIED).time
            assert got == want, (l, t, t1, t2)
        for (t, r, t1, t2), got in zip(right, got_right):
            s = realize_scenario(inst, ScenarioDescriptor(t1, t2))
            want = eval_side(inst, s, t, r, t, Side.RIGHT, CostModel.SIMPLIFIED).time
            assert got == want, (t, r, t1, t2)


def test_tables_match_definition():
    rng = random.Random(53)
    for it in range(16):
        inst = mk_uncertain(rng, rng.randint(0, 8))
        k = rng.randint(1, min(3, inst.n + 1))
        engine = "reference" if it % 4 == 0 else "batch"
        cache = build_scenario_opt_cache(inst, k, engine=engine, fill="lazy")
        tables = build_lookup_tables(inst, cache)
        n = inst.n

        def side(d, lo, hi, sink, which):
            s = realize_scenario(inst, ScenarioDescriptor(*d))
            return eval_side(inst, s, lo, hi, sink, which, CostModel.SIMPLIFIED).time

        want = {name: np.zeros((n + 1, n + 1), dtype=np.int64) for name in ("A", "C")}
        v = cache.values  # complete: the tables fill it
        v00 = v[0, 0]
        for i in range(n + 1):
            # every empty window is the all-lower scenario
            assert v[i + 1, i + 1] == v[i, i] == v00
            for j in range(i, n + 1):
                # left side of sink j in part [i, j], right side of sink i in
                # [i, j]; off the diagonal the empty windows are left out
                lminus = side((0, 0), i, j, j, Side.LEFT)
                left = range(i, j + 1)
                empty_a = side((i, i), i, j, j, Side.LEFT) - v[i, i]
                want["A"][i, j] = max(
                    (side((i, m), i, j, j, Side.LEFT) - v[i, m] for m in left[1:]),
                    default=empty_a,
                )
                empty_c = side((j + 1, j + 1), i, j, i, Side.RIGHT) - v[j + 1, j + 1]
                want["C"][i, j] = max(
                    (side((m, j + 1), i, j, i, Side.RIGHT) - v[m, j + 1]
                     for m in range(i + 1, j + 1)),
                    default=empty_c,
                )
                # the empty windows never decide: raising the farthest
                # vertex of a side raises every term of its side time by
                # its delta, and the optimum by at most that much
                assert empty_a <= want["A"][i, j] and empty_c <= want["C"][i, j]
                # the empty window m = j + 1 is the right side under all lower bounds
                assert (side((j + 1, j + 1), i, j, i, Side.RIGHT)
                        == side((0, 0), i, j, i, Side.RIGHT))
                # the dropped terms: min_m v[i, m] is v[0, 0], and
                # lminus - min_m v[m, j+1] never exceeds A[i, j]
                assert min(v[i, m] for m in left) == v00
                if i < j:
                    c = min(v[m, j + 1] for m in range(i + 1, j + 1))
                    assert lminus - c <= want["A"][i, j]
        for name, table in want.items():
            assert np.array_equal(getattr(tables, name), table), name
        # the monotonicity compute_rji's split rows rely on
        for i in range(n + 1):
            assert np.all(np.diff(tables.A[i, i:]) >= 0), ("A row", i)
            assert np.all(np.diff(tables.C[: i + 1, i]) <= 0), ("C column", i)


def _side_time_tables(inst, cache):
    """The lookup tables by direct evaluation of the side time under every
    left- or right-anchored candidate, the empty windows included: about
    n^3/6 batch-engine lanes each for ``A`` and ``C``, one call per part
    start l (``A``) and per sink t (``C``)."""
    cache.complete()
    v = cache.values
    eng = ScenarioBatchEngine(inst)
    size = inst.n + 1
    A, C = (np.zeros((size, size), dtype=np.int64) for _ in range(2))
    # Lanes (row, col) with col <= row, in row order: the first
    # span(span+1)/2 of them cover rows 0..span-1, and row i starts at i(i+1)/2.
    row, col = np.tril_indices(size)
    starts = np.arange(size) * np.arange(1, size + 1) // 2
    for l in range(size):
        span = size - l
        lanes = span * (span + 1) // 2
        t, m = l + row[:lanes], l + col[:lanes]
        pos = np.full(lanes, l, dtype=np.int64)
        A[l, l:] = np.maximum.reduceat(eng.theta_l(pos, t, pos, m) - v[l, m], starts[:span])
    for t in range(size):
        span = size - t
        lanes = span * (span + 1) // 2
        r, m = t + row[:lanes], t + 1 + col[:lanes]
        sink = np.full(lanes, t, dtype=np.int64)
        C[t, t:] = np.maximum.reduceat(
            eng.theta_r(sink, r, m, r + 1) - v[m, r + 1], starts[:span]
        )
    return {"A": A, "C": C}


def _assert_tables_equal(got, want, label):
    for name, table in want.items():
        assert np.array_equal(getattr(got, name), table), (name, label)


def test_tables_match_side_time_build():
    """The running-maxima tables equal the side-time build over every
    anchored candidate cell for cell, on caches of both engines.  The tables
    leave out the empty windows off the diagonal, which is exact only on
    caches that hold optima (v[l, m] <= v[l, m + 1] <= v[l, m] + delta_m)."""
    rng = random.Random(61)
    for it in range(200):
        engine = "reference" if it % 5 == 1 else "batch"
        n = rng.randint(0, 40 if engine == "batch" else 16)
        inst = mk_interval(rng, n)
        if it % 10 == 0:  # all point intervals
            inst = PathInstance(inst.coords, inst.wminus, inst.wminus,
                                inst.capacity, inst.tau)
        cache = build_scenario_opt_cache(inst, rng.randint(1, n + 1), engine=engine)
        _assert_tables_equal(build_lookup_tables(inst, cache),
                             _side_time_tables(inst, cache), (inst, cache.k))
    # the perfbench mmr shape: gaps 1-10, w- in [1, 50], w+ = w- + [0, 50]
    n = 120
    coords = [0]
    for _ in range(n):
        coords.append(coords[-1] + rng.randint(1, 10))
    wminus = [rng.randint(1, 50) for _ in range(n + 1)]
    wplus = [lo + rng.randint(0, 50) for lo in wminus]
    inst = PathInstance(tuple(coords), tuple(wminus), tuple(wplus), capacity=1, tau=2)
    cache = build_scenario_opt_cache(inst, 5)
    _assert_tables_equal(build_lookup_tables(inst, cache),
                         _side_time_tables(inst, cache), "mmr shape")


def test_tables_at_int64_headroom():
    """With max|x| * tau + sum(w+) just below 2^60, and coordinates and
    weights both near it, the tables still equal the side-time build, on a
    cache equal to the per-scenario DP's."""
    rng = random.Random(62)
    for it in range(24):
        n = rng.randint(1, 6)
        tau = rng.randint(1, 3)
        share = (1 << 59) // (n + 1)
        wminus = [rng.randint(1, share // 2) for _ in range(n + 1)]
        wplus = [lo if rng.random() < 0.2 else lo + rng.randint(1, share // 2)
                 for lo in wminus]
        far = (_batch.INT64_HEADROOM - 1 - rng.randint(0, 1000) - sum(wplus)) // tau
        xs = sorted(rng.sample(range(1, far), n))
        xs = [-far] + [x - far for x in xs] if it % 2 else xs + [far]
        inst = PathInstance(tuple(xs), tuple(wminus), tuple(wplus),
                            capacity=rng.randint(1, 3), tau=tau)
        reach = max(abs(xs[0]), abs(xs[-1])) * tau + sum(wplus)
        assert _batch.INT64_HEADROOM - 2000 - tau < reach < _batch.INT64_HEADROOM
        k = rng.randint(1, n + 1)
        cache = build_scenario_opt_cache(inst, k)
        assert np.array_equal(cache.values,
                              build_scenario_opt_cache(inst, k, engine="reference").values)
        _assert_tables_equal(build_lookup_tables(inst, cache),
                             _side_time_tables(inst, cache), (inst, k))


@pytest.mark.parametrize("anchors", [False, True], ids=("plain", "anchors"))
def test_cache_at_int64_headroom(monkeypatch, anchors):
    """With max|x| * tau + sum(w+) just below 2^60, carried by the weights,
    by the coordinates or by both, complete fills (every bisection bound,
    side time and critical value near its int64 limit) and plan audits
    (threshold probes inside their brackets) equal the per-scenario DP's."""
    if anchors:
        monkeypatch.setattr(_batch, "_ANCHOR_MIN_LANES", 1)
    rng = random.Random(68)
    for it in range(18):
        n = rng.randint(1, 8)
        tau = rng.randint(1, 3)
        weight_share = (3 << 58, 1 << 50, 1 << 59)[it % 3] // (n + 1)
        wminus = [rng.randint(1, weight_share // 2) for _ in range(n + 1)]
        wplus = [lo if rng.random() < 0.2 else lo + rng.randint(1, weight_share // 2)
                 for lo in wminus]
        far = (_batch.INT64_HEADROOM - 1 - rng.randint(0, 1000) - sum(wplus)) // tau
        xs = sorted(rng.sample(range(1, far), n))
        xs = [-far] + [x - far for x in xs] if it % 2 else xs + [far]
        inst = PathInstance(tuple(xs), tuple(wminus), tuple(wplus),
                            capacity=rng.randint(1, 3), tau=tau)
        reach = max(abs(xs[0]), abs(xs[-1])) * tau + sum(wplus)
        assert _batch.INT64_HEADROOM - 2000 - tau < reach < _batch.INT64_HEADROOM
        k = rng.randint(1, min(3, n + 1))
        ref = build_scenario_opt_cache(inst, k, engine="reference")
        assert np.array_equal(build_scenario_opt_cache(inst, k).values, ref.values), (inst, k)
        plan = rand_plan(rng, inst, k)
        assert (max_regret_of_plan(inst, plan, build_scenario_opt_cache(inst, k, fill="lazy"))
                == _max_regret_per_candidate(inst, plan, ref)), (inst, plan)


# -- plan regret ---------------------------------------------------------------


def test_regret_of_plan_definition():
    rng = random.Random(54)
    for _ in range(20):
        inst = mk_uncertain(rng, rng.randint(0, 8))
        k = rng.randint(1, min(3, inst.n + 1))
        plan = rand_plan(rng, inst, k)
        cache = build_scenario_opt_cache(inst, k)
        d = ScenarioDescriptor(0, inst.n + 1)
        s = realize_scenario(inst, d)
        got = regret_of_plan(inst, plan, s)
        t, _ = eval_plan(inst, s, plan, CostModel.SIMPLIFIED)
        opt = solve_optimal_k_sink(inst, s, k, CostModel.SIMPLIFIED).value
        assert got == t - opt
        assert got == t - cache.values[d.t1, d.t2]


def test_max_regret_witness_is_attained():
    rng = random.Random(55)
    for _ in range(20):
        inst = mk_uncertain(rng, rng.randint(0, 8))
        k = rng.randint(1, min(3, inst.n + 1))
        plan = rand_plan(rng, inst, k)
        cache = build_scenario_opt_cache(inst, k)
        value, witness = max_regret_of_plan(inst, plan, cache)
        s = realize_scenario(inst, witness)
        assert regret_of_plan(inst, plan, s) == value
        assert value >= 0


def _max_regret_per_candidate(inst, plan, cache):
    """Worst-case regret by realizing every candidate and evaluating the plan
    on it; the first maximum wins."""
    best = witness = None
    cands = [d for _part, d in enumerate_partition_candidates(inst, plan.boundaries)]
    cache.ensure([d.t1 for d in cands], [d.t2 for d in cands])
    v = cache.values
    for d in cands:
        s = realize_scenario(inst, d)
        time, _ = eval_plan(inst, s, plan, CostModel.SIMPLIFIED)
        reg = time - int(v[d.t1, d.t2])
        if best is None or reg > best:
            best, witness = reg, d
    return best, witness


def test_max_regret_matches_per_candidate_loop():
    rng = random.Random(57)
    for trial in range(320):
        n = rng.randint(0, 14)
        inst = mk_interval(rng, n)
        k = rng.randint(1, n + 1)
        plan = rand_plan(rng, inst, k)
        engine = "reference" if trial % 4 == 0 else "batch"
        fill = "all" if trial % 2 else "lazy"
        cache = build_scenario_opt_cache(inst, k, engine=engine, fill=fill)
        got = max_regret_of_plan(inst, plan, cache)
        want = _max_regret_per_candidate(inst, plan, cache)
        assert got == want, (inst, plan, engine, fill)
        assert type(got[0]) is int


def test_pruned_max_regret_matches_per_candidate_loop(monkeypatch):
    """Value and witness of ``max_regret_of_plan`` equal those of every
    candidate realized and evaluated, on lazy, complete and partly filled
    caches of both engines, on point-interval and tie-heavy instances too.
    The patch puts anchor brackets on every fill of the test's own caches;
    audits read no anchors."""
    monkeypatch.setattr(_batch, "_ANCHOR_MIN_LANES", 1)
    rng = random.Random(63)
    for trial in range(320):
        engine = "reference" if trial % 8 == 0 else "batch"
        n = rng.randint(0, 14 if engine == "reference" else 40)
        inst = mk_interval(rng, n)
        if trial % 5 == 1:  # all point intervals
            inst = PathInstance(inst.coords, inst.wminus, inst.wminus,
                                inst.capacity, inst.tau)
        elif trial % 5 == 2:  # tie-heavy weights
            wminus = [rng.randint(1, 2) for _ in range(n + 1)]
            wplus = [lo + rng.randint(0, 1) for lo in wminus]
            inst = PathInstance(inst.coords, tuple(wminus), tuple(wplus),
                                inst.capacity, inst.tau)
        k = (1, 2, n + 1, rng.randint(1, n + 1))[trial % 4]
        k = min(k, n + 1)
        plan = rand_plan(rng, inst, k)
        cache = build_scenario_opt_cache(inst, k, engine=engine, fill="lazy")
        fill = trial % 3
        if fill == 1:
            cache.complete()
        elif fill == 2:  # a random subset of all lanes
            t1, t2 = np.triu_indices(n + 2)
            keep = np.flatnonzero(np.asarray([rng.random() < 0.3 for _ in t1], dtype=bool))
            cache.ensure(t1[keep], t2[keep])
        got = max_regret_of_plan(inst, plan, cache)
        want = _max_regret_per_candidate(
            inst, plan, build_scenario_opt_cache(inst, k, engine=engine, fill="lazy"))
        assert got == want, (inst, plan, engine, fill)
        assert type(got[0]) is int
    # the plan is still rejected before any scenario optimum is solved
    cache = build_scenario_opt_cache(mk_uncertain(rng, 6), 2, fill="lazy")
    with pytest.raises(ValueError, match="sink of part 0 lies outside the part"):
        max_regret_of_plan(cache.inst, Plan((2, 6), (3, 4)), cache)
    assert np.all(cache.values == _UNSET)


def test_pruned_max_regret_on_reference_cache_bisects_nothing(monkeypatch):
    """An audit on an ``engine="reference"`` cache takes every optimum it
    reads from the per-scenario DP: the batch engine brackets, probes and
    bisects nothing, value and witness equal those of every candidate
    realized and evaluated, and the cache then holds every candidate's DP
    optimum."""
    def no_call(name):
        def fail(*args):
            raise AssertionError(f"{name} in an audit on a reference cache")

        return fail

    for name in ("_probe", "_bisect", "_plan_bounds", "_extreme_optima"):
        monkeypatch.setattr(ScenarioBatchEngine, name, no_call(name))
    rng = random.Random(66)
    for trial in range(40):
        n = rng.randint(0, 14)
        inst = mk_interval(rng, n)
        k = rng.randint(1, n + 1)
        plan = rand_plan(rng, inst, k)
        cache = build_scenario_opt_cache(inst, k, engine="reference", fill="lazy")
        got = max_regret_of_plan(inst, plan, cache)
        want = _max_regret_per_candidate(
            inst, plan, build_scenario_opt_cache(inst, k, engine="reference", fill="lazy"))
        assert got == want, (inst, plan)
        v = cache.values
        for _part, d in enumerate_partition_candidates(inst, plan.boundaries):
            opt = solve_optimal_k_sink(inst, realize_scenario(inst, d), k,
                                       CostModel.SIMPLIFIED).value
            assert v[d.t1, d.t2] == opt, (inst, plan, d)


def test_audit_stores_exactly_the_closed_brackets(monkeypatch):
    """After a batch audit the cache holds exactly the candidates whose
    bracket closed, each at its optimum, besides what it held before; a
    second audit on the same cache returns the identical (value, witness).
    A reference audit leaves every candidate, and nothing else, held."""
    closed = []
    search = ScenarioBatchEngine._max_regret

    def recording(eng, k, t1, t2, time, lo, hi):
        out = search(eng, k, t1, t2, time, lo, hi)
        closed.append({(int(a), int(b)) for a, b in zip(t1[lo == hi], t2[lo == hi])})
        return out

    monkeypatch.setattr(ScenarioBatchEngine, "_max_regret", recording)
    rng = random.Random(73)
    for trial in range(60):
        n = rng.randint(0, 40)
        inst = mk_interval(rng, n)
        k = (1, 2, n + 1, rng.randint(1, n + 1))[trial % 4]
        plan = rand_plan(rng, inst, k)
        cands = {(d.t1, d.t2) for _part, d in enumerate_partition_candidates(inst, plan.boundaries)}
        t1, t2 = np.triu_indices(n + 2)
        before = {(int(a), int(b)) for a, b in zip(t1, t2) if rng.random() < 0.1}
        ref = build_scenario_opt_cache(inst, k, engine="reference", fill="lazy")
        want = max_regret_of_plan(inst, plan, ref)
        assert _held(ref) == cands, (inst, plan)
        ref.ensure([a for a, _ in before], [b for _, b in before])
        opt = ref.values

        cache = build_scenario_opt_cache(inst, k, fill="lazy")
        cache.ensure([a for a, _ in before], [b for _, b in before])
        closed.clear()
        got = max_regret_of_plan(inst, plan, cache)
        assert got == want, (inst, plan)
        held = _held(cache)
        assert held == before | closed[0], (inst, plan)
        assert closed[0] <= cands
        v = cache.values
        for a, b in held:
            assert v[a, b] == opt[a, b], (inst, plan, a, b)
        assert max_regret_of_plan(inst, plan, cache) == got, (inst, plan)


def _held(cache):
    """The descriptors whose optimum the cache holds."""
    return set(zip(*(x.tolist() for x in np.nonzero(cache.values != _UNSET))))


def test_audit_at_scale_allocates_no_dense_matrix():
    """One audit at n = 5000, k = 5 on criterion 7's interval shape peaks
    under 32 MiB of traced allocations (numpy's included); the dense
    (n+2)^2 int64 matrix alone would be 191 MiB.  The witness's regret,
    from the fixed-scenario DP, is the value."""
    import tracemalloc

    rng = random.Random(74)
    n = 5000
    coords = [0]
    for _ in range(n):
        coords.append(coords[-1] + rng.randint(1, 10))
    wminus = [rng.randint(1, 50) for _ in range(n + 1)]
    wplus = [lo + rng.randint(0, 50) for lo in wminus]
    inst = PathInstance(tuple(coords), tuple(wminus), tuple(wplus), capacity=1, tau=2)
    plan = rand_plan(rng, inst, 5)
    tracemalloc.start()
    try:
        value, witness = max_regret_of_plan(inst, plan)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20, peak / 2**20
    assert regret_of_plan(inst, plan, realize_scenario(inst, witness)) == value


def _plan_times(eng, plan, t1, t2):
    """The plan's time under every lane, from the engine's side times."""
    time = np.zeros(t1.shape[0], dtype=np.int64)
    for (l, r), y in zip(plan.parts(), plan.sinks):
        time = np.maximum(time, eng.theta_l(l, y, t1, t2))
        time = np.maximum(time, eng.theta_r(y, r, t1, t2))
    return time


def test_pruned_max_regret_probes_survivors_inside_their_brackets(monkeypatch):
    """An audit on a batch cache never bisects: its threshold search probes
    every candidate only at points inside its bracket, the plan bracket of
    ``_plan_bounds`` intersected with the top level's where the audit takes
    it; the first probe holds exactly the candidates whose regret upper
    bound beats the largest lower bound L, each including its threshold
    time - L - 1.  Value and witness equal those of every candidate
    realized and evaluated, and the cache holds only exact optima.  An
    audit on an ``engine="reference"`` cache never runs the search."""
    plan_bounds = ScenarioBatchEngine._plan_bounds
    extreme_optima = ScenarioBatchEngine._extreme_optima
    probe = ScenarioBatchEngine._probe
    audit = {}
    top = []
    calls = []

    def recorded_plan_bounds(self, k, t1, t2):
        lo, hi = plan_bounds(self, k, t1, t2)
        audit.update(zip(zip(t1.tolist(), t2.tolist()), zip(lo.tolist(), hi.tolist())))
        return lo, hi

    def recorded_extreme_optima(self, k):
        top.append(extreme_optima(self, k))
        return top[-1]

    def recorded_probe(self, v, t1, t2, *state):
        calls.append((self, v.copy(), t1.copy(), t2.copy()))
        return probe(self, v, t1, t2, *state)

    def no_bisect(*args):
        raise AssertionError("bisection in an audit on a batch cache")

    monkeypatch.setattr(ScenarioBatchEngine, "_plan_bounds", recorded_plan_bounds)
    monkeypatch.setattr(ScenarioBatchEngine, "_extreme_optima", recorded_extreme_optima)
    monkeypatch.setattr(ScenarioBatchEngine, "_probe", recorded_probe)
    monkeypatch.setattr(ScenarioBatchEngine, "_bisect", no_bisect)
    rng = random.Random(67)
    survivors = 0
    for trial in range(40):
        n = rng.randint(8, 40)
        inst = mk_interval(rng, n)
        k = rng.randint(1, min(6, n + 1))
        plan = rand_plan(rng, inst, k)
        audit.clear()
        top.clear()
        calls.clear()
        cache = build_scenario_opt_cache(inst, k, fill="lazy")
        got = max_regret_of_plan(inst, plan, cache)
        eng = cache._batch_engine()
        d = eng.dp0.tolist()

        def bracket(lane):
            want = audit[lane]
            if top:
                (lower, whole), = top
                d_in = d[lane[1]] - d[lane[0]]
                d_out = d[-1] - d_in
                want = (max(want[0], lower, whole - d_out), min(want[1], whole, lower + d_in))
            return want

        cands = [c for _part, c in enumerate_partition_candidates(inst, plan.boundaries)]
        t1 = np.array([c.t1 for c in cands], dtype=np.int64)
        t2 = np.array([c.t2 for c in cands], dtype=np.int64)
        lo, hi = (np.array(b) for b in zip(*map(bracket, zip(t1.tolist(), t2.tolist()))))
        time = _plan_times(eng, plan, t1, t2)
        bound = np.max(time - hi)
        first = np.flatnonzero(time - lo > bound)
        if first.size:
            _eng, v, c1, c2 = calls[0]
            assert np.array_equal(c1, t1[first]) and np.array_equal(c2, t2[first]), (inst, plan)
            assert np.array_equal(v.max(axis=0), time[first] - bound - 1), (inst, plan)
            survivors += first.size
        for _eng, v, c1, c2 in calls:
            assert _eng is eng
            lanes = np.array([bracket(lane) for lane in zip(c1.tolist(), c2.tolist())])
            assert np.all((lanes[:, 0] <= v) & (v < lanes[:, 1])), (inst, plan)
        calls.clear()
        ref = build_scenario_opt_cache(inst, k, engine="reference", fill="lazy")
        assert max_regret_of_plan(inst, plan, ref) == got, (inst, plan)
        assert calls == [], (inst, plan)
        assert got == _max_regret_per_candidate(inst, plan, ref), (inst, plan)
        held = cache.values != _UNSET
        assert np.array_equal(cache.values[held], ref.values[held]), (inst, plan)
    assert survivors > 0


@settings(deadline=None, max_examples=60)
@given(data=st.data())
def test_max_regret_search_from_any_bracket(data):
    """``_max_regret``'s contract: from any brackets 0 <= lo <= OPT <= hi
    (closed, narrow, wide or [0, ``_upper``]) its value and first witness
    equal those of every candidate realized and evaluated, and it leaves
    every bracket around its optimum.  Cases cover k = 1, 2 and n + 1,
    n = 0, point intervals, tie-heavy weights and instances at the int64
    headroom; a partly filled cache then audits to the same answer and
    holds only exact optima."""
    n = data.draw(st.integers(0, 12))
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
    shape = data.draw(st.sampled_from(("interval", "headroom") + SHAPES))
    if shape == "interval":
        inst = mk_interval(rng, n)
    elif shape == "headroom":
        inst = _headroom_instance(rng, n, rng.choice((3 << 58, 1 << 50, 1 << 59)))
    else:
        inst = _shaped_instance(rng, n, shape)
    k = data.draw(st.sampled_from((1, min(2, n + 1), n + 1)) | st.integers(1, n + 1))
    plan = rand_plan(rng, inst, k)
    ref = build_scenario_opt_cache(inst, k, engine="reference")
    want = _max_regret_per_candidate(inst, plan, ref)
    cands = [c for _part, c in enumerate_partition_candidates(inst, plan.boundaries)]
    t1 = np.array([c.t1 for c in cands], dtype=np.int64)
    t2 = np.array([c.t2 for c in cands], dtype=np.int64)
    eng = ScenarioBatchEngine(inst)
    time = _plan_times(eng, plan, t1, t2)
    opt = ref.values[t1, t2]
    gen = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    slack = gen.integers(0, 1 << gen.integers(0, 16), size=(2, t1.size))
    slack[:, gen.random(t1.size) < 0.25] = 0
    lo, hi = np.maximum(opt - slack[0], 0), opt + slack[1]
    loose = gen.random(t1.size) < 0.25
    lo[loose], hi[loose] = 0, eng._upper(t1[loose], t2[loose])
    value, first = eng._max_regret(k, t1, t2, time, lo, hi)
    assert (value, cands[first]) == want
    assert type(value) is int
    assert np.all((lo <= opt) & (opt <= hi))
    cache = build_scenario_opt_cache(inst, k, fill="lazy")
    lanes = np.flatnonzero(gen.random(t1.size) < 0.5)
    cache.ensure(t1[lanes], t2[lanes])
    assert max_regret_of_plan(inst, plan, cache) == want
    held = cache.values != _UNSET
    assert np.array_equal(cache.values[held], ref.values[held])


def test_max_regret_witness_probe_at_lower_end(monkeypatch):
    """An earlier candidate can attain the maximum V only at the lower end
    of its bracket (time - lo = V > time - hi); the search then probes such
    candidates at lo, and the first that covers is the witness.  On this
    seeded set of tie-heavy and weight-dominated audits that branch runs,
    covers and fails, and value and witness equal those of every candidate
    realized and evaluated."""
    probe = ScenarioBatchEngine._probe
    at_lo = []

    def recorded_probe(self, v, t1, t2, a, b, low, high):
        out = probe(self, v, t1, t2, a, b, low, high)
        if v.shape[0] == 1:  # audits never bisect: the one-point probe is at lo
            assert np.array_equal(v[0], a)
            at_lo.extend((out[1] == v[0]).tolist())
        return out

    monkeypatch.setattr(ScenarioBatchEngine, "_probe", recorded_probe)
    rng = random.Random(74)
    for it in range(60):
        n = rng.randint(4, 24)
        inst = _shaped_instance(rng, n, ("ties", "weight")[it % 2])
        k = rng.randint(1, min(4, n + 1))
        plan = rand_plan(rng, inst, k)
        ref = build_scenario_opt_cache(inst, k, engine="reference", fill="lazy")
        assert max_regret_of_plan(inst, plan) == _max_regret_per_candidate(inst, plan, ref)
    assert True in at_lo and False in at_lo, at_lo


def test_pruned_max_regret_above_threshold_equals_full_fill():
    """Three plans at n = 800, above the candidate threshold: value and
    witness equal those of solving every candidate, and fewer than all
    candidates are solved."""
    rng = random.Random(64)
    n = 800
    coords = [0]
    for _ in range(n):
        coords.append(coords[-1] + rng.randint(1, 10))
    wminus = [rng.randint(1, 50) for _ in range(n + 1)]
    wplus = [lo + rng.randint(0, 50) for lo in wminus]
    inst = PathInstance(tuple(coords), tuple(wminus), tuple(wplus), capacity=1, tau=2)
    for k in (3, 5, 8):
        plan = rand_plan(rng, inst, k)
        cands = [d for _part, d in enumerate_partition_candidates(inst, plan.boundaries)]
        assert len(cands) >= _batch._ANCHOR_MIN_LANES
        t1 = np.array([d.t1 for d in cands])
        t2 = np.array([d.t2 for d in cands])
        full = ScenarioOptCache(inst, k)
        full.ensure(t1, t2)
        eng = full._batch_engine()
        time = np.zeros(len(cands), dtype=np.int64)
        for (l, r), y in zip(plan.parts(), plan.sinks):
            time = np.maximum(time, eng.theta_l(l, y, t1, t2))
            time = np.maximum(time, eng.theta_r(y, r, t1, t2))
        regret = time - full.values[t1, t2]
        best = int(np.argmax(regret))
        cache = ScenarioOptCache(inst, k)
        assert max_regret_of_plan(inst, plan, cache) == (int(regret[best]), cands[best])
        solved = np.count_nonzero(cache.values[t1, t2] != _UNSET)
        assert solved < len(set(cands)) // 2, (k, solved)


def test_max_regret_rejects_sink_outside_part():
    rng = random.Random(59)
    inst = mk_uncertain(rng, 6)
    cache = build_scenario_opt_cache(inst, 2, fill="lazy")
    with pytest.raises(ValueError, match="sink of part 0 lies outside the part"):
        max_regret_of_plan(inst, Plan((2, 6), (3, 4)), cache)
    # the plan is rejected before any scenario optimum is solved
    assert np.all(cache.values == _UNSET)


def test_max_regret_rejects_mismatched_cache():
    inst = unit_interval_instance()
    plan = Plan((2,), (1,))
    cache = build_scenario_opt_cache(inst, 2)
    with pytest.raises(ValueError):
        max_regret_of_plan(inst, plan, cache)


def test_max_regret_rejects_cache_of_other_instance():
    rng = random.Random(58)
    inst = mk_uncertain(rng, 4)
    other = mk_uncertain(rng, 4)
    plan = rand_plan(rng, inst, 2)
    with pytest.raises(ValueError, match="different instance"):
        max_regret_of_plan(inst, plan, build_scenario_opt_cache(other, 2, fill="lazy"))
    # an equal instance built separately is the same instance
    twin = PathInstance(inst.coords, inst.wminus, inst.wplus, inst.capacity, inst.tau)
    cache = build_scenario_opt_cache(twin, 2, fill="lazy")
    assert max_regret_of_plan(inst, plan, cache) == max_regret_of_plan(inst, plan)


# -- R matrix -------------------------------------------------------------------


def test_rji_matches_brute_matrix():
    rng = random.Random(56)
    for _ in range(25):
        inst = mk_uncertain(rng, rng.randint(0, 7), w_max=6)
        k = rng.randint(1, min(3, inst.n + 1))
        cache = build_scenario_opt_cache(inst, k)
        got = compute_rji(inst, cache)
        check_rji_invariants(inst, cache, got)
        want = brute_rji_matrix(inst, k)
        n = inst.n
        for j in range(n + 1):
            for i in range(j, n + 1):
                assert got.R[j, i] == want[j][i], (j, i)


def _per_cell_sweep(inst, cache):
    """R, sink and sink moves by a per-cell sweep: per row l, the sink starts
    at l, stays where the previous part end left it, and advances while the
    next sink's regret max(A[l, t+1], C[t+1, r]) is no larger (ties
    included)."""
    n = inst.n
    tables = build_lookup_tables(inst, cache)
    A, C = tables.A.tolist(), tables.C.tolist()
    R = [[None] * (n + 1) for _ in range(n + 1)]
    sink = [[None] * (n + 1) for _ in range(n + 1)]
    moves = 0
    for l in range(n + 1):
        t = l
        for r in range(l, n + 1):
            cur = max(A[l][t], C[t][r])
            while t < r and max(A[l][t + 1], C[t + 1][r]) <= cur:
                t += 1
                cur = max(A[l][t], C[t][r])
                moves += 1
            R[l][r], sink[l][r] = cur, t
    return R, sink, moves


def test_rji_matches_per_cell_sweep():
    """The split-row R, its sinks and its counters equal a per-cell sweep,
    on interval, point-interval and tie-heavy instances and on
    reference-engine caches."""
    rng = random.Random(63)
    for trial in range(320):
        n = rng.randint(0, 30)
        kind = trial % 4
        if kind == 0:
            # few distinct weights and gaps, so that ties are common
            inst = rand_instance(rng, n, w_max=2, gap_max=1, capacities=(1, 2), taus=(1, 2, 3))
        else:
            inst = mk_interval(rng, n)
        if kind == 1:
            inst = PathInstance(inst.coords, inst.wminus, inst.wminus, inst.capacity, inst.tau)
        k = rng.randint(1, min(5, n + 1))
        engine = "reference" if trial % 8 == 3 and n <= 12 else "batch"
        cache = build_scenario_opt_cache(inst, k, engine=engine)
        got = compute_rji(inst, cache)
        R, sink, moves = _per_cell_sweep(inst, cache)
        for l in range(n + 1):
            assert got.R[l, l:].tolist() == R[l][l:], (inst, k, l)
            assert got.sink[l, l:].tolist() == sink[l][l:], (inst, k, l)
        assert got.counters["sink_moves"] == moves, (inst, k)
        # the pointer of row l ends at sink[l, n]; every cell reads C once
        # and every move once more
        assert moves == sum(sink[l][n] - l for l in range(n + 1))
        assert got.counters["sink_evals"] == (n + 1) * (n + 2) // 2 + moves
