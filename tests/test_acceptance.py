"""Acceptance gate: one test per criterion, exact integer equality throughout.

Each test registers a PASS/FAIL line printed in the terminal summary.  Time
budgets are part of the criteria and asserted.
"""

from __future__ import annotations

import itertools
import random
import time

from pathevac._batch import ScenarioBatchEngine
from pathevac.evac import eval_one_sink, eval_plan, simulate_evacuation
from pathevac.minmax import solve_minmax_regret_bs, solve_minmax_regret_dp
from pathevac.model import CostModel, PathInstance, Scenario
from pathevac.optk import solve_optimal_k_sink
from pathevac.oracle import (
    brute_minmax_regret,
    brute_optimal_k_sink,
    brute_rji_matrix,
    naive_biheap_mirror,
)
from pathevac.regret import build_scenario_opt_cache, compute_rji, max_regret_of_plan

from conftest import (
    check_rji_invariants,
    rand_instance,
    rand_plan,
    rand_scenario,
    record_criterion,
)
from test_biheap import random_ops, replay


def test_criterion_1_simulation_matches_analysis():
    """Event simulation equals the closed-form one-sink time (discrete model)."""
    ok = False
    detail = ""
    try:
        rng = random.Random(101)
        t0 = time.time()
        checked = 0
        for _ in range(1000):
            inst = rand_instance(rng, rng.randint(0, 8), w_max=10,
                                 capacities=(1, 2, 3), taus=(1, 2))
            s = rand_scenario(rng, inst)
            sink = rng.randint(0, inst.n)
            sim = simulate_evacuation(inst, s, 0, inst.n, sink)
            ana = eval_one_sink(inst, s, 0, inst.n, sink, CostModel.DISCRETE)
            assert sim == ana, (inst, s, sink, sim, ana)
            checked += 1
        elapsed = time.time() - t0
        detail = f"{checked} instances, {elapsed:.1f}s"
        assert elapsed < 10.0, f"budget exceeded: {elapsed:.1f}s >= 10s"
        ok = True
    finally:
        record_criterion(
            1, "simulation == one-sink analysis, 1000 instances, <10s", ok, detail
        )


def test_criterion_2_biheap_matches_mirror():
    """Pair heap equals the naive mirror after every op, all capacities."""
    ok = False
    detail = ""
    try:
        t0 = time.time()
        total = 0
        for c in (1, 2, 3, 7, 16):
            for seed in range(20):
                ops = random_ops(random.Random(9_000_000 + 37 * seed + c), 10_000)
                got = replay(ops, c)
                want = naive_biheap_mirror(ops, c)
                assert got == want, f"divergence at c={c} seed={seed}"
                total += len(ops)
        elapsed = time.time() - t0
        detail = f"{total} ops over c in {{1,2,3,7,16}} x 20 seeds, {elapsed:.1f}s"
        assert elapsed < 30.0, f"budget exceeded: {elapsed:.1f}s >= 30s"
        ok = True
    finally:
        record_criterion(
            2, "pair heap == naive mirror after every op (10^4-op runs), <30s",
            ok, detail,
        )


def test_criterion_3_optimal_k_sink_matches_brute():
    """DP k-sink optimum equals brute force, both cost models, linear counters."""
    ok = False
    detail = ""
    try:
        rng = random.Random(303)
        t0 = time.time()
        checked = 0
        for _ in range(500):
            inst = rand_instance(rng, rng.randint(0, 10))
            s = rand_scenario(rng, inst)
            k = rng.randint(1, min(3, inst.n + 1))
            for cm in (CostModel.DISCRETE, CostModel.SIMPLIFIED):
                want, _ = brute_optimal_k_sink(inst, s, k, cm)
                res = solve_optimal_k_sink(inst, s, k, cm)
                assert res.value == want, (inst, s, k, cm, res.value, want)
                worst = max(
                    eval_one_sink(inst, s, l, r, y, cm)
                    for (l, r), y in zip(res.plan.parts(), res.plan.sinks)
                )
                assert worst == res.value
                for inc in res.counters["j_increments_per_row"]:
                    assert inc <= 2 * inst.n
                checked += 1
        elapsed = time.time() - t0
        detail = f"{checked} solver runs, {elapsed:.1f}s"
        assert elapsed < 60.0, f"budget exceeded: {elapsed:.1f}s >= 60s"
        ok = True
    finally:
        record_criterion(
            3, "k-sink DP == brute force, 500 instances x both models, <60s",
            ok, detail,
        )


def test_criterion_4_candidates_dominate_corners():
    """Structured candidate scenarios attain the all-corner max regret."""
    ok = False
    detail = ""
    try:
        rng = random.Random(404)
        t0 = time.time()
        pairs = 0
        while pairs < 200:
            inst = rand_instance(rng, rng.randint(0, 6), w_max=6,
                                 capacities=(1,), taus=(1, 2))
            k = rng.randint(1, min(3, inst.n + 1))
            plan = rand_plan(rng, inst, k)
            structured, _ = max_regret_of_plan(inst, plan)
            corner_best = None
            for combo in itertools.product(
                *[(lo, hi) for lo, hi in zip(inst.wminus, inst.wplus)]
            ):
                s = Scenario(combo)
                t, _ = eval_plan(inst, s, plan, CostModel.SIMPLIFIED)
                reg = t - solve_optimal_k_sink(inst, s, k, CostModel.SIMPLIFIED).value
                if corner_best is None or reg > corner_best:
                    corner_best = reg
            assert structured == corner_best, (inst, plan, structured, corner_best)
            pairs += 1
        elapsed = time.time() - t0
        detail = f"{pairs} (instance, plan) pairs, {elapsed:.1f}s"
        assert elapsed < 60.0, f"budget exceeded: {elapsed:.1f}s >= 60s"
        ok = True
    finally:
        record_criterion(
            4, "candidate-family max regret == all-corner max regret, 200 pairs, <60s",
            ok, detail,
        )


def test_criterion_5_rji_matches_brute():
    """Subpath-regret matrix equals brute force; sweep invariants hold."""
    ok = False
    detail = ""
    try:
        rng = random.Random(505)
        t0 = time.time()
        checked = 0
        for _ in range(100):
            inst = rand_instance(rng, rng.randint(0, 8), w_max=6,
                                 capacities=(1,), taus=(1, 2))
            k = rng.randint(1, min(3, inst.n + 1))
            cache = build_scenario_opt_cache(inst, k)
            got = compute_rji(inst, cache)
            check_rji_invariants(inst, cache, got)
            want = brute_rji_matrix(inst, k)
            for j in range(inst.n + 1):
                for i in range(j, inst.n + 1):
                    assert got.R[j, i] == want[j][i], (inst, k, j, i)
            checked += 1
        elapsed = time.time() - t0
        detail = f"{checked} instances with invariant checks, {elapsed:.1f}s"
        assert elapsed < 60.0, f"budget exceeded: {elapsed:.1f}s >= 60s"
        ok = True
    finally:
        record_criterion(
            5, "R matrix == brute force + monotone/min-sweep invariants, <60s",
            ok, detail,
        )


def test_criterion_6_minmax_solvers_agree():
    """DP == brute (small) and DP == nested search (medium); plans re-verify."""
    ok = False
    detail = ""
    try:
        rng = random.Random(606)
        t0 = time.time()
        small = 0
        for _ in range(100):
            inst = rand_instance(rng, rng.randint(0, 8), w_max=6,
                                 capacities=(1,), taus=(1, 2))
            k = rng.randint(1, min(3, inst.n + 1))
            want, _ = brute_minmax_regret(inst, k)
            dp = solve_minmax_regret_dp(inst, k)
            assert dp.value == want, (inst, k, dp.value, want)
            cache = build_scenario_opt_cache(inst, k)
            rv, _ = max_regret_of_plan(inst, dp.plan, cache)
            assert rv == dp.value
            small += 1
        medium = 0
        for _ in range(200):
            inst = rand_instance(rng, rng.randint(9, 40), w_max=9,
                                 capacities=(1,), taus=(1, 2))
            k = rng.randint(1, 3)
            dp = solve_minmax_regret_dp(inst, k)
            bs = solve_minmax_regret_bs(inst, k)
            assert dp.value == bs.value, (inst, k, dp.value, bs.value)
            cache = build_scenario_opt_cache(inst, k)
            rv, _ = max_regret_of_plan(inst, dp.plan, cache)
            assert rv == dp.value
            rv2, _ = max_regret_of_plan(inst, bs.plan, cache)
            assert rv2 == bs.value
            medium += 1
        elapsed = time.time() - t0
        detail = f"{small} small vs brute + {medium} medium dp==bs, {elapsed:.1f}s"
        assert elapsed < 300.0, f"budget exceeded: {elapsed:.1f}s >= 300s"
        ok = True
    finally:
        record_criterion(
            6, "minmax DP == brute (n<=8) and == nested search (n<=40), <5min",
            ok, detail,
        )


def test_criterion_7_performance_at_scale():
    """Large-instance runtimes within budget; counters stay linear in k*n."""
    ok = False
    detail = ""
    try:
        rng = random.Random(707)
        # minmax DP at n=300, k=5
        n = 300
        coords = [0]
        for _ in range(n):
            coords.append(coords[-1] + rng.randint(1, 10))
        wminus = [rng.randint(1, 50) for _ in range(n + 1)]
        wplus = [lo + rng.randint(0, 50) for lo in wminus]
        inst = PathInstance(tuple(coords), tuple(wminus), tuple(wplus),
                            capacity=1, tau=2)
        t0 = time.time()
        res = solve_minmax_regret_dp(inst, 5)
        mmr_elapsed = time.time() - t0
        assert mmr_elapsed < 600.0, f"minmax budget exceeded: {mmr_elapsed:.1f}s"
        for inc in res.counters["j_increments_per_row"]:
            assert inc <= n
        cache = build_scenario_opt_cache(inst, 5)
        rv, _ = max_regret_of_plan(inst, res.plan, cache)
        assert rv == res.value

        # optimal k-sink at n = 100000, k = 10 (simplified model)
        n2 = 100_000
        coords2 = [0]
        for _ in range(n2):
            coords2.append(coords2[-1] + rng.randint(1, 5))
        w2 = tuple(rng.randint(1, 100) for _ in range(n2 + 1))
        inst2 = PathInstance(tuple(coords2), (1,) * (n2 + 1), (200,) * (n2 + 1),
                             capacity=1, tau=1)
        s2 = Scenario(w2)
        t0 = time.time()
        res2 = solve_optimal_k_sink(inst2, s2, 10, CostModel.SIMPLIFIED)
        opt_elapsed = time.time() - t0
        assert opt_elapsed < 30.0, f"k-sink budget exceeded: {opt_elapsed:.1f}s"
        for inc in res2.counters["j_increments_per_row"]:
            assert inc <= 2 * n2
        assert res2.counters["sink_moves"] <= 3 * 10 * (n2 + 1)
        # Independent value check, outside the timed region: with point
        # intervals at w2, the batch engine's all-lower lane (0, 0) is the
        # same simplified optimum.
        point = PathInstance(tuple(coords2), w2, w2, capacity=1, tau=1)
        assert ScenarioBatchEngine(point).solve(10, [0], [0])[0] == res2.value
        detail = (
            f"minmax n=300 k=5 in {mmr_elapsed:.1f}s; "
            f"k-sink n=10^5 k=10 in {opt_elapsed:.1f}s"
        )
        ok = True
    finally:
        record_criterion(
            7, "minmax n=300 k=5 <10min; k-sink n=10^5 k=10 <30s; linear counters",
            ok, detail,
        )
