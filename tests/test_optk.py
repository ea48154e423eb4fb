"""Optimal k-sink dynamic program and subpath trackers."""

from __future__ import annotations

import random

import numpy as np
import pytest

from pathevac.evac import eval_all_sinks, eval_one_sink, eval_plan
from pathevac.model import (
    CostModel,
    InvalidInstanceError,
    PathInstance,
    Plan,
    Scenario,
)
from pathevac.optk import (
    SubpathTracker,
    _band_lows,
    _equal_parts_bound,
    _MatrixRow,
    _MirrorPath,
    _plan_from_splits,
    _prefix_weights,
    _split_dp,
    _split_row,
    _trackers,
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
    res = solve_optimal_k_sink(UNIT, UNIT_S, 2, CostModel.SIMPLIFIED)
    assert res.value == 2
    assert res.plan == Plan((1, 2), (0, 2))


def test_one_sink_per_vertex_is_free():
    res = solve_optimal_k_sink(UNIT, UNIT_S, 3, CostModel.SIMPLIFIED)
    assert res.value == 0
    assert res.plan == Plan((0, 1, 2), (0, 1, 2))


def test_input_validation():
    with pytest.raises(InvalidInstanceError):
        solve_optimal_k_sink(PathInstance((0, 0), (1, 1), (1, 1)), Scenario((1, 1)), 1)
    for weights in ((1, 1), (1, 1, 1, 1)):
        with pytest.raises(ValueError, match="scenario has"):
            solve_optimal_k_sink(UNIT, Scenario(weights), 1)
    with pytest.raises(ValueError):
        solve_optimal_k_sink(UNIT, UNIT_S, 0)
    with pytest.raises(ValueError):
        solve_optimal_k_sink(UNIT, UNIT_S, 4)


@pytest.mark.parametrize("k", [True, 2.0, "2", None], ids=repr)
def test_k_must_be_an_integer(k):
    # True was solved as k = 1 and 2.0 failed in range() with a TypeError
    with pytest.raises(ValueError, match="k must be an integer, got"):
        solve_optimal_k_sink(UNIT, UNIT_S, k)


def test_k_accepts_numpy_integers():
    want = solve_optimal_k_sink(UNIT, UNIT_S, 2)
    assert solve_optimal_k_sink(UNIT, UNIT_S, np.int64(2)) == want


# Capacities from unit to far above a part's weight, where the side times'
# ceilings round whole runs of vertices alike.
CAPACITY_SETS = (((1, 2, 3), 0), ((7, 16, 1000), 100))


def test_matches_brute_force_small():
    for capacities, seed_shift in CAPACITY_SETS:
        rng = random.Random(21 + seed_shift)
        for _ in range(120):
            inst = rand_instance(rng, rng.randint(0, 9), capacities=capacities)
            s = rand_scenario(rng, inst)
            k = rng.randint(1, min(3, inst.n + 1))
            for cm in (CostModel.DISCRETE, CostModel.SIMPLIFIED):
                want, _ = brute_optimal_k_sink(inst, s, k, cm)
                res = solve_optimal_k_sink(inst, s, k, cm)
                got, plan = res.value, res.plan
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
            assert inc <= n
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


# One tracker serves both cost models.  The ids keep the names of the two
# trackers it replaced: the BiHeap-based ``SubpathTracker`` served the discrete
# model, ``_FastTracker`` the simplified one.
@pytest.mark.parametrize(
    "cm",
    [pytest.param(CostModel.DISCRETE, id="SubpathTracker"),
     pytest.param(CostModel.SIMPLIFIED, id="_FastTracker")],
)
def test_tracker_window_matches_direct_eval(cm):
    """The tracker serves every capacity under the cost model cm.  After every
    append and drop_left, in random interleavings that empty and refill the
    subpath, theta() is its best one-sink time and y its rightmost optimal
    sink."""
    for capacities, seed_shift in CAPACITY_SETS:
        rng = random.Random(24 + seed_shift + (cm == CostModel.SIMPLIFIED))
        for trial in range(120):
            n = rng.randint(1, 12)
            if trial % 3 == 0:
                # few distinct weights and gaps, so that ties are common
                inst = rand_instance(rng, n, w_max=2, gap_max=1,
                                     capacities=capacities, taus=(1, 2, 3))
            else:
                inst = rand_instance(rng, n, capacities=capacities, taus=(1, 2, 3))
            if trial % 4 == 1:
                # negative coordinates make negative keys
                shift = rng.randint(1, 10**6)
                inst = PathInstance(tuple(x - shift for x in inst.coords),
                                    inst.wminus, inst.wplus,
                                    capacity=inst.capacity, tau=inst.tau)
            s = rand_scenario(rng, inst)
            # grow-then-shrink on every fifth trial, random mixes otherwise
            p_append = 1.0 if trial % 5 == 0 else rng.choice((0.4, 0.6, 0.8))
            start = j = rng.randint(0, n) if trial % 5 else 0
            i = j - 1
            tr = SubpathTracker(inst, s, _prefix_weights(s), j, cm)
            while i < n or j <= i:
                if i < n and (j > i or rng.random() < p_append):
                    i += 1
                    got, what = tr.append(i), "append"
                else:
                    j += 1
                    got, what = tr.drop_left(), "drop_left"
                if j > i:
                    assert got == tr.theta() == 0, (what, inst, s, cm, j, i)
                    continue
                times = eval_all_sinks(inst, s, j, i, cm)
                want = min(times)
                assert got == tr.theta() == want, (what, inst, s, cm, j, i)
                # the sink probes advance on ties: rightmost optimal sink
                rightmost = i - times[::-1].index(want)
                assert tr.y == rightmost, (what, inst, s, cm, j, i)
            assert tr.drops == n + 1 - start


def _greedy_covers(inst, s, k, cm, limit):
    """Do k parts, each of one-sink time at most ``limit``, cover the path?
    Each part grows as far right as ``optimal_one_sink`` allows, found by
    galloping and then bisection: no tracker is involved."""
    if limit < 0:
        return False
    n = inst.n

    def fits(lo, hi):
        return optimal_one_sink(inst, s, lo, hi, cm)[0] <= limit

    lo = 0
    for _ in range(k):
        good, bad, step = lo, n + 1, 1
        while good < n:
            probe = min(n, good + step)
            if not fits(lo, probe):
                bad = probe
                break
            good, step = probe, 2 * step
        while bad - good > 1:
            mid = (good + bad) // 2
            if fits(lo, mid):
                good = mid
            else:
                bad = mid
        lo = good + 1
        if lo > n:
            return True
    return False


@pytest.mark.parametrize("cm", [CostModel.DISCRETE, CostModel.SIMPLIFIED])
def test_value_is_the_greedy_threshold_above_brute_force_sizes(cm):
    """At n = 200..2000 the DP's value T is the least time at which k greedy
    parts cover the path, and its plan evaluates to T."""
    rng = random.Random(32)
    sizes = ((200, 2), (2000, 3), (500, 16), (1000, 1000),
             (300, 1000), (800, 2), (1500, 16), (400, 3))
    for trial, (n, c) in enumerate(sizes):
        if trial % 2 == 0:
            # few distinct weights and gaps, so that ties are common
            inst = rand_instance(rng, n, w_max=2, gap_max=1, capacities=(c,),
                                 taus=(1, 2, 3))
        else:
            inst = rand_instance(rng, n, w_max=100, capacities=(c,),
                                 taus=(1, 2, 3))
        s = rand_scenario(rng, inst)
        k = rng.randint(2, 12)
        res = solve_optimal_k_sink(inst, s, k, cm)
        assert eval_plan(inst, s, res.plan, cm)[0] == res.value, (n, c, k)
        assert _greedy_covers(inst, s, k, cm, res.value), (n, c, k)
        assert not _greedy_covers(inst, s, k, cm, res.value - 1), (n, c, k)


def _two_tracker_reference(inst, s, k, cm):
    """The DP row loop with a second tracker on [j+1, i] that probes w(j+1, i)
    before each split advance; returns (value, plan, increments per row,
    sink moves)."""
    n = inst.n
    pw = _prefix_weights(s)

    def new_tracker():
        return SubpathTracker(inst, s, pw, cm=cm)

    ta = new_tracker()
    tprev = []
    for i in range(n + 1):
        ta.append(i)
        tprev.append(ta.theta())
    rows_J = [[0] * (n + 1)]
    row_incr = [0]
    sink_moves = ta.sink_moves
    for _q in range(2, k + 1):
        ta, tb = new_tracker(), new_tracker()
        tb.append(0)
        tb.drop_left()  # tb now tracks the empty subpath starting at 1
        tq, jq = [0] * (n + 1), [0] * (n + 1)
        jc = 0
        for i in range(n + 1):
            ta.append(i)
            if i:
                tb.append(i)
            cur = ta.theta() if jc == 0 else max(tprev[jc - 1], ta.theta())
            while jc < i:
                nxt = max(tprev[jc], tb.theta())
                if nxt > cur:
                    break
                ta.drop_left()
                tb.drop_left()
                jc += 1
                cur = nxt
            tq[i], jq[i] = cur, jc
        tprev = tq
        rows_J.append(jq)
        row_incr.append(ta.drops + tb.drops - 1)
        sink_moves += ta.sink_moves + tb.sink_moves
    bounds, sinks = [], []
    i = n
    for q in range(k, 0, -1):
        j = rows_J[q - 1][i]
        bounds.append(i)
        sinks.append(optimal_one_sink(inst, s, j, i, cm)[1])
        i = j - 1
    plan = Plan(tuple(reversed(bounds)), tuple(reversed(sinks)))
    return tprev[n], plan, row_incr, sink_moves


def test_one_tracker_rows_match_two_tracker_reference():
    rng = random.Random(25)
    for trial in range(300):
        n = rng.randint(0, 30)
        if trial % 3 == 0:
            # few distinct weights and gaps, so that ties are common
            inst = rand_instance(rng, n, w_max=2, gap_max=1, taus=(1, 2, 3))
        else:
            inst = rand_instance(rng, n, taus=(1, 2, 3))
        s = rand_scenario(rng, inst)
        k = rng.randint(1, n + 1)
        for cm in (CostModel.DISCRETE, CostModel.SIMPLIFIED):
            want_v, want_plan, want_incr, want_moves = _two_tracker_reference(
                inst, s, k, cm)
            res = solve_optimal_k_sink(inst, s, k, cm)
            assert res.value == want_v, (inst, s, k, cm)
            assert res.plan.boundaries == want_plan.boundaries, (inst, s, k, cm)
            assert res.plan.sinks == want_plan.sinks, (inst, s, k, cm)
            assert res.counters["sink_moves"] <= want_moves
            incr = res.counters["j_increments_per_row"]
            assert len(incr) == len(want_incr) == k
            assert all(a <= b for a, b in zip(incr, want_incr)), (incr, want_incr)


def _prefix(inst, s, j):
    """Instance and scenario restricted to the vertices [0, j-1]."""
    sub = PathInstance(inst.coords[:j], inst.wminus[:j], inst.wplus[:j],
                       capacity=inst.capacity, tau=inst.tau)
    return sub, Scenario(s.weights[:j])


def test_last_part_starts_at_rightmost_optimal_split():
    rng = random.Random(26)
    for trial in range(200):
        n = rng.randint(1, 9)
        if trial % 2 == 0:
            inst = rand_instance(rng, n, w_max=2, gap_max=1, taus=(1, 2, 3))
        else:
            inst = rand_instance(rng, n, taus=(1, 2, 3))
        s = rand_scenario(rng, inst)
        cm = rng.choice([CostModel.DISCRETE, CostModel.SIMPLIFIED])
        for k in range(2, min(5, n + 1) + 1):
            # f(j): best plan whose last part is [j, n]; the prefix [0, j-1]
            # needs at least k-1 vertices.
            f = {}
            for j in range(k - 1, n + 1):
                head, _ = brute_optimal_k_sink(*_prefix(inst, s, j), k - 1, cm)
                f[j] = max(head, optimal_one_sink(inst, s, j, n, cm)[0])
            best = min(f.values())
            j_star = max(j for j, v in f.items() if v == best)
            res = solve_optimal_k_sink(inst, s, k, cm)
            assert res.value == best, (inst, s, k, cm)
            assert res.plan.boundaries[-2] + 1 == j_star, (inst, s, k, cm)
            # the last row's split starts at its band start and only advances
            assert (res.counters["row_starts"][-1]
                    + res.counters["j_increments_per_row"][-1] == j_star)


def _direct_rows(inst, s, k, cm):
    """T(q, i) for q = 1..k straight from the recurrence, O(k n^2)."""
    n = inst.n
    w = {(j, i): optimal_one_sink(inst, s, j, i, cm)[0]
         for i in range(n + 1) for j in range(i + 1)}
    rows = [[w[0, i] for i in range(n + 1)]]
    for _q in range(2, k + 1):
        prev = rows[-1]
        rows.append([
            min([w[0, i]] + [max(prev[j - 1], w[j, i]) for j in range(1, i + 1)])
            for i in range(n + 1)
        ])
    return rows


def test_bounded_rows_match_unbounded():
    rng = random.Random(27)
    for trial in range(240):
        n = rng.randint(0, 24)
        kind = trial % 3
        if kind == 0:
            # few distinct weights and gaps, so that ties are common
            inst = rand_instance(rng, n, w_max=2, gap_max=1, taus=(1, 2, 3))
        else:
            inst = rand_instance(rng, n, taus=(1, 2, 3))
        s = rand_scenario(rng, inst)
        if kind == 1:
            # one heavy vertex: its equal part's time makes a loose bound
            weights = list(s.weights)
            weights[rng.randrange(n + 1)] = rng.randint(300, 3000)
            s = Scenario(tuple(weights))
        k = n + 1 if trial % 5 == 0 else rng.randint(1, n + 1)
        cm = rng.choice([CostModel.DISCRETE, CostModel.SIMPLIFIED])
        new_row = _trackers(inst, s, cm)
        rows = _direct_rows(inst, s, k, cm)
        value, splits, drops, moves = _split_dp(n, k, new_row)
        assert value == rows[-1][n], (inst, s, k, cm)
        # the equal-parts bound, and the tightest bound allowed
        for bound in (_equal_parts_bound(inst, s, k, cm), value):
            assert bound >= value
            b_value, b_splits, b_drops, b_moves = _split_dp(n, k, new_row, bound)
            assert b_value == value, (inst, s, k, cm, bound)
            for q in range(k):
                for i in range(n + 1):
                    if rows[q][i] <= bound:
                        assert b_splits[q][i] == splits[q][i], (inst, s, k, q, i)
            assert all(a <= b for a, b in zip(b_drops, drops)), (b_drops, drops)
            assert b_drops[-1] == drops[-1]
            assert b_moves <= moves
            assert (_plan_from_splits(n, b_splits, lambda j, i: j)
                    == _plan_from_splits(n, splits, lambda j, i: j))


def _brute_lows(inst, s, k, cm, bound):
    """lows[q-1] of row q from the definition: the least i in [-1, n] for
    which [i+1, n] is covered by at most k-q parts of time <= bound."""
    n = inst.n
    parts = [0] * (n + 2)  # parts[a]: fewest parts that cover [a, n]
    for a in range(n, -1, -1):
        parts[a] = 1 + min(parts[b + 1] for b in range(a, n + 1)
                           if optimal_one_sink(inst, s, a, b, cm)[0] <= bound)
    return [min(i for i in range(-1, n + 1) if parts[i + 1] <= k - q)
            for q in range(1, k + 1)]


def test_banded_rows_match_unbanded():
    rng = random.Random(30)
    for trial in range(320):
        n = rng.randint(0, 30)
        kind = trial % 3
        if kind == 0:
            # few distinct weights and gaps, so that ties are common
            inst = rand_instance(rng, n, w_max=2, gap_max=1, taus=(1, 2, 3))
        else:
            inst = rand_instance(rng, n, taus=(1, 2, 3))
        s = rand_scenario(rng, inst)
        if kind == 1:
            # one heavy vertex: its equal part's time makes a loose bound
            weights = list(s.weights)
            weights[rng.randrange(n + 1)] = rng.randint(300, 3000)
            s = Scenario(tuple(weights))
        k = (1, n + 1, rng.randint(1, n + 1))[trial % 4 % 3]
        cm = rng.choice([CostModel.DISCRETE, CostModel.SIMPLIFIED])
        bound = _equal_parts_bound(inst, s, k, cm)
        lows = _band_lows(inst, s, k, cm, bound)
        assert lows == _brute_lows(inst, s, k, cm, bound), (inst, s, k, cm)
        assert lows == sorted(lows) and lows[-1] == n, lows

        new_row = _trackers(inst, s, cm)
        rows = _direct_rows(inst, s, k, cm)
        value, splits, _, moves = _split_dp(n, k, new_row)
        b_value, b_splits, b_drops, b_moves = _split_dp(n, k, new_row, bound, lows)
        assert b_value == value == rows[-1][n], (inst, s, k, cm)
        for q in range(k):
            for i in range(max(lows[q], 0), n + 1):
                if rows[q][i] <= bound:
                    assert b_splits[q][i] == splits[q][i], (inst, s, k, q, i)
        assert (_plan_from_splits(n, b_splits, lambda j, i: j)
                == _plan_from_splits(n, splits, lambda j, i: j))
        assert b_moves <= moves
        assert all(d <= n for d in b_drops)


def test_mirror_one_sink_times_match():
    """The one-sink time of [j, i] equals that of [n-i, n-j] on the path
    read from its right end, which the band's greedy pass runs on."""
    rng = random.Random(31)
    for _ in range(60):
        inst = rand_instance(rng, rng.randint(0, 12), capacities=(1, 2, 3, 4),
                             taus=(1, 2, 3))
        s = rand_scenario(rng, inst)
        m = _MirrorPath(inst, s)
        minst = PathInstance(tuple(m.coords), m.weights, m.weights,
                             capacity=m.capacity, tau=m.tau)
        ms = Scenario(m.weights)
        n = inst.n
        for cm in (CostModel.DISCRETE, CostModel.SIMPLIFIED):
            for i in range(n + 1):
                for j in range(i + 1):
                    want = optimal_one_sink(inst, s, j, i, cm)[0]
                    got = optimal_one_sink(minst, ms, n - i, n - j, cm)[0]
                    assert got == want, (inst, s, cm, j, i)


def test_split_row_matches_brute_force_min():
    """One split row over a matrix cost M equals the brute-force minimum over
    j of max(tprev[j-1], M[j, i]), with the rightmost minimising j, when
    tprev is non-decreasing and M[j, i] is non-increasing in j and
    non-decreasing in i, as w and R are.  Small values make ties common."""
    rng = random.Random(29)
    inf = float("inf")
    for trial in range(400):
        n = rng.randint(0, 14)
        top = rng.choice((2, 4, 50))
        tprev = sorted(rng.randint(0, top) for _ in range(n))
        if trial % 5 == 0 and n:
            # a previous row cut at a bound reads as infinity from there on
            cut = rng.randrange(n)
            tprev[cut:] = [inf] * (n - cut)
        # base[j][i] non-decreasing in i, then M[j][i] = max of base[j'][i]
        # over j' in [j, i], non-increasing in j
        base = np.zeros((n + 1, n + 1), dtype=np.int64)
        for j in range(n + 1):
            base[j, j:] = np.maximum.accumulate([rng.randint(0, top) for _ in range(j, n + 1)])
        M = np.zeros_like(base)
        for i in range(n + 1):
            M[: i + 1, i] = np.maximum.accumulate(base[i::-1, i])[::-1]
        row = _MatrixRow(M)
        values, splits = _split_row(tprev, row, n)
        for i in range(n + 1):
            costs = [M[0, i]] + [max(tprev[j - 1], M[j, i]) for j in range(1, i + 1)]
            best = min(costs)
            assert values[i] == best, (tprev, M.tolist(), i)
            assert splits[i] == max(j for j, c in enumerate(costs) if c == best), (
                tprev, M.tolist(), i)
        assert row.drops == splits[n]
