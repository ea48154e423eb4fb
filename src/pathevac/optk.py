"""Optimal k-sink placement on a path via monotone dynamic programming.

T(q, i) = min over j of max(T(q-1, j-1), w(j, i)), where w(j, i) is the best
one-sink evacuation time of the subpath [j, i].  Both w and T are monotone in
their endpoints, so each DP row is filled with a single left-to-right scan in
which the candidate split point j only moves right (at most n increments per
row), and w(j, i) comes from one incremental subpath tracker per row, backed by
Bi-Heaps, instead of being recomputed.  The tracker never has to probe
w(j+1, i): a subpath finishes no later than a path containing it, so
w(j+1, i) <= w(j, i) <= cur = max(T(q-1, j-1), w(j, i)), and the next split is
no worse than the current one exactly when T(q-1, j) <= cur.  Advancing on
ties lands on the rightmost optimal split.

That scan, ``_split_row``, is the package's one copy of the loop.  It has
three callers: this DP, the minmax DP over R (``_MatrixRow``) and the rows
of R themselves (``regret.compute_rji``).

Rows stop at a bound.  Cutting the path into k parts of equal vertex count is
a feasible plan, so its worst one-sink time U is at least T(k, n).  Every T
the answer or its reconstruction reads is at most T(k, n) <= U, so a row ends
at its first value above U and the rest of it reads as infinity.  This is
exact: within a position's scan, cur never grows and T(q-1, .) never falls,
so a scan that advances the split onto an entry above U ends above U; a
value at most U therefore reads only entries at most U, exactly as without
the bound.  A value above U stays above U (or becomes infinite) when entries
above U read as infinity, so the row stops where the unbounded row first
exceeds U, and each truncated row runs a prefix of the unbounded row's
operations.  The last row never exceeds U and is never cut.

Rows start at a bound too.  Let lows[q] be the least i for which [i+1, n]
is covered by k-q parts, each of one-sink time at most U (-1 when the whole
path is, and lows[k] = n).  An optimal split j of a value T(q, i) <= U with
i >= lows[q] has j-1 >= lows[q-1]: [j, i] fits within U and k-q parts cover
[i+1, n], so k-q+1 parts cover [j, n].  The answer reads T(k, n) alone, so
by induction no value T(q, i) with i < lows[q] is ever read, and row q
starts its tracker empty at j0 = lows[q-1] + 1, takes the vertices before
lows[q] without a value and scans from there.  The q-th boundary of an
optimal plan is at or right of lows[q], so T(q, lows[q]) <= U and the first
scan starts at or left of its rightmost optimal split; max(T(q-1, j-1),
w(j, i)) is a valley in j, so the scan reaches that split from any such
start, and values, splits and plans inside the band are those of the full
row, ties included.  The greedy feasibility test of Higashikawa, Golin &
Katoh (TCS 2015) gives every lows[q] in one pass from the right end, run
forwards on the mirrored path (``_band_lows``).  Work is O((n + the sum of
the band widths)(log n + log c)); with a loose U the bands widen to the
whole row and it stays O(k n (log n + log c)).

A tracker maintains the rightmost optimal sink of its subpath: the one-sink
time is max(theta_L, theta_R) with theta_L non-decreasing and theta_R
non-increasing in the sink position, so advancing the sink while the next
position is no worse (ties included) lands exactly on the rightmost minimizer,
and appends/left-drops only ever push that minimizer further right.  Both
trackers measure the next position from the side maxima without moving the
sink, and commit only accepted moves.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush

from .biheap import BiHeap
from .evac import eval_all_sinks, require_scenario_length
from .model import (
    CostModel,
    InvalidInstanceError,
    PathInstance,
    Plan,
    Scenario,
    require_k,
    validate_instance,
)

__all__ = [
    "SubpathTracker",
    "OptKResult",
    "optimal_one_sink",
    "solve_optimal_k_sink",
]


def _prefix_weights(s: Scenario) -> list[int]:
    """pw[z] = total weight of vertices [0, z); pw has length n+2."""
    pw = [0] * (len(s.weights) + 1)
    acc = 0
    for z, w in enumerate(s.weights):
        acc += w
        pw[z + 1] = acc
    return pw


def optimal_one_sink(
    inst: PathInstance,
    s: Scenario,
    lo: int,
    hi: int,
    cm: str = CostModel.DISCRETE,
) -> tuple[int, int]:
    """Best one-sink evacuation time of [lo, hi] and its leftmost optimal sink."""
    times = eval_all_sinks(inst, s, lo, hi, cm)
    best = min(times)
    return best, lo + times.index(best)


class SubpathTracker:
    """w(j, i) under append-right / drop-left updates, discrete cost model.

    Keeps two Bi-Heaps over the instance's capacity: the left heap holds
    (prefix weight W(j..t), distance) pairs for vertices t < sink, the right
    heap (suffix weight W(t..i), distance) pairs for t > sink, so each side's
    evacuation time is that side's max cost minus 1 (0 when empty).  ``pw``
    is the scenario's prefix weights (``_prefix_weights``).  ``append`` and
    ``drop_left`` return the new w(j, i).  A sink probe reads the side maxima
    as they would be after the move, removing the next vertex's pair from
    the right heap only when it is that heap's top; ``sink_moves`` counts
    committed moves.  The DP uses it for capacity >= 2; ``_FastTracker``
    covers unit capacity and the simplified model.  A tracker starts empty
    at j = ``j0``.
    """

    def __init__(self, inst: PathInstance, s: Scenario, pw: list[int], j0: int = 0):
        self.x = inst.coords
        self.tau = inst.tau
        self.c = inst.capacity
        self.w = s.weights
        self.pw = pw
        self.j = j0
        self.i = j0 - 1
        self.y = j0
        self.hl = BiHeap(self.c)
        self.hr = BiHeap(self.c)
        self.hl_handle: dict[int, int] = {}
        self.hr_handle: dict[int, int] = {}
        self.sink_moves = 0
        self.drops = 0

    def theta(self) -> int:
        """Current w(j, i): best one-sink time of the tracked subpath."""
        if self.j > self.i:
            return 0
        ml = self.hl.max_entry()
        mr = self.hr.max_entry()
        tl = ml[0] - 1 if ml is not None else 0
        tr = mr[0] - 1 if mr is not None else 0
        return tl if tl >= tr else tr

    def append(self, v: int) -> int:
        """Extend the subpath to [j, v] (v must be the next vertex, i+1)."""
        if self.j > self.i:
            self.i = v
            self.y = v
            return 0
        self.i = v
        self.hr.add_w(self.w[v])
        self.hr_handle[v] = self.hr.insert(
            self.w[v], (self.x[v] - self.x[self.y]) * self.tau
        )
        return self._settle()

    def drop_left(self) -> int:
        """Shrink the subpath to [j+1, i]."""
        self.drops += 1
        if self.j > self.i:
            raise RuntimeError("drop_left on an empty tracker")
        if self.j == self.i:
            self.j += 1
            return 0
        if self.y == self.j:
            self._move_right()
        self.hl.delete(self.hl_handle.pop(self.j))
        self.hl.add_w(-self.w[self.j])
        self.j += 1
        return self._settle()

    def _move_right(self) -> None:
        y = self.y
        ell = (self.x[y + 1] - self.x[y]) * self.tau
        self.hl.add_l(ell)
        self.hl_handle[y] = self.hl.insert(self.pw[y + 1] - self.pw[self.j], ell)
        # An accepted probe has already taken y+1's pair out if it was the top.
        handle = self.hr_handle.pop(y + 1, None)
        if handle is not None:
            self.hr.delete(handle)
        self.hr.add_l(-ell)
        self.y = y + 1
        self.sink_moves += 1

    def _settle(self) -> int:
        cur = self.theta()
        x, tau, c, pw = self.x, self.tau, self.c, self.pw
        hl, hr, hr_handle = self.hl, self.hr, self.hr_handle
        while self.y < self.i:
            y = self.y
            ell = (x[y + 1] - x[y]) * tau
            # Left side if the sink moved to y+1: every pair's L grows by
            # ell and vertex y joins with W(j..y) at distance ell.
            tl = -(-(pw[y + 1] - pw[self.j]) // c) + ell
            ml = hl.max_entry()
            if ml is not None and ml[0] + ell > tl:
                tl = ml[0] + ell
            tl -= 1
            # Right side if the sink moved: y+1's pair leaves, the rest's L
            # shrinks by ell.  Only the top pair can change the maximum.
            removed = None
            mr = hr.max_entry()
            if mr[1] == hr_handle[y + 1]:
                hr.delete(hr_handle.pop(y + 1))
                removed = mr
                mr = hr.max_entry()
            tr = mr[0] - ell - 1 if mr is not None else 0
            nxt = tl if tl >= tr else tr
            if nxt <= cur:
                self._move_right()
                cur = nxt
            else:
                if removed is not None:
                    hr_handle[y + 1] = hr.insert(pw[self.i + 1] - pw[y + 1], ell)
                break
        return cur


class _FastTracker:
    """Unit-capacity specialization: one lazy max-heap per side, O(1) probes.

    With c == 1 a pair's cost is W + L, so AddW/AddL collapse into a single
    side offset and a sink-move probe needs only the side maxima, computable
    without committing the move.
    """

    __slots__ = (
        "x", "tau", "w", "pw", "dadj", "j", "i", "y",
        "sL", "sR", "hl", "hr", "aliveL", "aliveR",
        "sink_moves", "drops",
    )

    def __init__(self, inst, s, discrete: bool, pw: list[int], j0: int = 0):
        self.x = inst.coords
        self.tau = inst.tau
        self.w = s.weights
        self.pw = pw
        self.dadj = 1 if discrete else 0
        self.j = j0
        self.i = j0 - 1
        self.y = j0
        self.sL = 0
        self.sR = 0
        self.hl: list[tuple[int, int]] = []  # (sideoffset - cost, vertex)
        self.hr: list[tuple[int, int]] = []
        n1 = len(self.x)
        self.aliveL = bytearray(n1)
        self.aliveR = bytearray(n1)
        self.sink_moves = 0
        self.drops = 0

    def theta(self) -> int:
        if self.j > self.i:
            return 0
        hl = self.hl
        al = self.aliveL
        while hl and not al[hl[0][1]]:
            heappop(hl)
        hr = self.hr
        ar = self.aliveR
        while hr and not ar[hr[0][1]]:
            heappop(hr)
        tl = (self.sL - hl[0][0] - self.dadj) if hl else 0
        tr = (self.sR - hr[0][0] - self.dadj) if hr else 0
        return tl if tl >= tr else tr

    def append(self, v: int) -> int:
        if self.j > self.i:
            self.i = v
            self.y = v
            return 0
        self.i = v
        self.sR += self.w[v]
        cost = self.w[v] + (self.x[v] - self.x[self.y]) * self.tau
        heappush(self.hr, (self.sR - cost, v))
        self.aliveR[v] = 1
        return self._settle()

    def drop_left(self) -> int:
        self.drops += 1
        if self.j > self.i:
            raise RuntimeError("drop_left on an empty tracker")
        if self.j == self.i:
            self.j += 1
            return 0
        if self.y == self.j:
            self._move_right()
        self.aliveL[self.j] = 0
        self.sL -= self.w[self.j]
        self.j += 1
        return self._settle()

    def _move_right(self) -> None:
        x = self.x
        y = self.y
        ell = (x[y + 1] - x[y]) * self.tau
        self.sL += ell
        cost = self.pw[y + 1] - self.pw[self.j] + ell
        heappush(self.hl, (self.sL - cost, y))
        self.aliveL[y] = 1
        self.aliveR[y + 1] = 0
        self.sR -= ell
        self.y = y + 1
        self.sink_moves += 1

    def _settle(self) -> int:
        cur = self.theta()
        x = self.x
        tau = self.tau
        pw = self.pw
        dadj = self.dadj
        while self.y < self.i:
            y = self.y
            ell = (x[y + 1] - x[y]) * tau
            # Left side if the sink moved to y+1: all current items shift by
            # +ell and vertex y joins at cost W(j..y) + ell.
            hl = self.hl
            al = self.aliveL
            while hl and not al[hl[0][1]]:
                heappop(hl)
            lmax = pw[y + 1] - pw[self.j] + ell
            if hl:
                v = self.sL - hl[0][0] + ell
                if v > lmax:
                    lmax = v
            tl = lmax - dadj
            # Right side if the sink moved: vertex y+1 leaves, rest shift -ell.
            hr = self.hr
            ar = self.aliveR
            while hr and not ar[hr[0][1]]:
                heappop(hr)
            popped = None
            if hr and hr[0][1] == y + 1:
                popped = heappop(hr)
                while hr and not ar[hr[0][1]]:
                    heappop(hr)
            tr = (self.sR - hr[0][0] - ell - dadj) if hr else 0
            nxt = tl if tl >= tr else tr
            if nxt <= cur:
                # The move marks y+1 dead, so a popped entry stays out.
                self._move_right()
                cur = nxt
            else:
                if popped is not None:
                    heappush(hr, popped)
                break
        return cur


def _trackers(path, scenario, cm):
    """``new(j0)``: a fresh tracker of ``path`` under ``scenario`` that
    starts empty at j = j0; the BiHeap tracker serves the discrete model
    with capacity >= 2, ``_FastTracker`` the rest."""
    pw = _prefix_weights(scenario)
    if cm == CostModel.SIMPLIFIED or path.capacity == 1:
        discrete = cm == CostModel.DISCRETE
        return lambda j0: _FastTracker(path, scenario, discrete, pw, j0)
    return lambda j0: SubpathTracker(path, scenario, pw, j0)


def _equal_parts_bound(inst, s, k, cm) -> int:
    """The worst one-sink time over the k parts of equal vertex count; part q
    is [q(n+1)//k, (q+1)(n+1)//k - 1].  A feasible plan, so >= T(k, n)."""
    n1 = inst.n + 1
    return max(
        optimal_one_sink(inst, s, q * n1 // k, (q + 1) * n1 // k - 1, cm)[0]
        for q in range(k)
    )


class _MatrixRow:
    """A DP row whose part cost is read from matrix ``M`` at [j, i]; ``M``
    must not grow as a part shrinks, M[j + 1, i] <= M[j, i].  It has no
    sink of its own, so ``sink_moves`` stays 0."""

    sink_moves = 0

    def __init__(self, M, j0: int = 0):
        self.M = M
        self.j = j0
        self.drops = 0

    def append(self, i: int) -> int:
        self.i = i
        return self.M.item(self.j, i)

    def drop_left(self) -> int:
        self.j += 1
        self.drops += 1
        return self.M.item(self.j, self.i)


def _split_row(tprev, row, n, bound=float("inf"), lo=0):
    """One row of T(q, i) = min over j of max(T(q-1, j-1), w(j, i)), i <= n.

    ``tprev[j]`` is T(q-1, j), non-decreasing in j and read for j < n.
    ``row`` tracks w(j, i) from its start j = ``row.j`` under ``append(i)``
    and ``drop_left()``, which return the new w(j, i), like the trackers
    above.  The row takes vertices ``row.j`` .. ``lo`` - 1 without a value,
    so its values start at i = ``lo``; the start must be at or left of the
    rightmost optimal split of T(q, lo).  The row stops at its first value
    above ``bound`` and reads as infinity outside [lo, stop).  Returns the
    values T(q, i) and the splits: the start j of the last part of the
    best cover of [0, i], the rightmost on ties.
    """
    inf = float("inf")
    tq = [inf] * (n + 1)
    jq = [0] * (n + 1)
    jc = row.j
    for i in range(jc, lo):
        row.append(i)
    for i in range(lo, n + 1):
        fc = row.append(i)
        cur = fc if jc == 0 else max(tprev[jc - 1], fc)
        # w(jc+1, i) <= w(jc, i) <= cur, so the next split is no worse
        # exactly when tprev[jc] <= cur.
        while jc < i and tprev[jc] <= cur:
            fc = row.drop_left()
            tp = tprev[jc]
            jc += 1
            cur = tp if tp >= fc else fc
        if cur > bound:
            break
        tq[i] = cur
        jq[i] = jc
    return tq, jq


def _split_dp(n, k, new_row, bound=float("inf"), lows=None):
    """T(k, n) of T(q, i) = min over j of max(T(q-1, j-1), w(j, i)).

    Runs ``_split_row`` on k fresh rows, the first after an all-infinite
    row, so T(1, i) = w(0, i).  ``new_row(j0)`` is a row that starts at
    j = j0.  ``bound`` must be at least T(k, n) (see the module docstring).
    ``lows[q-1]``, for rows q = 1..k, is the band's lower end of row q
    (``_band_lows``): row q starts at j0 = lows[q-2] + 1 (0 for q = 1) and
    its values at max(lows[q-1], 0).  The default, all -1, scans every row
    from 0.  Returns T(k, n), the split rows (``splits[q-1][i]`` starts the
    last part of the best q-part cover of [0, i]), the drops per row and
    the total sink moves.
    """
    if lows is None:
        lows = [-1] * k
    tprev = [float("inf")] * (n + 1)
    splits: list[list[int]] = []
    drops: list[int] = []
    sink_moves = 0
    j0 = 0
    for low in lows:
        row = new_row(j0)
        tprev, jq = _split_row(tprev, row, n, bound, max(low, 0))
        splits.append(jq)
        drops.append(row.drops)
        sink_moves += row.sink_moves
        j0 = low + 1
    return tprev[n], splits, drops, sink_moves


class _MirrorPath:
    """The path read from its right end, x'[i] = x[n] - x[n-i] with the
    weights reversed: the fields a tracker reads of an instance and a
    scenario, without re-validating them.  The one-sink time of [j, i] on
    the path equals that of [n-i, n-j] on the mirror, in both models, as a
    side's evacuation depends only on distances and weights in order away
    from the sink."""

    __slots__ = ("coords", "tau", "capacity", "weights")

    def __init__(self, inst: PathInstance, s: Scenario):
        xn = inst.coords[-1]
        self.coords = [xn - x for x in reversed(inst.coords)]
        self.tau = inst.tau
        self.capacity = inst.capacity
        self.weights = s.weights[::-1]


def _band_lows(inst, s, k, cm, bound):
    """``lows[q-1]``, for rows q = 1..k: the least i for which [i+1, n] is
    covered by k-q parts of one-sink time at most ``bound``, -1 when the
    whole path is; lows[k-1] = n.

    One greedy pass over the mirror: each part takes vertices while its
    time stays within the bound, and the next part starts at the first
    vertex that breaks it.  Greedy parts reach farthest, so after m parts
    the mirror's covered prefix [0, v-1] is the longest that m parts cover,
    which is the path's suffix [n-v+1, n]: lows[k-1-m] = n - v.
    """
    n = inst.n
    lows = [-1] * (k - 1) + [n]
    if k == 1:
        return lows
    mirror = _MirrorPath(inst, s)
    new_tracker = _trackers(mirror, mirror, cm)
    v = 0
    for q in range(k - 2, -1, -1):
        if v > n:
            break
        tr = new_tracker(v)
        while v <= n and tr.append(v) <= bound:
            v += 1
        lows[q] = n - v
    return lows


def _plan_from_splits(n, splits, sink_of) -> Plan:
    """The plan given by ``_split_dp``'s split rows; part [j, i] gets the
    sink ``sink_of(j, i)``."""
    bounds: list[int] = []
    sinks: list[int] = []
    i = n
    for row in reversed(splits):
        j = row[i]
        bounds.append(i)
        sinks.append(sink_of(j, i))
        i = j - 1
    if i != -1:
        raise RuntimeError("DP reconstruction did not consume the whole path")
    return Plan(tuple(reversed(bounds)), tuple(reversed(sinks)))


@dataclass
class OptKResult:
    value: int
    plan: Plan
    counters: dict


def solve_optimal_k_sink(
    inst: PathInstance,
    s: Scenario,
    k: int,
    cm: str = CostModel.DISCRETE,
) -> OptKResult:
    """Optimal k-sink plan for a fixed scenario.

    Each DP row scans only its band, the positions a plan within the
    equal-parts bound can use (see the module docstring): O((n + the sum of
    the band widths)(log n + log c)) plus one greedy pass over the mirrored
    path, and O(k n (log n + log c)) at worst.  ``counters`` holds each
    row's start j0 (``row_starts``), its committed split advances from
    there (``j_increments_per_row``) and the DP trackers' committed sink
    moves (``sink_moves``; the greedy pass's are not counted).
    """
    CostModel.check(cm)
    violations = validate_instance(inst)
    if violations:
        raise InvalidInstanceError("; ".join(violations))
    require_scenario_length(inst, s)
    n = inst.n
    k = require_k(inst, k)

    bound = _equal_parts_bound(inst, s, k, cm)
    lows = _band_lows(inst, s, k, cm, bound)
    value, splits, drops, sink_moves = _split_dp(
        n, k, _trackers(inst, s, cm), bound, lows)
    if value > bound:
        raise RuntimeError(
            f"k-sink DP value {value} exceeds the equal-parts bound {bound}")
    plan = _plan_from_splits(
        n, splits, lambda j, i: optimal_one_sink(inst, s, j, i, cm)[1])
    counters = {
        "j_increments_per_row": drops,
        "row_starts": [0] + [low + 1 for low in lows[:-1]],
        "sink_moves": sink_moves,
    }
    return OptKResult(value, plan, counters)

