"""Optimal k-sink placement on a path via monotone dynamic programming.

T(q, i) = min over j of max(T(q-1, j-1), w(j, i)), where w(j, i) is the best
one-sink evacuation time of the subpath [j, i].  Both w and T are monotone in
their endpoints, so each DP row is filled with a single left-to-right scan in
which the candidate split point j only moves right (at most n increments per
row), and w(j, i) comes from one incremental subpath tracker per row, backed by
two sliding-window maxima, instead of being recomputed.  The tracker never has
to probe w(j+1, i): a subpath finishes no later than a path containing it, so
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
forwards on the mirrored path (``_band_lows``).  Work is O(n + the sum of
the band widths), amortized; with a loose U the bands widen to the whole
row and it stays O(k n).

A tracker maintains the rightmost optimal sink of its subpath: the one-sink
time is max(theta_L, theta_R) with theta_L non-decreasing and theta_R
non-increasing in the sink position, so advancing the sink while the next
position is no worse (ties included) lands exactly on the rightmost minimizer,
and appends/left-drops only ever push that minimizer further right.  The
tracker measures the next position from the side maxima without moving the
sink, and commits only accepted moves.

Each side maximum is a sliding-window maximum of one fixed per-vertex key.
All distances are integers, and for an integer L,
ceil(W/c) + L = ceil((W + cL)/c), where ceil(./c) never falls as its
argument grows.  So with P the prefix weights and X[z] = c tau x_z, the
left side time at sink y of [j, i] is

  ceil((max over z in [j, y-1] of KL[z], + X[y] - P[j]) / c) - 1,
  KL[z] = P[z+1] - X[z],

and the right side time is

  ceil((max over z in [y+1, i] of KR[z], - X[y] + P[i+1]) / c) - 1,
  KR[z] = X[z] - P[z];

the simplified model is the same with c = 1 and no -1.  j, the sink and i
only move right, so two monotone deques answer both maxima in O(1)
amortized time, and a sink probe reads the right window without its front.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

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


def _tracker_keys(path, pw, cm):
    """The fixed per-vertex lists and constants of a ``SubpathTracker`` of
    ``path`` under prefix weights P = ``pw``: (x, c tau, KL, KR, c, d) with
    X[z] = c tau x_z, KL[z] = P[z+1] - X[z] and KR[z] = X[z] - P[z], and the
    capacity c and wave correction d of model ``cm`` (c = 1, d = 0 for the
    simplified model)."""
    discrete = cm == CostModel.DISCRETE
    c = path.capacity if discrete else 1
    ct = c * path.tau
    kl = [p - ct * x for p, x in zip(pw[1:], path.coords)]
    kr = [ct * x - p for x, p in zip(path.coords, pw)]
    return path.coords, ct, kl, kr, c, 1 if discrete else 0


class SubpathTracker:
    """w(j, i) under append-right / drop-left updates, in either cost model.

    With P = ``pw`` (the scenario's prefix weights, ``_prefix_weights``) and
    the keys of ``_tracker_keys``, the left and right side times at sink y
    are

      ceil((max KL[j..y-1] + X[y] - P[j]) / c) - d,
      ceil((max KR[y+1..i] - X[y] + P[i+1]) / c) - d,

    0 for an empty side (see the module docstring).  j, y and i only move
    right, so both maxima are sliding-window maxima: ``left`` and ``right``
    are monotone deques of the vertices of [j, y-1] and [y+1, i] whose keys
    fall strictly from the front, the window's maximum.  ``append`` and
    ``drop_left`` return the new w(j, i), in O(1) amortized time.  A sink
    probe reads the right window without y+1, that is without its front
    when the front is y+1, and commits only accepted moves; ``sink_moves``
    counts them.  ``keys`` shares one ``_tracker_keys(inst, pw, cm)`` among
    trackers of one path and scenario, and is computed when None; ``s`` is
    the scenario that ``pw`` sums.  A tracker starts empty at j = ``j0``.
    """

    __slots__ = ("pw", "x", "ct", "kl", "kr", "c", "d", "left", "right",
                 "j", "i", "y", "sink_moves", "drops")

    def __init__(self, inst: PathInstance, s: Scenario, pw: list[int],
                 j0: int = 0, cm: str = CostModel.DISCRETE, keys=None):
        self.pw = pw
        self.x, self.ct, self.kl, self.kr, self.c, self.d = (
            keys or _tracker_keys(inst, pw, cm))
        self.left: deque[int] = deque()
        self.right: deque[int] = deque()
        self.j = j0
        self.i = j0 - 1
        self.y = j0
        self.sink_moves = 0
        self.drops = 0

    def theta(self) -> int:
        """Current w(j, i): best one-sink time of the tracked subpath."""
        if self.j > self.i:
            return 0
        pw, c, d, cy = self.pw, self.c, self.d, self.ct * self.x[self.y]
        left, right = self.left, self.right
        tl = -((pw[self.j] - self.kl[left[0]] - cy) // c) - d if left else 0
        tr = -((cy - self.kr[right[0]] - pw[self.i + 1]) // c) - d if right else 0
        return tl if tl >= tr else tr

    def append(self, v: int) -> int:
        """Extend the subpath to [j, v] (v must be the next vertex, i+1)."""
        if self.j > self.i:
            self.i = v
            self.y = v
            return 0
        self.i = v
        kr, right = self.kr, self.right
        key = kr[v]
        while right and kr[right[-1]] <= key:
            right.pop()
        right.append(v)
        return self._settle()

    def drop_left(self) -> int:
        """Shrink the subpath to [j+1, i]."""
        self.drops += 1
        j = self.j
        if j > self.i:
            raise RuntimeError("drop_left on an empty tracker")
        self.j = j + 1
        if j == self.i:
            return 0
        if self.y == j:
            # The sink leaves with j: it moves to j+1 and the left window
            # stays empty.
            self.y = j + 1
            self.sink_moves += 1
            if self.right[0] == j + 1:
                self.right.popleft()
        elif self.left[0] == j:
            self.left.popleft()
        return self._settle()

    def _settle(self) -> int:
        """Move the sink right while the next position is no worse and
        return the new w(j, i)."""
        pw, x, ct, kl, kr = self.pw, self.x, self.ct, self.kl, self.kr
        c, d = self.c, self.d
        left, right = self.left, self.right
        y, i = self.y, self.i
        pj, pi = pw[self.j], pw[i + 1]
        # theta(), inlined: one call fewer per update
        cy = ct * x[y]
        tl = -((pj - kl[left[0]] - cy) // c) - d if left else 0
        tr = -((cy - kr[right[0]] - pi) // c) - d if right else 0
        cur = tl if tl >= tr else tr
        moves = 0
        while y < i:
            # Left side if the sink moved to y+1: the window gains y.
            key = kl[y]
            ml = kl[left[0]] if left and kl[left[0]] > key else key
            cy = ct * x[y + 1]
            tl = -((pj - ml - cy) // c) - d
            # Right side if the sink moved: the window loses y+1, which is
            # its front exactly when its key is above every later key.
            front = right[0]
            if front != y + 1:
                tr = -((cy - kr[front] - pi) // c) - d
            elif len(right) > 1:
                tr = -((cy - kr[right[1]] - pi) // c) - d
            else:
                tr = 0
            nxt = tl if tl >= tr else tr
            if nxt > cur:
                break
            while left and kl[left[-1]] <= key:
                left.pop()
            left.append(y)
            if front == y + 1:
                right.popleft()
            y += 1
            moves += 1
            cur = nxt
        self.y = y
        self.sink_moves += moves
        return cur


def _trackers(path, scenario, cm):
    """``new(j0)``: a fresh ``SubpathTracker`` of ``path`` under
    ``scenario`` that starts empty at j = j0; all share one set of keys."""
    pw = _prefix_weights(scenario)
    keys = _tracker_keys(path, pw, cm)
    return lambda j0: SubpathTracker(path, scenario, pw, j0, cm, keys)


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
    and ``drop_left()``, which return the new w(j, i), like the tracker
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
    equal-parts bound can use (see the module docstring): O(n + the sum of
    the band widths) amortized, plus one greedy pass over the mirrored path,
    and O(k n) at worst.  ``counters`` holds each
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

