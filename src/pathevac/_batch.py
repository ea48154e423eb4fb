"""Vectorized optimal k-sink evacuation times for many scenarios at once.

Used to build the scenario-optimum cache over all O(n^2) candidate scenarios
(simplified cost model).  A candidate scenario, or lane, (t1, t2) takes upper
weight bounds on [t1, t2) and lower bounds elsewhere, so every prefix-sum or
profile quantity it needs decomposes into at most three segments of four
static arrays.

* **Range maxima.**  Each static array gets a sparse table stored flat, one
  row per power-of-two window length, behind an all-NEG row.  A query looks
  up its row offset and its right-end shift by range length in two small
  tables and gathers twice; an empty range maps to the NEG row, so no query
  needs a validity mask.
* **Feasibility.**  ``_feasible`` answers "can k parts each finish within
  v?" for every lane at once by greedy extension: repeatedly extend the
  current part as far right as possible subject to both sides of its best
  sink meeting v.
* **Open-lane bisection on critical values.**  ``_bisect`` bisects the
  answer per lane.  It holds one state for the lanes whose bracket is still
  open, their descriptors, bracket ends and position records, and each
  round probes all of them at their midpoints v.  It then moves each
  bracket to the greedy's own critical values, as the parametric search of
  Bhattacharya et al. (WADS 2017) searches over them: a probe that covers
  the path lowers hi to the largest part time of the plan it built, and
  one that does not raises lo to the least bound at which some part's
  sink or end would move, below which the greedy builds the same plan.
  Each inner search has already evaluated the side times at its answer
  and one past it, so no extra evaluation is needed.  Lanes whose bracket
  has closed get their optimum written, and one mask compacts every array
  of the state to the lanes still open.
* **Position brackets.**  A larger bound v never moves the greedy's sink or
  part end left, because a part that starts further right is a subpath and
  finishes no later.  So the lane state keeps, per lane and part, both
  positions from the lane's last infeasible and last feasible probe, and
  each inner search of the next probe runs between them, for as many rounds
  as its widest bracket has bits.  Terms fixed for a lane or for a part are
  computed once per probe, not once per round.
* **Brackets (fills).**  ``solve`` bisects each lane from one of two
  brackets, chosen by the lane count: below ``_ANCHOR_MIN_LANES`` lanes
  ``_top_level``'s, from the optima of the all-lower and the all-upper
  window, which the fixed-scenario DP gives once per k and one probe of
  the greedy certifies; from there on ``_brackets``', from the optima of
  the windows between grid points ``0, s, 2s, ..`` and ``n+1`` that the
  lanes need, themselves bisected from the top level: each lane lies
  above the inner window and the outer one less the weight growth
  outside the lane, and below the outer window and the inner one plus
  the weight growth inside the lane.
* **Plan brackets (audits).**  ``_plan_bounds`` brackets each lane from
  its own weights alone: above by the time of the k-part plan balanced
  for them, below by a weight bound and a distance bound that every plan
  of k parts meets.  ``regret.max_regret_of_plan`` brackets every
  candidate so, intersects the brackets with ``_top_level``'s where that
  can help, and calls no ``solve``.
* **Threshold search (audits).**  An audit needs only the largest regret
  time - OPT over its candidates and the first candidate attaining it,
  not every optimum.  ``_max_regret`` keeps each candidate's bracket and
  position records as ``_bisect`` does, and each round probes every
  candidate that could still beat the best regret lower bound L at its
  threshold time - L - 1 and at ``_PROBES`` - 1 points evenly below it, all
  in one ``_feasible`` call.  Each probe at a threshold either raises L
  or drops its candidate from the search.  ``_probe`` folds the least
  feasible and the greatest infeasible point of each lane into its
  bracket and records; ``_bisect`` uses it with one point, so the
  critical-value and record logic has one copy.

All arithmetic is int64-exact; :func:`check_int64_headroom` rejects the
instances for which it could not be.
"""

from __future__ import annotations

import numpy as np

from .model import CostModel, InvalidInstanceError, PathInstance, Scenario, require_k

__all__ = ["ScenarioBatchEngine", "NEG", "INT64_HEADROOM", "check_int64_headroom"]

NEG = -(1 << 62)

# int64 headroom.  Write X = max(|x_0|, |x_n|) * tau, the largest |x * tau|;
# S = sum of w+, which bounds every prefix weight and every sum of deltas
# delta = w+ - w-; and H = X + S.  The four profile arrays lie in [-H, H];
# segment maxima, shifted by a delta sum, in [-2H, 2H].  A part's offset
# (pw(pos - 1) on the left, x_t*tau + dp0[t1] on the right) lies in [-H, H],
# so side times, the bisection bounds and their sum, the greedy's bounds
# v + offset, side times plus offset and the anchor brackets (OPT +- S) lie
# within 4H in absolute value.  The NEG = -2^62 sentinel of an empty
# segment is shifted by at most S.  The greedy does not mask an empty side
# (t == pos or e == t): its side time plus offset is NEG-based, in
# [NEG - H, NEG + 2H], so it lies below every bound v + offset >= -H and
# passes, as an empty side must; ``theta_l`` / ``theta_r`` subtract the
# offset (reaching NEG - 2H) and mask it.  The side times that ``_last``
# keeps at its last passing and failing probe are such raw values, or its
# fallbacks cap = v + offset and cap + 1, all within 4H + 1.  ``_last``
# subtracts the offset again: ``got`` folds side times in [0, 2H], the
# fallback v and an empty side's NEG - 2H or more into a maximum that
# starts at 0, and ``nxt`` folds side times in [0, 2H] (a failing probe
# never has an empty side) and the fallback v + 1 into a minimum that
# starts at the int64 maximum, which the first search replaces; so
# 0 <= got <= v and v < nxt <= 2H + 1.  The regret tables of ``regret``
# take running maxima of the profile arrays over non-empty ranges only, so
# no NEG enters them.  With side times and OPT in [0, 2H], each operand of
# a running maximum there, a profile entry or its running maximum minus
# OPT, lies in [-3H, H].  Each offset (x_t*tau, a prefix sum, or a
# prefix sum of w+ minus x_t*tau) lies in [-H, H], and each table value
# (side time - OPT) in [-2H, 2H].  ``_plan_bounds`` evaluates its plans
# with ``theta_l`` / ``theta_r``, its weight targets are at most S + k^2,
# and its distance bound is exact in Python integers.  ``_max_regret``'s
# brackets and plan times lie in [0, 2H], so time - L lies in [-2H, 4H];
# each threshold theta lies in [lo, hi - 1], so the points below it take
# (theta - lo) * j < 2 * 2H < 2^62 for j < ``_PROBES`` = 3.  So H < 2^60
# keeps every intermediate within 2^62 + 2^61 < 2^63 and keeps every
# shifted sentinel (at most NEG + S < -2H) below every real segment
# maximum.
INT64_HEADROOM = 1 << 60

# Lane count from which ``solve`` brackets its lanes by the anchor windows of
# ``_brackets`` rather than by the top level, and the grid step of those
# windows.
_ANCHOR_MIN_LANES = 1500
_ANCHOR_STEP = 4

# Points per lane and round of the audit's threshold search (``_max_regret``):
# its threshold and ``_PROBES`` - 1 points evenly below it.
_PROBES = 3


def check_int64_headroom(inst: PathInstance) -> None:
    """Raise InvalidInstanceError unless int64 arithmetic is exact for ``inst``."""
    reach = max(abs(inst.coords[0]), abs(inst.coords[-1])) * inst.tau + sum(inst.wplus)
    if reach >= INT64_HEADROOM:
        raise InvalidInstanceError(
            f"max |x| * tau + sum of w_max is {reach}, beyond the int64 "
            f"headroom 2^60 of the scenario-optimum engine"
        )


def descriptor_arrays(t1s, t2s, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Descriptors (t1s[i], t2s[i]) as flat contiguous int64 arrays: arrays
    of any equal shape are read flat, in C order.  ValueError for entries
    that are not integers (never truncated or parsed), unequal shapes, or a
    descriptor outside 0 <= t1 <= t2 <= n + 1."""
    t1, t2 = np.asarray(t1s), np.asarray(t2s)
    if any(a.size and a.dtype.kind not in "iu" for a in (t1, t2)):
        raise ValueError(f"descriptors must be integers, got {t1.dtype} and {t2.dtype}")
    if t1.shape != t2.shape:
        raise ValueError("t1s and t2s must have equal shapes")
    t1 = np.ascontiguousarray(t1, dtype=np.int64).ravel()
    t2 = np.ascontiguousarray(t2, dtype=np.int64).ravel()
    if np.any((t1 < 0) | (t1 > t2) | (t2 > n + 1)):
        raise ValueError("descriptor out of range")
    return t1, t2


def distinct_keys(t1, t2, n: int) -> np.ndarray:
    """The distinct descriptors among (t1[i], t2[i]) as sorted keys
    t1 (n + 2) + t2, all >= 0 (np.unique would load numpy.ma)."""
    keys = np.sort(t1 * np.int64(n + 2) + t2)
    return keys[np.diff(keys, prepend=-1) > 0]


class _SparseMax:
    """Static range maximum over an int64 array, answered by flat gathers.

    Row 0 of the flat table is all NEG; row j + 1 holds the maxima of the
    windows of length 2^j.  Every row has two NEG columns past the array, so
    a query [a, b] with 0 <= a <= len + 1 and -1 <= b < len never reads
    outside it: an empty range (b < a) reads row 0 at columns a and b + 1.
    """

    def __init__(self, arr: np.ndarray):
        n = arr.shape[0]
        levels = max(1, n.bit_length())
        width = n + 2
        st = np.full((levels + 1, width), NEG, dtype=np.int64)
        st[1, :n] = arr
        span = 1
        for j in range(2, levels + 1):
            m = n - 2 * span + 1
            if m > 0:
                st[j, :m] = np.maximum(st[j - 1, :m], st[j - 1, span:span + m])
            span *= 2
        self.flat = st.ravel()
        # Indexed by d = b - a, i.e. by range length d + 1: the row holding
        # windows of length 2^lg(d + 1), and that row's offset minus the
        # shift 2^lg - 1 from b to the right window's start.  The n + 2
        # entries past n, reached through numpy's negative indexing by every
        # d in [-(n + 2), -1], serve the empty ranges: row 0, read at a and
        # at b + 1.
        lg = np.zeros(2 * n + 2, dtype=np.int64)
        for j in range(1, levels):
            lg[(1 << j) - 1:n] += 1
        self.row = (lg + 1) * width
        self.row_right = self.row - (np.left_shift(np.int64(1), lg) - 1)
        self.row[n:] = 0
        self.row_right[n:] = 1

    def query(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Elementwise max over [a, b]; NEG where a > b."""
        d = b - a
        flat = self.flat
        return np.maximum(flat[self.row[d] + a], flat[self.row_right[d] + b])


class _Lanes:
    """Terms of the side-time formulas fixed for each lane (t1, t2)."""

    __slots__ = ("t1", "t2", "t1m", "t2m", "t1p", "t2p", "d1", "dd")

    def __init__(self, dp0, t1, t2):
        self.t1 = t1
        self.t2 = t2
        self.t1m = t1 - 1
        self.t2m = t2 - 1
        self.t1p = t1 + 1
        self.t2p = t2 + 1
        self.d1 = dp0[t1]
        self.dd = dp0[t2] - self.d1


class ScenarioBatchEngine:
    """Optimal k-sink times (simplified model) for batches of (t1, t2) lanes."""

    def __init__(self, inst: PathInstance):
        check_int64_headroom(inst)
        n = inst.n
        x = np.asarray(inst.coords, dtype=np.int64)
        wm = np.asarray(inst.wminus, dtype=np.int64)
        wp = np.asarray(inst.wplus, dtype=np.int64)
        xt = x * inst.tau
        pm0 = np.zeros(n + 2, dtype=np.int64)
        pm0[1:] = np.cumsum(wm)
        dp0 = np.zeros(n + 2, dtype=np.int64)
        dp0[1:] = np.cumsum(wp - wm)
        self.inst = inst
        self.n = n
        self.xt = xt
        self.pm0 = pm0
        self.dp0 = dp0
        # Left profile A_s(z) = (scenario prefix weight through z) - x_z*tau and
        # right profile B_s(z) = x_z*tau - (prefix weight through z-1), each
        # expressed via two static arrays (all-lower / all-upper-so-far).
        # ``regret.build_lookup_tables`` reads the arrays too.
        self.a1 = pm0[1:] - xt
        self.a2 = self.a1 + dp0[1:]
        self.b1 = xt - pm0[:-1]
        self.b2 = self.b1 - dp0[:-1]
        self.stA1 = _SparseMax(self.a1)
        self.stA2 = _SparseMax(self.a2)
        self.stB1 = _SparseMax(self.b1)
        self.stB2 = _SparseMax(self.b2)
        self._extremes = {}

    # -- side times -------------------------------------------------------------
    #
    # Lane (t1, t2) takes w+ on [t1, t2), so its prefix weight through z is
    # pm0[z + 1] + dp0[clip(z + 1, t1, t2)] - dp0[t1], and a range maximum
    # of either profile splits at t1 and t2 into three static queries.  The
    # terms fixed for a lane (``_Lanes``) or for a part (``_left_part``,
    # ``_right_part``) are computed once.  A part's last term is its offset:
    # ``_left_raw`` / ``_right_raw`` return the side time plus that offset,
    # so the greedy compares them with v + offset.  An empty side (t == pos,
    # e == t) passes every such bound (see the int64 headroom note);
    # ``theta_l`` / ``theta_r`` mask it to 0.

    def _left_part(self, pos, ln):
        """Left-side terms fixed for a part starting at ``pos``; the offset
        is its prefix weight through pos - 1."""
        pw = self.pm0[pos] + self.dp0[np.minimum(np.maximum(pos, ln.t1), ln.t2)] - ln.d1
        return pos, np.maximum(pos, ln.t1), np.maximum(pos, ln.t2), pw

    def _left_raw(self, t, part, ln):
        """Left-side time of sink ``t`` plus the offset of ``part``."""
        a, a1, a2, _ = part
        b = t - 1
        s1 = self.stA1.query(a, np.minimum(b, ln.t1m))
        s2 = self.stA2.query(a1, np.minimum(b, ln.t2m)) - ln.d1
        s3 = self.stA1.query(a2, b) + ln.dd
        return self.xt[t] + np.maximum(np.maximum(s1, s2), s3)

    def _right_part(self, t, ln):
        """Right-side terms fixed for sink ``t``; the offset is x_t*tau + dp0[t1]."""
        a = t + 1
        return a, np.maximum(a, ln.t1p), np.maximum(a, ln.t2p), self.xt[t] + ln.d1

    def _right_raw(self, e, part, ln):
        """Right-side time for the part ending at ``e`` plus the offset of ``part``."""
        a, a1, a2, _ = part
        s1 = self.stB1.query(a, np.minimum(e, ln.t1))
        s2 = self.stB2.query(a1, np.minimum(e, ln.t2)) + ln.d1
        s3 = self.stB1.query(a2, e) - ln.dd
        z = e + 1
        pw = self.pm0[z] + self.dp0[np.minimum(np.maximum(z, ln.t1), ln.t2)]
        return pw + np.maximum(np.maximum(s1, s2), s3)

    def theta_l(self, pos, t, t1, t2):
        """Left-side time of sink t for the part starting at pos (0 if t == pos)."""
        ln = _Lanes(self.dp0, t1, t2)
        part = self._left_part(pos, ln)
        return np.where(t > pos, self._left_raw(t, part, ln) - part[3], 0)

    def theta_r(self, t, e, t1, t2):
        """Right-side time of sink t for the part ending at e (0 if e == t)."""
        ln = _Lanes(self.dp0, t1, t2)
        part = self._right_part(t, ln)
        return np.where(e > t, self._right_raw(e, part, ln) - part[3], 0)

    # -- solver ---------------------------------------------------------------

    def _feasible(self, v, t1, t2, low, high):
        """Per lane: can k parts each finish within v?  (greedy extension)

        The records ``low`` and ``high`` hold one column per part, min(k,
        n + 1) of them, and one entry per lane: ``low[:, q]`` and
        ``high[:, q]`` bracket part q's sink and end (rows 0 and 1) from
        below and above (see ``_bisect``).  Returns the per-lane answer;
        those positions, shaped like the records, where a part past the
        last one reads n; and two critical values of the greedy (see
        ``_last``):

        * ``got``, the largest part time of the plan the greedy built, at
          least 0 and at most v: where the plan covers the path, a feasible
          time;
        * ``nxt`` > v, the least bound at which some part's sink or end
          would move.  Below it every search inside the same records
          returns what it returned at v, so where the plan does not cover
          the path, no bound below ``nxt`` is feasible.

        Where a search did not show a side time, ``got`` reads v and
        ``nxt`` reads v + 1, the plain bisection's step.
        """
        n = self.n
        ln = _Lanes(self.dp0, t1, t2)
        at = np.empty_like(low)
        pos = np.zeros(v.shape[0], dtype=np.int64)
        got = np.zeros_like(v)
        nxt = np.full_like(v, np.iinfo(np.int64).max)
        for q in range(low.shape[1]):
            pos = np.minimum(pos, n)
            part = self._left_part(pos, ln)
            tl = self._last(self._left_raw, part, v, ln, pos, low[0, q], high[0, q], got, nxt)
            part = self._right_part(tl, ln)
            e = self._last(self._right_raw, part, v, ln, tl, low[1, q], high[1, q], got, nxt)
            at[0, q] = tl
            at[1, q] = e
            pos = e + 1
        return pos > n, at, got, nxt

    @staticmethod
    def _last(raw, part, v, ln, first, low, high, got, nxt):
        """Largest position m in [max(first, low), high] at which
        ``raw(m, part, ln)``, a side time plus the part's offset, is within
        cap = v + offset (m = first always passes: an empty side).  raw is
        non-decreasing in m.  Runs as many rounds as the widest bracket has
        bits.

        For the left side, ``first`` is the part's start and m its sink;
        for the right side, ``first`` is the sink and m the part's end,
        whose best sink min(m, sink) meets v on the right: every m <= sink
        does, and past the sink the sink is ``first``.

        Folds the side time at m into ``got`` and the one at m + 1 into
        ``nxt``, the critical values of the search: with any cap in
        [raw(m), raw(m + 1)) it returns m.  Each passing probe sets lo to
        its m and each failing one sets hi to its m - 1, and both end at
        the answer, so the last passing probe was at m and the last failing
        one at m + 1; two ``np.where`` per round keep their raw values, and
        no extra evaluation is made.  Where no probe passed, or none
        failed, they read cap and cap + 1, which is all the search itself
        shows.
        """
        off = part[3]
        cap = v + off
        lo = np.maximum(first, low)
        hi = np.maximum(lo, high)
        hold, move = cap, cap + 1
        for _ in range(int(np.max(hi - lo, initial=0)).bit_length()):
            m = (lo + hi + 1) >> 1
            r = raw(m, part, ln)
            ok = r <= cap
            lo = np.where(ok, m, lo)
            hi = np.where(ok, hi, m - 1)
            hold = np.where(ok, r, hold)
            move = np.where(ok, move, r)
        np.maximum(got, hold - off, out=got)
        np.minimum(nxt, move - off, out=nxt)
        return lo

    def _upper(self, t1, t2):
        """A feasible time for every lane: the span's travel time plus all
        weight.  No solve starts from it; tests use it as a known-feasible
        bound."""
        n = self.n
        return (self.xt[n] - self.xt[0]) + self.pm0[n + 1] + (self.dp0[t2] - self.dp0[t1])

    def _records(self, k, lanes):
        """Position records (``low``, ``high``) of ``_feasible`` for ``lanes``
        lanes that bound no position yet: every sink and part end in [0, n]."""
        shape = (2, min(k, self.n + 1), lanes)
        kind = np.min_scalar_type(-self.n - 1)  # narrowest signed int for 0..n
        return np.zeros(shape, dtype=kind), np.full(shape, self.n, dtype=kind)

    def _probe(self, v, t1, t2, a, b, low, high):
        """Probe every lane at the points of its column of ``v``, shaped
        (points, lanes) and ascending down each column, in one ``_feasible``
        call, and fold the answers into the lanes' brackets [a, b] and
        position records, which must hold for every point (a <= v < b where
        the bracket is open).  The least feasible point sets b to its
        ``got`` and gives ``high`` its positions; the greatest infeasible one
        sets a to its ``nxt`` and gives ``low`` its positions.  Feasibility
        is monotone in the bound, so the points below OPT come first.
        Returns the new (a, b, low, high)."""
        p, m = v.shape
        lanes = (t1, t2, low, high)
        up = down = slice(None)  # one point (bisection): no copy, no gather
        if p > 1:  # the p points of a lane share its records: they lie between them
            lanes = (np.tile(x, p) for x in lanes)
        ok, at, got, nxt = self._feasible(v.ravel(), *lanes)
        ok = ok.reshape(p, m)
        covers, fails = ok[-1], ~ok[0]
        if p > 1:  # the columns of each lane's least feasible, greatest infeasible point
            below = np.count_nonzero(~ok, axis=0)
            lane = np.arange(m)
            up = np.minimum(below, p - 1) * m + lane
            down = np.maximum(below - 1, 0) * m + lane
        return (np.where(fails, nxt[down], a), np.where(covers, got[up], b),
                np.where(fails, at[:, :, down], low), np.where(covers, at[:, :, up], high))

    def _bisect(self, k, t1, t2, lo, hi):
        """Per lane, the least feasible time in [lo, hi] (hi must be feasible).

        The lanes whose bracket is open are taken once into one state: the
        lane index, the descriptors, the bracket ends ``a`` and ``b``, and
        per part the greedy's sink and part end from the lane's last
        infeasible probe (``low``) and last feasible one (``high``).  A
        larger bound never moves either position left, so the next probe,
        which lies between those two probes' bounds, searches between them.
        Each round probes every lane of the state at its midpoint v
        (``_probe`` with one point) and moves the bracket to the greedy's
        critical values (``_feasible``): a feasible probe sets b to
        ``got``, the time of the plan it built, and an infeasible one sets
        a to ``nxt``, below which the greedy builds the same plan and still
        fails.  The lanes whose bracket has closed get their optimum
        written into ``lo``, and one mask compacts every array of the state
        to the lanes still open.  Works on ``lo`` in place and returns it.
        """
        lane = np.flatnonzero(lo < hi)
        t1, t2, a, b = t1[lane], t2[lane], lo[lane], hi[lane]
        low, high = self._records(k, lane.size)
        while lane.size:
            a, b, low, high = self._probe(((a + b) >> 1)[None], t1, t2, a, b, low, high)
            keep = a < b
            lo[lane[~keep]] = a[~keep]
            lane, t1, t2, a, b = lane[keep], t1[keep], t2[keep], a[keep], b[keep]
            low, high = low[:, :, keep], high[:, :, keep]
        return lo

    def _max_regret(self, k, t1, t2, time, lo, hi):
        """The largest regret time - OPT over the lanes and the first lane
        attaining it, from brackets lo <= OPT <= hi, by threshold probes
        that fix only the optima the maximum needs.

        L = max(time - hi) bounds the maximum V from below.  Each round
        probes every lane that could still beat L (time - lo > L) at
        ``_PROBES`` points in one ``_probe`` call: its threshold
        theta = time - L - 1, the bound below which its regret would
        exceed L, and lo + floor((theta - lo) j / ``_PROBES``) for
        j = 1, .., ``_PROBES`` - 1.  Since time - hi <= L < time - lo,
        theta lies in [lo, hi - 1], so the probe at theta either covers
        (hi drops to at most theta and L rises) or fails (lo rises past
        theta and the lane leaves the search); the lower points raise lo
        further where they fail.  L then rises to max(time - hi), and a
        lane leaves once time - lo <= L, which includes every lane whose
        bracket has closed.  At the end every lane has
        time - lo <= L <= V, so V = L.

        Lanes with time - hi = V attain V, and the first of them is the
        witness unless an earlier lane with time - lo = V attains it too,
        exactly when lo is its optimum; such lanes get one probe at lo
        (``_probe`` with one point, fresh records), and the first that
        covers is the witness.  Like ``_bisect``, the search keeps one
        compacted state of the lanes still in it, with their position
        records.  Works on ``lo`` and ``hi`` in place, so where they meet
        they hold the optimum; returns (V, witness index).
        """
        best = int(np.max(time - hi))
        lane = np.flatnonzero(time - lo > best)
        t1s, t2s, tm, a, b = t1[lane], t2[lane], time[lane], lo[lane], hi[lane]
        low, high = self._records(k, lane.size)
        j = np.arange(1, _PROBES, dtype=np.int64)[:, None]
        while lane.size:
            theta = tm - best - 1
            v = np.vstack((a + (theta - a) * j // _PROBES, theta))
            a, b, low, high = self._probe(v, t1s, t2s, a, b, low, high)
            best = max(best, int(np.max(tm - b)))
            keep = tm - a > best
            lo[lane], hi[lane] = a, b
            lane, t1s, t2s, tm, a, b = (x[keep] for x in (lane, t1s, t2s, tm, a, b))
            low, high = low[:, :, keep], high[:, :, keep]
        first = int(np.argmax(time - hi == best))
        tie = np.flatnonzero(time[:first] - lo[:first] == best)
        if tie.size:
            at = lo[tie]
            lo[tie], hi[tie] = self._probe(at[None], t1[tie], t2[tie], at, hi[tie],
                                           *self._records(k, tie.size))[:2]
            covers = np.flatnonzero(hi[tie] == at)
            if covers.size:
                first = int(tie[covers[0]])
        return best, first

    def _extreme_optima(self, k):
        """The optima of the all-lower window (0, 0) and the all-upper window
        (0, n + 1) with k parts, computed once per k by the fixed-scenario
        DP of ``optk`` and certified by the engine's own greedy: each value v
        must be covered at v and, where v > 0, not at v - 1, in one
        ``_feasible`` call.  RuntimeError otherwise, so every bracket built
        on them, and every optimum bisected from one, rests on the greedy
        alone."""
        if k not in self._extremes:
            # Looked up in ``optk`` per call, so a rebinding there (a layer
            # tracer, an injected fault) reaches this call too.
            from .optk import solve_optimal_k_sink

            inst, last = self.inst, self.n + 1
            vals = [solve_optimal_k_sink(inst, Scenario(w), k, CostModel.SIMPLIFIED).value
                    for w in (inst.wminus, inst.wplus)]
            lower, upper = vals
            v = np.array([lower, lower - 1, upper, upper - 1], dtype=np.int64)
            t2 = np.array([0, 0, last, last], dtype=np.int64)
            cover = np.array([True, False, True, False])
            probe = cover | (v >= 0)
            ok = self._feasible(v[probe], np.zeros_like(t2[probe]), t2[probe],
                                *self._records(k, int(np.count_nonzero(probe))))[0]
            if min(vals) < 0 or not np.array_equal(ok, cover[probe]):
                raise RuntimeError(
                    f"the greedy does not certify the fixed-scenario optima {vals} "
                    f"of the all-lower and all-upper windows with k={k}")
            self._extremes[k] = vals
        return self._extremes[k]

    def _plan_bounds(self, k, t1, t2):
        """Per lane, a bracket (lo, hi) around its optimum with k parts, from
        the lane's own weights and no optimum.

        hi is the time, under the lane, of the plan balanced for the lane's
        weights: with W the lane's total weight, part q ends at the first
        vertex through which the lane's prefix weight reaches
        floor((q + 1) W / k), and each sink sits at the first vertex of its
        part through which the prefix weight reaches the part's weight
        midpoint.  Empty parts are dropped, so the plan has at most k parts
        and is feasible.

        lo holds for every plan of at most k parts.  A sink's two side times
        carry all its part's weight but its own, at most max w+, and some
        part carries at least W // k; so some side takes at least
        (W // k - max w+) / 2.  The parts leave at most k - 1 gaps of the
        path uncovered, so some part spans at least (span - (k - 1) max
        gap) / k, and one side of its sink at least half of that, times
        tau.  lo is the larger bound, at least 0 and at most hi.
        """
        n = self.n
        pm0, dp0 = self.pm0, self.dp0
        pp0 = pm0 + dp0  # prefix weights of the all-upper scenario
        d1 = dp0[t1]
        d_lane = dp0[t2] - d1
        total = pm0[n + 1] + d_lane

        def weight(z):  # the lane's weight of the vertices below z
            return pm0[z] + dp0[np.minimum(np.maximum(z, t1), t2)] - d1

        def reach(w):  # the first vertex z whose weight(z + 1) >= w (w <= total)
            return np.where(w <= pm0[t1], np.searchsorted(pm0[1:], w),
                            np.where(w <= pp0[t2] - d1, np.searchsorted(pp0[1:], w + d1),
                                     np.maximum(np.searchsorted(pm0[1:], w - d_lane), t2)))

        share, rest = total // k, total % k
        hi = np.zeros_like(total)
        end = np.full_like(total, -1)
        # One part at a time, so no temporary grows with k.
        for q in range(1, k + 1):
            start = end + 1
            # floor(q W / k), with no product beyond W + k^2
            end = reach(share * q + (rest * q) // k)
            start = np.minimum(start, end)  # an empty part: one sink alone, time 0
            below = weight(start)
            sink = reach(below + (weight(end + 1) - below + 1) // 2)
            hi = np.maximum(hi, np.maximum(self.theta_l(start, sink, t1, t2),
                                           self.theta_r(sink, end, t1, t2)))
        gap = int(np.max(np.diff(self.xt), initial=0))
        distance = max(0, (int(self.xt[n] - self.xt[0]) - (k - 1) * gap) // (2 * k))
        lo = np.maximum((share - max(self.inst.wplus)) // 2, distance)
        return np.minimum(lo, hi), hi

    def _top_level(self, k, t1, t2):
        """Per lane, the top level's bracket around its optimum with k parts,
        [max(v-, v+ - d_out), min(v+, v- + d_in)]: v- and v+ are the optima
        of the all-lower and all-upper windows (``_extreme_optima``), d_in is
        the lane's delta sum and d_out the rest of the path's.  It is the
        bracket of ``_brackets`` on the grid {0, n + 1}."""
        lower, upper = self._extreme_optima(k)
        d_in = self.dp0[t2] - self.dp0[t1]
        d_out = self.dp0[self.n + 1] - d_in
        return np.maximum(lower, upper - d_out), np.minimum(upper, lower + d_in)

    def _brackets(self, t1, t2, optima):
        """Per lane, a bracket [lo, hi] around its optimum, from the optima
        of anchor windows on the grid 0, s, 2 s, .. and n + 1 with
        s = ``_ANCHOR_STEP``, which ``optima(a1, a2)`` returns for the
        distinct windows (a1, a2) the lanes need.

        Two facts of the simplified model make every bracket sound.  Every
        plan's time is a maximum of terms x*tau + (a sum of weights), so (i)
        it cannot fall when a weight grows, and (ii) it grows by at most
        delta when one weight grows by delta.  OPT, the minimum over plans,
        inherits both: OPT is monotone under window growth, and switching
        vertex i from w-_i to w+_i raises OPT by at most
        delta_i = w+_i - w-_i.

        Lane (t1, t2) has the outer window (floor(t1), ceil(t2)) around it
        and the inner window (ceil(t1), floor(t2)) inside it, or the empty
        window (0, 0) when no grid window fits inside the lane.  Write d(w)
        for the sum of delta over window w.  Then
        max(OPT(inner), OPT(outer) - (d(outer) - d(t1, t2))) <= OPT(t1, t2)
        <= min(OPT(outer), OPT(inner) + (d(t1, t2) - d(inner))).
        """
        step, last = _ANCHOR_STEP, self.n + 1
        down1 = np.where(t1 == last, last, t1 - t1 % step)
        down2 = np.where(t2 == last, last, t2 - t2 % step)
        up1 = np.minimum(t1 + (-t1) % step, last)
        up2 = np.minimum(t2 + (-t2) % step, last)
        fits = up1 <= down2
        in1, in2 = np.where(fits, up1, 0), np.where(fits, down2, 0)
        span = last + 1
        keys = distinct_keys(np.concatenate((down1, in1)), np.concatenate((up2, in2)), self.n)
        vals = optima(*np.divmod(keys, span))
        v_in = vals[np.searchsorted(keys, in1 * span + in2)]
        v_out = vals[np.searchsorted(keys, down1 * span + up2)]
        dp0 = self.dp0
        d_lane = dp0[t2] - dp0[t1]
        lo = np.maximum(v_in, v_out - ((dp0[up2] - dp0[down1]) - d_lane))
        return lo, np.minimum(v_out, v_in + (d_lane - (dp0[in2] - dp0[in1])))

    def solve(self, k: int, t1s, t2s) -> np.ndarray:
        """Optimal k-sink time (simplified model) for every lane (t1, t2).

        A call of fewer than ``_ANCHOR_MIN_LANES`` lanes bisects them from
        ``_top_level``; a larger one from ``_brackets``, whose anchors are
        bisected from ``_top_level``.  Descriptors are read flat (see
        ``descriptor_arrays``).

        ValueError unless 1 <= k <= n + 1.
        """
        k = require_k(self.inst, k)
        t1, t2 = descriptor_arrays(t1s, t2s, self.n)
        if t1.shape[0] < _ANCHOR_MIN_LANES:
            lo, hi = self._top_level(k, t1, t2)
        else:
            lo, hi = self._brackets(
                t1, t2, lambda a1, a2: self._bisect(k, a1, a2, *self._top_level(k, a1, a2)))
        return self._bisect(k, t1, t2, lo, hi)
