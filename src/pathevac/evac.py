"""Evacuation-time evaluation on subpaths, plans, and a step-level simulator.

All evacuees on one side of a sink merge into a single confluent flow, so the
evacuation time of a side is a max over the vertices of that side:

  DISCRETE   side time for vertex z left of sink y (part left end lo):
             (x_y - x_z) * tau + ceil(W(lo..z) / c) - 1
  SIMPLIFIED side time (capacity forced to 1, wave correction dropped):
             (x_y - x_z) * tau + W(lo..z)

and symmetrically on the right with suffix sums.  An empty side takes time 0.
The simulator reproduces the discrete dispatch process tick by tick and is
used as an independent ground truth in tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .model import CostModel, PathInstance, Plan, Scenario, validate_plan

__all__ = [
    "Side",
    "EvacSideResult",
    "eval_side",
    "eval_one_sink",
    "eval_plan",
    "eval_all_sinks",
    "simulate_evacuation",
    "ceil_div",
]


class Side:
    LEFT = "left"
    RIGHT = "right"


@dataclass(frozen=True)
class EvacSideResult:
    """Evacuation time of one side of a sink and the vertex attaining it.

    argmax_index is None when the side is empty.  Ties break toward the
    outermost vertex of the side that is listed first in scan order: the
    leftmost vertex for the left side and the rightmost for the right side.
    """

    time: int
    argmax_index: Optional[int]


def require_scenario_length(inst: PathInstance, s: Scenario) -> None:
    """ValueError unless ``s`` has one weight per vertex of ``inst``."""
    if len(s.weights) != inst.num_vertices:
        raise ValueError(f"scenario has {len(s.weights)} weights, "
                         f"instance has {inst.num_vertices} vertices")


def ceil_div(a: int, b: int) -> int:
    """Exact ceiling division for integers (b > 0; a may be negative)."""
    return -((-a) // b)


def eval_side(
    inst: PathInstance,
    s: Scenario,
    lo: int,
    hi: int,
    sink: int,
    side: str,
    cm: str = CostModel.DISCRETE,
) -> EvacSideResult:
    """Evacuation time of one side of `sink` within the part [lo, hi]."""
    CostModel.check(cm)
    require_scenario_length(inst, s)
    if not (0 <= lo <= sink <= hi <= inst.n):
        raise ValueError(f"bad subpath/sink: lo={lo} sink={sink} hi={hi}")
    x = inst.coords
    w = s.weights
    tau = inst.tau
    c = inst.capacity
    discrete = cm == CostModel.DISCRETE

    best = 0
    arg: Optional[int] = None
    if side == Side.LEFT:
        acc = 0
        for z in range(lo, sink):
            acc += w[z]
            if discrete:
                val = (x[sink] - x[z]) * tau + ceil_div(acc, c) - 1
            else:
                val = (x[sink] - x[z]) * tau + acc
            if arg is None or val > best:
                best, arg = val, z
        return EvacSideResult(best if arg is not None else 0, arg)
    elif side == Side.RIGHT:
        acc = 0
        # scan right-to-left so acc is the suffix sum; >= keeps the rightmost
        for z in range(hi, sink, -1):
            acc += w[z]
            if discrete:
                val = (x[z] - x[sink]) * tau + ceil_div(acc, c) - 1
            else:
                val = (x[z] - x[sink]) * tau + acc
            if arg is None or val > best:
                best, arg = val, z
        return EvacSideResult(best if arg is not None else 0, arg)
    raise ValueError(f"unknown side: {side!r}")


def eval_one_sink(
    inst: PathInstance,
    s: Scenario,
    lo: int,
    hi: int,
    sink: int,
    cm: str = CostModel.DISCRETE,
) -> int:
    """Evacuation time of the part [lo, hi] with one sink at `sink`."""
    left = eval_side(inst, s, lo, hi, sink, Side.LEFT, cm)
    right = eval_side(inst, s, lo, hi, sink, Side.RIGHT, cm)
    return max(left.time, right.time)


def eval_plan(
    inst: PathInstance,
    s: Scenario,
    plan: Plan,
    cm: str = CostModel.DISCRETE,
) -> tuple[int, int]:
    """Evacuation time of a k-sink plan and the index of the dominant part.

    The plan time is the max over parts; the dominant part is the smallest
    part index attaining it.
    """
    require_scenario_length(inst, s)
    violations = validate_plan(inst, plan)
    if violations:
        raise ValueError("; ".join(violations))
    best = None
    dominant = -1
    for d, ((l, r), y) in enumerate(zip(plan.parts(), plan.sinks)):
        t = eval_one_sink(inst, s, l, r, y, cm)
        if best is None or t > best:
            best, dominant = t, d
    return best, dominant


def eval_all_sinks(
    inst: PathInstance,
    s: Scenario,
    lo: int,
    hi: int,
    cm: str = CostModel.DISCRETE,
) -> list[int]:
    """Evacuation times of part [lo, hi] for every sink position in [lo, hi].

    Runs in O(hi - lo + 1) total: each directional pass moves the sink one
    vertex at a time, shifting all existing side values by the same edge
    amount, so the new argmax is either the old argmax or the vertex the sink
    just left.
    """
    CostModel.check(cm)
    require_scenario_length(inst, s)
    if not (0 <= lo <= hi <= inst.n):
        raise ValueError(f"bad subpath: lo={lo} hi={hi}")
    x = inst.coords
    w = s.weights
    tau = inst.tau
    c = inst.capacity
    discrete = cm == CostModel.DISCRETE
    m = hi - lo + 1

    def cost(acc: int) -> int:
        return ceil_div(acc, c) - 1 if discrete else acc

    # Left-side pass: theta_l[t - lo] = left side time with sink at t.
    theta_l = [0] * m
    best = 0
    acc = 0
    have = False
    for t in range(lo + 1, hi + 1):
        step = (x[t] - x[t - 1]) * tau
        acc += w[t - 1]
        cand = step + cost(acc)  # vertex t-1, now the nearest left vertex
        if have:
            best += step
        if not have or cand > best:
            best = cand
            have = True
        theta_l[t - lo] = best

    # Right-side pass, mirrored.
    theta_r = [0] * m
    best = 0
    acc = 0
    have = False
    for t in range(hi - 1, lo - 1, -1):
        step = (x[t + 1] - x[t]) * tau
        acc += w[t + 1]
        cand = step + cost(acc)
        if have:
            best += step
        if not have or cand > best:
            best = cand
            have = True
        theta_r[t - lo] = best

    return [max(a, b) for a, b in zip(theta_l, theta_r)]


def simulate_evacuation(
    inst: PathInstance,
    s: Scenario,
    lo: int,
    hi: int,
    sink: int,
) -> int:
    """Tick-by-tick simulation of the discrete dispatch process.

    At every integer time step each vertex dispatches at most `capacity`
    waiting evacuees one hop toward the sink; a hop over an edge of length
    ell takes ell * tau time.  Returns the arrival time of the last evacuee
    (0 if nothing needs to move).  Within a merged flow, arrivals join the
    queue of the intermediate vertex and are re-dispatched with its queue.
    """
    require_scenario_length(inst, s)
    if not (0 <= lo <= sink <= hi <= inst.n):
        raise ValueError(f"bad subpath/sink: lo={lo} sink={sink} hi={hi}")
    x = inst.coords
    tau = inst.tau
    c = inst.capacity

    last_arrival = 0
    for side_vertices, step in (
        (range(sink - 1, lo - 1, -1), +1),  # left side, moving right
        (range(sink + 1, hi + 1), -1),      # right side, moving left
    ):
        vertices = list(side_vertices)
        if not vertices:
            continue
        queue = {v: s.weights[v] for v in vertices}
        total = sum(queue.values())
        if total == 0:
            continue
        arrivals: dict[int, list[tuple[int, int]]] = {}  # time -> [(vertex, count)]
        arrived = 0
        t = 0
        while arrived < total:
            for v, cnt in arrivals.pop(t, ()):
                if v == sink:
                    arrived += cnt
                    last_arrival = max(last_arrival, t)
                else:
                    queue[v] += cnt
            # Dispatch this tick.  `vertices` is ordered nearest-to-sink
            # first; arrivals at time t were dispatched strictly earlier
            # (edge transit >= tau >= 1), so the order within a tick does
            # not matter.
            for v in vertices:
                q = queue[v]
                if q <= 0:
                    continue
                send = min(c, q)
                queue[v] = q - send
                nxt = v + step
                dist = abs(x[nxt] - x[v]) * tau
                arrivals.setdefault(t + dist, []).append((nxt, send))
            t += 1
            if t > (x[hi] - x[lo]) * tau + total + 1:
                raise RuntimeError("simulation failed to terminate")
    return last_arrival
