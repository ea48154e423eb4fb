"""Core data model: path instances, weight scenarios, descriptors, and plans.

A path network has vertices 0..n at strictly increasing integer coordinates,
an integer weight interval [w_min, w_max] per vertex (number of evacuees that
may start there), a uniform integer edge capacity, and an integer pace tau
(time per unit length).  All arithmetic throughout the package is exact
integer arithmetic; no floats are used anywhere in the algorithms.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass
from typing import NamedTuple

__all__ = [
    "CostModel",
    "PathInstance",
    "Scenario",
    "ScenarioDescriptor",
    "Plan",
    "validate_instance",
    "validate_plan",
    "realize_scenario",
    "scenario_within_bounds",
    "instance_to_obj",
    "instance_from_obj",
    "save_instance",
    "load_instance",
    "plan_to_obj",
    "plan_from_obj",
    "save_plan",
    "load_plan",
    "InvalidInstanceError",
]


class CostModel:
    """Evacuation-time cost model selector.

    DISCRETE: unit-capacity-per-tick dispatch; a group of W evacuees needs
    ceil(W/c) dispatch waves and the last wave arrives (ceil(W/c) - 1) ticks
    after the first.
    SIMPLIFIED: the classical confluent-flow simplification (capacity forced
    to 1, and the "-1" wave correction dropped).
    """

    DISCRETE = "discrete"
    SIMPLIFIED = "simplified"

    _ALL = (DISCRETE, SIMPLIFIED)

    @staticmethod
    def check(cm: str) -> str:
        if cm not in CostModel._ALL:
            raise ValueError(f"unknown cost model: {cm!r}")
        return cm


class InvalidInstanceError(ValueError):
    """Raised when an operation receives an instance that fails validation."""


def require_int(value, name: str) -> int:
    """``value`` as an ``int`` if it is an integer; else ValueError.

    An ``int`` or a numpy integer is accepted (through ``operator.index``);
    a ``bool``, float or string is not.  The model constructors and the
    integer fields of the file formats go through this, so a non-integer is
    rejected instead of being truncated or coerced.
    """
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{name} must be an integer, got {value!r}")


def require_k(inst: PathInstance, k) -> int:
    """``k`` as an ``int`` (see :func:`require_int`); ValueError unless
    1 <= k <= n + 1 for ``inst``."""
    k = require_int(k, "k")
    if not 1 <= k <= inst.n + 1:
        raise ValueError(f"k={k} out of range 1..{inst.n + 1}")
    return k


def _int_tuple(values, name: str) -> tuple[int, ...]:
    return tuple(require_int(v, name) for v in values)


@dataclass(frozen=True)
class PathInstance:
    """A dynamic path network with interval-uncertain vertex weights.

    coords:  x_0 < x_1 < ... < x_n (integers)
    wminus:  per-vertex lower weight bounds (integers, >= 1)
    wplus:   per-vertex upper weight bounds (integers, >= wminus)
    capacity: uniform edge capacity c >= 1
    tau:     pace (time per unit length), >= 1
    """

    coords: tuple[int, ...]
    wminus: tuple[int, ...]
    wplus: tuple[int, ...]
    capacity: int = 1
    tau: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "coords", _int_tuple(self.coords, "x"))
        object.__setattr__(self, "wminus", _int_tuple(self.wminus, "w_min"))
        object.__setattr__(self, "wplus", _int_tuple(self.wplus, "w_max"))
        object.__setattr__(self, "capacity", require_int(self.capacity, "capacity"))
        object.__setattr__(self, "tau", require_int(self.tau, "tau"))

    @property
    def n(self) -> int:
        """Index of the last vertex (the path has n+1 vertices)."""
        return len(self.coords) - 1

    @property
    def num_vertices(self) -> int:
        return len(self.coords)

    def require_valid(self) -> None:
        violations = validate_instance(self)
        if violations:
            raise InvalidInstanceError("; ".join(violations))


@dataclass(frozen=True)
class Scenario:
    """A concrete assignment of one integer weight, at least 1, to every
    vertex: every vertex holds an evacuee, as an instance's w_min >= 1
    requires.  A weight below 1 raises ValueError."""

    weights: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "weights", _int_tuple(self.weights, "w"))
        if any(w < 1 for w in self.weights):
            raise ValueError(f"scenario weights must be at least 1, got {min(self.weights)}")


class ScenarioDescriptor(NamedTuple):
    """Compact form of a worst-case-candidate scenario.

    Realizes upper bounds on the index window [t1, t2) and lower bounds
    everywhere else; 0 <= t1 <= t2 <= n+1.  (t, t) for any t realizes the
    all-lower-bounds scenario.
    """

    t1: int
    t2: int


@dataclass(frozen=True)
class Plan:
    """A k-sink evacuation plan: k consecutive non-empty parts, one sink each.

    boundaries: right endpoints r_1 < r_2 < ... < r_k = n of the parts (part d
    covers vertices [r_{d-1}+1, r_d], with r_0 = -1).
    sinks: sink vertex of each part, lying inside the part.
    """

    boundaries: tuple[int, ...]
    sinks: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "boundaries", _int_tuple(self.boundaries, "r"))
        object.__setattr__(self, "sinks", _int_tuple(self.sinks, "sink"))

    @property
    def k(self) -> int:
        return len(self.boundaries)

    def parts(self) -> list[tuple[int, int]]:
        """List of (l, r) vertex ranges, one per part."""
        out = []
        lo = 0
        for r in self.boundaries:
            out.append((lo, r))
            lo = r + 1
        return out


def validate_instance(inst: PathInstance) -> list[str]:
    """Return a list of violation messages; empty means the instance is valid."""
    violations: list[str] = []
    m = len(inst.coords)
    if m == 0:
        violations.append("instance has no vertices")
        return violations
    if len(inst.wminus) != m:
        violations.append("wminus length does not match coords")
    if len(inst.wplus) != m:
        violations.append("wplus length does not match coords")
    for i in range(1, m):
        if inst.coords[i] <= inst.coords[i - 1]:
            violations.append(f"coords not strictly increasing at index {i}")
    for i in range(min(m, len(inst.wminus))):
        if inst.wminus[i] < 1:
            violations.append(f"weight lower bound not positive at index {i}")
    for i in range(min(m, len(inst.wminus), len(inst.wplus))):
        if inst.wplus[i] < inst.wminus[i]:
            violations.append(f"weight interval empty at index {i}")
    if inst.capacity < 1:
        violations.append("capacity not positive")
    if inst.tau < 1:
        violations.append("tau not positive")
    return violations


def validate_plan(inst: PathInstance, plan: Plan) -> list[str]:
    """Return violation messages for a plan against an instance."""
    violations: list[str] = []
    n = inst.n
    k = plan.k
    if k == 0:
        violations.append("plan has no parts")
        return violations
    if len(plan.sinks) != k:
        violations.append("number of sinks does not match number of parts")
        return violations
    prev = -1
    for d, r in enumerate(plan.boundaries):
        if r <= prev:
            violations.append(f"part {d} is empty or out of order")
        prev = r
    if plan.boundaries[-1] != n:
        violations.append("last part does not end at the last vertex")
    lo = 0
    for d, (r, y) in enumerate(zip(plan.boundaries, plan.sinks)):
        if not (lo <= y <= r):
            violations.append(f"sink of part {d} lies outside the part")
        lo = r + 1
    return violations


def realize_scenario(inst: PathInstance, d: ScenarioDescriptor) -> Scenario:
    """Materialize a descriptor: upper bounds on [t1, t2), lower bounds elsewhere."""
    n = inst.n
    t1, t2 = d
    t1, t2 = require_int(t1, "t1"), require_int(t2, "t2")
    if not (0 <= t1 <= t2 <= n + 1):
        raise ValueError(f"descriptor out of range: {d}")
    weights = [
        inst.wplus[i] if t1 <= i < t2 else inst.wminus[i] for i in range(n + 1)
    ]
    return Scenario(tuple(weights))


def scenario_within_bounds(inst: PathInstance, s: Scenario) -> bool:
    """True iff every weight lies inside its vertex's interval."""
    if len(s.weights) != inst.num_vertices:
        return False
    return all(
        lo <= w <= hi for lo, w, hi in zip(inst.wminus, s.weights, inst.wplus)
    )


# ---------------------------------------------------------------------------
# File formats (JSON).  Field names are part of the external interface.
# ---------------------------------------------------------------------------


def instance_to_obj(inst: PathInstance) -> dict:
    return {
        "vertices": [
            {"x": x, "w_min": lo, "w_max": hi}
            for x, lo, hi in zip(inst.coords, inst.wminus, inst.wplus)
        ],
        "capacity": inst.capacity,
        "tau": inst.tau,
    }


def instance_from_obj(obj: dict) -> PathInstance:
    # The constructor checks that every field is an integer.
    try:
        vertices = obj["vertices"]
        return PathInstance(
            tuple(v["x"] for v in vertices),
            tuple(v["w_min"] for v in vertices),
            tuple(v["w_max"] for v in vertices),
            obj["capacity"],
            obj["tau"],
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidInstanceError(f"malformed instance object: {exc}") from exc


def save_instance(inst: PathInstance, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(instance_to_obj(inst), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_instance(path: str) -> PathInstance:
    with open(path, "r", encoding="utf-8") as fh:
        return instance_from_obj(json.load(fh))


def _require_objective_kind(kind) -> str:
    if kind not in ("evac_time", "max_regret"):
        raise ValueError(f"unknown objective_kind: {kind!r}")
    return kind


def plan_to_obj(plan: Plan, objective: int, objective_kind: str) -> dict:
    return {
        "parts": [
            {"l": l, "r": r, "sink": y}
            for (l, r), y in zip(plan.parts(), plan.sinks)
        ],
        "objective": int(objective),
        "objective_kind": _require_objective_kind(objective_kind),
    }


def plan_from_obj(obj: dict) -> tuple[Plan, int, str]:
    parts = obj["parts"]
    # The constructor checks that every r and sink is an integer.
    plan = Plan(tuple(p["r"] for p in parts), tuple(p["sink"] for p in parts))
    expect_l = 0
    for p, r in zip(parts, plan.boundaries):
        if require_int(p["l"], "l") != expect_l:
            raise ValueError("plan parts are not consecutive")
        expect_l = r + 1
    objective = require_int(obj["objective"], "objective")
    return plan, objective, _require_objective_kind(obj["objective_kind"])


def save_plan(plan: Plan, objective: int, objective_kind: str, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(plan_to_obj(plan, objective, objective_kind), fh, indent=2,
                  sort_keys=True)
        fh.write("\n")


def load_plan(path: str) -> tuple[Plan, int, str]:
    with open(path, "r", encoding="utf-8") as fh:
        return plan_from_obj(json.load(fh))
