"""Command-line interface for path evacuation planning.

Subcommands:

* ``gen`` — generate a random valid instance file (deterministic per seed).
* ``solve-opt`` — optimal k-sink plan for one scenario.
* ``solve-mmr`` — minmax-regret k-sink plan (``--algo dp`` or ``bs``).
* ``verify`` — re-check a plan file against its instance (and, for small
  instances, against brute-force optimality); prints PASS or FAIL.

Instance and plan files are JSON; scenario files are JSON objects with a
single ``"w"`` array.  Exit status: 0 success / PASS, 1 FAIL, 2 bad input.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys
from typing import Optional, Sequence

from .evac import eval_plan
from .minmax import solve_minmax_regret_bs, solve_minmax_regret_dp
from .model import (
    CostModel,
    InvalidInstanceError,
    PathInstance,
    Plan,
    Scenario,
    load_instance,
    load_plan,
    save_instance,
    save_plan,
    scenario_within_bounds,
    validate_instance,
    validate_plan,
)
from .optk import solve_optimal_k_sink
from .oracle import brute_minmax_regret, brute_optimal_k_sink
from .regret import max_regret_of_plan

__all__ = ["main"]


# What reading a malformed input file may raise; RecursionError is the json
# decoder's answer to deeply nested arrays or objects.
_BAD_FILE = (OSError, ValueError, KeyError, TypeError, RecursionError)


def _fail_bad_input(msg: str) -> int:
    print(msg, file=sys.stderr)
    return 2


def _load_instance_checked(path: str) -> Optional[PathInstance]:
    try:
        inst = load_instance(path)
    except _BAD_FILE as exc:
        print(f"cannot read instance {path}: {exc}", file=sys.stderr)
        return None
    problems = validate_instance(inst)
    if problems:
        print(f"invalid instance {path}:", file=sys.stderr)
        for p in problems:
            print(f"  - {p}", file=sys.stderr)
        return None
    return inst


def _scenario_from_args(inst: PathInstance, args) -> Optional[Scenario]:
    if bool(args.scenario) + args.all_minus + args.all_plus > 1:
        print("choose exactly one of --scenario/--all-minus/--all-plus", file=sys.stderr)
        return None
    if args.scenario:
        try:
            with open(args.scenario, "r", encoding="utf-8") as f:
                obj = json.load(f)
            s = Scenario(obj["w"])
        except _BAD_FILE as exc:
            print(f"cannot read scenario {args.scenario}: {exc}", file=sys.stderr)
            return None
        if len(s.weights) != inst.num_vertices:
            print(
                f"scenario has {len(s.weights)} weights, instance has "
                f"{inst.num_vertices} vertices",
                file=sys.stderr,
            )
            return None
        if not scenario_within_bounds(inst, s):
            print("scenario weights violate the instance's intervals", file=sys.stderr)
            return None
        return s
    if args.all_plus:
        return Scenario(inst.wplus)
    return Scenario(inst.wminus)


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------


def _random_instance(
    rng: random.Random, n: int, coord_max: int, w_max: int, capacity: int, tau: int
) -> PathInstance:
    """Instance with n+1 distinct coordinates drawn from [0, coord_max] and
    per-vertex intervals 1 <= w- <= w+ <= w_max; the generator of ``gen``."""
    coords = sorted(rng.sample(range(coord_max + 1), n + 1))
    wminus = []
    wplus = []
    for _ in range(n + 1):
        lo = rng.randint(1, w_max)
        hi = rng.randint(lo, w_max)
        wminus.append(lo)
        wplus.append(hi)
    return PathInstance(tuple(coords), tuple(wminus), tuple(wplus), capacity=capacity, tau=tau)


def _cmd_gen(args) -> int:
    n = args.n
    if n < 0:
        return _fail_bad_input("--n must be >= 0")
    if args.coord_max < n:
        return _fail_bad_input("--coord-max must be at least --n")
    if args.w_max < 1:
        return _fail_bad_input("--w-max must be >= 1")
    rng = random.Random(args.seed)
    inst = _random_instance(rng, n, args.coord_max, args.w_max, args.capacity, args.tau)
    problems = validate_instance(inst)
    if problems:
        return _fail_bad_input("generated instance invalid: " + "; ".join(problems))
    save_instance(inst, args.output)
    print(f"wrote {args.output} (n={n}, capacity={args.capacity}, tau={args.tau})")
    return 0


# ---------------------------------------------------------------------------
# solve-opt / solve-mmr
# ---------------------------------------------------------------------------


def _write_plan(path: Optional[str], plan: Plan, objective: int, kind: str) -> None:
    if path:
        save_plan(plan, objective, kind, path)


def _cmd_solve_opt(args) -> int:
    inst = _load_instance_checked(args.instance)
    if inst is None:
        return 2
    if not 1 <= args.k <= inst.n + 1:
        return _fail_bad_input(f"--k must be in 1..{inst.n + 1}")
    s = _scenario_from_args(inst, args)
    if s is None:
        return 2
    res = solve_optimal_k_sink(inst, s, args.k, args.cost_model)
    _write_plan(args.output, res.plan, res.value, "evac_time")
    print(f"objective {res.value}")
    print(f"plan boundaries={list(res.plan.boundaries)} sinks={list(res.plan.sinks)}")
    return 0


def _cmd_solve_mmr(args) -> int:
    inst = _load_instance_checked(args.instance)
    if inst is None:
        return 2
    if not 1 <= args.k <= inst.n + 1:
        return _fail_bad_input(f"--k must be in 1..{inst.n + 1}")
    if args.algo == "dp":
        res = solve_minmax_regret_dp(inst, args.k)
    else:
        res = solve_minmax_regret_bs(inst, args.k)
    _write_plan(args.output, res.plan, res.value, "max_regret")
    print(f"objective {res.value}")
    print(f"plan boundaries={list(res.plan.boundaries)} sinks={list(res.plan.sinks)}")
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _cmd_verify(args) -> int:
    inst = _load_instance_checked(args.instance)
    if inst is None:
        return 2
    try:
        plan, objective, kind = load_plan(args.plan)
    except _BAD_FILE as exc:
        print(f"cannot read plan {args.plan}: {exc}", file=sys.stderr)
        return 2
    problems = validate_plan(inst, plan)
    if problems:
        print("FAIL: plan invalid for instance:")
        for p in problems:
            print(f"  - {p}")
        return 1

    if kind == "evac_time":
        s = _scenario_from_args(inst, args)
        if s is None:
            return 2
        if args.scenario:
            s_label = f"scenario from {args.scenario}"
        elif args.all_plus:
            s_label = "all-plus scenario"
        else:
            s_label = "all-minus scenario"
        got, _ = eval_plan(inst, s, plan, args.cost_model)
        if got != objective:
            print(
                f"FAIL: plan evaluates to {got} under the {s_label} "
                f"({args.cost_model} model), file claims {objective} "
                "(pass the scenario/cost-model flags the plan was solved with)"
            )
            return 1
        if inst.n <= 10 and plan.k <= 3:
            want, _ = brute_optimal_k_sink(inst, s, plan.k, args.cost_model)
            if got != want:
                print(f"FAIL: plan time {got} is not optimal (best is {want})")
                return 1
            print(f"PASS: objective {got} matches and is optimal (brute-force check)")
            return 0
        print(f"PASS: objective {got} matches (instance too large for brute-force check)")
        return 0

    # kind == "max_regret": load_plan accepts no other kind.
    got, witness = max_regret_of_plan(inst, plan)
    if got != objective:
        print(f"FAIL: plan has max regret {got}, file claims {objective}")
        return 1
    if inst.n <= 8 and plan.k <= 3:
        want, _ = brute_minmax_regret(inst, plan.k)
        if got != want:
            print(f"FAIL: plan regret {got} is not optimal (best is {want})")
            return 1
        print(
            f"PASS: max regret {got} matches and is optimal "
            f"(witness scenario ({witness.t1}, {witness.t2}), brute-force check)"
        )
        return 0
    print(
        f"PASS: max regret {got} matches "
        f"(witness scenario ({witness.t1}, {witness.t2}); "
        "instance too large for brute-force check)"
    )
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first ``main`` call and reused: a
    parse keeps no state in the parser, and each call gets a fresh
    namespace."""
    p = argparse.ArgumentParser(
        prog="pathevac",
        description="Optimal and minmax-regret k-sink evacuation planning on paths.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a random instance file")
    g.add_argument("--n", type=int, required=True, help="index of the last vertex (n+1 vertices)")
    g.add_argument("--coord-max", type=int, default=1000)
    g.add_argument("--w-max", type=int, default=100)
    g.add_argument("--capacity", type=int, default=1)
    g.add_argument("--tau", type=int, default=1)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("-o", "--output", required=True)
    g.set_defaults(func=_cmd_gen)

    so = sub.add_parser("solve-opt", help="optimal k-sink plan for one scenario")
    so.add_argument("instance")
    so.add_argument("--k", type=int, required=True)
    so.add_argument("--scenario", help="JSON file with a 'w' weight array")
    so.add_argument("--all-minus", action="store_true", help="use all lower bounds (default)")
    so.add_argument("--all-plus", action="store_true", help="use all upper bounds")
    so.add_argument(
        "--cost-model", choices=[CostModel.DISCRETE, CostModel.SIMPLIFIED],
        default=CostModel.DISCRETE,
    )
    so.add_argument("-o", "--output", help="write the plan as JSON")
    so.set_defaults(func=_cmd_solve_opt)

    sm = sub.add_parser("solve-mmr", help="minmax-regret k-sink plan")
    sm.add_argument("instance")
    sm.add_argument("--k", type=int, required=True)
    sm.add_argument("--algo", choices=["dp", "bs"], default="dp")
    sm.add_argument("-o", "--output", help="write the plan as JSON")
    sm.set_defaults(func=_cmd_solve_mmr)

    v = sub.add_parser("verify", help="re-check a plan file (PASS/FAIL)")
    v.add_argument("instance")
    v.add_argument("plan")
    v.add_argument("--scenario", help="scenario file for evacuation-time plans")
    v.add_argument("--all-minus", action="store_true")
    v.add_argument("--all-plus", action="store_true")
    v.add_argument(
        "--cost-model", choices=[CostModel.DISCRETE, CostModel.SIMPLIFIED],
        default=CostModel.DISCRETE,
    )
    v.set_defaults(func=_cmd_verify)

    return p


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InvalidInstanceError as exc:
        print(f"invalid instance: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
