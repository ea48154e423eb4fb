"""Command-line interface for path evacuation planning.

Subcommands:

* ``gen`` — generate a random valid instance file (deterministic per seed).
* ``solve-opt`` — optimal k-sink plan for one scenario.
* ``solve-mmr`` — minmax-regret k-sink plan (``--algo dp`` or ``bs``).
* ``verify`` — re-check a plan file against its instance (and, for small
  instances, against brute-force optimality); prints PASS or FAIL.

Instance and plan files are JSON; scenario files are JSON objects with a
single ``"w"`` array.  Exit status: 0 success / PASS, 1 FAIL, 2 bad input;
every bad-input check raises ``_BadInput``, which ``main`` prints on stderr.
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


class _BadInput(Exception):
    """Bad input: ``main`` prints the message on stderr and returns 2."""


def _read(kind: str, path: str, reader):
    """``reader(path)``; _BadInput if the ``kind`` file cannot be read."""
    try:
        return reader(path)
    except _BAD_FILE as exc:
        raise _BadInput(f"cannot read {kind} {path}: {exc}") from exc


def _read_instance(path: str, k: Optional[int] = None) -> PathInstance:
    """The valid instance at ``path``, with room for ``k`` sinks if given."""
    inst = _read("instance", path, load_instance)
    problems = validate_instance(inst)
    if problems:
        raise _BadInput("\n  - ".join([f"invalid instance {path}:", *problems]))
    if k is not None and not 1 <= k <= inst.n + 1:
        raise _BadInput(f"--k must be in 1..{inst.n + 1}")
    return inst


def _read_scenario(path: str) -> Scenario:
    with open(path, "r", encoding="utf-8") as f:
        return Scenario(json.load(f)["w"])


def _scenario_from_args(inst: PathInstance, args) -> tuple[Scenario, str]:
    """The scenario the flags choose, and its label in ``verify``'s verdict."""
    if bool(args.scenario) + args.all_minus + args.all_plus > 1:
        raise _BadInput("choose exactly one of --scenario/--all-minus/--all-plus")
    if args.all_plus:
        return Scenario(inst.wplus), "all-plus scenario"
    if not args.scenario:
        return Scenario(inst.wminus), "all-minus scenario"
    s = _read("scenario", args.scenario, _read_scenario)
    if len(s.weights) != inst.num_vertices:
        raise _BadInput(
            f"scenario has {len(s.weights)} weights, instance has {inst.num_vertices} vertices")
    if not scenario_within_bounds(inst, s):
        raise _BadInput("scenario weights violate the instance's intervals")
    return s, f"scenario from {args.scenario}"


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
        raise _BadInput("--n must be >= 0")
    if args.coord_max < n:
        raise _BadInput("--coord-max must be at least --n")
    if args.w_max < 1:
        raise _BadInput("--w-max must be >= 1")
    rng = random.Random(args.seed)
    inst = _random_instance(rng, n, args.coord_max, args.w_max, args.capacity, args.tau)
    problems = validate_instance(inst)
    if problems:
        raise _BadInput("generated instance invalid: " + "; ".join(problems))
    save_instance(inst, args.output)
    print(f"wrote {args.output} (n={n}, capacity={args.capacity}, tau={args.tau})")
    return 0


# ---------------------------------------------------------------------------
# solve-opt / solve-mmr
# ---------------------------------------------------------------------------


def _report(args, res, kind: str) -> int:
    """Write the plan file if ``-o`` asks for one, then print the answer."""
    if args.output:
        save_plan(res.plan, res.value, kind, args.output)
    print(f"objective {res.value}")
    print(f"plan boundaries={list(res.plan.boundaries)} sinks={list(res.plan.sinks)}")
    return 0


def _cmd_solve_opt(args) -> int:
    inst = _read_instance(args.instance, args.k)
    s, _ = _scenario_from_args(inst, args)
    return _report(args, solve_optimal_k_sink(inst, s, args.k, args.cost_model), "evac_time")


def _cmd_solve_mmr(args) -> int:
    inst = _read_instance(args.instance, args.k)
    solve = solve_minmax_regret_dp if args.algo == "dp" else solve_minmax_regret_bs
    return _report(args, solve(inst, args.k), "max_regret")


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _cmd_verify(args) -> int:
    inst = _read_instance(args.instance)
    plan, objective, kind = _read("plan", args.plan, load_plan)
    problems = validate_plan(inst, plan)
    if problems:
        print("FAIL: plan invalid for instance:")
        for p in problems:
            print(f"  - {p}")
        return 1

    if kind == "evac_time":
        s, s_label = _scenario_from_args(inst, args)
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
    except _BadInput as exc:
        print(exc, file=sys.stderr)
        return 2
    except InvalidInstanceError as exc:
        print(f"invalid instance: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
