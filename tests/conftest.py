"""Shared test fixtures and the acceptance-criterion summary hook.

Acceptance tests register one entry per criterion via
:func:`record_criterion`; after the run, the terminal summary prints one
PASS/FAIL line per criterion regardless of which tests executed.
"""

from __future__ import annotations

import random

from pathevac.model import PathInstance
from pathevac.regret import build_lookup_tables

ACCEPTANCE_RESULTS: dict[int, tuple[str, bool, str]] = {}


def record_criterion(cid: int, description: str, passed: bool, detail: str = "") -> None:
    ACCEPTANCE_RESULTS[cid] = (description, passed, detail)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for cid in sorted(ACCEPTANCE_RESULTS):
        desc, ok, detail = ACCEPTANCE_RESULTS[cid]
        status = "PASS" if ok else "FAIL"
        line = f"[{status}] criterion {cid}: {desc}"
        if detail:
            line += f"  [{detail}]"
        terminalreporter.write_line(line)


def rand_instance(
    rng: random.Random,
    n: int,
    w_max: int = 10,
    gap_max: int = 5,
    capacities=(1, 2, 3),
    taus=(1, 2),
) -> PathInstance:
    """Random valid instance with n+1 vertices."""
    coords = [0]
    for _ in range(n):
        coords.append(coords[-1] + rng.randint(1, gap_max))
    wminus = [rng.randint(1, w_max) for _ in range(n + 1)]
    wplus = [lo + rng.randint(0, w_max - 1) for lo in wminus]
    return PathInstance(
        tuple(coords),
        tuple(wminus),
        tuple(wplus),
        capacity=rng.choice(list(capacities)),
        tau=rng.choice(list(taus)),
    )


def rand_scenario(rng: random.Random, inst: PathInstance):
    from pathevac.model import Scenario

    return Scenario(
        tuple(rng.randint(lo, hi) for lo, hi in zip(inst.wminus, inst.wplus))
    )


def rand_plan(rng: random.Random, inst: PathInstance, k: int):
    """Random valid plan with k parts."""
    from pathevac.model import Plan

    n = inst.n
    ends = sorted(rng.sample(range(n), k - 1)) + [n] if k > 1 else [n]
    sinks = []
    lo = 0
    for e in ends:
        sinks.append(rng.randint(lo, e))
        lo = e + 1
    return Plan(tuple(ends), tuple(sinks))


def check_rji_invariants(inst: PathInstance, cache, rji) -> None:
    """Assert the invariants of ``compute_rji``'s result ``rji``.

    Per cell, R is the minimum over all sinks of the part regret
    max(A[l, t], C[t, r]) and the sink is the rightmost sink attaining it;
    R does not shrink when a part grows left or right; and the sink never
    moves left when a part grows right.  O(n^3): small inputs only.
    """
    n = inst.n
    tables = build_lookup_tables(inst, cache)
    A, C = tables.A, tables.C
    R, sink = rji.R, rji.sink

    for l in range(n + 1):
        for r in range(l, n + 1):
            full = [max(A[l, t], C[t, r]) for t in range(l, r + 1)]
            best = min(full)
            rightmost = l + max(i for i, reg in enumerate(full) if reg == best)
            assert R[l, r] == best, f"R[{l}, {r}] = {R[l, r]} is not the minimum of {full}"
            assert sink[l, r] == rightmost, (
                f"sink[{l}, {r}] = {sink[l, r]}, rightmost minimizer {rightmost} of {full}"
            )
    for j in range(n + 1):
        for i in range(j, n):
            assert R[j, i] <= R[j, i + 1], f"R shrinks when part ({j}, {i}) grows right"
    for j in range(1, n + 1):
        for i in range(j, n + 1):
            assert R[j, i] <= R[j - 1, i], f"R shrinks when part ({j}, {i}) grows left"
    for j in range(n + 1):
        for i in range(j, n):
            assert sink[j, i] <= sink[j, i + 1], (
                f"sink moves left when part ({j}, {i}) grows right"
            )
