"""Worst-case scenario candidate generation.

For interval-uncertain weights, the max regret of any plan is attained on a
small structured family of scenarios: each takes the upper weight bound on one
index window [t1, t2) and lower bounds everywhere else.  Every window over
the whole path, 0 <= t1 <= t2 <= n+1, is a descriptor of the scenario-optimum
cache (``regret.ScenarioOptCache.complete`` fills all of them); this module
enumerates the per-partition family, which keeps, for each part [l, r], the
windows growing from the part's left end ((l, i)) and the windows ending at
the part's right end ((i, r+1)).
"""

from __future__ import annotations

from typing import Sequence

from .model import PathInstance, ScenarioDescriptor

__all__ = ["enumerate_partition_candidates"]


def enumerate_partition_candidates(
    inst: PathInstance,
    boundaries: Sequence[int],
) -> list[tuple[int, ScenarioDescriptor]]:
    """Per-part candidate descriptors for a partition, as (part_index, d) pairs.

    ``boundaries`` are the partition's part right ends r_1 < ... < r_k = n,
    as in ``Plan.boundaries``.
    For part d = [l, r]: the left-anchored family {(l, i) : l <= i <= r+1} and
    the right-anchored family {(i, r+1) : l <= i <= r+1}, deduplicated within
    the part by (t1, t2) identity (first occurrence kept, enumeration order
    left family then right family).  The part's max regret over all scenarios
    is attained on this family, so O(n) candidates per part suffice.
    """
    n = inst.n
    if not boundaries:
        raise ValueError("empty partition")
    prev = -1
    for b in boundaries:
        if b <= prev:
            raise ValueError(f"bad partition boundaries: {boundaries}")
        prev = b
    if boundaries[-1] != n:
        raise ValueError(f"partition does not end at vertex {n}")

    out: list[tuple[int, ScenarioDescriptor]] = []
    lo = 0
    for d, r in enumerate(boundaries):
        seen: set[ScenarioDescriptor] = set()
        for i in range(lo, r + 2):
            cand = ScenarioDescriptor(lo, i)
            if cand not in seen:
                seen.add(cand)
                out.append((d, cand))
        for i in range(lo, r + 2):
            cand = ScenarioDescriptor(i, r + 1)
            if cand not in seen:
                seen.add(cand)
                out.append((d, cand))
        lo = r + 1
    return out
