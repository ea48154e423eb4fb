"""Regret evaluation for k-sink plans under interval-uncertain weights.

The simplified cost model is used throughout this module: worst-case
candidate scenarios are the O(n^2) "contiguous upper-bound window"
assignments, and the regret of a plan under a scenario is its evacuation
time minus the best achievable k-sink time for that same scenario.

Main pieces:

* :class:`ScenarioOptCache` / :func:`build_scenario_opt_cache` — optimal
  k-sink times for candidate scenarios, backed either by the vectorized
  batch engine or by the per-scenario dynamic program.  The optima are
  kept in a keyed store, sorted descriptor keys with their values, so a
  cache holds only the lanes it was asked for or an audit fixed; its
  ``values`` is a dense O(n^2) read-only view, built on each read for the
  readers of a complete fill.
* :func:`regret_of_plan` / :func:`max_regret_of_plan` — regret of a plan
  under one scenario (optimum from the fixed-scenario DP), and its worst
  case over all candidate scenarios (plan times from the batch engine's
  side times, optima from the cache).  On a batch cache the worst case
  brackets every optimum with the batch engine's ``_plan_bounds`` (and its
  top level, ``_top_level``, where that narrows the brackets) and finds the
  maximum by the engine's threshold search (``_max_regret``), which probes
  each candidate that could still beat the best regret so far at the bound
  that would beat it and fixes only the optima the maximum needs; on a
  reference cache it solves every candidate by the per-scenario DP.
* :class:`EvacLookupTables` / :func:`build_lookup_tables` — two O(n^2)
  tables into which the worst-case regret of every part and sink
  separates, built in O(n^2) time from running maxima over the cache's
  values and the batch engine's static profile arrays.
* :func:`compute_rji` — the matrix R[j, i] of minimal worst-case regrets of
  single-sink subpaths [j, i], with the minimizing sink per cell: the
  regret of part [l, r] with sink t is max(A[l, t], C[t, r]), non-decreasing
  and non-increasing in t, so each row of R is one row of the split DP of
  :mod:`pathevac.optk`.

All quantities are exact int64 integers.

numpy and the batch engine (``_batch``) are imported inside the functions
and methods that use them, so importing this module, or the package, does
not load numpy: the fixed-scenario solver, the brute-force oracles and the
CLI's ``gen``, ``solve-opt`` and evac-time ``verify`` never need it.  It
loads on the first cache, ``max_regret_of_plan``, ``build_lookup_tables``
or ``compute_rji`` call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from .evac import eval_plan
from .evac import eval_side  # noqa: F401  (unused; perfbench/layers.py traces regret.eval_side)
from .model import (
    CostModel,
    PathInstance,
    Plan,
    Scenario,
    ScenarioDescriptor,
    realize_scenario,
    require_k,
    validate_plan,
)
from .optk import _MatrixRow, _split_row, solve_optimal_k_sink
from .scenario_gen import enumerate_partition_candidates

if TYPE_CHECKING:
    import numpy as np

    from ._batch import ScenarioBatchEngine

__all__ = [
    "ScenarioOptCache",
    "build_scenario_opt_cache",
    "regret_of_plan",
    "max_regret_of_plan",
    "EvacLookupTables",
    "build_lookup_tables",
    "RjiMatrix",
    "compute_rji",
]

# Cache cell not computed yet: below every optimum time, which is >= 0.
_UNSET = -(1 << 62)


# ---------------------------------------------------------------------------
# Scenario-optimum cache
# ---------------------------------------------------------------------------


class ScenarioOptCache:
    """Optimal k-sink times (simplified model), indexed by scenario descriptor.

    :meth:`ensure` computes the still-missing values of a batch of
    descriptors and :meth:`complete` those of all of them.  The optima are
    held in a keyed store: the sorted int64 keys t1 (n + 2) + t2 of the
    descriptors held and their optima, one array each, so a cache costs
    memory for the lanes it holds and no more.  ``values`` is the dense
    ``(n+2) x (n+2)`` int64 matrix holding each optimum at ``[t1, t2]`` and
    ``_UNSET`` elsewhere, built from the store on every read: O(n^2) time and
    memory, for complete-fill readers.  It is read-only, as a write to it
    would not reach the store.

    ``engine="batch"`` uses the vectorized all-scenario solver;
    ``engine="reference"`` runs the per-scenario dynamic program instead,
    which is slower but entirely independent — useful for cross-checking.
    """

    def __init__(self, inst: PathInstance, k: int, engine: str = "batch"):
        import numpy as np

        from ._batch import check_int64_headroom

        inst.require_valid()
        check_int64_headroom(inst)
        k = require_k(inst, k)
        if engine not in ("batch", "reference"):
            raise ValueError(f"unknown engine {engine!r}")
        self.inst = inst
        self.k = k
        self.engine = engine
        self._keys = np.empty(0, dtype=np.int64)
        self._opts = np.empty(0, dtype=np.int64)
        self._batch: Optional[ScenarioBatchEngine] = None

    # -- internals ----------------------------------------------------------

    def _batch_engine(self) -> ScenarioBatchEngine:
        from ._batch import ScenarioBatchEngine

        if self._batch is None:
            self._batch = ScenarioBatchEngine(self.inst)
        return self._batch

    def _compute(self, t1a: np.ndarray, t2a: np.ndarray) -> np.ndarray:
        import numpy as np

        if self.engine == "batch":
            return self._batch_engine().solve(self.k, t1a, t2a)
        out = np.empty(t1a.shape[0], dtype=np.int64)
        for idx in range(t1a.shape[0]):
            d = ScenarioDescriptor(int(t1a[idx]), int(t2a[idx]))
            s = realize_scenario(self.inst, d)
            res = solve_optimal_k_sink(self.inst, s, self.k, CostModel.SIMPLIFIED)
            out[idx] = res.value
        return out

    def _get(self, keys: np.ndarray) -> np.ndarray:
        """The optima held at the descriptor keys, ``_UNSET`` where none is."""
        import numpy as np

        held = self._keys
        if not held.size:
            return np.full(keys.shape, _UNSET, dtype=np.int64)
        at = np.minimum(np.searchsorted(held, keys), held.size - 1)
        return np.where(held[at] == keys, self._opts[at], _UNSET)

    def _put(self, keys: np.ndarray, opts: np.ndarray) -> None:
        """Hold ``opts`` at ``keys``: sorted, distinct and not held yet."""
        import numpy as np

        if not self._keys.size:
            self._keys, self._opts = keys, opts
        elif keys.size:
            at = np.searchsorted(self._keys, keys)
            self._keys = np.insert(self._keys, at, keys)
            self._opts = np.insert(self._opts, at, opts)

    # -- public API -----------------------------------------------------------

    @property
    def values(self) -> np.ndarray:
        """The held optima as a read-only dense ``(n+2) x (n+2)`` matrix,
        ``_UNSET`` where none is held (a new O(n^2) array per read)."""
        import numpy as np

        size = self.inst.n + 2
        dense = np.full(size * size, _UNSET, dtype=np.int64)
        dense[self._keys] = self._opts
        dense = dense.reshape(size, size)
        dense.flags.writeable = False
        return dense

    def ensure(self, t1s, t2s) -> None:
        """Compute any still-missing entries among the descriptors
        (t1s[i], t2s[i]); ``t1s`` and ``t2s`` must be integer arrays of
        equal shapes (see ``_batch.descriptor_arrays``)."""
        import numpy as np

        from ._batch import descriptor_arrays, distinct_keys

        n = self.inst.n
        t1a, t2a = descriptor_arrays(t1s, t2s, n)
        # Deduplicate so each lane is solved once.
        keys = distinct_keys(t1a, t2a, n)
        keys = keys[self._get(keys) == _UNSET]
        if not keys.size:
            return
        u1, u2 = np.divmod(keys, n + 2)
        self._put(keys, self._compute(u1, u2))

    def complete(self) -> None:
        """Fill every valid descriptor (all t1 <= t2)."""
        import numpy as np

        n = self.inst.n
        t1a, t2a = np.triu_indices(n + 2)
        self.ensure(t1a, t2a)


def build_scenario_opt_cache(
    inst: PathInstance,
    k: int,
    engine: str = "batch",
    fill: str = "all",
) -> ScenarioOptCache:
    """Build a :class:`ScenarioOptCache`; ``fill="all"`` precomputes every entry."""
    if fill not in ("all", "lazy"):
        raise ValueError(f"unknown fill mode {fill!r}")
    cache = ScenarioOptCache(inst, k, engine=engine)
    if fill == "all":
        cache.complete()
    return cache


# ---------------------------------------------------------------------------
# Plan regret
# ---------------------------------------------------------------------------


def regret_of_plan(inst: PathInstance, plan: Plan, s: Scenario) -> int:
    """Regret of ``plan`` under scenario ``s`` (simplified model).

    This is the plan's evacuation time minus the optimal ``plan.k``-sink
    time for the same scenario, computed by the fixed-scenario DP.
    """
    time, _ = eval_plan(inst, s, plan, CostModel.SIMPLIFIED)
    return time - solve_optimal_k_sink(inst, s, plan.k, CostModel.SIMPLIFIED).value


def _require_cache_for(inst: PathInstance, cache: ScenarioOptCache) -> None:
    if cache.inst is not inst and cache.inst != inst:
        raise ValueError("cache was built for a different instance")


def max_regret_of_plan(
    inst: PathInstance,
    plan: Plan,
    cache: Optional[ScenarioOptCache] = None,
) -> tuple[int, ScenarioDescriptor]:
    """Worst-case regret of ``plan`` over all candidate scenarios.

    Returns ``(value, witness)`` where ``witness`` is the first candidate
    descriptor (in per-part enumeration order) attaining the maximum.  The
    plan's time under every candidate comes from the side times of the
    cache's batch engine, its optimum from the cache.  A given ``cache``
    must be built for ``inst`` and ``plan.k`` (else ValueError).

    On a batch cache the optima are bracketed rather than solved.  The
    engine's ``_plan_bounds`` brackets each optimum in [lo, hi], from the
    time of a k-part plan balanced for the candidate's weights and from
    weight and distance bounds that every plan meets; a candidate the cache
    already holds takes lo = hi = its value.  The top level's bracket
    (``_top_level``, from the all-lower and all-upper optima, two DP solves
    once per engine and k) is at most min(d_in, d_out) wide, with d_in the
    candidate's delta sum and d_out the rest of the path's; the brackets
    are intersected with it only when at least half the candidates have
    min(d_in, d_out) < hi - lo, so a narrow set of plan brackets costs no
    DP solve.  The engine's threshold search (``_max_regret``) then finds
    the maximum and its first witness from these brackets, probing only
    the candidates whose regret upper bound, time - lo, beats the largest
    regret lower bound, L = max(time - hi), each at the bound below which
    it would beat L; so value and witness equal those of solving every
    candidate.  The cache afterwards holds only the optima the search
    fixed exactly, the candidates whose bracket closed (plus what it held
    before), merged into its keyed store: an audit allocates nothing of
    size (n+2)^2.

    An ``engine="reference"`` cache keeps its optima independent of the
    greedy search: every candidate is solved through ``cache.ensure`` by
    the per-scenario DP, one solve per candidate it does not hold yet, and
    the first maximum of time - v is taken, so the cache afterwards holds
    every candidate's optimum.
    """
    import numpy as np

    cands = enumerate_partition_candidates(inst, plan.boundaries)
    if cache is None:
        cache = ScenarioOptCache(inst, plan.k, engine="batch")
    elif cache.k != plan.k:
        raise ValueError(f"cache built for k={cache.k}, plan has k={plan.k}")
    _require_cache_for(inst, cache)
    violations = validate_plan(inst, plan)
    if violations:
        raise ValueError("; ".join(violations))
    t1 = np.array([d.t1 for _, d in cands], dtype=np.int64)
    t2 = np.array([d.t2 for _, d in cands], dtype=np.int64)
    # Per candidate lane, the plan time: the max over parts of both side
    # times of the part's sink (all positive, so 0 is a neutral start).
    eng = cache._batch_engine()
    time = np.zeros(t1.shape[0], dtype=np.int64)
    for (l, r), y in zip(plan.parts(), plan.sinks):
        time = np.maximum(time, eng.theta_l(l, y, t1, t2))
        time = np.maximum(time, eng.theta_r(y, r, t1, t2))
    keys = t1 * np.int64(inst.n + 2) + t2
    if cache.engine == "reference":
        cache.ensure(t1, t2)
        regret = time - cache._get(keys)
        best = int(np.argmax(regret))
        return int(regret[best]), cands[best][1]
    lo, hi = eng._plan_bounds(cache.k, t1, t2)
    held = cache._get(keys)
    lo, hi = (np.where(held == _UNSET, b, held) for b in (lo, hi))
    # The top level's bracket is at most min(d_in, d_out) wide: take it only
    # where that narrows the typical plan bracket.
    d_in = eng.dp0[t2] - eng.dp0[t1]
    if 2 * np.count_nonzero(np.minimum(d_in, eng.dp0[-1] - d_in) < hi - lo) >= t1.shape[0]:
        top_lo, top_hi = eng._top_level(cache.k, t1, t2)
        lo, hi = np.maximum(lo, top_lo), np.minimum(hi, top_hi)
    value, best = eng._max_regret(cache.k, t1, t2, time, lo, hi)
    # Store the optima fixed here, once per lane (parts share their end
    # lanes): sorted by key, first of each run of equal keys.
    fixed = (lo == hi) & (held == _UNSET)
    order = np.argsort(keys[fixed], kind="stable")
    new, opts = keys[fixed][order], lo[fixed][order]
    first = np.diff(new, prepend=-1) > 0
    cache._put(new[first], opts[first])
    return value, cands[best][1]


# ---------------------------------------------------------------------------
# Per-sink regret components of every part
# ---------------------------------------------------------------------------


@dataclass
class EvacLookupTables:
    """Components of the worst-case regret of every part and sink.

    Two (n+1) x (n+1) int64 tables.  With ``v`` the scenario-optimum cache
    values and ``theta_l`` / ``theta_r`` the batch engine's side times:

    * ``A[l, t] = max_{m in [l+1, t]} theta_l(l, t, l, m) - v[l, m]`` for
      t > l, over the left-anchored candidates (l, m), and A[l, l] = -v[l, l];
    * ``C[t, r] = max_{m in [t+1, r]} theta_r(t, r, m, r+1) - v[m, r+1]`` for
      t < r, over the right-anchored candidates (m, r+1), and
      C[r, r] = -v[r+1, r+1].

    The windows (l, l) and (r+1, r+1) are empty: they take all lower
    bounds, and the diagonals are their regrets, as a part's lone sink
    has side times 0.  Off the diagonal the empty window never decides:
    raising the weight of vertex l (of r), the farthest from sink t, raises
    every term of that side time by its delta, while the optimum rises by
    at most that delta (see ``ScenarioBatchEngine._brackets``), so the
    candidate (l, l+1) (the candidate (r, r+1)) is at least the empty
    one.  By the same argument the part of a candidate's side profile
    beyond its window never decides a cell (``build_lookup_tables``), so
    the tables are built from the in-window parts alone.  The tables
    equal the maxima over all left- and right-anchored candidates only on
    caches that hold optima, as every cache that ``ensure`` fills does.  A
    row of ``A`` never falls as t grows and a column of ``C`` never grows: a side
    time grows with its side, and the larger side has more candidates.
    Entries are defined where l <= t (``A``) and t <= r (``C``); all other
    cells hold 0.
    """

    A: np.ndarray
    C: np.ndarray


def build_lookup_tables(inst: PathInstance, cache: ScenarioOptCache) -> EvacLookupTables:
    """Build :class:`EvacLookupTables` from a scenario-optimum cache.

    Completes the cache and reads its dense ``values`` once, then fills
    each row of ``A`` and each column of ``C`` with two running maxima
    (``np.maximum.accumulate``) over the static profile arrays behind the
    batch engine's range maxima: O(n^2) work in O(n) numpy calls, with
    O(n) extra memory besides ``values`` and the tables.

    Write v for the cache values, xt = x*tau, pm0 and dp0 for the prefix
    sums of w- and of w+ - w- (pm0[z] and dp0[z] sum vertices below z), and

        a1 = pm0[1:] - xt,   a2 = a1 + dp0[1:],
        b1 = xt - pm0[:-1],  b2 = b1 - dp0[:-1],

    all six attributes of the batch engine.

    Lane (l, m) takes w+ on [l, m), so the left profile of the part starting
    at l is a2[z] - dp0[l] for z < m and a1[z] + dp0[m] - dp0[l] for z >= m,
    and the left side time of sink t > l is

        theta_l(l, t, l, m) = xt[t] - pm0[l] - dp0[l]
                              + max(max a2[l..m-1], dp0[m] + max a1[m..t-1]).

    The second range never decides a cell on a cache of optima: its term
    at z in [m, t-1] is a2[z] - (dp0[z+1] - dp0[m]), and window (l, z+1)
    holds w+ on the dp0[z+1] - dp0[m] more weight of [m, z] than (l, m), so
    its optimum is at most that much larger
    (``ScenarioBatchEngine._brackets``) while its first range contains
    a2[z].  So for t > l,

        A[l, t] - (xt[t] - pm0[l] - dp0[l])
            = max over m in [l+1, t] of max a2[l..m-1] - v[l, m],

    a prefix maximum along row l.  Mirrored, lane (m, r+1) gives the right
    side time of sink t < r

        theta_r(t, r, m, r+1) = pm0[r+1] + dp0[r+1] - xt[t]
                                + max(max b1[t+1..m] - dp0[m], max b2[m..r]),

    whose first range never decides, and for t < r

        C[t, r] - (pm0[r+1] + dp0[r+1] - xt[t])
            = max over m in [t+1, r] of max b2[m..r] - v[m, r+1],

    a suffix maximum along column r + 1 of v.  Every range maximum is over
    a non-empty range, so no NEG sentinel enters a table, and only the
    cells the tables define are written.
    """
    import numpy as np

    _require_cache_for(inst, cache)
    cache.complete()
    v = cache.values
    eng = cache._batch_engine()
    xt, pm0, dp0 = eng.xt, eng.pm0, eng.dp0
    a2, b2 = eng.a2, eng.b2
    n = inst.n
    size = n + 1
    acc = np.maximum.accumulate
    A, C = (np.zeros((size, size), dtype=np.int64) for _ in range(2))

    # Row l: index i of the running maxima is sink t = l + 1 + i and m = t.
    for l in range(size):
        A[l, l] = -v[l, l]
        far = acc(a2[l:n]) - v[l, l + 1 : size]
        A[l, l + 1 :] = xt[l + 1 :] - (pm0[l] + dp0[l]) + acc(far)
    # Column r, read from r down: index j is m = r - j, and after the
    # suffix maximum and its reversal, index t of the result is sink t.
    np.fill_diagonal(C, -v.diagonal()[1:])
    for r in range(1, size):
        far = acc(b2[r:0:-1]) - v[r:0:-1, r + 1]
        C[:r, r] = pm0[r + 1] + dp0[r + 1] - xt[:r] + acc(far)[::-1]
    return EvacLookupTables(A=A, C=C)


# ---------------------------------------------------------------------------
# Minimal worst-case regret of every subpath: the R matrix
# ---------------------------------------------------------------------------


@dataclass
class RjiMatrix:
    """R[j, i] = min over sinks of the worst-case regret of subpath [j, i].

    ``R`` and ``sink`` are (n+1) x (n+1) int64 arrays, valid where j <= i
    (other cells hold a large-negative / -1 sentinel).  ``sink[j, i]`` is
    the rightmost minimizing sink position.  Regrets are signed; R[j, j]
    equals minus the optimal time of the all-lower-bounds scenario.
    """

    R: np.ndarray
    sink: np.ndarray
    counters: dict = field(default_factory=dict)


def compute_rji(
    inst: PathInstance,
    cache: ScenarioOptCache,
) -> RjiMatrix:
    """Compute the full matrix of minimal worst-case subpath regrets.

    For part [l, r] with sink t, every worst-case candidate is dominated by
    one that is left-anchored (upper bounds on [l, m), m <= t, rest lower)
    or right-anchored (upper bounds on [m, r], m > t, rest lower).  Under a
    left-anchored candidate the right side of t is all lower bounds, and
    vice versa, so the maximum over candidates separates into

        max(A[l, t], C[t, r]),
        also max'ed with lminus[l, t] - min_{m in [t+1, r]} v[m, r+1]
        when t < r,

    with the tables of :func:`build_lookup_tables` (whose definitions
    leave out the empty windows (l, l) and (r+1, r+1) off the diagonal,
    which never decide there) and ``lminus[l, t]`` the left side of t
    under all lower bounds.  The scenario optimum cannot fall when its
    window of upper bounds grows (``ScenarioBatchEngine._brackets`` gives
    the argument), so every v is at least v[l, l] = v[0, 0], the all-lower
    optimum, and the last term is at most lminus[l, t] - v[0, 0] =
    theta_l(l, t, l, l) - v[l, l], the empty-window term, at most A[l, t]:
    it never decides the maximum.

    A[l, t] never falls and C[t, r] never grows as t moves right, so row l
    of R is one row of ``optk._split_row`` with split j as sink l + j,
    A[l, l + 1:] as the previous row and C[l + j, l + i] as w(j, i); split
    j = 0 reads C alone, which is exact as A[l, l] = -v[0, 0] <= C[l, r]
    (the empty window's term, a side time minus v[0, 0], is at most C[l, r]).
    The part regret never falls as r grows (a larger part is no faster
    under any scenario), so the rightmost minimizing sink, which the row
    keeps, never moves left.  ``sink_moves`` counts its moves and
    ``sink_evals`` its reads of C, one per cell plus one per move.
    """
    import numpy as np

    from ._batch import NEG

    inst.require_valid()
    n = inst.n
    tables = build_lookup_tables(inst, cache)
    A, C = tables.A, tables.C
    R = np.full((n + 1, n + 1), NEG, dtype=np.int64)
    sink = np.full((n + 1, n + 1), -1, dtype=np.int64)
    evals = 0
    moves = 0
    for l in range(n + 1):
        row = _MatrixRow(C[l:, l:])
        R[l, l:], jq = _split_row(A[l, l + 1 :].tolist(), row, n - l)
        sink[l, l:] = np.add(jq, l)
        evals += n - l + 1 + row.drops
        moves += row.drops

    counters = {"sink_evals": evals, "sink_moves": moves}
    return RjiMatrix(R=R, sink=sink, counters=counters)
