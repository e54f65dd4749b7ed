"""Multi-resource constrained partitioning (paper's stated extension).

Section V: "only one resource is considered at this time, for example
LUTs".  Real FPGAs budget LUTs, FFs, BRAMs and DSPs independently, and a
partition can fit one budget while blowing another.  This module lifts GP's
resource constraint from a scalar to a vector:

* node weights become a matrix ``W`` of shape ``(n, R)``;
* the resource constraint becomes component-wise:
  ``sum(W[u] for u in part) <= rmax`` for every part and every resource;
* the bandwidth constraint is unchanged (links carry tokens, not LUTs).

The algorithm mirrors :mod:`repro.partition.gp` — greedy vector-aware
initial growing with restarts, violation-lexicographic FM, cyclic retries
raced across processes — over a multilevel hierarchy whose node-weight
*matrices* are aggregated through the same contraction maps the scalar
path uses.

The drivers here are thin.  The FM pass is the engine-agnostic
:func:`~repro.partition.kway_refine.run_constrained_fm` run on a
:class:`~repro.partition.vector_state.VectorRefinementState` (the ``(k,
R)`` load matrix tracked incrementally with exact rollback).
:func:`mr_gp_partition` runs GP's own multilevel driver
(:func:`~repro.partition.multilevel.multilevel_partition`) on the vector
engine (:class:`~repro.partition.engine.VectorGraphEngine`), so its
retry cycles race with results bit-identical for every ``n_jobs``.
Completed runs are memoised in the shared
:data:`~repro.util.parallel.memo_cache` keyed by the
:class:`~repro.partition.vector_state.VectorGraph` content digest
(structure **and** weight matrix).  The pre-unification hand-rolled loop
is frozen in ``benchmarks/_legacy_multires.py``;
``tests/test_multires_differential.py`` pins the two against each other.
See ``docs/multires.md``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from repro.graph.wgraph import WGraph
from repro.partition.base import PartitionState
from repro.partition.kway_refine import run_constrained_fm
from repro.partition.metrics import check_assignment
from repro.partition.multilevel import (
    GPConfig,
    multilevel_partition,
    raise_if_infeasible,
)
from repro.partition.vector_state import (
    MultiResMetrics,
    VectorConstraints,
    VectorGraph,
    VectorRefinementState,
    check_weight_matrix,
)
from repro.util.errors import PartitionError
from repro.util.parallel import memoised
from repro.util.rng import as_rng, spawn_seeds

__all__ = [
    "VectorConstraints",
    "MultiResMetrics",
    "evaluate_multires",
    "mr_constrained_fm",
    "mr_greedy_initial",
    "mr_gp_partition",
    "vector_gp_partition",
    "leftover_destination",
    "MultiResResult",
    "MR_GP_CONFIG",
]

#: What :func:`mr_gp_partition` runs given ``config=None``: 10 cycles and
#: one FM candidate per level, the vector pipeline's historical budget.
MR_GP_CONFIG = GPConfig(max_cycles=10, level_candidates=1)

@dataclass
class MultiResResult:
    """Outcome of :func:`mr_gp_partition`."""

    assign: np.ndarray
    k: int
    metrics: MultiResMetrics
    constraints: VectorConstraints
    algorithm: str = "MR-GP"
    runtime: float = 0.0
    info: dict = field(default_factory=dict)

    @property
    def feasible(self) -> bool:
        return self.metrics.feasible

    @property
    def cut(self) -> float:
        return self.metrics.cut


def _loads(weights: np.ndarray, assign: np.ndarray, k: int) -> np.ndarray:
    out = np.zeros((k, weights.shape[1]))
    np.add.at(out, assign, weights)
    return out


def _match_resources(w: np.ndarray, cons: VectorConstraints) -> None:
    if w.shape[1] != cons.n_resources:
        raise PartitionError(
            f"weights have {w.shape[1]} resources, constraints {cons.n_resources}"
        )


def evaluate_multires(
    g: WGraph,
    weights: np.ndarray,
    assign: np.ndarray,
    k: int,
    cons: VectorConstraints,
) -> MultiResMetrics:
    """All metrics of one assignment under vector constraints.

    Computed from scratch (no incremental state) — the independent
    reference the invariant suite checks the tracked engine against.
    """
    w = check_weight_matrix(g, weights)
    _match_resources(w, cons)
    a = check_assignment(g, assign, k)
    state = PartitionState(g, a, k)
    loads = _loads(w, a, k)
    rmax = np.asarray(cons.rmax)
    res_violation = float(np.maximum(loads - rmax, 0.0).sum())
    bw = state.bw
    if np.isfinite(cons.bmax):
        bw_violation = float(
            np.triu(np.maximum(bw - cons.bmax, 0.0), k=1).sum()
        )
    else:
        bw_violation = 0.0
    return MultiResMetrics(
        k=k,
        cut=state.cut,
        max_local_bandwidth=float(bw.max()) if k > 1 else 0.0,
        max_loads=tuple(float(x) for x in loads.max(axis=0)),
        bandwidth_violation=bw_violation,
        resource_violation=res_violation,
    )


def mr_constrained_fm(
    g: WGraph,
    weights: np.ndarray,
    assign: np.ndarray,
    k: int,
    cons: VectorConstraints,
    max_passes: int = 6,
    seed=None,
    state: VectorRefinementState | None = None,
) -> np.ndarray:
    """Violation-lexicographic FM with vector resource deltas.

    A thin driver: builds (or adopts) a
    :class:`~repro.partition.vector_state.VectorRefinementState` and runs
    the shared :func:`~repro.partition.kway_refine.run_constrained_fm`
    pass discipline on it — the same gain-bucket queue, lazy
    revalidation, lock/tie-breaking rules and best-prefix rollback as the
    scalar GP refinement and the hypergraph Φ engine, with ``(violation,
    cut)`` keys computed against the componentwise budgets.

    When *state* is given the engine is reused (and left holding the
    returned assignment, so callers can read ``state.metrics(cons)``
    without a from-scratch evaluation).
    """
    if max_passes < 1:
        raise PartitionError(f"max_passes must be >= 1, got {max_passes}")
    w = check_weight_matrix(g, weights)
    _match_resources(w, cons)
    a = check_assignment(g, assign, k)
    if state is None:
        st = VectorRefinementState(g, w, a, k)
    else:
        if state.g is not g or state.k != k:
            raise PartitionError("provided state does not match graph/k")
        if not np.array_equal(state.assign, a):
            raise PartitionError(
                "provided state holds a different assignment than the one passed"
            )
        st = state
    return run_constrained_fm(
        st, g.n, g.neighbors, cons,
        max_passes=max_passes, seed=seed,
    )


def leftover_destination(
    loads: np.ndarray, rmax: np.ndarray, w_u: np.ndarray
) -> int:
    """Greedy-growing leftover placement: where does a node nothing fits go?

    A part *fits* iff adding the node's whole resource vector keeps every
    component under ``rmax``; among fitting parts the one with the most
    min-component headroom (after placement) wins.  When **no** part
    fits, the part whose *violation increase* is smallest wins — ties
    broken by headroom, then part id.  (The pre-unification rule used
    headroom alone, which could dump a node on the part with the largest
    slack on an irrelevant resource while another part would have taken
    it with zero new excess on the binding one; frozen in
    ``benchmarks/_legacy_multires.py``, regression-pinned in
    ``tests/test_multires_invariants.py``.)
    """
    after = loads + w_u
    headroom = (rmax - after).min(axis=1)
    fits = np.nonzero(headroom >= 0)[0]
    if fits.size:
        return int(fits[int(np.argmax(headroom[fits]))])
    viol_delta = (
        np.maximum(after - rmax, 0.0) - np.maximum(loads - rmax, 0.0)
    ).sum(axis=1)
    order = np.lexsort(
        (np.arange(loads.shape[0]), -headroom, viol_delta)
    )
    return int(order[0])


def mr_greedy_initial(
    g: WGraph,
    weights: np.ndarray,
    k: int,
    cons: VectorConstraints,
    restarts: int = 10,
    seed=None,
    conn_format: str = "auto",
) -> np.ndarray:
    """Vector-aware greedy growing with restarts (Section IV.B, lifted).

    A node fits a partition iff adding its whole resource *vector* keeps
    every component under ``rmax``; leftovers are placed by
    :func:`leftover_destination` (violation-aware when nothing fits).
    Each restart ends with a short seam-based FM repair on a state with
    the *conn_format* connectivity store.
    """
    if restarts < 1:
        raise PartitionError(f"restarts must be >= 1, got {restarts}")
    w = check_weight_matrix(g, weights)
    _match_resources(w, cons)
    rmax = np.asarray(cons.rmax)
    rng = as_rng(seed)
    round_seeds = spawn_seeds(rng, restarts)
    # size proxy for "heaviest": max utilisation share across resources
    with np.errstate(divide="ignore", invalid="ignore"):
        share = np.where(rmax > 0, w / rmax, 0.0).max(axis=1)

    best_assign, best_key = None, None
    for r in range(restarts):
        r_rng = as_rng(round_seeds[r])
        assign = np.full(g.n, -1, dtype=np.int64)
        loads = np.zeros((k, w.shape[1]))
        for part in range(k):
            unassigned = np.nonzero(assign < 0)[0]
            if unassigned.size == 0:
                break
            if r == 0:
                seed_node = int(unassigned[int(np.argmax(share[unassigned]))])
            else:
                seed_node = int(r_rng.choice(unassigned))
            assign[seed_node] = part
            loads[part] += w[seed_node]
            frontier: dict[int, float] = {}
            for v, ew in zip(*g.neighbor_weights(seed_node)):
                if assign[int(v)] < 0:
                    frontier[int(v)] = frontier.get(int(v), 0.0) + float(ew)
            while frontier:
                u = min(frontier, key=lambda x: (-frontier[x], x))
                del frontier[u]
                if assign[u] >= 0:
                    continue
                if np.any(loads[part] + w[u] > rmax):
                    continue
                assign[u] = part
                loads[part] += w[u]
                for v, ew in zip(*g.neighbor_weights(u)):
                    if assign[int(v)] < 0:
                        frontier[int(v)] = frontier.get(int(v), 0.0) + float(ew)
        leftovers = np.nonzero(assign < 0)[0]
        leftovers = leftovers[np.argsort(-share[leftovers], kind="stable")]
        for u in leftovers:
            u = int(u)
            dest = leftover_destination(loads, rmax, w[u])
            assign[u] = dest
            loads[dest] += w[u]
        st = VectorRefinementState(g, w, assign, k, conn_format=conn_format)
        assign = run_constrained_fm(
            st, g.n, g.neighbors, cons, max_passes=4, seed=round_seeds[r]
        )
        m = st.metrics(cons)
        key = (m.total_violation, m.bandwidth_violation, m.cut)
        if best_key is None or key < best_key:
            best_assign, best_key = assign, key
    assert best_assign is not None
    return best_assign


def mr_gp_partition(g: WGraph, weights: np.ndarray, *args,
                    **kwargs) -> MultiResResult:
    """:func:`vector_gp_partition` on *g* bundled with its ``(n, R)``
    resource matrix *weights*: ``mr_gp_partition(g, weights, k, cons,
    config=None, seed=None, n_jobs=1, cache=True)``."""
    return vector_gp_partition(VectorGraph(g, weights), *args, **kwargs)


def vector_gp_partition(
    vg: VectorGraph,
    k: int,
    cons: VectorConstraints,
    config: GPConfig | None = None,
    seed=None,
    n_jobs: int | None = 1,
    cache: bool = True,
) -> MultiResResult:
    """GP lifted to vector resources: multilevel + cyclic retries.

    The coarsening hierarchy is built on a scalar projection (summed
    normalised utilisation) so the matchings see a sensible "mass", while
    the true weight *matrix* is aggregated level by level through the
    contraction maps and drives all constraint checks.

    *config* is GP's own :class:`~repro.partition.multilevel.GPConfig`
    (:data:`MR_GP_CONFIG` when omitted) and means what it means for
    :func:`~repro.partition.gp.gp_partition`: ``refine="fm+flow"`` adds
    one guarded flow stage on the race winner (the vector engine's
    componentwise ``key`` drives acceptance), ``vcycles`` runs restricted
    V-cycles on the vector engine, ``conn_format`` picks the refinement
    states' connectivity store, and ``level_candidates`` FM runs race per
    level.  *seed* overrides ``config.seed`` when given.

    *n_jobs* races the retry cycles across worker processes exactly like
    :func:`~repro.partition.gp.gp_partition` does (``-1`` = all CPUs):
    every cycle's seeds are derived up front, results are consumed in
    cycle order and the first feasible cycle wins, so the returned
    partition is **bit-identical for every** ``n_jobs``.  *cache*
    memoises completed runs in :data:`~repro.util.parallel.memo_cache`
    keyed by the :class:`~repro.partition.vector_state.VectorGraph`
    content digest (structure + weight matrix), constraints, the config
    and the seed; ``n_jobs`` is deliberately absent from the key, since
    results are bit-identical for every worker count.  Hits return a
    fresh copy flagged ``info["cache_hit"]=True`` (only ``None`` and
    integer seeds participate).
    """
    # the engine module imports this one, so import it at call time
    from repro.partition.engine import VectorGraphEngine

    config = config or MR_GP_CONFIG
    _match_resources(vg.weights, cons)
    engine = VectorGraphEngine(vg, k, conn_format=config.conn_format)
    run_seed = seed if seed is not None else config.seed

    # on_infeasible only changes delivery, and the run's seed is keyed on
    # its own
    run_config = dataclasses.replace(config, on_infeasible="return")
    result = memoised(
        ("mr_gp", vg.content_digest(), k, cons,
         dataclasses.replace(run_config, seed=None)),
        run_seed,
        lambda: multilevel_partition(
            engine, cons, run_config, seed=run_seed, n_jobs=n_jobs
        ),
        enabled=cache,
    )
    return raise_if_infeasible(result, config)
