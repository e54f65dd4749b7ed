"""Frozen pre-seam multi-resource implementations (reference / benchmark only).

Verbatim snapshot of the algorithm drivers of ``repro.partition.multires``
as of the commit preceding the vector-resource engine unification — the
hand-rolled violation-lexicographic FM loop over
:class:`_legacy_refine.PartitionState`, the greedy vector-aware
initial growing (including its original leftover-placement rule), and the
multilevel cyclic-retry partitioner, all with their per-step Python-loop
move selection.  ``benchmarks/bench_multires_engine.py`` times these
against the seam-based engine, and the pinned corpus values in
``tests/test_multires_differential.py`` were produced by
:func:`legacy_mr_constrained_fm`.  Do not "fix" or optimise this module:
its value is that it does not change.

The dataclasses (``VectorConstraints`` etc.) are imported from the live
library — they are containers, not algorithms, and sharing them keeps the
differential comparisons type-compatible.
"""

from __future__ import annotations

import numpy as np

from repro.graph.wgraph import WGraph
from repro.partition.coarsen import build_hierarchy
from repro.partition.metrics import check_assignment
from repro.partition.multires import (
    MultiResResult,
    VectorConstraints,
    evaluate_multires,
)
from repro.util.errors import InfeasibleError, PartitionError
from repro.util.rng import as_rng, spawn_seeds
from repro.util.stopwatch import Stopwatch

from _legacy_refine import PartitionState

__all__ = [
    "legacy_mr_constrained_fm",
    "legacy_mr_greedy_initial",
    "legacy_mr_gp_partition",
]

_EPS = 1e-12


def _check_weights(g: WGraph, weights: np.ndarray) -> np.ndarray:
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim != 2 or w.shape[0] != g.n:
        raise PartitionError(
            f"weight matrix must be (n={g.n}, R), got {w.shape}"
        )
    if np.any(w < 0) or not np.all(np.isfinite(w)):
        raise PartitionError("weight matrix entries must be finite and >= 0")
    return w


def _loads(weights: np.ndarray, assign: np.ndarray, k: int) -> np.ndarray:
    out = np.zeros((k, weights.shape[1]))
    np.add.at(out, assign, weights)
    return out


def _res_violation_delta(
    loads: np.ndarray, rmax: np.ndarray, src: int, dest: int, w_u: np.ndarray
) -> float:
    before = (
        np.maximum(loads[src] - rmax, 0.0).sum()
        + np.maximum(loads[dest] - rmax, 0.0).sum()
    )
    after = (
        np.maximum(loads[src] - w_u - rmax, 0.0).sum()
        + np.maximum(loads[dest] + w_u - rmax, 0.0).sum()
    )
    return float(after - before)


def legacy_mr_constrained_fm(
    g: WGraph,
    weights: np.ndarray,
    assign: np.ndarray,
    k: int,
    cons: VectorConstraints,
    max_passes: int = 6,
    seed=None,
) -> np.ndarray:
    """Violation-lexicographic FM with vector resource deltas (frozen).

    Per pass each node moves at most once, moves never increase total
    violation, best state by ``(violation, cut)`` is kept.  Move selection
    is a per-step global scan: every unlocked boundary / over-cap node's
    best ``(dv, dc, dest)`` is recomputed fresh and the global minimum
    ``(dv, dc, u, dest)`` fires.
    """
    if max_passes < 1:
        raise PartitionError(f"max_passes must be >= 1, got {max_passes}")
    w = _check_weights(g, weights)
    a = check_assignment(g, assign, k)
    state = PartitionState(g, a, k)
    loads = _loads(w, state.assign, k)
    rmax = np.asarray(cons.rmax)
    rng = as_rng(seed)

    def bw_violation_delta(u: int, dest: int, conn: np.ndarray) -> float:
        src = int(state.assign[u])
        dv = 0.0
        for c in range(k):
            if c == src or c == dest or conn[c] == 0.0:
                continue
            dv += max(0.0, state.bw[src, c] - conn[c] - cons.bmax) - max(
                0.0, state.bw[src, c] - cons.bmax
            )
            dv += max(0.0, state.bw[dest, c] + conn[c] - cons.bmax) - max(
                0.0, state.bw[dest, c] - cons.bmax
            )
        old_sd = state.bw[src, dest]
        new_sd = old_sd - conn[dest] + conn[src]
        dv += max(0.0, new_sd - cons.bmax) - max(0.0, old_sd - cons.bmax)
        return float(dv)

    def total_violation() -> float:
        v = float(np.maximum(loads - rmax, 0.0).sum())
        v += float(np.triu(np.maximum(state.bw - cons.bmax, 0.0), k=1).sum())
        return v

    def best_move(u: int):
        src = int(state.assign[u])
        conn = state.connection_vector(u)
        dests = {int(c) for c in np.nonzero(conn > 0)[0] if int(c) != src}
        if np.any(loads[src] > rmax):
            dests.update(c for c in range(k) if c != src)
        best = None
        for dest in sorted(dests):
            dv = bw_violation_delta(u, dest, conn) + _res_violation_delta(
                loads, rmax, src, dest, w[u]
            )
            dc = float(conn[src] - conn[dest])
            key = (dv, dc, dest)
            if best is None or key < best:
                best = key
        return best

    best_assign = state.assign.copy()
    best_key = (total_violation(), state.cut)

    for _ in range(max_passes):
        locked = np.zeros(g.n, dtype=bool)
        start_key = (total_violation(), state.cut)
        for _step in range(g.n):
            seeds = state.boundary_nodes()
            over_parts = np.nonzero(np.any(loads > rmax, axis=1))[0]
            if over_parts.size:
                extra = np.nonzero(np.isin(state.assign, over_parts))[0]
                seeds = np.union1d(seeds, extra)
            seeds = seeds[~locked[seeds]]
            if seeds.size == 0:
                break
            rng.shuffle(seeds)
            chosen = None
            for u in seeds:
                mv = best_move(int(u))
                if mv is None:
                    continue
                key = (mv[0], mv[1], int(u), mv[2])
                if chosen is None or key < chosen:
                    chosen = key
            if chosen is None:
                break
            dv, dc, u, dest = chosen
            if dv > _EPS:
                break  # every move strictly worsens violation
            src = int(state.assign[u])
            state.move(u, dest)
            loads[src] -= w[u]
            loads[dest] += w[u]
            locked[u] = True
            key_now = (total_violation(), state.cut)
            if key_now < best_key:
                best_key = key_now
                best_assign = state.assign.copy()
        if best_key < start_key:
            state = PartitionState(g, best_assign, k)
            loads = _loads(w, state.assign, k)
        else:
            break
    return best_assign


def legacy_mr_greedy_initial(
    g: WGraph,
    weights: np.ndarray,
    k: int,
    cons: VectorConstraints,
    restarts: int = 10,
    seed=None,
) -> np.ndarray:
    """Vector-aware greedy growing with restarts (frozen).

    Includes the original leftover-placement rule: when no part fits, the
    node lands on the part with the largest min-component headroom, even
    if another part would take zero violation increase on the binding
    resource (the defect the seam-based version repairs).
    """
    if restarts < 1:
        raise PartitionError(f"restarts must be >= 1, got {restarts}")
    w = _check_weights(g, weights)
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
            headroom = (rmax - (loads + w[u])).min(axis=1)
            fits = np.nonzero(headroom >= 0)[0]
            dest = (
                int(fits[int(np.argmax(headroom[fits]))])
                if fits.size
                else int(np.argmax(headroom))
            )
            assign[u] = dest
            loads[dest] += w[u]
        assign = legacy_mr_constrained_fm(
            g, w, assign, k, cons, max_passes=4, seed=round_seeds[r]
        )
        m = evaluate_multires(g, w, assign, k, cons)
        key = (m.total_violation, m.bandwidth_violation, m.cut)
        if best_key is None or key < best_key:
            best_assign, best_key = assign, key
    assert best_assign is not None
    return best_assign


def legacy_mr_gp_partition(
    g: WGraph,
    weights: np.ndarray,
    k: int,
    cons: VectorConstraints,
    coarsen_to: int = 100,
    restarts: int = 10,
    max_cycles: int = 10,
    refine_passes: int = 6,
    seed=None,
    on_infeasible: str = "return",
) -> MultiResResult:
    """GP lifted to vector resources (frozen serial cyclic-retry loop)."""
    if on_infeasible not in ("return", "raise"):
        raise PartitionError(
            f"on_infeasible must be return/raise, got {on_infeasible!r}"
        )
    if k < 1 or k > g.n:
        raise PartitionError(f"bad k={k} for n={g.n}")
    w = _check_weights(g, weights)
    if w.shape[1] != cons.n_resources:
        raise PartitionError(
            f"weights have {w.shape[1]} resources, constraints {cons.n_resources}"
        )
    rmax = np.asarray(cons.rmax)
    with np.errstate(divide="ignore", invalid="ignore"):
        scalar_proxy = np.where(rmax > 0, w / rmax, 0.0).sum(axis=1)
    proxy_graph = g.with_node_weights(scalar_proxy + 1e-9)
    rng = as_rng(seed)

    sw = Stopwatch().start()
    best_assign, best_key = None, None
    cycles_used = 0
    for cycle in range(max_cycles):
        cycles_used = cycle + 1
        s_hier, s_init, s_ref = spawn_seeds(rng, 3)
        hier = build_hierarchy(
            proxy_graph, coarsen_to=max(coarsen_to, 2 * k), seed=s_hier
        )
        # aggregate the weight matrix down the hierarchy
        level_weights = [w]
        for lvl in hier.levels[1:]:
            prev = level_weights[-1]
            agg = np.zeros((lvl.graph.n, w.shape[1]))
            np.add.at(agg, lvl.node_map, prev)
            level_weights.append(agg)

        assign = legacy_mr_greedy_initial(
            hier.coarsest, level_weights[-1], k, cons,
            restarts=restarts, seed=s_init,
        )
        ref_seeds = spawn_seeds(s_ref, hier.depth)
        for level in range(hier.depth - 1, 0, -1):
            assign = hier.project(assign, level)
            assign = legacy_mr_constrained_fm(
                hier.levels[level - 1].graph,
                level_weights[level - 1],
                assign, k, cons,
                max_passes=refine_passes, seed=ref_seeds[level - 1],
            )
        if hier.depth == 1:
            assign = legacy_mr_constrained_fm(
                g, w, assign, k, cons,
                max_passes=refine_passes, seed=ref_seeds[0],
            )
        m = evaluate_multires(g, w, assign, k, cons)
        key = (m.total_violation, m.bandwidth_violation, m.cut)
        if best_key is None or key < best_key:
            best_assign, best_key = assign, key
        if m.feasible:
            break
    sw.stop()

    assert best_assign is not None
    metrics = evaluate_multires(g, w, best_assign, k, cons)
    result = MultiResResult(
        assign=best_assign,
        k=k,
        metrics=metrics,
        constraints=cons,
        runtime=sw.elapsed,
        info={"cycles": cycles_used},
    )
    if not metrics.feasible and on_infeasible == "raise":
        raise InfeasibleError(
            f"no vector-feasible partitioning within {max_cycles} cycles "
            f"(violation {metrics.total_violation:g})",
            best=result,
        )
    return result
