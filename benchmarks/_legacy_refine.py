"""Frozen pre-refactor refinement implementations (reference / benchmark only).

Verbatim snapshot of ``repro.partition.kway_refine`` and ``repro.partition.fm``
as of the commit preceding the vectorized :mod:`repro.partition.refine_state`
engine.  ``benchmarks/bench_refine_engine.py`` times these against the new
engine, and ``tests/test_refine_differential.py``'s pinned corpus values were
produced by them.  :class:`PartitionState`, the per-node state they run on,
lives here too (formerly ``repro.partition.base.PartitionState``, moved
verbatim); ``_legacy_multires.py`` imports it from here.  The last
section freezes the vectorized engine's single-node evaluator paths as
they were before their scalar-cost rewrite (the reference of
``tests/test_refine_scalar_paths.py``).  Do not "fix" or optimise this
module: its value is that it does not change.
"""

from __future__ import annotations

import heapq
from itertools import count

import numpy as np

from repro.graph.wgraph import WGraph
from repro.partition.metrics import (
    ConstraintSpec,
    PartitionMetrics,
    bandwidth_matrix,
    check_assignment,
    cut_value,
    evaluate_partition,
    part_weights,
)
from repro.util.errors import PartitionError
from repro.util.rng import as_rng

__all__ = [
    "PartitionState",
    "legacy_greedy_kway_refine",
    "legacy_rebalance_pass",
    "legacy_constrained_kway_fm",
    "legacy_fm_pass_bisection",
    "legacy_fm_refine_bisection",
    "legacy_node_entries",
    "legacy_node_move",
    "legacy_move_deltas",
    "legacy_select_escape",
    "legacy_escape_move",
    "legacy_dense_apply_move",
]

_EPS = 1e-12


class PartitionState:
    """Mutable k-way assignment with incrementally-maintained metrics."""

    def __init__(self, g: WGraph, assign: np.ndarray, k: int) -> None:
        self.g = g
        self.k = int(k)
        self.assign = check_assignment(g, assign, k).copy()
        self.part_weight = part_weights(g, self.assign, k)
        self.bw = bandwidth_matrix(g, self.assign, k)

    # ------------------------------------------------------------------ #
    @property
    def cut(self) -> float:
        return float(np.triu(self.bw, k=1).sum())

    def copy(self) -> "PartitionState":
        out = object.__new__(PartitionState)
        out.g = self.g
        out.k = self.k
        out.assign = self.assign.copy()
        out.part_weight = self.part_weight.copy()
        out.bw = self.bw.copy()
        return out

    def connection_vector(self, u: int) -> np.ndarray:
        """Weight of *u*'s edges into each part, shape ``(k,)``."""
        conn = np.zeros(self.k, dtype=np.float64)
        nbrs, ws = self.g.neighbor_weights(u)
        np.add.at(conn, self.assign[nbrs], ws)
        return conn

    def gain(self, u: int, dest: int) -> float:
        """Cut reduction if *u* moved to part *dest* (negative = worse)."""
        conn = self.connection_vector(u)
        src = self.assign[u]
        if dest == src:
            return 0.0
        return float(conn[dest] - conn[src])

    def move(self, u: int, dest: int) -> None:
        """Move node *u* to part *dest*, updating all tracked quantities."""
        src = int(self.assign[u])
        if not (0 <= dest < self.k):
            raise PartitionError(f"destination part {dest} out of range")
        if dest == src:
            return
        w_u = self.g.node_weights[u]
        self.part_weight[src] -= w_u
        self.part_weight[dest] += w_u
        nbrs, ws = self.g.neighbor_weights(u)
        parts = self.assign[nbrs]
        for c in range(self.k):
            w_c = float(ws[parts == c].sum())
            if w_c == 0.0:
                continue
            if c != src:
                self.bw[src, c] -= w_c
                self.bw[c, src] -= w_c
            if c != dest:
                self.bw[dest, c] += w_c
                self.bw[c, dest] += w_c
        self.assign[u] = dest

    def boundary_nodes(self) -> np.ndarray:
        """Nodes with at least one neighbour in a different part."""
        eu, ev, _ = self.g.edge_array
        crossing = self.assign[eu] != self.assign[ev]
        return np.unique(np.concatenate([eu[crossing], ev[crossing]]))

    def metrics(self, constraints: ConstraintSpec | None = None) -> PartitionMetrics:
        return evaluate_partition(self.g, self.assign, self.k, constraints)

    def recompute(self) -> None:
        """Rebuild tracked quantities from scratch (used by tests/debugging)."""
        self.part_weight = part_weights(self.g, self.assign, self.k)
        self.bw = bandwidth_matrix(self.g, self.assign, self.k)

    def __repr__(self) -> str:
        return (
            f"PartitionState(n={self.g.n}, k={self.k}, cut={self.cut:g}, "
            f"max_res={self.part_weight.max() if self.k else 0:g})"
        )


def legacy_rebalance_pass(
    g: WGraph,
    assign: np.ndarray,
    k: int,
    max_part_weight: float,
    seed=None,
) -> np.ndarray:
    """Explicit balance phase (kmetis style).

    While any part exceeds *max_part_weight*, evict the node whose move
    damages the cut least into the lightest part that can take it.  Used by
    the METIS-like baseline between projection and cut refinement; gives up
    (returning the best effort) when no move can reduce the overflow —
    e.g. single nodes heavier than the cap.
    """
    a = check_assignment(g, assign, k)
    state = PartitionState(g, a, k)
    rng = as_rng(seed)
    counts = np.bincount(state.assign, minlength=k)
    for _ in range(4 * g.n):  # generous bound; each move reduces overflow
        over = np.nonzero(
            (state.part_weight > max_part_weight) & (counts > 1)
        )[0]  # single-member parts are never emptied (kmetis rule)
        if over.size == 0:
            break
        src = int(over[int(np.argmax(state.part_weight[over]))])
        members = np.nonzero(state.assign == src)[0]
        rng.shuffle(members)
        best = None  # (cut_damage, -weight, u, dest)
        for u in members:
            u = int(u)
            w_u = float(g.node_weights[u])
            conn = state.connection_vector(u)
            for dest in range(k):
                if dest == src:
                    continue
                if state.part_weight[dest] + w_u > max_part_weight:
                    continue
                damage = float(conn[src] - conn[dest])
                key = (damage, -w_u, u, dest)
                if best is None or key < best:
                    best = key
        if best is None:
            break  # nothing fits anywhere: give up gracefully
        _, _, u, dest = best
        state.move(u, dest)
        counts[src] -= 1
        counts[dest] += 1
    return state.assign


def legacy_greedy_kway_refine(
    g: WGraph,
    assign: np.ndarray,
    k: int,
    max_part_weight: float = float("inf"),
    max_passes: int = 8,
    seed=None,
) -> np.ndarray:
    """Cut-driven greedy boundary refinement (METIS style).

    Moves a boundary node to the *adjacent* part with the highest positive
    gain, provided the destination stays under *max_part_weight*.  Among
    equal-gain destinations the one improving balance wins.  Passes repeat
    until no move fires.
    """
    if max_passes < 1:
        raise PartitionError(f"max_passes must be >= 1, got {max_passes}")
    a = check_assignment(g, assign, k)
    state = PartitionState(g, a, k)
    rng = as_rng(seed)
    part_count = np.bincount(state.assign, minlength=k)

    for _ in range(max_passes):
        boundary = state.boundary_nodes()
        if boundary.size == 0:
            break
        rng.shuffle(boundary)
        moved = 0
        for u in boundary:
            u = int(u)
            src = int(state.assign[u])
            if part_count[src] <= 1:
                continue  # kmetis rule: never empty a part
            conn = state.connection_vector(u)
            w_u = float(g.node_weights[u])
            best_dest, best_gain = -1, _EPS
            for dest in np.nonzero(conn > 0)[0]:
                dest = int(dest)
                if dest == src:
                    continue
                if state.part_weight[dest] + w_u > max_part_weight:
                    continue
                gain = float(conn[dest] - conn[src])
                if gain > best_gain + _EPS:
                    best_dest, best_gain = dest, gain
                elif (
                    best_dest >= 0
                    and abs(gain - best_gain) <= _EPS
                    and state.part_weight[dest] < state.part_weight[best_dest]
                ):
                    best_dest = dest
            if best_dest >= 0:
                state.move(u, best_dest)
                part_count[src] -= 1
                part_count[best_dest] += 1
                moved += 1
        if moved == 0:
            break
    return state.assign


def move_delta(
    state: PartitionState,
    u: int,
    dest: int,
    constraints: ConstraintSpec,
    conn: np.ndarray | None = None,
) -> tuple[float, float]:
    """Effect of moving *u* to *dest*: ``(violation_delta, cut_delta)``.

    Negative values are improvements.  Computed incrementally from the
    state's bandwidth matrix and part weights in O(k).
    """
    src = int(state.assign[u])
    if dest == src:
        return (0.0, 0.0)
    if conn is None:
        conn = state.connection_vector(u)
    w_u = float(state.g.node_weights[u])
    rmax, bmax = constraints.rmax, constraints.bmax

    dv = 0.0
    if np.isfinite(rmax):
        w_src, w_dest = state.part_weight[src], state.part_weight[dest]
        dv += max(0.0, w_src - w_u - rmax) - max(0.0, w_src - rmax)
        dv += max(0.0, w_dest + w_u - rmax) - max(0.0, w_dest - rmax)

    if np.isfinite(bmax):
        for c in range(state.k):
            if c == src or c == dest or conn[c] == 0.0:
                continue
            old_sc = state.bw[src, c]
            old_dc = state.bw[dest, c]
            dv += max(0.0, old_sc - conn[c] - bmax) - max(0.0, old_sc - bmax)
            dv += max(0.0, old_dc + conn[c] - bmax) - max(0.0, old_dc - bmax)
        old_sd = state.bw[src, dest]
        new_sd = old_sd - conn[dest] + conn[src]
        dv += max(0.0, new_sd - bmax) - max(0.0, old_sd - bmax)

    cut_delta = float(conn[src] - conn[dest])
    return (float(dv), cut_delta)


def _best_move(
    state: PartitionState, u: int, constraints: ConstraintSpec
) -> tuple[float, float, int] | None:
    """Best ``(violation_delta, cut_delta, dest)`` for node *u*, or None."""
    src = int(state.assign[u])
    conn = state.connection_vector(u)
    dests = {int(c) for c in np.nonzero(conn > 0)[0] if int(c) != src}
    if (
        np.isfinite(constraints.rmax)
        and state.part_weight[src] > constraints.rmax
    ):
        # over-full part: any escape destination is worth considering
        dests.update(c for c in range(state.k) if c != src)
    best = None
    for dest in sorted(dests):
        dv, dc = move_delta(state, u, dest, constraints, conn=conn)
        key = (dv, dc, dest)
        if best is None or key < best:
            best = key
    return best


def legacy_constrained_kway_fm(
    g: WGraph,
    assign: np.ndarray,
    k: int,
    constraints: ConstraintSpec,
    max_passes: int = 6,
    seed=None,
    abort_after: int | None = None,
) -> np.ndarray:
    """Constraint-driven FM k-way refinement (the GP local search).

    Per pass, nodes move at most once, ordered by a lazy-validation heap on
    ``(violation_delta, cut_delta)``.  Moves that would *increase* violation
    are never taken; cut-worsening moves with non-increasing violation are
    taken FM-style (best state by ``(total violation, cut)`` is restored at
    the end).  *abort_after* bounds consecutive non-improving moves per pass
    (defaults to ``max(50, n // 10)``), the standard early-exit that keeps
    passes cheap on large graphs.
    """
    if max_passes < 1:
        raise PartitionError(f"max_passes must be >= 1, got {max_passes}")
    a = check_assignment(g, assign, k)
    state = PartitionState(g, a, k)
    rng = as_rng(seed)
    if abort_after is None:
        abort_after = max(50, g.n // 10)

    def total_violation() -> float:
        v = 0.0
        if np.isfinite(constraints.rmax):
            v += float(np.maximum(state.part_weight - constraints.rmax, 0.0).sum())
        if np.isfinite(constraints.bmax):
            v += float(
                np.triu(np.maximum(state.bw - constraints.bmax, 0.0), k=1).sum()
            )
        return v

    best_assign = state.assign.copy()
    best_key = (total_violation(), state.cut)

    tick = count()
    for _ in range(max_passes):
        locked = np.zeros(g.n, dtype=bool)
        start_key = (total_violation(), state.cut)

        heap: list[tuple[float, float, int, int, int]] = []

        def push(u: int) -> None:
            mv = _best_move(state, u, constraints)
            if mv is not None:
                dv, dc, dest = mv
                heapq.heappush(heap, (dv, dc, next(tick), u, dest))

        seeds = state.boundary_nodes()
        if np.isfinite(constraints.rmax):
            over = np.nonzero(state.part_weight > constraints.rmax)[0]
            if over.size:
                extra = np.nonzero(np.isin(state.assign, over))[0]
                seeds = np.union1d(seeds, extra)
        seeds = seeds.astype(np.int64)
        rng.shuffle(seeds)
        for u in seeds:
            push(int(u))

        stagnant = 0
        while heap:
            dv, dc, _, u, dest = heapq.heappop(heap)
            if locked[u]:
                continue
            fresh = _best_move(state, u, constraints)
            if fresh is None:
                continue
            if (fresh[0], fresh[1], fresh[2]) != (dv, dc, dest):
                heapq.heappush(heap, (fresh[0], fresh[1], next(tick), u, fresh[2]))
                continue
            if dv > _EPS:
                break  # every remaining move strictly worsens violation
            if dv > -_EPS and dc > _EPS and stagnant >= abort_after:
                break
            state.move(u, dest)
            locked[u] = True
            key_now = (total_violation(), state.cut)
            if key_now < best_key:
                best_key = key_now
                best_assign = state.assign.copy()
                stagnant = 0
            else:
                stagnant += 1
            if stagnant > abort_after:
                break
            for v in g.neighbors(u):
                v = int(v)
                if not locked[v]:
                    push(v)

        if best_key < start_key:
            # FM discipline: next pass starts from the best prefix seen
            state = PartitionState(g, best_assign, k)
        else:
            break  # the pass found nothing better anywhere
    return best_assign


def default_side_caps(g: WGraph) -> tuple[float, float]:
    """Default side-weight caps: half the total plus one max-node of slack."""
    slack = float(g.node_weights.max()) if g.n else 0.0
    cap = g.total_node_weight / 2.0 + slack
    return (cap, cap)


def _side_limits(
    g: WGraph, max_weight: tuple[float, float] | None
) -> tuple[float, float]:
    if max_weight is None:
        return default_side_caps(g)
    lo, hi = max_weight
    if lo < 0 or hi < 0:
        raise PartitionError(f"side weight limits must be >= 0, got {max_weight}")
    return (float(lo), float(hi))


def _cap_violation(part_weight: np.ndarray, limits: tuple[float, float]) -> float:
    return max(0.0, part_weight[0] - limits[0]) + max(
        0.0, part_weight[1] - limits[1]
    )


def legacy_fm_pass_bisection(
    g: WGraph,
    assign: np.ndarray,
    max_weight: tuple[float, float] | None = None,
) -> tuple[np.ndarray, float]:
    """One FM pass over a bisection.

    Parameters
    ----------
    g, assign:
        Graph and 0/1 assignment.
    max_weight:
        ``(limit_side0, limit_side1)`` caps on the node-weight sum of each
        side; ``None`` uses :func:`default_side_caps`.  Moves into a side
        that would exceed its cap are skipped, except that an over-cap side
        may always shed weight.

    Returns
    -------
    (new_assign, new_cut):
        The prefix with the lexicographically best ``(cap violation, cut)``,
        never worse than the input under that order.
    """
    a = check_assignment(g, assign, 2)
    limits = _side_limits(g, max_weight)
    state = PartitionState(g, a, 2)

    heap: list[tuple[float, int, int]] = []  # (-gain, tiebreak, node)
    for u in range(g.n):
        heap.append((-state.gain(u, 1 - int(state.assign[u])), u, u))
    heapq.heapify(heap)
    locked = np.zeros(g.n, dtype=bool)

    best_assign = state.assign.copy()
    best_key = (_cap_violation(state.part_weight, limits), state.cut)
    current_cut = state.cut
    moved = 0

    while heap:
        neg_gain, _, u = heapq.heappop(heap)
        if locked[u]:
            continue
        src = int(state.assign[u])
        dest = 1 - src
        true_gain = state.gain(u, dest)
        if -neg_gain != true_gain:  # stale entry: reinsert with fresh gain
            heapq.heappush(heap, (-true_gain, u + g.n * (moved + 1), u))
            continue
        w_u = float(g.node_weights[u])
        dest_ok = state.part_weight[dest] + w_u <= limits[dest]
        src_over = state.part_weight[src] > limits[src]
        if not dest_ok and not src_over:
            locked[u] = True  # cannot legally move this pass
            continue
        state.move(u, dest)
        locked[u] = True
        moved += 1
        current_cut -= true_gain
        key = (_cap_violation(state.part_weight, limits), current_cut)
        if key < best_key:
            best_key = key
            best_assign = state.assign.copy()
        # refresh neighbours' gains lazily
        for v in state.g.neighbors(u):
            v = int(v)
            if not locked[v]:
                gv = state.gain(v, 1 - int(state.assign[v]))
                heapq.heappush(heap, (-gv, v + g.n * (moved + 1), v))

    return best_assign, best_key[1]


def legacy_fm_refine_bisection(
    g: WGraph,
    assign: np.ndarray,
    max_weight: tuple[float, float] | None = None,
    max_passes: int = 10,
) -> np.ndarray:
    """Run FM passes until no pass improves ``(cap violation, cut)``.

    "The best bi-section observed during an iteration is used as input for
    the next iteration" (Section II.A.2).
    """
    if max_passes < 1:
        raise PartitionError(f"max_passes must be >= 1, got {max_passes}")
    a = check_assignment(g, assign, 2).copy()
    limits = _side_limits(g, max_weight)
    key = (
        _cap_violation(part_weights(g, a, 2), limits),
        cut_value(g, a),
    )
    for _ in range(max_passes):
        new_a, _ = legacy_fm_pass_bisection(g, a, max_weight=limits)
        new_key = (
            _cap_violation(part_weights(g, new_a, 2), limits),
            cut_value(g, new_a),
        )
        if new_key >= key:
            break
        a, key = new_a, new_key
    return a


# --------------------------------------------------------------------- #
# The engine's single-node paths before their scalar-cost rewrite
# --------------------------------------------------------------------- #
# Verbatim snapshots of ``RefinementState._node_move`` (with the store's
# ``node_entries``, ``_node_bandwidth_deltas`` and both states'
# ``_node_resource_deltas``), ``RefinementState._escape_move`` (with
# ``move_deltas``' resource call on index arrays and the tuple-min
# selection) and ``DenseConnStore.apply_move``, as of the commit that
# preceded the rewrite, made functions of the state or store they ran
# on.  ``tests/test_refine_scalar_paths.py`` holds the rewritten paths
# to them bit for bit under fractional weights.


def legacy_node_entries(store, u: int) -> list[tuple[int, float]]:
    """``node_entries`` of either connectivity store."""
    if store.format == "dense":
        col = store.conn[:, u]
        nz = (col > 0.0).nonzero()[0]
        return list(zip(nz.tolist(), col[nz].tolist()))
    lo = int(store.indptr[u])
    hi = lo + int(store.nnz[u])
    live = zip(store.parts[lo:hi].tolist(), store.weights[lo:hi].tolist())
    return sorted(e for e in live if e[1] > 0.0)


def legacy_select_best_move(dv, dc, dests):
    """Min ``(dv[i], dc[i], dests[i])`` over Python lists."""
    return min(zip(dv, dc, dests), default=None)


def _legacy_node_bandwidth_deltas(view, src, cu_src, dests, cus, bmax):
    bsrc = view.bw_row(src)
    shed = []
    for c, x in zip(dests, cus):
        t, o = bsrc[c] - x - bmax, bsrc[c] - bmax
        shed.append((t if t > 0.0 else 0.0) - (o if o > 0.0 else 0.0))
    total = 0.0
    for v in shed:
        total += v
    out = []
    for i, d in enumerate(dests):
        bd = view.bw_row(d)
        add = 0.0
        for c, x in zip(dests, cus):
            if c != d:
                t, o = bd[c] + x - bmax, bd[c] - bmax
                add += (t if t > 0.0 else 0.0) - (o if o > 0.0 else 0.0)
        t, o = bsrc[d] - cus[i] + cu_src - bmax, bsrc[d] - bmax
        sd = (t if t > 0.0 else 0.0) - (o if o > 0.0 else 0.0)
        out.append(((total - shed[i]) + add) + sd)
    return out


def _legacy_node_resource_deltas(state, u, src, dests, constraints, view):
    if hasattr(state, "loads"):  # the vector-resource state's hook
        return state._resource_deltas(
            np.array([u]), np.array([src]),
            np.zeros(len(dests), dtype=np.int64), np.array(dests),
            constraints,
        ).tolist()
    rmax = constraints.rmax
    if not np.isfinite(rmax):
        return None
    pw = view.pw
    w_u = float(state.g.node_weights[u])
    shed = max(pw[src] - w_u - rmax, 0.0) - max(pw[src] - rmax, 0.0)
    out = []
    for d in dests:
        t, o = pw[d] + w_u - rmax, pw[d] - rmax
        out.append(shed + ((t if t > 0.0 else 0.0) - (o if o > 0.0 else 0.0)))
    return out


def legacy_node_move(state, u: int, src: int, constraints, view):
    """``RefinementState._node_move``: best move among the parts *u*
    touches, term lists built separately, then the tuple min."""
    cu_src, dests, cus = 0.0, [], []
    for p, x in legacy_node_entries(state._store, u):
        if p == src:
            cu_src = x
        else:
            dests.append(p)
            cus.append(x)
    if not dests:
        return None
    dv = _legacy_node_resource_deltas(state, u, src, dests, constraints, view)
    if dv is None:
        dv = [0.0] * len(dests)
    bmax = constraints.bmax
    if np.isfinite(bmax):
        bw = _legacy_node_bandwidth_deltas(view, src, cu_src, dests, cus, bmax)
        dv = [a + b for a, b in zip(dv, bw)]
    return legacy_select_best_move(dv, [cu_src - x for x in cus], dests)


def legacy_move_deltas(state, u: int, constraints):
    """``RefinementState.move_deltas`` with its index-array resource call."""
    src = int(state.assign[u])
    cu = state._store.col(u)
    k = state.k
    res = state._resource_deltas(
        np.array([u]), np.array([src]), np.zeros(k, dtype=np.int64),
        np.arange(k), constraints,
    )
    dv = np.zeros(k) if res is None else res
    bmax = constraints.bmax
    if np.isfinite(bmax):
        relu_bw = state._relu_bw(bmax)
        bws = state.bw[src]
        relu_src = relu_bw[src]
        t = bws - cu
        shed_c = np.maximum(t - bmax, 0.0) - relu_src
        shed_c[src] = 0.0
        add = np.maximum(state.bw + cu[None, :] - bmax, 0.0) - relu_bw
        add[:, src] = 0.0
        add_d = add.sum(axis=1) - np.diagonal(add)
        sd = np.maximum(t + cu[src] - bmax, 0.0) - relu_src
        dv += (shed_c.sum() - shed_c) + add_d + sd
    dc = cu[src] - cu
    dv[src] = 0.0
    dc[src] = 0.0
    return dv, dc


def legacy_select_escape(dv, dc, src: int):
    """The escape selection: tuple min over every part but *src*."""
    dests = [d for d in range(dv.size) if d != src]
    return legacy_select_best_move(dv[dests].tolist(), dc[dests].tolist(), dests)


def legacy_escape_move(state, u: int, src: int, constraints):
    """``RefinementState._escape_move``."""
    dv, dc = legacy_move_deltas(state, u, constraints)
    return legacy_select_escape(dv, dc, src)


def legacy_dense_apply_move(store, src: int, dest: int, nbrs, ws) -> None:
    """``DenseConnStore.apply_move``: four fancy-index updates."""
    store.conn[src, nbrs] -= ws
    store.conn[dest, nbrs] += ws
    store.ncnt[src, nbrs] -= 1
    store.ncnt[dest, nbrs] += 1
