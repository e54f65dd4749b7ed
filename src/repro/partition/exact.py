"""Exact k-way partitioning by branch & bound (small graphs only).

The paper's introduction notes the mapping problem "is possible to solve in
an exact manner via dynamic programming approaches ... not the case when
practical graphs are under examination".  This module supplies that exact
reference for instances up to ~20 nodes: it certifies the heuristics'
optimality gap (benchmark X5) and the *feasibility* of the paper-experiment
constraint sets.

Search order and pruning:

* nodes are assigned in descending weight order (tight resource prunes early),
* part indices are symmetry-broken (node *i* may open at most one new part),
* partial edge cut lower-bounds the objective,
* with ``require_all_parts`` the branch is cut when the remaining nodes
  cannot populate the still-empty parts,
* resource/bandwidth infeasible prefixes are cut immediately when the
  constraints are hard (``enforce=True``).
"""

from __future__ import annotations

import numpy as np

from repro.graph.wgraph import WGraph
from repro.partition.base import PartitionResult
from repro.partition.metrics import ConstraintSpec, check_k, evaluate_partition
import repro.obs as _obs
from repro.util.errors import InfeasibleError, PartitionError

__all__ = ["exact_partition", "exact_min_cut", "feasibility_certificate"]

_MAX_NODES = 20


def _search(
    g: WGraph,
    k: int,
    constraints: ConstraintSpec,
    enforce: bool,
    order: np.ndarray,
    require_all_parts: bool,
) -> tuple[np.ndarray | None, float]:
    n = g.n
    nw = g.node_weights
    bmax, rmax = constraints.bmax, constraints.rmax
    adj: list[list[tuple[int, float]]] = [[] for _ in range(n)]
    for u, v, w in g.edges():
        adj[u].append((v, w))
        adj[v].append((u, w))

    assign = np.full(n, -1, dtype=np.int64)
    part_weight = np.zeros(k)
    bw = np.zeros((k, k))
    best_assign: np.ndarray | None = None
    best_cut = float("inf")

    def rec(i: int, cut: float, used: int) -> None:
        nonlocal best_assign, best_cut
        if cut >= best_cut:
            return
        if require_all_parts and (n - i) < (k - used):
            return  # too few nodes left to populate every part
        if i == n:
            if require_all_parts and used < k:
                return
            best_cut = cut
            best_assign = assign.copy()
            return
        u = int(order[i])
        w_u = float(nw[u])
        limit = min(used + 1, k)  # symmetry breaking
        for c in range(limit):
            if enforce and part_weight[c] + w_u > rmax:
                continue
            delta = 0.0
            pairs: list[tuple[int, float]] = []
            ok = True
            for v, w in adj[u]:
                cv = assign[v]
                if cv >= 0 and cv != c:
                    delta += w
                    pairs.append((int(cv), w))
                    if enforce and bw[c, cv] + w > bmax:
                        ok = False
                        break
            if not ok:
                continue
            assign[u] = c
            part_weight[c] += w_u
            feasible_pairs = True
            for cv, w in pairs:
                bw[c, cv] += w
                bw[cv, c] += w
                if enforce and bw[c, cv] > bmax:
                    feasible_pairs = False
            if feasible_pairs or not enforce:
                rec(i + 1, cut + delta, max(used, c + 1))
            for cv, w in pairs:
                bw[c, cv] -= w
                bw[cv, c] -= w
            part_weight[c] -= w_u
            assign[u] = -1

    rec(0, 0.0, 0)
    return best_assign, best_cut


def exact_partition(
    g: WGraph,
    k: int,
    constraints: ConstraintSpec | None = None,
    enforce: bool = True,
    require_all_parts: bool = False,
) -> PartitionResult:
    """Minimum-cut k-way partition by exhaustive branch & bound.

    Parameters
    ----------
    enforce:
        When True (default) the constraints prune the search (hard
        constraints); when False they are only audited on the result.
    require_all_parts:
        When True, solutions must use all *k* parts.  Note that the
        *unconstrained* minimum cut without this flag is trivially 0 (put
        every node in one part); :func:`exact_min_cut` therefore forces it.

    Raises
    ------
    PartitionError
        If the graph exceeds the exact-search size bound (20 nodes).
    InfeasibleError
        If ``enforce`` and no assignment satisfies the constraints.
    """
    constraints = constraints or ConstraintSpec()
    check_k(k, g.n)
    if g.n > _MAX_NODES:
        raise PartitionError(
            f"exact search is limited to {_MAX_NODES} nodes, got {g.n}"
        )
    with _obs.timed_span("exact", nodes=g.n, k=k) as sw:
        order = np.argsort(-g.node_weights, kind="stable").astype(np.int64)
        assign, _ = _search(
            g, k, constraints, enforce, order, require_all_parts
        )
    if assign is None:
        raise InfeasibleError(
            f"no assignment satisfies Bmax={constraints.bmax}, "
            f"Rmax={constraints.rmax} for k={k} (proof by exhaustion)"
        )
    return PartitionResult(
        assign=assign,
        k=k,
        metrics=evaluate_partition(g, assign, k, constraints),
        algorithm="exact",
        runtime=sw.elapsed,
        constraints=constraints,
    )


def exact_min_cut(g: WGraph, k: int) -> float:
    """Unconstrained minimum k-way cut with all *k* parts non-empty."""
    res = exact_partition(
        g, k, ConstraintSpec(), enforce=False, require_all_parts=True
    )
    return res.metrics.cut


def feasibility_certificate(
    g: WGraph, k: int, constraints: ConstraintSpec
) -> np.ndarray | None:
    """A feasible assignment if one exists, else ``None`` (exhaustive).

    Feasibility allows empty parts: a mapping that fits on fewer than *k*
    FPGAs also fits on *k*.
    """
    try:
        res = exact_partition(g, k, constraints, enforce=True)
    except InfeasibleError:
        return None
    return res.assign
