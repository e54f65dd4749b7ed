"""METIS-like unconstrained Multi-Level K-Way Partitioning (baseline).

This reimplements the *scheme* of METIS 5.1 (kmetis) that the paper compares
against — no bindings exist offline, and the paper's claims about METIS are
structural, not numeric (see DESIGN.md, Substitutions):

1. **Coarsening** by heavy-edge matching until ``max(coarsen_to, 4k)`` nodes.
2. **Initial partitioning** by recursive bisection on the coarsest graph:
   greedy graph growing to the target weight split, then FM refinement.
3. **Un-coarsening** with greedy cut-driven k-way boundary refinement under a
   node-weight balance cap (METIS's default load-imbalance tolerance 1.03).

The baseline minimises *global* edge cut subject only to *balance* — it is
deliberately oblivious to the paper's pairwise-bandwidth and absolute
resource caps, which is precisely the behaviour the paper's experiments
exhibit ("METIS always partitions, regardless of said constraints").
"""

from __future__ import annotations

import numpy as np

import repro.obs as _obs
from repro.graph.wgraph import WGraph
from repro.partition.base import PartitionResult
from repro.partition.coarsen import build_hierarchy
from repro.partition.flow_refine import check_refine_mode, run_flow_refine
from repro.partition.fm import fm_refine_bisection
from repro.partition.kway_refine import greedy_kway_refine, rebalance_pass
from repro.partition.metrics import ConstraintSpec, evaluate_partition
from repro.partition.refine_state import RefinementState
from repro.util.errors import PartitionError
from repro.util.rng import as_rng, spawn_seeds

__all__ = ["mlkp_partition", "recursive_bisection"]

#: METIS's default load-imbalance tolerance for k-way (ufactor=30 -> 1.03).
DEFAULT_BALANCE = 1.03


def _grow_bisection(
    g: WGraph, target0: float, rng: np.random.Generator
) -> np.ndarray:
    """Greedy graph growing: BFS-grow side 0 from a random node until its
    weight reaches *target0*; strongest-connection-first frontier."""
    assign = np.ones(g.n, dtype=np.int64)
    start = int(rng.integers(0, g.n))
    assign[start] = 0
    weight = float(g.node_weights[start])
    frontier: dict[int, float] = {}
    for v, w in zip(*g.neighbor_weights(start)):
        frontier[int(v)] = frontier.get(int(v), 0.0) + float(w)
    while weight < target0 and frontier:
        u = min(frontier, key=lambda x: (-frontier[x], x))
        del frontier[u]
        if assign[u] == 0:
            continue
        assign[u] = 0
        weight += float(g.node_weights[u])
        for v, w in zip(*g.neighbor_weights(u)):
            v = int(v)
            if assign[v] == 1:
                frontier[v] = frontier.get(v, 0.0) + float(w)
    # disconnected remainder: top up side 0 with arbitrary side-1 nodes
    if weight < target0:
        for u in np.nonzero(assign == 1)[0]:
            if weight >= target0:
                break
            assign[int(u)] = 0
            weight += float(g.node_weights[int(u)])
    return assign


def recursive_bisection(
    g: WGraph,
    k: int,
    seed=None,
    balance: float = DEFAULT_BALANCE,
    trials: int = 4,
) -> np.ndarray:
    """Recursive bisection into *k* weight-proportional parts.

    Each bisection runs *trials* greedy-growing starts refined with FM
    (balance-capped) and keeps the smallest cut — the strategy kmetis uses
    for its coarsest-level initial partitioning.
    """
    if k < 1:
        raise PartitionError(f"k must be >= 1, got {k}")
    if k > g.n:
        raise PartitionError(f"k={k} exceeds node count {g.n}")
    rng = as_rng(seed)
    assign = np.zeros(g.n, dtype=np.int64)

    def ensure_counts(sub: WGraph, a: np.ndarray, k0: int, k1: int) -> np.ndarray:
        """Each side must carry enough nodes for its sub-parts; move the
        lightest nodes across when a weight-driven split starves a side."""
        a = a.copy()
        for side, need in ((0, k0), (1, k1)):
            other = 1 - side
            while int((a == side).sum()) < need:
                donors = np.nonzero(a == other)[0]
                u = int(donors[int(np.argmin(sub.node_weights[donors]))])
                a[u] = side
        return a

    def bisect(nodes: np.ndarray, k_sub: int, first_label: int) -> None:
        if k_sub == 1:
            assign[nodes] = first_label
            return
        sub, idx = g.subgraph(nodes)
        k0 = k_sub // 2
        k1 = k_sub - k0
        frac0 = k0 / k_sub
        target0 = frac0 * sub.total_node_weight
        cap0 = balance * target0
        cap1 = balance * (sub.total_node_weight - target0)
        best = None
        for _ in range(max(1, trials)):
            a = _grow_bisection(sub, target0, rng)
            a = fm_refine_bisection(sub, a, max_weight=(cap0, cap1))
            a = ensure_counts(sub, a, k0, k1)
            m = evaluate_partition(sub, a, 2)
            if best is None or m.cut < best[1]:
                best = (a, m.cut)
        a = best[0]
        bisect(idx[a == 0], k0, first_label)
        bisect(idx[a == 1], k1, first_label + k0)

    bisect(np.arange(g.n, dtype=np.int64), k, 0)
    return assign


def mlkp_partition(
    g: WGraph,
    k: int,
    seed=None,
    coarsen_to: int | None = None,
    balance: float = DEFAULT_BALANCE,
    refine_passes: int = 8,
    constraints: ConstraintSpec | None = None,
    refine: str = "fm",
    conn_format: str = "auto",
) -> PartitionResult:
    """Partition *g* into *k* parts, METIS style.

    *constraints* (optional) are **not enforced** — they are only used to
    evaluate the result's feasibility, mirroring how the paper audits the
    METIS output against ``Bmax``/``Rmax`` after the fact.

    ``refine="fm+flow"`` (``"fm"``, the native pipeline, is the default)
    appends a guarded corridor-flow stage
    (:mod:`repro.partition.flow_refine`) after un-coarsening, run under
    the baseline's *own* objective — a balance cap of
    ``balance · total / k`` as the resource constraint — so the stage
    polishes the cut without abandoning kmetis's balance contract.

    *conn_format* selects the engine's connectivity representation
    (``"auto"``/``"dense"``/``"sparse"``, see
    :mod:`repro.partition.conn_store`); results are identical either way.
    """
    check_refine_mode(refine)
    if k < 1:
        raise PartitionError(f"k must be >= 1, got {k}")
    if k > g.n:
        raise PartitionError(f"k={k} exceeds node count {g.n}")
    if balance < 1.0:
        raise PartitionError(f"balance must be >= 1.0, got {balance}")
    rng = as_rng(seed)
    seed_hier, seed_init, seed_refine = spawn_seeds(rng, 3)
    if coarsen_to is None:
        coarsen_to = max(20, 4 * k)
    with _obs.timed_span("mlkp", nodes=g.n, k=k) as sw:
        hier = build_hierarchy(g, coarsen_to=max(coarsen_to, k),
                               seed=seed_hier, methods=("hem",))
        coarsest = hier.coarsest
        with _obs.trace_span("mlkp.initial", nodes=coarsest.n):
            assign = recursive_bisection(
                coarsest, k, seed=seed_init, balance=balance
            )

        max_part_weight = balance * g.total_node_weight / k
        refine_seeds = spawn_seeds(seed_refine, max(hier.depth, 1))

        def refine_level(level, assign, seed_nodes=None):
            level_graph = hier.levels[level].graph
            with _obs.trace_span(
                "mlkp.refine_level", level=level,
                nodes=level_graph.n, edges=level_graph.m,
            ):
                # one engine state per level, shared by both phases so
                # connectivity and bandwidth are never rebuilt between them
                state = RefinementState(
                    level_graph, assign, k, conn_format=conn_format
                )
                # kmetis order: restore balance first, then chase the cut
                assign = rebalance_pass(
                    level_graph, assign, k, max_part_weight, state=state,
                )
                return greedy_kway_refine(
                    level_graph,
                    assign,
                    k,
                    max_part_weight=max_part_weight,
                    max_passes=refine_passes,
                    seed=refine_seeds[level],
                    state=state,
                    seed_nodes=seed_nodes,
                )

        # the coarsest level is refined only when it is also the finest
        # (the driver's rule); otherwise every projected level is
        if hier.depth == 1:
            assign = refine_level(0, assign)
        for level in range(hier.depth - 1, 0, -1):
            assign = refine_level(
                level - 1, hier.project(assign, level),
                seed_nodes=hier.uncontracted_nodes(level),
            )
        if refine == "fm+flow":
            # guarded flow polish under the baseline's balance objective;
            # the pass's never-worse guard keeps (balance violation, cut)
            # from regressing, so the kmetis contract survives
            st = RefinementState(g, assign, k, conn_format=conn_format)
            assign = run_flow_refine(
                st, ConstraintSpec(rmax=float(max_part_weight))
            )

    metrics = evaluate_partition(g, assign, k, constraints)
    return PartitionResult(
        assign=assign,
        k=k,
        metrics=metrics,
        algorithm="MLKP",
        runtime=sw.elapsed,
        constraints=constraints or ConstraintSpec(),
        info={"levels": hier.depth, "balance": balance, "refine": refine},
    )
