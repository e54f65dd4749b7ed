"""METIS-like unconstrained Multi-Level K-Way Partitioning (baseline).

This reimplements the *scheme* of METIS 5.1 (kmetis) that the paper compares
against — no bindings exist offline, and the paper's claims about METIS are
structural, not numeric (see DESIGN.md, Substitutions):

1. **Coarsening** by heavy-edge matching until ``max(coarsen_to, 4k)`` nodes.
2. **Initial partitioning** by recursive bisection on the coarsest graph:
   greedy graph growing to the target weight split, then FM refinement.
3. **Un-coarsening** with greedy cut-driven k-way boundary refinement under a
   node-weight balance cap (METIS's default load-imbalance tolerance 1.03).

The three steps are the hooks of :class:`MLKPEngine`; the level walk,
seeding, ``fm+flow`` polish and ``n_jobs`` race are GP's own driver
(:func:`~repro.partition.multilevel.multilevel_partition`), run under
:data:`MLKP_CONFIG` and the baseline's own objective — the balance cap
as the resource constraint.

The baseline minimises *global* edge cut subject only to *balance* — it is
deliberately oblivious to the paper's pairwise-bandwidth and absolute
resource caps, which is precisely the behaviour the paper's experiments
exhibit ("METIS always partitions, regardless of said constraints").
"""

from __future__ import annotations

import numpy as np

from repro.graph.wgraph import WGraph
from repro.partition.base import PartitionResult
from repro.partition.engine import GraphEngine
from repro.partition.fm import fm_refine_bisection
from repro.partition.kway_refine import greedy_kway_refine, rebalance_pass
from repro.partition.metrics import ConstraintSpec, check_k, evaluate_partition
from repro.partition.multilevel import GPConfig, multilevel_partition
from repro.util.rng import as_rng

__all__ = [
    "MLKP_CONFIG",
    "MLKPEngine",
    "mlkp_partition",
    "recursive_bisection",
]

#: METIS's default load-imbalance tolerance for k-way (ufactor=30 -> 1.03).
DEFAULT_BALANCE = 1.03

#: kmetis's pipeline as a driver config: one heavy-edge hierarchy down to
#: ``max(20, 4k)`` nodes, four bisection trials, one refinement run per
#: level and no retry cycles — the baseline never retries.
MLKP_CONFIG = GPConfig(
    coarsen_to=20, restarts=4, max_cycles=1, level_candidates=1,
    refine_passes=8, matchings=("hem",),
)


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
    trials: int = 4,
) -> np.ndarray:
    """Recursive bisection into *k* weight-proportional parts.

    Each bisection runs *trials* greedy-growing starts refined with FM
    (balance-capped) and keeps the smallest cut — the strategy kmetis uses
    for its coarsest-level initial partitioning.
    """
    check_k(k, g.n)
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
        cap0 = DEFAULT_BALANCE * target0
        cap1 = DEFAULT_BALANCE * (sub.total_node_weight - target0)
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


class MLKPEngine(GraphEngine):
    """kmetis's three steps on the graph engine's surface.

    The driver hands every hook the balance objective — a
    :class:`~repro.partition.metrics.ConstraintSpec` whose ``rmax`` is the
    balance cap — while *audit* (the caller's constraints) only judges the
    result.
    """

    span = "mlkp"
    algorithm = "MLKP"
    audit_only = True

    def __init__(self, g: WGraph, k: int, audit: ConstraintSpec,
                 conn_format: str = "auto") -> None:
        super().__init__(g, k, conn_format=conn_format)
        self.audit = audit

    def coarsen(self, coarsen_to: int, matchings, constraints, seed):
        return super().coarsen(
            max(coarsen_to, 4 * self.k), matchings, constraints, seed
        )

    def initial(self, structure: WGraph, constraints, restarts: int, seed):
        return recursive_bisection(structure, self.k, seed=seed,
                                   trials=restarts)

    def level_fm(self, structure: WGraph, assign, constraints, max_passes,
                 seed, state):
        # kmetis order on the level's one state: restore balance first,
        # then chase the cut
        cap = constraints.rmax
        assign = rebalance_pass(structure, assign, self.k, cap, state=state)
        return greedy_kway_refine(
            structure, assign, self.k, max_part_weight=cap,
            max_passes=max_passes, seed=seed, state=state,
        )

    def result(self, assign, metrics, constraints, runtime: float,
               info: dict):
        """The result judged against the caller's constraints."""
        return super().result(assign, self.evaluate(assign, self.audit),
                              self.audit, runtime, info)


def mlkp_partition(
    g: WGraph,
    k: int,
    constraints: ConstraintSpec | None = None,
    config: GPConfig | None = None,
    seed=None,
    n_jobs: int | None = 1,
) -> PartitionResult:
    """Partition *g* into *k* parts, METIS style.

    *constraints* (optional) are **not enforced** — they are only used to
    evaluate the result's feasibility, mirroring how the paper audits the
    METIS output against ``Bmax``/``Rmax`` after the fact.  The pipeline
    itself runs under the baseline's own objective, a balance cap of
    ``DEFAULT_BALANCE · total / k`` as the resource constraint.

    *config* is GP's :class:`~repro.partition.multilevel.GPConfig`
    (:data:`MLKP_CONFIG` when omitted) and means what it means for
    :func:`~repro.partition.gp.gp_partition`: ``refine="fm+flow"``
    appends one guarded corridor-flow stage under the balance objective,
    ``conn_format`` picks the connectivity store (results are identical
    either way), ``matchings`` the coarsening heuristics, ``vcycles``
    adds restricted V-cycles (refined with the graph engine's FM), and
    ``on_infeasible="raise"`` raises when the audit fails.  *seed*
    overrides ``config.seed``; *n_jobs* races retry cycles when
    ``max_cycles > 1``.  ``info`` holds ``cycles``, ``levels`` and
    ``max_cycles``.
    """
    config = config or MLKP_CONFIG
    check_k(k, g.n)
    balance = ConstraintSpec(rmax=DEFAULT_BALANCE * g.total_node_weight / k)
    engine = MLKPEngine(g, k, constraints or ConstraintSpec(),
                        conn_format=config.conn_format)
    return multilevel_partition(engine, balance, config, seed=seed,
                                n_jobs=n_jobs)
