"""Initial partitioning phase (paper Section IV.B).

The paper's greedy scheme on the coarsest graph:

1. take the **heaviest** unassigned node as the seed of the next partition,
2. grow the partition by absorbing neighbours "as long as the total number
   of resources assignable to each partition (Rmax) is not violated",
3. repeat for all K partitions,
4. place leftover nodes into "the first partition which has biggest free
   space", violating ``Rmax`` only if unavoidable,
5. run an FM-based pass to push pairwise bandwidth under ``Bmax``,
6. because step 1 is "sensitive to the initial node selection, the whole
   process is repeated with a parametrized number of randomly chosen initial
   nodes (10 is default)" and the best outcome (goodness order) is kept.
"""

from __future__ import annotations

import numpy as np

from repro.graph.wgraph import WGraph
from repro.partition.goodness import goodness_key
from repro.partition.kway_refine import constrained_kway_fm
from repro.partition.metrics import ConstraintSpec, check_k
from repro.partition.refine_state import RefinementState
from repro.util.errors import PartitionError
from repro.util.rng import as_rng, spawn_seeds

__all__ = [
    "greedy_grow_once",
    "greedy_initial_partition",
]


def _grow_from_seed(
    g: WGraph,
    assign: np.ndarray,
    part: int,
    seed_node: int,
    rmax: float,
) -> None:
    """Grow *part* from *seed_node*, absorbing the most strongly connected
    unassigned neighbour while the resource budget holds.  Mutates *assign*."""
    assign[seed_node] = part
    weight = float(g.node_weights[seed_node])
    frontier_gain: dict[int, float] = {}
    for v, w in zip(*g.neighbor_weights(seed_node)):
        v = int(v)
        if assign[v] < 0:
            frontier_gain[v] = frontier_gain.get(v, 0.0) + float(w)
    while frontier_gain:
        # strongest connection first; node id tie-break for determinism
        u = min(frontier_gain, key=lambda x: (-frontier_gain[x], x))
        del frontier_gain[u]
        if assign[u] >= 0:
            continue
        w_u = float(g.node_weights[u])
        if weight + w_u > rmax:
            continue  # paper: add neighbours as long as Rmax not violated
        assign[u] = part
        weight += w_u
        for v, w in zip(*g.neighbor_weights(u)):
            v = int(v)
            if assign[v] < 0:
                frontier_gain[v] = frontier_gain.get(v, 0.0) + float(w)


def greedy_grow_once(
    g: WGraph,
    k: int,
    rmax: float,
    seed_nodes: list[int] | None = None,
) -> np.ndarray:
    """One greedy growing round (steps 1-4 above).

    *seed_nodes*: optional explicit seeds, one per partition in order; when
    a seed is already assigned (absorbed by an earlier partition), the
    heaviest unassigned node takes its place — this realises both the
    "heaviest node" round (no seeds) and the random-restart rounds.
    """
    check_k(k, g.n)
    assign = np.full(g.n, -1, dtype=np.int64)
    for part in range(k):
        unassigned = np.nonzero(assign < 0)[0]
        if unassigned.size == 0:
            break
        seed_node = -1
        if seed_nodes is not None and part < len(seed_nodes):
            cand = int(seed_nodes[part])
            if assign[cand] < 0:
                seed_node = cand
        if seed_node < 0:
            # heaviest unassigned node (paper's default seeding)
            weights = g.node_weights[unassigned]
            seed_node = int(unassigned[int(np.argmax(weights))])
        _grow_from_seed(g, assign, part, seed_node, rmax)

    # leftover placement: biggest free space first (paper step 4)
    part_weight = np.zeros(k, dtype=np.float64)
    for c in range(k):
        part_weight[c] = g.node_weights[assign == c].sum()
    leftovers = np.nonzero(assign < 0)[0]
    # heaviest leftovers first: hardest to place
    leftovers = leftovers[np.argsort(-g.node_weights[leftovers], kind="stable")]
    for u in leftovers:
        u = int(u)
        w_u = float(g.node_weights[u])
        free = rmax - part_weight
        fits = np.nonzero(free >= w_u)[0]
        if fits.size:
            dest = int(fits[int(np.argmax(free[fits]))])
        else:
            # unavoidable violation: biggest free space even though over Rmax
            dest = int(np.argmax(free))
        assign[u] = dest
        part_weight[dest] += w_u
    return assign


def greedy_initial_partition(
    g: WGraph,
    k: int,
    constraints: ConstraintSpec,
    restarts: int = 10,
    seed=None,
    fm_passes: int = 4,
    conn_format: str = "auto",
) -> np.ndarray:
    """Full initial-partitioning phase with restarts and the bandwidth FM pass.

    Round 0 uses the paper's heaviest-node seeding; rounds ``1..restarts-1``
    use randomly chosen seed nodes.  Every round ends with the constrained
    FM pass ("we check the bandwidth between each pair of partitions and use
    the FM algorithm to meet the bandwidth constraint"); the round with the
    best goodness key wins.  *conn_format* picks the FM state's
    connectivity store (:mod:`repro.partition.conn_store`).
    """
    if restarts < 1:
        raise PartitionError(f"restarts must be >= 1, got {restarts}")
    rng = as_rng(seed)
    round_seeds = spawn_seeds(rng, restarts)
    best_assign: np.ndarray | None = None
    best_key = None
    for r in range(restarts):
        if r == 0:
            seeds_r = None
        else:
            r_rng = as_rng(round_seeds[r])
            seeds_r = r_rng.choice(g.n, size=min(k, g.n), replace=False).tolist()
        assign = greedy_grow_once(g, k, constraints.rmax, seed_nodes=seeds_r)
        st = RefinementState(g, assign, k, conn_format=conn_format)
        assign = constrained_kway_fm(
            g, assign, k, constraints, max_passes=fm_passes,
            seed=round_seeds[r], state=st,
        )
        key = goodness_key(st.metrics(constraints), constraints)
        if best_key is None or key < best_key:
            best_key = key
            best_assign = assign
    assert best_assign is not None
    return best_assign

