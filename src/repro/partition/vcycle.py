"""Partition-preserving V-cycle refinement, on any engine.

Section IV describes GP's search as "un-coarsened up to a certain
intermediate level and then coarsened back to the lowest level ...
repeated a number of parametrized times".  :mod:`repro.partition.gp`
realises the outer loop as full restart cycles; this module adds the
*localised* variant from the multilevel literature: re-coarsen the current
structure with matchings **restricted to pairs that share a label** (so
every labelled partition survives contraction exactly), refine the coarse
problem where moves are cheap and global, and project back.

:func:`restricted_vcycle` is that loop, written once against the engine
adapters of :mod:`repro.partition.engine` (graph, hypergraph and vector
substrates).  Its two callers differ only in the labels they restrict to:

* :func:`vcycle_refine` labels by the incumbent partition itself and
  repeats the cycle while it improves (``GPConfig(vcycles=...)`` wires it
  into the multilevel driver; benchmark X8 measures it);
* :func:`~repro.evolve.operators.recombine` labels by the overlay of two
  parents, so neither parent's cut edges are hidden by contraction.

``vcycle_refine`` never returns anything worse than its input under the
goodness order, so it composes safely after any partitioner.
"""

from __future__ import annotations

import numpy as np

from repro.graph.wgraph import WGraph
from repro.partition.coarsen import MATCHING_METHODS
from repro.partition.goodness import goodness_key
from repro.partition.metrics import ConstraintSpec, check_assignment
from repro.util.errors import PartitionError
from repro.util.rng import as_rng, spawn_seeds

__all__ = ["intra_part_matching", "restricted_vcycle", "vcycle_refine"]

#: Hierarchy depth cap of one V-cycle; each level strictly shrinks the
#: structure, so 64 is never the binding constraint.
_MAX_LEVELS = 64


def intra_part_matching(
    g: WGraph,
    assign: np.ndarray,
    k: int,
    method: str = "hem",
    seed=None,
) -> np.ndarray:
    """A matching of *g* that never pairs nodes from different parts.

    Runs the base matching heuristic, then unmatches every crossing pair —
    contraction of the result preserves the partition exactly (each coarse
    node inherits the single part of its constituents).
    """
    a = check_assignment(g, assign, k)
    try:
        fn = MATCHING_METHODS[method]
    except KeyError:
        raise PartitionError(
            f"unknown matching method {method!r}; valid: {sorted(MATCHING_METHODS)}"
        ) from None
    match = fn(g, seed=seed).copy()
    for u in range(g.n):
        v = int(match[u])
        if v != u and a[u] != a[v]:
            match[u] = u
            match[v] = v
    return match


def restricted_vcycle(
    engine,
    start: np.ndarray,
    labels: np.ndarray,
    n_labels: int,
    constraints: ConstraintSpec,
    seed=None,
    coarsen_to: int | None = None,
    refine_passes: int = 6,
):
    """One coarsen→refine→project cycle from *start*; returns
    ``(assign, tracked metrics, depth)``.

    Coarsens ``engine.structure`` with ``engine.restricted_matching``
    under *labels* (values in ``0..n_labels-1``) down to ``coarsen_to``
    nodes (default ``max(30, 4k)``), or until nothing inside a label class
    contracts.  *start* must be constant on every label class, so its
    projection to each coarse level is exact.  The coarsest level is
    refined from that projection with ``engine.fm``, then every level on
    the way back up; the metrics are the finest level's.  ``depth == 1``
    means no level contracted and only the finest level was refined.
    """
    k = engine.k
    if coarsen_to is None:
        coarsen_to = max(30, 4 * k)
    rng = as_rng(seed)
    s_match, s_refine = spawn_seeds(rng, 2)

    structs = [engine.structure]
    maps: list[np.ndarray] = []
    cur_s, cur_labels, cur_a = engine.structure, labels, start
    match_seeds = spawn_seeds(s_match, _MAX_LEVELS)
    for level in range(_MAX_LEVELS):
        if cur_s.n <= coarsen_to:
            break
        match = engine.restricted_matching(
            cur_s, cur_labels, n_labels, seed=match_seeds[level]
        )
        if np.array_equal(match, np.arange(cur_s.n)):
            break  # nothing contractible inside the label classes
        coarse, node_map = engine.contract(cur_s, match)
        if coarse.n >= cur_s.n:
            break
        # well-defined: merged pairs share a label, hence a start part
        c_labels = np.empty(coarse.n, dtype=np.int64)
        c_labels[node_map] = cur_labels
        c_a = np.empty(coarse.n, dtype=np.int64)
        c_a[node_map] = cur_a
        structs.append(coarse)
        maps.append(node_map)
        cur_s, cur_labels, cur_a = coarse, c_labels, c_a

    refine_seeds = spawn_seeds(s_refine, len(structs))
    cand, metrics = engine.fm(
        structs[-1], cur_a, constraints, refine_passes, refine_seeds[-1]
    )
    for level in range(len(structs) - 1, 0, -1):
        cand = cand[maps[level - 1]]
        cand, metrics = engine.fm(
            structs[level - 1], cand, constraints,
            refine_passes, refine_seeds[level - 1],
        )
    return cand, metrics, len(structs)


def vcycle_refine(
    engine,
    assign: np.ndarray,
    constraints: ConstraintSpec,
    rounds: int = 2,
    seed=None,
    coarsen_to: int | None = None,
    refine_passes: int = 6,
) -> np.ndarray:
    """Improve *assign* with up to *rounds* partition-preserving V-cycles.

    Each round runs :func:`restricted_vcycle` with the incumbent as its
    own labels and keeps the result iff it improves the goodness key.
    Stops at the first round that does not improve, or that found nothing
    to contract (a depth-1 cycle is plain FM, not a V-cycle).  The
    refinement inside a round is the engine's (``engine.refine``).
    """
    if rounds < 0:
        raise PartitionError(f"rounds must be >= 0, got {rounds}")
    k = engine.k
    best = check_assignment(engine.structure, assign, k).copy()
    if rounds == 0 or engine.structure.n <= k:
        return best
    rng = as_rng(seed)
    best_key = goodness_key(engine.evaluate(best, constraints), constraints)
    for _ in range(rounds):
        cand, metrics, depth = restricted_vcycle(
            engine, best, best, k, constraints, seed=rng,
            coarsen_to=coarsen_to, refine_passes=refine_passes,
        )
        key = goodness_key(metrics, constraints)
        if depth == 1 or not key < best_key:
            break
        best, best_key = cand, key
    return best
