"""Variation operators of the memetic partitioner.

``recombine``
    The cut-preserving multilevel recombination of Moreira/Popp/Schulz and
    KaHyPar-E: one :func:`~repro.partition.vcycle.restricted_vcycle` (the
    loop behind ``GPConfig(vcycles=...)``) that coarsens with matchings
    restricted to pairs of nodes that agree in **both** parents (the
    *overlay* classes ``a·k + b``), so each parent's
    partition survives contraction exactly; refine the coarse problem with
    the constrained FM starting from the **better** parent's projection;
    project back level by level, refining at each.  Because the
    restricted contraction preserves the better parent's metrics exactly
    and the FM's best-prefix rollback never returns anything worse than
    its input, the child is **never worse than the better parent** under
    the goodness order — the invariant ``tests/test_evolve.py`` pins for
    both engines.

``mutate_perturb``
    Perturb-and-repair: reassign a random fraction of the nodes to random
    parts, then run the constrained FM.  Large basin hops; the FM pulls
    the perturbed partition back to a (different) local optimum.

``mutate_walk``
    Boundary random walk: starting from a random boundary node, walk the
    adjacency structure for a bounded number of steps dragging every
    visited node into the walk's origin part, then repair with the
    constrained FM.  Local, connected perturbations — the shape of move
    FM itself rarely composes.

Mutations may return worse partitions (that is their job — diversity);
the population's replacement rules decide survival.  All operators work
identically on either engine adapter (:mod:`repro.partition.engine`).
"""

from __future__ import annotations

import numpy as np

from repro.partition.goodness import goodness_key
from repro.partition.metrics import ConstraintSpec
from repro.partition.vcycle import restricted_vcycle
from repro.util.errors import PartitionError
from repro.util.rng import as_rng, spawn_seeds

__all__ = ["recombine", "mutate_perturb", "mutate_walk"]


def recombine(
    engine,
    parent_best: np.ndarray,
    parent_other: np.ndarray,
    constraints: ConstraintSpec,
    seed=None,
    coarsen_to: int | None = None,
    refine_passes: int = 6,
    parent_metrics=None,
):
    """Recombine two parent partitions; returns ``(child, tracked metrics)``.

    *parent_best* must be the parent with the better (lower) goodness key —
    the caller ranks them; the guarantee "child never worse" is relative to
    this first parent.  Both parents must be valid k-way assignments on
    ``engine.structure``.  *parent_metrics*, when given, must be
    *parent_best*'s evaluated metrics under *constraints* — callers that
    already hold them (the EA's population does) spare the guard one
    from-scratch evaluation per call; omitted, they are recomputed here.

    The guarantee is enforced, not merely inherited: the multilevel descent
    preserves the better parent under the FM's ``(violation, cut)`` key,
    but the four-component goodness order can still rank a refined child
    below the parent in two corners — an FM pass that trades bandwidth
    violation against resource violation at equal total, and (hypergraph
    engine only) coarse pairwise-traffic attribution drifting when
    identical-net merging unifies nets whose roots sit in different parts.
    When either corner fires, the parent itself is returned.
    """
    k = engine.k
    structure = engine.structure
    n = structure.n
    a = np.asarray(parent_best, dtype=np.int64)
    b = np.asarray(parent_other, dtype=np.int64)
    if a.shape != (n,) or b.shape != (n,):
        raise PartitionError(
            f"parents must have shape ({n},), got {a.shape} and {b.shape}"
        )
    # overlay classes: nodes may contract only if BOTH parents agree, so
    # contraction hides no edge/net either parent cuts — each parent's
    # partition (and its metrics) survives to every coarse level exactly;
    # the cycle refines from the better parent's (exact) projection
    cand, metrics, _ = restricted_vcycle(
        engine, a, a * np.int64(k) + b, k * k, constraints, seed=seed,
        coarsen_to=coarsen_to, refine_passes=refine_passes,
    )
    if parent_metrics is None:
        parent_metrics = engine.evaluate(a, constraints)
    if goodness_key(metrics, constraints) > goodness_key(
        parent_metrics, constraints
    ):
        return a.copy(), parent_metrics
    return cand, metrics


def mutate_perturb(
    engine,
    assign: np.ndarray,
    constraints: ConstraintSpec,
    seed=None,
    frac: float = 0.15,
    refine_passes: int = 6,
):
    """Reassign ``max(1, frac·n)`` random nodes to random parts, then run
    the constrained FM; returns ``(child, tracked metrics)``."""
    if not 0.0 < frac <= 1.0:
        raise PartitionError(f"perturbation fraction must be in (0, 1], got {frac}")
    structure = engine.structure
    n = structure.n
    k = engine.k
    rng = as_rng(seed)
    a = np.asarray(assign, dtype=np.int64).copy()
    m = min(n, max(1, int(round(frac * n))))
    nodes = rng.choice(n, size=m, replace=False)
    a[nodes] = rng.integers(0, k, size=m)
    s_fm = spawn_seeds(rng, 1)[0]
    return engine.fm(structure, a, constraints, refine_passes, s_fm)


def mutate_walk(
    engine,
    assign: np.ndarray,
    constraints: ConstraintSpec,
    seed=None,
    steps: int | None = None,
    refine_passes: int = 6,
):
    """Drag a random walk's nodes into its origin part, then repair.

    The walk starts at a random **boundary** node (a random node when the
    partition has no boundary, e.g. k=1) and takes ``steps`` uniform
    adjacency steps (default ``max(3, n // 16)``), assigning every visited
    node to the origin's part; the constrained FM then repairs constraints
    and cut.  Returns ``(child, tracked metrics)``.
    """
    structure = engine.structure
    n = structure.n
    rng = as_rng(seed)
    if steps is None:
        steps = max(3, n // 16)
    if steps < 0:
        raise PartitionError(f"walk steps must be >= 0, got {steps}")
    # one engine state serves the whole operator: it yields the boundary,
    # absorbs the walk's moves incrementally, and is handed to the FM
    # as-is (incremental == from-scratch, pinned by the invariant suites)
    st = engine.make_state(structure, assign)
    boundary = st.boundary_nodes()
    if boundary.size:
        u = int(boundary[rng.integers(boundary.size)])
    else:
        u = int(rng.integers(n))
    part = int(st.assign[u])
    for _ in range(steps):
        nbrs = engine.neighbors(structure, u)
        if nbrs.size == 0:
            break
        u = int(nbrs[rng.integers(nbrs.size)])
        st.move(u, part)
    st.clear_trail()
    s_fm = spawn_seeds(rng, 1)[0]
    return engine.fm_state(structure, st, constraints, refine_passes, s_fm)
