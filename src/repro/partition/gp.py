"""GP — the paper's constrained Multi-Level K-Way partitioner (Section IV).

Pipeline (mirrors the paper's phases):

1. **Coarsening** (IV.A): best-of-three matchings per level (random maximal,
   heavy-edge, K-means) down to ``coarsen_to`` nodes (paper default 100).
2. **Initial partitioning** (IV.B): greedy growing from the heaviest node,
   resource-capped, with randomly re-seeded restarts (paper default 10),
   leftover placement by biggest-free-space, then a constrained FM pass to
   drive pairwise bandwidth under ``Bmax``.
3. **Un-coarsening** (IV.C): project level by level; at each level several
   refinement candidates ("different intermediate clusterings") are generated
   and "compared a posteriori using a goodness function" — the nearest to
   meeting the constraints wins.
4. **Cyclic retry**: "if we do not meet constraints, we go back to the
   coarsening phase and then partitioning phase (randomly), cyclically."
   After ``max_cycles`` without a feasible partitioning the run reports
   infeasibility (raise or return, caller's choice), matching the paper's
   "either impossible or we have to give the tool more time".

The pipeline itself is :func:`~repro.partition.multilevel.
multilevel_partition`, shared with the hypergraph and vector-resource
partitioners, under the one :class:`~repro.partition.multilevel.GPConfig`
(re-exported here); this module runs the driver on the graph engine, and
:func:`run_gp` is the one place that picks GP's engine by structure type.
"""

from __future__ import annotations

from repro.graph.wgraph import WGraph
from repro.hypergraph.partition import hyper_partition
from repro.partition.base import PartitionResult
from repro.partition.engine import GraphEngine
from repro.partition.metrics import ConstraintSpec
from repro.partition.multilevel import GPConfig, multilevel_partition
from repro.partition.multires import vector_gp_partition
from repro.partition.vector_state import VectorGraph

__all__ = ["GPConfig", "gp_partition", "run_gp"]


def gp_partition(
    g: WGraph,
    k: int,
    constraints: ConstraintSpec,
    config: GPConfig | None = None,
    seed=None,
    n_jobs: int | None = 1,
) -> PartitionResult:
    """Partition *g* into *k* parts meeting the paper's two constraints.

    Parameters
    ----------
    g:
        Process-network graph (node weights = resources, edge weights =
        bandwidth).
    k:
        Number of partitions (FPGAs).
    constraints:
        ``Bmax`` / ``Rmax`` caps; either may be ``inf``.
    config:
        :class:`GPConfig`; paper defaults when omitted.
    seed:
        Overrides ``config.seed`` when given.
    n_jobs:
        Worker processes racing the retry cycles (``1`` = in-process
        serial, ``-1`` = all CPUs).  Every cycle's seeds are derived up
        front, results are consumed in cycle order, and the first
        feasible cycle still wins — so the returned partition is
        **bit-identical for every** ``n_jobs``; only wall-clock changes.
        Workers past the first feasible cycle are wasted speculation,
        the price of racing an early-exit loop.

    Returns
    -------
    PartitionResult
        With ``info`` containing ``cycles`` (cycles consumed), ``levels``
        (hierarchy depth of the last cycle) and ``max_cycles``.

    Raises
    ------
    InfeasibleError
        If no feasible partitioning is found within ``max_cycles`` and
        ``config.on_infeasible == "raise"``.  The exception carries the
        least-violating :class:`PartitionResult` in ``.best``.
    """
    config = config or GPConfig()
    engine = GraphEngine(g, k, conn_format=config.conn_format)
    return multilevel_partition(
        engine, constraints, config, seed=seed, n_jobs=n_jobs
    )


def run_gp(
    structure,
    k: int,
    constraints,
    config: GPConfig | None = None,
    seed=None,
    n_jobs: int | None = 1,
    cache: bool = True,
):
    """GP on any structure, the engine picked by its type.

    A :class:`~repro.graph.wgraph.WGraph` runs :func:`gp_partition`, a
    :class:`~repro.partition.vector_state.VectorGraph` (with
    ``VectorConstraints``) runs :func:`~repro.partition.multires.
    vector_gp_partition` on the structure as given, and anything else — an
    :class:`~repro.hypergraph.hgraph.HGraph` — runs
    :func:`~repro.hypergraph.partition.hyper_partition`; ``config=None``
    means each one's own default.  *cache* reaches the one memoised
    engine (vector GP); the others have nothing to memoise.
    """
    if isinstance(structure, VectorGraph):
        return vector_gp_partition(
            structure, k, constraints, config, seed=seed, n_jobs=n_jobs,
            cache=cache,
        )
    if isinstance(structure, WGraph):
        return gp_partition(
            structure, k, constraints, config, seed=seed, n_jobs=n_jobs
        )
    return hyper_partition(
        structure, k, constraints, config=config, seed=seed, n_jobs=n_jobs
    )
