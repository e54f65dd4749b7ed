"""Multilevel k-way hypergraph partitioning under the paper's constraints.

The pipeline is GP's own — :func:`~repro.partition.multilevel.
multilevel_partition` run on the hypergraph engine
(:class:`~repro.partition.engine.HyperEngine`) — with the connectivity
objective in place of the edge cut:

1. **Coarsening** — heavy-edge contraction with identical-net detection
   down to ``coarsen_to`` nodes (:mod:`repro.hypergraph.coarsen`).
2. **Initial partitioning** — the existing resource-aware greedy growing
   with restarts runs on the coarsest hypergraph's *clique expansion*
   (exact for 2-pin nets, standard ``w/(|e|−1)`` split otherwise), then a
   constrained Φ-engine FM pass polishes it against the real objective.
3. **Un-coarsening** — project level by level; per level several
   refinement candidates race and the goodness function picks the one
   nearest to meeting the constraints, exactly as in GP.
4. **Cyclic retry** — re-coarsen/re-partition randomly up to
   ``max_cycles`` times until feasible, else report the least-violating
   result (or raise, caller's choice); ``refine="fm+flow"`` polishes the
   winner with the guarded corridor-flow stage.
"""

from __future__ import annotations

from repro.hypergraph.hgraph import HGraph
from repro.partition.base import PartitionResult
from repro.partition.metrics import ConstraintSpec
from repro.partition.multilevel import GPConfig, multilevel_partition

__all__ = ["HYPER_CONFIG", "hyper_partition"]

#: What ``config=None`` runs: GP's knobs with 10 cycles instead of 20 —
#: connectivity refinement converges in fewer cycles on the PN instances
#: this library targets.
HYPER_CONFIG = GPConfig(max_cycles=10)


def hyper_partition(
    hg: HGraph,
    k: int,
    constraints: ConstraintSpec | None = None,
    config: GPConfig | None = None,
    seed=None,
    n_jobs: int | None = 1,
) -> PartitionResult:
    """Partition *hg* into *k* parts minimising (λ−1) connectivity under
    the paper's ``Bmax``/``Rmax`` constraints.

    *config* is GP's own :class:`~repro.partition.multilevel.GPConfig`
    (:data:`HYPER_CONFIG` when omitted).  ``refine="fm+flow"`` adds the
    guarded corridor-flow stage on the race winner and ``vcycles``
    runs restricted V-cycles on the Φ engine, as for graphs; a
    ``conn_format`` other than ``"auto"`` is rejected (the Φ engine has
    no connectivity store), and ``matchings`` is ignored (the hypergraph
    engine contracts by heavy pins).

    Returns a :class:`~repro.partition.base.PartitionResult` whose
    ``metrics.cut`` is the connectivity objective (== edge cut when every
    net has 2 pins) and whose ``info`` carries ``cycles``, ``levels`` and
    ``model="hypergraph"``.

    *n_jobs* races the retry cycles across worker processes exactly as
    :func:`~repro.partition.gp.gp_partition` does (``-1`` = all CPUs);
    the result is bit-identical for every value.

    Raises
    ------
    InfeasibleError
        If no feasible partitioning is found within ``max_cycles`` and
        ``config.on_infeasible == "raise"`` (least-violating result in
        ``.best``).
    """
    # the engine module imports this package, so import it at call time
    from repro.partition.engine import HyperEngine

    config = config or HYPER_CONFIG
    engine = HyperEngine(hg, k, conn_format=config.conn_format)
    return multilevel_partition(
        engine, constraints or ConstraintSpec(), config, seed=seed,
        n_jobs=n_jobs,
    )
