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
   result (or raise, caller's choice).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hypergraph.hgraph import HGraph
from repro.partition.base import PartitionResult
from repro.partition.metrics import ConstraintSpec
from repro.partition.multilevel import check_cycle_knobs, multilevel_partition

__all__ = ["HyperConfig", "hyper_partition"]


@dataclass(frozen=True)
class HyperConfig:
    """Tuning knobs of the multilevel hypergraph partitioner.

    The knobs (and their defaults) track :class:`~repro.partition.gp.GPConfig`
    so graph-vs-hypergraph races compare models, not budgets; ``max_cycles``
    defaults lower because connectivity refinement converges in fewer
    cycles on the PN instances this library targets.
    """

    coarsen_to: int = 100
    restarts: int = 10
    max_cycles: int = 10
    level_candidates: int = 3
    refine_passes: int = 6
    on_infeasible: str = "return"
    seed: int | None = None

    def __post_init__(self) -> None:
        check_cycle_knobs(self)


def hyper_partition(
    hg: HGraph,
    k: int,
    constraints: ConstraintSpec | None = None,
    config: HyperConfig | None = None,
    seed=None,
    n_jobs: int | None = 1,
) -> PartitionResult:
    """Partition *hg* into *k* parts minimising (λ−1) connectivity under
    the paper's ``Bmax``/``Rmax`` constraints.

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
    from repro.partition.gp import GPConfig

    config = config or HyperConfig()
    driver_config = GPConfig(
        coarsen_to=config.coarsen_to,
        restarts=config.restarts,
        max_cycles=config.max_cycles,
        level_candidates=config.level_candidates,
        refine_passes=config.refine_passes,
        on_infeasible=config.on_infeasible,
        seed=config.seed,
    )
    return multilevel_partition(
        HyperEngine(hg, k), constraints or ConstraintSpec(), driver_config,
        seed=seed, n_jobs=n_jobs,
    )
