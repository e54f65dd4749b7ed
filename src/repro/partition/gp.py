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
partitioners; this module holds GP's knobs and runs the driver on the
graph engine.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.graph.wgraph import WGraph
from repro.partition.base import PartitionResult
from repro.partition.coarsen import MATCHING_METHODS
from repro.partition.conn_store import check_conn_format
from repro.partition.engine import GraphEngine
from repro.partition.flow_refine import check_refine_mode
from repro.partition.metrics import ConstraintSpec
from repro.partition.multilevel import check_cycle_knobs, multilevel_partition
from repro.util.errors import PartitionError

__all__ = ["GPConfig", "gp_partition"]


@dataclass(frozen=True)
class GPConfig:
    """Tuning knobs of the GP algorithm, with the paper's defaults.

    Attributes
    ----------
    coarsen_to:
        Coarsening stops at this many nodes ("default is 100").
    restarts:
        Initial-partitioning restarts ("10 is default").
    max_cycles:
        Maximum coarsen/partition/un-coarsen cycles before declaring the
        instance infeasible ("a predetermined number of iterations").
    level_candidates:
        Intermediate clusterings generated per un-coarsening level and
        compared with the goodness function.
    refine_passes:
        FM passes per refinement call.
    vcycles:
        Partition-preserving V-cycle refinement rounds applied to each
        cycle's finest-level result (see :mod:`repro.partition.vcycle`);
        0 disables (the default — the cyclic restarts already realise the
        paper's outer loop; benchmark X8 measures this knob).
    matchings:
        Coarsening heuristics raced per level (Section IV.A's three).
    refine:
        Refinement stage (see :mod:`repro.partition.flow_refine`):
        ``"fm"`` — the paper's constrained FM per level (default, exact
        historical behaviour); ``"flow"`` — corridor max-flow passes
        replace the per-level FM (ablation mode); ``"fm+flow"`` — FM per
        level, then one guarded flow stage on the race winner, so the
        result is never worse than ``"fm"`` under the same seeds.
    conn_format:
        Connectivity-store layout of every refinement state this run
        builds (:mod:`repro.partition.conn_store`): ``"dense"`` — the
        historical ``(k, n)`` matrices; ``"sparse"`` — packed per-node
        slices sized by degree (the million-node setting); ``"auto"``
        (default) — sparse iff ``k·n`` crosses the module threshold.
        Dense and sparse are bit-identical under integer-valued weights.
    on_infeasible:
        ``"return"`` — give back the least-violating partition with
        ``feasible=False``; ``"raise"`` — raise :class:`InfeasibleError`.
    seed:
        Default random seed for the run; the ``seed`` argument of
        :func:`gp_partition` overrides it when given, and ``None`` falls
        back to the library-default seed (runs are deterministic unless
        the caller passes a live Generator).

    This docstring is the canonical field-by-field reference for the GP
    knobs — ``docs/architecture.md`` and ``docs/parallel.md`` link here
    rather than re-listing them.  Execution concerns (``n_jobs``) are
    deliberately *not* config fields: they change wall-clock, never
    results, and live on the call sites instead.
    """

    coarsen_to: int = 100
    restarts: int = 10
    max_cycles: int = 20
    level_candidates: int = 3
    refine_passes: int = 6
    vcycles: int = 0
    matchings: tuple[str, ...] = ("random", "hem", "kmeans")
    refine: str = "fm"
    conn_format: str = "auto"
    on_infeasible: str = "return"
    seed: int | None = None

    def __post_init__(self) -> None:
        # normalise matchings to a tuple so configs stay hashable (cache
        # keys) and equality-comparable however the caller spelled them
        object.__setattr__(self, "matchings", tuple(self.matchings))
        check_cycle_knobs(self)
        if self.vcycles < 0:
            raise PartitionError("vcycles must be >= 0")
        check_refine_mode(self.refine)
        check_conn_format(self.conn_format)
        if not self.matchings:
            raise PartitionError("at least one matching method required")
        unknown = [m for m in self.matchings if m not in MATCHING_METHODS]
        if unknown:
            raise PartitionError(
                f"unknown matching method(s) {unknown}; "
                f"valid: {sorted(MATCHING_METHODS)}"
            )


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
    engine = GraphEngine(
        g, k, refine=config.refine, conn_format=config.conn_format
    )
    return multilevel_partition(
        engine, constraints, config, seed=seed, n_jobs=n_jobs
    )
