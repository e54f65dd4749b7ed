"""Partitioning toolkit (systems S2-S5 in DESIGN.md).

Contents
--------
* :mod:`repro.partition.base` — partition containers and results.
* :mod:`repro.partition.refine_state` — the shared vectorized refinement
  engine (incremental connectivity/bandwidth/boundary state + gain buckets)
  every refinement pass runs on; see ``docs/refinement.md``.
* :mod:`repro.partition.metrics` — cut / pairwise-bandwidth / resource metrics
  and the paper's two mapping constraints.
* :mod:`repro.partition.coarsen` — the three matchings (random maximal, heavy
  edge, K-means) and graph contraction (Section IV.A).
* :mod:`repro.partition.initial` — greedy resource-aware initial partitioning
  with restarts (Section IV.B).
* :mod:`repro.partition.fm` — FM two-way refinement (the baseline's
  recursive bisection).
* :mod:`repro.partition.kway_refine` — k-way boundary refinement, both
  cut-driven (METIS style) and constraint-driven (GP style).
* :mod:`repro.partition.flow_refine` — corridor max-flow refinement on the
  same engine seam (``refine="fm+flow"``; ``docs/refinement.md``).
* :mod:`repro.partition.vcycle` — the restricted V-cycle shared by
  ``GPConfig(vcycles=...)`` and evolve's recombination, on every engine.
* :mod:`repro.partition.mlkp` — METIS-like unconstrained multilevel k-way
  baseline.
* :mod:`repro.partition.gp` — the paper's constrained partitioner.
* :mod:`repro.partition.spectral`, :mod:`repro.partition.exact` — extra
  baselines (spectral recursive bisection; exact branch & bound).
* :mod:`repro.partition.vector_state` / :mod:`repro.partition.multires`
  — componentwise multi-resource budgets on the same engine seam
  (``docs/multires.md``).
"""

from repro.partition.base import PartitionResult
from repro.partition.flow_refine import (
    REFINE_MODES,
    check_refine_mode,
    run_flow_refine,
)
from repro.partition.refine_state import BucketQueue, RefinementState
from repro.partition.metrics import (
    ConstraintSpec,
    PartitionMetrics,
    bandwidth_matrix,
    cut_value,
    evaluate_partition,
    part_weights,
)
from repro.partition.vector_state import (
    MultiResMetrics,
    VectorConstraints,
    VectorGraph,
    VectorRefinementState,
)

__all__ = [
    "PartitionResult",
    "RefinementState",
    "BucketQueue",
    "ConstraintSpec",
    "PartitionMetrics",
    "cut_value",
    "bandwidth_matrix",
    "part_weights",
    "evaluate_partition",
    "VectorConstraints",
    "MultiResMetrics",
    "VectorGraph",
    "VectorRefinementState",
    "REFINE_MODES",
    "check_refine_mode",
    "run_flow_refine",
]
