"""The result container every partitioning run returns."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.partition.metrics import ConstraintSpec, PartitionMetrics

__all__ = ["PartitionResult"]


@dataclass
class PartitionResult:
    """Outcome of one partitioning run.

    Attributes
    ----------
    assign:
        Node → part assignment, shape ``(n,)``.
    k:
        Number of parts requested.
    metrics:
        Evaluated :class:`PartitionMetrics` (against the run's constraints).
    algorithm:
        Human-readable algorithm tag ("GP", "MLKP", "spectral", "exact", ...).
    runtime:
        Wall-clock seconds of the partitioning call.
    feasible:
        Whether both paper constraints hold (mirrors ``metrics.feasible``).
    constraints:
        The constraints the run was asked to honour.
    info:
        Algorithm-specific extras (levels, cycles used, restarts, ...).
    """

    assign: np.ndarray
    k: int
    metrics: PartitionMetrics
    algorithm: str
    runtime: float = 0.0
    constraints: ConstraintSpec = field(default_factory=ConstraintSpec)
    info: dict = field(default_factory=dict)

    @property
    def feasible(self) -> bool:
        return self.metrics.feasible

    @property
    def cut(self) -> float:
        return self.metrics.cut

    def table_row(self) -> list:
        """Row in the paper's table format:
        [algorithm, cut, runtime, max resource, max local bandwidth]."""
        return [
            self.algorithm,
            self.metrics.cut,
            round(self.runtime, 4),
            self.metrics.max_resource,
            self.metrics.max_local_bandwidth,
        ]
