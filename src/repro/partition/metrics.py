"""Partition quality metrics and the paper's mapping constraints.

The paper evaluates four quantities per partitioning (Section V):

1. **Global edge cut** — sum of weights of edges whose endpoints lie in
   different partitions ("Total Edge-Cuts").
2. **Local edge cut / pairwise bandwidth** — for each *pair* of partitions,
   the summed weight of edges crossing between exactly those two; the
   per-pair inter-FPGA traffic.  Constraint: every entry ``<= Bmax``.
3. **Maximum resource allocation** — the largest per-partition sum of node
   weights.  Constraint: every partition ``<= Rmax``.
4. Runtime (measured by the harness, not here).

All functions are numpy-vectorised over the edge arrays — on large PN graphs
these run in microseconds, which matters because GP's refinement loop calls
them per candidate clustering.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graph.wgraph import WGraph
from repro.util.errors import PartitionError

__all__ = [
    "ConstraintSpec",
    "PartitionMetrics",
    "check_assignment",
    "check_k",
    "cut_value",
    "bandwidth_matrix",
    "part_weights",
    "evaluate_partition",
]


@dataclass(frozen=True)
class ConstraintSpec:
    """The two mapping constraints of Section I.

    Attributes
    ----------
    bmax:
        Maximum total bandwidth between any *pair* of partitions (the
        inter-FPGA link capacity).  ``inf`` disables the constraint.
    rmax:
        Maximum resource (node-weight) sum per partition (the per-FPGA
        budget).  ``inf`` disables the constraint.
    """

    bmax: float = float("inf")
    rmax: float = float("inf")

    def __post_init__(self) -> None:
        if self.bmax < 0 or self.rmax < 0:
            raise PartitionError(
                f"constraints must be non-negative, got {self}"
            )

    @property
    def unconstrained(self) -> bool:
        return np.isinf(self.bmax) and np.isinf(self.rmax)


@dataclass(frozen=True)
class PartitionMetrics:
    """Evaluated quality of one k-way assignment."""

    k: int
    cut: float
    max_local_bandwidth: float
    max_resource: float
    bandwidth_violation: float
    resource_violation: float

    @property
    def feasible(self) -> bool:
        return self.bandwidth_violation == 0.0 and self.resource_violation == 0.0

    @property
    def total_violation(self) -> float:
        return self.bandwidth_violation + self.resource_violation

    def as_row(self) -> list:
        """Columns in the paper's table order (sans runtime)."""
        return [self.cut, self.max_resource, self.max_local_bandwidth]


def check_k(k: int, n: int) -> None:
    """Reject a part count no partition of *n* nodes can have."""
    if k < 1:
        raise PartitionError(f"k must be >= 1, got {k}")
    if k > n:
        raise PartitionError(f"k={k} exceeds node count {n}")


def check_assignment(g: WGraph, assign: np.ndarray, k: int) -> np.ndarray:
    """Validate an assignment vector; return it as an int64 array.

    Every node must be assigned to exactly one part in ``0..k-1``.  (The
    "each node in exactly one partition" invariant of Section IV.B.)
    """
    a = np.asarray(assign, dtype=np.int64)
    if a.shape != (g.n,):
        raise PartitionError(
            f"assignment has shape {a.shape}, expected ({g.n},)"
        )
    if k <= 0:
        raise PartitionError(f"k must be positive, got {k}")
    if g.n and (a.min() < 0 or a.max() >= k):
        raise PartitionError(
            f"assignment values outside [0, {k}): min={a.min()}, max={a.max()}"
        )
    return a


def cut_value(g: WGraph, assign: np.ndarray) -> float:
    """Global edge cut: total weight of edges with endpoints in different parts."""
    a = np.asarray(assign, dtype=np.int64)
    eu, ev, ew = g.edge_array
    return float(ew[a[eu] != a[ev]].sum())


def bandwidth_matrix(g: WGraph, assign: np.ndarray, k: int) -> np.ndarray:
    """Symmetric ``(k, k)`` matrix of pairwise inter-partition bandwidth.

    Entry ``[c, d]`` (``c != d``) is the summed weight of edges with one
    endpoint in part *c* and the other in part *d*; the diagonal is zero
    (intra-FPGA traffic is free per Section V).
    """
    a = check_assignment(g, assign, k)
    eu, ev, ew = g.edge_array
    b = np.zeros((k, k), dtype=np.float64)
    cu, cv = a[eu], a[ev]
    crossing = cu != cv
    np.add.at(b, (cu[crossing], cv[crossing]), ew[crossing])
    np.add.at(b, (cv[crossing], cu[crossing]), ew[crossing])
    return b


def part_weights(g: WGraph, assign: np.ndarray, k: int) -> np.ndarray:
    """Per-partition sums of node resource weights, shape ``(k,)``."""
    a = check_assignment(g, assign, k)
    w = np.zeros(k, dtype=np.float64)
    np.add.at(w, a, g.node_weights)
    return w


def evaluate_partition(
    g: WGraph,
    assign: np.ndarray,
    k: int,
    constraints: ConstraintSpec | None = None,
) -> PartitionMetrics:
    """Compute all paper metrics for one assignment."""
    constraints = constraints or ConstraintSpec()
    b = bandwidth_matrix(g, assign, k)
    w = part_weights(g, assign, k)
    # each crossing edge counted once: sum of upper triangle
    cut = float(np.triu(b, k=1).sum())
    max_bw = float(b.max()) if k > 1 else 0.0
    max_res = float(w.max()) if k > 0 else 0.0
    if np.isfinite(constraints.bmax):
        bw_excess = np.triu(np.maximum(b - constraints.bmax, 0.0), k=1)
        bw_violation = float(bw_excess.sum())
    else:
        bw_violation = 0.0
    if np.isfinite(constraints.rmax):
        res_violation = float(np.maximum(w - constraints.rmax, 0.0).sum())
    else:
        res_violation = 0.0
    return PartitionMetrics(
        k=k,
        cut=cut,
        max_local_bandwidth=max_bw,
        max_resource=max_res,
        bandwidth_violation=bw_violation,
        resource_violation=res_violation,
    )
