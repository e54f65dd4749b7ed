"""Constrained k-way refinement under the (λ−1) connectivity objective.

``constrained_hyper_fm`` is the hypergraph counterpart of
:func:`~repro.partition.kway_refine.constrained_kway_fm`: the *same*
engine-agnostic FM driver (gain buckets on ``(violation_delta,
cut_delta)``, lazy revalidation, best-prefix rollback, lexicographic
move selection) running on the Φ pin-count engine instead of the graph
connectivity engine.  On a 2-pin-only hypergraph the two are move-for-move
identical (``tests/test_hyper_differential.py``).
"""

from __future__ import annotations

import numpy as np

from repro.hypergraph.hgraph import HGraph
from repro.hypergraph.metrics import check_hyper_assignment
from repro.hypergraph.refine_state import HyperRefinementState
from repro.partition.kway_refine import run_constrained_fm
from repro.partition.metrics import ConstraintSpec
from repro.util.errors import PartitionError

__all__ = ["constrained_hyper_fm"]


def _as_state(
    hg: HGraph, assign: np.ndarray, k: int, state: HyperRefinementState | None
) -> HyperRefinementState:
    """Validate/adopt a caller-provided Φ engine, or build a fresh one."""
    if state is None:
        return HyperRefinementState(hg, assign, k)
    if state.hg is not hg or state.k != k:
        raise PartitionError("provided state does not match hypergraph/k")
    if not np.array_equal(state.assign, assign):
        raise PartitionError(
            "provided state holds a different assignment than the one passed"
        )
    return state


def constrained_hyper_fm(
    hg: HGraph,
    assign: np.ndarray,
    k: int,
    constraints: ConstraintSpec,
    max_passes: int = 6,
    seed=None,
    state: HyperRefinementState | None = None,
) -> np.ndarray:
    """Constraint-driven FM refinement of a k-way hypergraph partition.

    Move selection is lexicographic — first reduce constraint violation
    (pairwise root-attributed traffic over ``Bmax``, resources over
    ``Rmax``), then reduce the (λ−1) connectivity objective.  When *state*
    is given the Φ engine is reused and left holding the returned
    assignment, so callers can read ``state.metrics()`` for free.
    """
    if max_passes < 1:
        raise PartitionError(f"max_passes must be >= 1, got {max_passes}")
    a = check_hyper_assignment(hg, assign, k)
    st = _as_state(hg, a, k, state)
    return run_constrained_fm(
        st, hg.n, hg.adjacent_nodes, constraints,
        max_passes=max_passes, seed=seed,
    )
