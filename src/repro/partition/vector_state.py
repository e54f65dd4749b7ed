"""Vector-resource containers and the multi-resource refinement engine.

The paper tracks one resource per node ("only one resource is considered
at this time, for example LUTs", Section V); real FPGAs budget LUTs, FFs,
BRAMs and DSPs independently.  This module lifts the shared refinement
engine to that setting:

* :class:`VectorConstraints` — the pairwise bandwidth cap plus a
  per-resource budget *vector* ``rmax``;
* :class:`MultiResMetrics` — evaluated quality of an assignment under
  vector constraints (per-resource load maxima, componentwise violation);
* :class:`VectorGraph` — a :class:`~repro.graph.wgraph.WGraph` bundled
  with its ``(n, R)`` resource matrix and a content digest covering both,
  the structure type the evolutionary engine adapter dispatches on;
* :class:`VectorRefinementState` — :class:`~repro.partition.refine_state.
  RefinementState` extended with the per-part ``(k, R)`` load matrix,
  tracked incrementally under ``move()`` with exact rollback, so the
  engine-agnostic :func:`~repro.partition.kway_refine.run_constrained_fm`
  driver runs on vector-resource instances unchanged.

The state overrides exactly the pieces the vector objective changes —
the move evaluator's per-destination resource hook, the over-budget
escape rule, the ``(violation, cut)`` key and the tracked metrics — and
inherits the move evaluator itself, so the bandwidth side of every move
delta is the scalar engine's arithmetic.  Invariants are
pinned by ``tests/test_multires_invariants.py``; the algorithm drivers
live in :mod:`repro.partition.multires`; see ``docs/multires.md``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graph.wgraph import WGraph
from repro.obs.memory import note_bytes
from repro.partition.refine_state import RefinementState
from repro.util.errors import PartitionError

__all__ = [
    "VectorConstraints",
    "MultiResMetrics",
    "VectorGraph",
    "VectorRefinementState",
    "check_weight_matrix",
]


@dataclass(frozen=True)
class VectorConstraints:
    """Pairwise bandwidth cap + per-resource budget vector.

    ``rmax[r]`` caps every part's summed column-*r* load; a component may
    be ``inf`` to leave that resource unconstrained.  Hashable (tuples are
    normalised in ``__post_init__``) so it can key a
    :class:`~repro.util.parallel.KeyedCache` like
    :class:`~repro.partition.metrics.ConstraintSpec` does.
    """

    bmax: float
    rmax: tuple[float, ...]
    names: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "bmax", float(self.bmax))
        object.__setattr__(
            self, "rmax", tuple(float(r) for r in self.rmax)
        )
        object.__setattr__(self, "names", tuple(self.names))
        if self.bmax < 0:
            raise PartitionError(f"bmax must be >= 0, got {self.bmax}")
        if not self.rmax:
            raise PartitionError("rmax vector must be non-empty")
        if any(r < 0 for r in self.rmax):
            raise PartitionError(f"rmax components must be >= 0: {self.rmax}")
        if self.names and len(self.names) != len(self.rmax):
            raise PartitionError("names/rmax length mismatch")

    @property
    def n_resources(self) -> int:
        return len(self.rmax)


@dataclass(frozen=True)
class MultiResMetrics:
    """Evaluated quality of a vector-constrained assignment.

    Field-compatible with :class:`~repro.partition.metrics.
    PartitionMetrics` where it matters: the goodness key reads
    ``total_violation`` / ``bandwidth_violation`` / ``resource_violation``
    / ``cut``, so population search and its seeding race work on either.
    """

    k: int
    cut: float
    max_local_bandwidth: float
    #: per-resource maxima over parts, shape (R,)
    max_loads: tuple[float, ...]
    bandwidth_violation: float
    resource_violation: float

    @property
    def feasible(self) -> bool:
        return self.bandwidth_violation == 0.0 and self.resource_violation == 0.0

    @property
    def total_violation(self) -> float:
        return self.bandwidth_violation + self.resource_violation

    @property
    def max_resource(self) -> float:
        """Largest load component anywhere (scalar-metric compatibility)."""
        return max(self.max_loads) if self.max_loads else 0.0


def check_weight_matrix(g: WGraph, weights: np.ndarray) -> np.ndarray:
    """Validate an ``(n, R)`` resource matrix against *g*; return float64."""
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim != 2 or w.shape[0] != g.n or w.shape[1] < 1:
        raise PartitionError(
            f"weight matrix must be (n={g.n}, R>=1), got {w.shape}"
        )
    if np.any(w < 0) or not np.all(np.isfinite(w)):
        raise PartitionError("weight matrix entries must be finite and >= 0")
    return w


class VectorGraph:
    """A graph bundled with its per-node resource matrix.

    The structure type of the vector-resource engine: algorithms that take
    "a structure" (the evolutionary loop, its operators, the engine
    adapters) receive one object carrying both the topology and the
    ``(n, R)`` weight matrix, so coarsening can aggregate the matrix
    through the same contraction maps that merge the nodes.

    The bundle is immutable (arrays are read-only) and content-addressed:
    :meth:`content_digest` covers the graph *and* the weight matrix, so
    two instances that partition identically share a digest and nothing
    else does — the property cache keys rely on.
    """

    __slots__ = ("graph", "weights", "names", "_digest")

    def __init__(
        self,
        graph: WGraph,
        weights: np.ndarray,
        names: tuple[str, ...] = (),
    ) -> None:
        self.graph = graph
        w = check_weight_matrix(graph, weights).copy()
        w.setflags(write=False)
        self.weights = w
        note_bytes("vector_graph.weights", w.nbytes,
                   n=graph.n, resources=int(w.shape[1]))
        self.names = tuple(names)
        if self.names and len(self.names) != w.shape[1]:
            raise PartitionError(
                f"{len(self.names)} resource names for {w.shape[1]} columns"
            )
        self._digest: str | None = None

    @property
    def n(self) -> int:
        return self.graph.n

    @property
    def m(self) -> int:
        return self.graph.m

    @property
    def n_resources(self) -> int:
        return int(self.weights.shape[1])

    def content_digest(self) -> str:
        """Digest of topology + node/edge weights + resource matrix."""
        if self._digest is None:
            import hashlib

            h = hashlib.sha256()
            h.update(self.graph.content_digest().encode())
            h.update(np.ascontiguousarray(self.weights).tobytes())
            h.update(repr(self.names).encode())
            self._digest = h.hexdigest()
        return self._digest

    def __repr__(self) -> str:
        return (
            f"VectorGraph(n={self.n}, m={self.m}, "
            f"resources={self.n_resources})"
        )


class VectorRefinementState(RefinementState):
    """:class:`RefinementState` extended with a tracked ``(k, R)`` load matrix.

    Every move updates ``loads`` in O(R) on top of the parent's
    O(deg(u) + k) bookkeeping, and rollback undoes it exactly (the load
    update lives inside ``_move``, which the trail replays in reverse).
    The *constraints* object threaded through the FM driver is a
    :class:`VectorConstraints`; the parent's evaluator reads only its
    ``bmax`` and asks :meth:`_resource_deltas` for the resource half, so
    the two engines can never drift on the bandwidth arithmetic.
    """

    __slots__ = ("weights", "loads", "_rmax_cache")

    def __init__(
        self,
        g: WGraph,
        weights: np.ndarray,
        assign: np.ndarray,
        k: int,
        conn_format: str = "auto",
    ) -> None:
        w = check_weight_matrix(g, weights)
        super().__init__(g, assign, k, conn_format=conn_format)
        self.weights = w
        loads = np.zeros((self.k, w.shape[1]), dtype=np.float64)
        np.add.at(loads, self.assign, w)
        self.loads = loads
        self._rmax_cache: tuple[tuple[float, ...], np.ndarray] | None = None

    @property
    def n_resources(self) -> int:
        return int(self.weights.shape[1])

    # ------------------------------------------------------------------ #
    # constraint plumbing
    # ------------------------------------------------------------------ #
    def _rmax(self, constraints: VectorConstraints) -> np.ndarray:
        """``rmax`` as an array, cached per constraints tuple (hot path)."""
        cached = self._rmax_cache
        if cached is None or cached[0] != constraints.rmax:
            arr = np.asarray(constraints.rmax, dtype=np.float64)
            if arr.size != self.n_resources:
                raise PartitionError(
                    f"constraints cap {arr.size} resources, "
                    f"state tracks {self.n_resources}"
                )
            cached = (constraints.rmax, arr)
            self._rmax_cache = cached
        return cached[1]

    # ------------------------------------------------------------------ #
    # overridden engine surface
    # ------------------------------------------------------------------ #
    def overloaded_mask(self, constraints: VectorConstraints) -> np.ndarray:
        """Parts over *any* resource cap — the vector escape rule."""
        return np.any(self.loads > self._rmax(constraints), axis=1)

    def key(self, constraints: VectorConstraints) -> tuple[float, float]:
        """``(total violation, cut)`` under vector constraints."""
        upper = self.bw.take(self._iu_flat)
        cut = float(upper.sum())
        v = float(
            np.maximum(self.loads - self._rmax(constraints), 0.0).sum()
        )
        if np.isfinite(constraints.bmax):
            v += float(np.maximum(upper - constraints.bmax, 0.0).sum())
        return (v, cut)

    def metrics(
        self, constraints: VectorConstraints | None = None
    ) -> MultiResMetrics:
        """:class:`MultiResMetrics` from the tracked matrices, no rescan."""
        if constraints is None:
            constraints = VectorConstraints(
                bmax=float("inf"),
                rmax=(float("inf"),) * self.n_resources,
            )
        rmax = self._rmax(constraints)
        upper = self.bw.take(self._iu_flat)
        if np.isfinite(constraints.bmax):
            bw_violation = float(
                np.maximum(upper - constraints.bmax, 0.0).sum()
            )
        else:
            bw_violation = 0.0
        return MultiResMetrics(
            k=self.k,
            cut=float(upper.sum()),
            max_local_bandwidth=float(self.bw.max()) if self.k > 1 else 0.0,
            max_loads=tuple(float(x) for x in self.loads.max(axis=0)),
            bandwidth_violation=bw_violation,
            resource_violation=float(
                np.maximum(self.loads - rmax, 0.0).sum()
            ),
        )

    def _move(self, u: int, dest: int) -> int:
        src = super()._move(u, dest)
        if src >= 0:
            w_u = self.weights[u]
            self.loads[src] -= w_u
            self.loads[dest] += w_u
        return src

    def _resource_deltas(self, nodes, srcs, rows, dests, constraints):
        """The evaluator's resource hook: the componentwise load ReLU
        summed over resources, in place of the scalar part-weight one."""
        rmax = self._rmax(constraints)
        loads = self.loads
        w = self.weights[nodes]
        ls = loads[srcs]
        shed = (
            np.maximum(ls - w - rmax, 0.0).sum(axis=1)
            - np.maximum(ls - rmax, 0.0).sum(axis=1)
        )
        ld = loads[dests]
        return shed[rows] + (
            np.maximum(ld + w[rows] - rmax, 0.0) - np.maximum(ld - rmax, 0.0)
        ).sum(axis=1)

    def _node_resource_deltas(self, u, src, dests, constraints, view):
        """One node's :meth:`_resource_deltas`, as a list."""
        return self._resource_deltas(
            slice(u, u + 1), slice(src, src + 1), slice(None), dests,
            constraints,
        ).tolist()

    def copy(self) -> "VectorRefinementState":
        out = super().copy()
        # super().copy() allocates the subclass via object.__new__(type(self))
        out.weights = self.weights
        out.loads = self.loads.copy()
        out._rmax_cache = None
        return out

    def recompute(self) -> None:
        """Rebuild everything from scratch (tests/debugging only)."""
        super().recompute()
        loads = np.zeros((self.k, self.weights.shape[1]), dtype=np.float64)
        np.add.at(loads, self.assign, self.weights)
        self.loads = loads

    def __repr__(self) -> str:
        return (
            f"VectorRefinementState(n={self.g.n}, k={self.k}, "
            f"R={self.n_resources}, cut={self.cut:g})"
        )
