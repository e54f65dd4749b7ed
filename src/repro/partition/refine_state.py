"""Shared vectorized refinement engine.

Every refinement pass in this package (greedy k-way boundary refinement,
kmetis rebalancing, the paper's constrained FM, two-way FM, KL) needs the
same four quantities kept current under single-node moves:

* the per-node **part-connectivity store** (``conn[c, u]`` = summed weight
  of *u*'s edges into part *c*, plus the matching neighbour counts — the
  KaHyPar-style "gain cache"; a node's cut gain to any destination is one
  subtraction away), kept either as dense ``(k, n)`` matrices or as packed
  degree-sized slices (:mod:`repro.partition.conn_store`),
* per-part **resource weights** and node counts,
* the pairwise **bandwidth matrix** ``bw`` (and hence the global cut), and
* the **boundary set** — nodes with at least one neighbour in another part,
  tracked through an integer neighbour-count matrix so membership is exact
  (never a float comparison).

:class:`RefinementState` maintains all of them in **O(deg(u) + k)** numpy
work per move (the per-node predecessor, frozen in
``benchmarks/_legacy_refine.py``, paid O(k·deg(u)) in Python per move and
O(m) per boundary query).  It also
keeps a move trail so a pass can rewind to its best prefix in O(moves·deg)
instead of rebuilding state from a saved assignment copy.

:class:`BucketQueue` is the float-weight analogue of the Fiduccia-Mattheyses
gain-bucket array: an addressable min-priority structure that buckets entries
by exact key and serves equal keys FIFO.  Process-network gains are floats
(bandwidths), so a dense integer bucket array does not apply; but gain values
repeat heavily, so one heap entry per *distinct* key plus O(1) bucket
appends beats one heap entry per pending move.

Data-structure invariants are documented in ``docs/refinement.md``.
"""

from __future__ import annotations

import heapq
import math
from collections import deque

import numpy as np

from repro.graph.wgraph import WGraph
from repro.obs.memory import note_bytes
from repro.partition.conn_store import _flat_slice_indices, make_conn_store
from repro.partition.metrics import (
    ConstraintSpec,
    PartitionMetrics,
    check_assignment,
)
from repro.util.errors import PartitionError

__all__ = [
    "RefinementState",
    "BucketQueue",
    "select_best_move",
    "select_escape_move",
    "constrained_key",
    "upper_flat_index",
    "metrics_from_matrices",
]


def constrained_key(
    bw: np.ndarray,
    part_weight: np.ndarray,
    iu_flat: np.ndarray,
    constraints: ConstraintSpec,
) -> tuple[float, float]:
    """``(total violation, cut)`` from tracked matrices — the FM best-prefix
    key.  Shared by the graph engine and the hypergraph Φ engine so the
    two can never drift apart (their 2-pin move-for-move parity depends on
    computing this identically).

    *iu_flat* is the upper triangle's flat index into ``bw`` in
    ``np.triu_indices`` order, so ``bw.take(iu_flat)`` reads the same
    values in the same order as ``bw[np.triu_indices(k, 1)]`` with one
    1-D gather instead of a 2-D one."""
    upper = bw.take(iu_flat)
    cut = float(upper.sum())
    v = 0.0
    if math.isfinite(constraints.rmax):
        v += float(np.maximum(part_weight - constraints.rmax, 0.0).sum())
    if math.isfinite(constraints.bmax):
        v += float(np.maximum(upper - constraints.bmax, 0.0).sum())
    return (v, cut)


def upper_flat_index(k: int) -> np.ndarray:
    """Flat indices of a ``(k, k)`` matrix's strict upper triangle, in
    ``np.triu_indices(k, 1)`` order (the *iu_flat* of
    :func:`constrained_key`)."""
    rows, cols = np.triu_indices(k, k=1)
    return rows * k + cols


def metrics_from_matrices(
    bw: np.ndarray,
    part_weight: np.ndarray,
    k: int,
    constraints: ConstraintSpec,
) -> PartitionMetrics:
    """:class:`PartitionMetrics` from tracked matrices, no graph rescan.
    Shared by both engines (see :func:`constrained_key`)."""
    if np.isfinite(constraints.bmax):
        bw_violation = float(
            np.triu(np.maximum(bw - constraints.bmax, 0.0), k=1).sum()
        )
    else:
        bw_violation = 0.0
    if np.isfinite(constraints.rmax):
        res_violation = float(
            np.maximum(part_weight - constraints.rmax, 0.0).sum()
        )
    else:
        res_violation = 0.0
    return PartitionMetrics(
        k=k,
        cut=float(np.triu(bw, k=1).sum()),
        max_local_bandwidth=float(bw.max()) if k > 1 else 0.0,
        max_resource=float(part_weight.max()) if k > 0 else 0.0,
        bandwidth_violation=bw_violation,
        resource_violation=res_violation,
    )


def select_best_move(
    dv: list[float], dc: list[float], dests: list[int]
) -> tuple[float, float, int] | None:
    """Min ``(dv[i], dc[i], dests[i])`` — one node's best move.

    *dests* are the candidate destinations (never the node's own part),
    *dv*/*dc* their deltas in the same order.  The hypergraph Φ engine's
    per-node selection; the graph engine's :meth:`RefinementState._node_move`
    keeps the same minimum as it scores, and :func:`select_escape_move`
    takes it over k-wide rows, so every path breaks ties alike.  ``None``
    when there is no candidate.
    """
    return min(zip(dv, dc, dests), default=None)


def select_escape_move(
    dv: np.ndarray, dc: np.ndarray, src: int
) -> tuple[float, float, int] | None:
    """:func:`select_best_move` over every part but *src* — the escape
    rule's selection over the k-wide ``move_deltas`` rows *dv*/*dc*.

    One masked lexicographic min in numpy: the least ``dv``, among its
    ties the least ``dc``, among those the smallest part (``argmin``
    returns the first).  Overwrites the rows' *src* entries; ``dc`` is
    always finite, so a masked entry never wins a tie.  Shared by both
    engines' escape paths.
    """
    if dv.size < 2:
        return None
    dv[src] = np.inf
    dc[src] = np.inf
    tie = (dv == dv.min()).nonzero()[0]
    i = int(tie[0] if tie.size == 1 else tie[dc[tie].argmin()])
    return (float(dv[i]), float(dc[i]), i)


#: :meth:`RefinementState.best_moves` scores a batch with one numpy pass
#: from this many nodes on; below it, the per-node loop is cheaper than
#: the pass's fixed cost.  See docs/refinement.md ("Move evaluation")
#: for the measurement.
_BATCH_MIN_NODES = 11


class _EpochView:
    """Python-float copies of what the per-node evaluator reads, valid for
    one ``(epoch, constraints)`` pair: nothing moves between two
    evaluations at one epoch, so the overloaded-part mask, the part
    weights and each bandwidth row are converted once per move instead of
    once per node."""

    __slots__ = ("epoch", "constraints", "over", "pw", "_bw", "_rows")

    def __init__(self, state: "RefinementState", constraints) -> None:
        self.epoch = state.epoch
        self.constraints = constraints
        self.over = state.overloaded_mask(constraints).tolist()
        self.pw = state.part_weight.tolist()
        self._bw = state.bw
        self._rows: dict[int, list[float]] = {}

    def bw_row(self, p: int) -> list[float]:
        row = self._rows.get(p)
        if row is None:
            row = self._rows[p] = self._bw[p].tolist()
        return row


class BucketQueue:
    """Addressable FIFO bucket min-priority queue over hashable keys.

    ``push(key, item)`` is O(1) amortised when *key* already has a bucket
    (the common case: gains repeat), O(log K) otherwise, for K distinct live
    keys.  ``pop()`` returns ``(key, item)`` with the smallest key; equal
    keys pop in insertion order, which is the documented tie-breaking rule
    (see docs/refinement.md).  Stale-entry invalidation is the caller's job,
    exactly as with the lazy heaps this structure replaces.
    """

    __slots__ = ("_buckets", "_keyheap", "_size")

    def __init__(self) -> None:
        self._buckets: dict = {}
        self._keyheap: list = []
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def __bool__(self) -> bool:
        return self._size > 0

    def push(self, key, item) -> None:
        bucket = self._buckets.get(key)
        if bucket is None:
            # invariant: key sits in the heap exactly once iff it has a bucket
            self._buckets[key] = bucket = deque()
            heapq.heappush(self._keyheap, key)
        bucket.append(item)
        self._size += 1

    def pop(self):
        """Smallest ``(key, item)``; raises IndexError when empty."""
        while self._keyheap:
            key = self._keyheap[0]
            bucket = self._buckets[key]
            if not bucket:
                heapq.heappop(self._keyheap)
                del self._buckets[key]
                continue
            self._size -= 1
            return key, bucket.popleft()
        raise IndexError("pop from empty BucketQueue")


class RefinementState:
    """Mutable k-way assignment with vectorized incremental bookkeeping.

    Parameters
    ----------
    g, assign, k:
        Graph, initial node→part assignment (validated, copied), part count.
    conn_format:
        Connectivity-store layout (:mod:`repro.partition.conn_store`):
        ``"dense"`` — the historical ``(k, n)`` matrices; ``"sparse"`` —
        packed per-node slices sized by degree; ``"auto"`` (default) —
        sparse iff ``k * n`` crosses the module threshold.  Both formats
        answer every query identically under integer-valued weights.

    Notes
    -----
    All tracked quantities are exact under integer-valued weights; the
    invariant suite (``tests/test_refine_invariants.py``) checks them against
    from-scratch recomputation after every pass.
    """

    __slots__ = (
        "g",
        "k",
        "assign",
        "_store",
        "_degrees",
        "part_weight",
        "part_size",
        "bw",
        "_trail",
        "_iu_flat",
        "_epoch",
        "_relu_cache",
        "_view_cache",
    )

    def __init__(
        self,
        g: WGraph,
        assign: np.ndarray,
        k: int,
        conn_format: str = "auto",
    ) -> None:
        self.g = g
        self.k = int(k)
        a = check_assignment(g, assign, k).copy()
        self.assign = a
        n = g.n

        store = make_conn_store(g, a, self.k, conn_format)
        self._store = store
        # degrees are invariant — cached here so the boundary scan never
        # rebuilds them from CSR (it runs per FM frontier refresh)
        indptr = g.csr[0]
        self._degrees = indptr[1:] - indptr[:-1]

        # the connectivity store dominates refinement memory
        note_bytes("refine_state.conn", store.nbytes,
                   engine=type(self).__name__, k=self.k, n=n,
                   format=store.format)

        pw = np.zeros(self.k, dtype=np.float64)
        np.add.at(pw, a, g.node_weights)
        self.part_weight = pw
        self.part_size = np.bincount(a, minlength=self.k)

        eu, ev, ew = g.edge_array
        bw = np.zeros((self.k, self.k), dtype=np.float64)
        cu, cv = a[eu], a[ev]
        crossing = cu != cv
        np.add.at(bw, (cu[crossing], cv[crossing]), ew[crossing])
        np.add.at(bw, (cv[crossing], cu[crossing]), ew[crossing])
        self.bw = bw

        self._trail: list[tuple[int, int]] = []
        self._iu_flat = upper_flat_index(self.k)
        self._epoch = 0  # bumped on every move; keys the relu cache
        self._relu_cache: tuple[int, float, np.ndarray] | None = None
        self._view_cache: _EpochView | None = None

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    @property
    def cut(self) -> float:
        return float(self.bw.take(self._iu_flat).sum())

    @property
    def epoch(self) -> int:
        """Monotone move counter.  Any cached gain computed at the current
        epoch is still exact — nothing has moved since."""
        return self._epoch

    @property
    def conn_format(self) -> str:
        """Layout of the connectivity store (``"dense"`` or ``"sparse"``)."""
        return self._store.format

    @property
    def conn(self) -> np.ndarray:
        """The ``(k, n)`` part-connectivity weight matrix.

        On the dense store this is the live backing array; on the sparse
        store it is **materialised on every access** — tests and
        debugging only, never a hot path.
        """
        return self._store.dense_conn()

    @property
    def ncnt(self) -> np.ndarray:
        """The ``(k, n)`` neighbour-count matrix (see :attr:`conn`)."""
        return self._store.dense_counts()

    def connection_vector(self, u: int) -> np.ndarray:
        """Weight of *u*'s edges into each part, shape ``(k,)`` (a copy)."""
        return self._store.col(u)

    def conn_entries(self, u: int) -> list[tuple[int, float]]:
        """``(part, weight)`` for every part *u* has positive-weight edges
        into, in ascending part order — O(deg), independent of k."""
        return self._store.node_entries(u)

    def conn_at(self, parts: np.ndarray) -> np.ndarray:
        """``out[i] = conn[parts[i], i]`` — one weight gather per node.

        The two-way engines (FM bisection, KL) build whole-graph gain
        vectors from two of these gathers; going through the store keeps
        them layout-agnostic.
        """
        return self._store.conn_at(parts)

    def conn_columns(self, nodes: np.ndarray) -> np.ndarray:
        """Connectivity columns of *nodes* as a ``(len(nodes), k)`` array."""
        return self._store.gather_cols(nodes)

    def gain(self, u: int, dest: int) -> float:
        """Cut reduction if *u* moved to part *dest* (negative = worse)."""
        src = int(self.assign[u])
        if dest == src:
            return 0.0
        return self._store.gain_pair(u, src, dest)

    def boundary_mask(self) -> np.ndarray:
        """Boolean mask of nodes with ≥1 neighbour in a different part."""
        return (self._degrees - self._store.same_part_counts(self.assign)) > 0

    def boundary_nodes(self) -> np.ndarray:
        """Sorted array of boundary-node ids (the explicit boundary set)."""
        return np.nonzero(self.boundary_mask())[0]

    def key(self, constraints: ConstraintSpec) -> tuple[float, float]:
        """``(total violation, cut)`` — the FM best-prefix key — computed
        from one gather of the upper bandwidth triangle."""
        return constrained_key(
            self.bw, self.part_weight, self._iu_flat, constraints
        )

    def overloaded_mask(self, constraints: ConstraintSpec) -> np.ndarray:
        """Boolean ``(k,)`` mask of parts over the resource cap.

        The hook behind the FM escape rule: a node in an overloaded part
        may move to *any* part, and every node of an overloaded part is an
        FM seed.  The vector-resource engine overrides this with the
        componentwise test (any resource over its cap) — the only place
        the seam needs to know what "over budget" means.
        """
        if np.isfinite(constraints.rmax):
            return self.part_weight > constraints.rmax
        return np.zeros(self.k, dtype=bool)

    def overloaded_nodes(self, constraints: ConstraintSpec) -> np.ndarray:
        """Sorted ids of nodes living in an over-cap part (FM extra seeds)."""
        return np.nonzero(self.overloaded_mask(constraints)[self.assign])[0]

    def metrics(self, constraints: ConstraintSpec | None = None) -> PartitionMetrics:
        """:class:`PartitionMetrics` from the tracked matrices — no graph
        rescan (the whole point of the incremental engine)."""
        constraints = constraints or ConstraintSpec()
        return metrics_from_matrices(
            self.bw, self.part_weight, self.k, constraints
        )

    # ------------------------------------------------------------------ #
    # flow-refinement hooks (see repro.partition.flow_refine)
    # ------------------------------------------------------------------ #
    def flow_adjacency(self, u: int) -> tuple[np.ndarray, np.ndarray]:
        """Weighted adjacency of *u* for corridor growth and network build:
        ``(neighbour ids, edge weights)``.  On a plain graph this is the
        CSR row; the hypergraph Φ engine overrides it with a clique
        expansion of the incident nets."""
        return self.g.neighbor_weights(u)

    def pair_boundary(self, a: int, b: int) -> np.ndarray:
        """Sorted ids of nodes in part *a* or *b* with connectivity into
        the other — the seed set of a flow corridor."""
        assign = self.assign
        store = self._store
        mask = ((assign == a) & store.touching(b)) | (
            (assign == b) & store.touching(a)
        )
        return np.nonzero(mask)[0]

    def flow_node_weights(self) -> np.ndarray:
        """Per-node weights for the most-balanced min-cut heuristic.  The
        scalar resource on graph engines; engines with richer resource
        models keep this scalar (acceptance runs on :meth:`key`, which is
        componentwise where it needs to be)."""
        return self.g.node_weights

    # ------------------------------------------------------------------ #
    # moves and rollback
    # ------------------------------------------------------------------ #
    def move(self, u: int, dest: int) -> None:
        """Move node *u* to part *dest* in O(deg(u) + k), logging the move."""
        src = self._move(u, dest)
        if src >= 0:
            self._trail.append((u, src))

    def _move(self, u: int, dest: int) -> int:
        """Unlogged move; returns the source part, or -1 for a no-op."""
        src = int(self.assign[u])
        dest = int(dest)
        if not (0 <= dest < self.k):
            raise PartitionError(f"destination part {dest} out of range")
        if dest == src:
            return -1
        g = self.g
        cu = self._store.col(u)
        bw = self.bw
        # bw row/col updates; the diagonal corrections undo the double hit
        bw[src, :] -= cu
        bw[:, src] -= cu
        bw[src, src] += 2.0 * cu[src]
        bw[dest, :] += cu
        bw[:, dest] += cu
        bw[dest, dest] -= 2.0 * cu[dest]

        nbrs, ws = g.neighbor_weights(u)
        self._store.apply_move(src, dest, nbrs, ws)

        w_u = float(g.node_weights[u])
        self.part_weight[src] -= w_u
        self.part_weight[dest] += w_u
        self.part_size[src] -= 1
        self.part_size[dest] += 1
        self.assign[u] = dest
        self._epoch += 1
        return src

    def snapshot(self) -> int:
        """Opaque mark of the current move-trail position."""
        return len(self._trail)

    def rollback(self, mark: int) -> None:
        """Rewind to :meth:`snapshot` mark *mark*, undoing moves in reverse."""
        if not (0 <= mark <= len(self._trail)):
            raise PartitionError(
                f"rollback mark {mark} outside trail of {len(self._trail)}"
            )
        while len(self._trail) > mark:
            u, src = self._trail.pop()
            self._move(u, src)

    def clear_trail(self) -> None:
        """Drop rollback history (call when a prefix is committed for good)."""
        self._trail.clear()

    def copy(self) -> "RefinementState":
        """Independent copy sharing only the immutable graph.

        Allocates ``type(self)`` so subclasses (the vector-resource state)
        can extend the copy with their own tracked matrices.
        """
        out = object.__new__(type(self))
        out.g = self.g
        out.k = self.k
        out.assign = self.assign.copy()
        out._store = self._store.copy()
        out._degrees = self._degrees
        out.part_weight = self.part_weight.copy()
        out.part_size = self.part_size.copy()
        out.bw = self.bw.copy()
        out._trail = list(self._trail)
        out._iu_flat = self._iu_flat
        out._epoch = 0
        out._relu_cache = None
        out._view_cache = None
        return out

    # ------------------------------------------------------------------ #
    # move evaluation
    # ------------------------------------------------------------------ #
    def _relu_bw(self, bmax: float) -> np.ndarray:
        """``max(bw - bmax, 0)``, cached per move epoch (bw is fixed between
        moves, and every evaluation in between reads it)."""
        cached = self._relu_cache
        if cached is not None and cached[0] == self._epoch and cached[1] == bmax:
            return cached[2]
        relu = np.maximum(self.bw - bmax, 0.0)
        self._relu_cache = (self._epoch, bmax, relu)
        return relu

    def _view(self, constraints) -> _EpochView:
        view = self._view_cache
        if (
            view is None
            or view.epoch != self._epoch
            or (view.constraints is not constraints
                and view.constraints != constraints)
        ):
            view = self._view_cache = _EpochView(self, constraints)
        return view

    def _resource_deltas(
        self,
        nodes: np.ndarray,
        srcs: np.ndarray,
        rows: np.ndarray,
        dests: np.ndarray,
        constraints,
    ) -> np.ndarray | None:
        """Resource-violation delta of moving ``nodes[rows[i]]`` from its
        part ``srcs[rows[i]]`` to ``dests[i]``, for every *i*; ``None``
        when resources are unconstrained.  Any of the four may be a basic
        slice (the vector-resource state's single-node forms pass one
        node), which broadcasts to the same per-entry arithmetic.

        The evaluator's per-destination hook: the vector-resource state
        overrides it with the componentwise load term and inherits
        everything else.
        """
        rmax = constraints.rmax
        if not math.isfinite(rmax):
            return None
        pw = self.part_weight
        w = self.g.node_weights[nodes]
        ps = pw[srcs]
        shed = np.maximum(ps - w - rmax, 0.0) - np.maximum(ps - rmax, 0.0)
        pd = pw[dests]
        return shed[rows] + (
            np.maximum(pd + w[rows] - rmax, 0.0) - np.maximum(pd - rmax, 0.0)
        )

    #: The single-node half of the resource hook: ``None`` here, where
    #: :meth:`_node_move` and :meth:`move_deltas` compute
    #: :meth:`_resource_deltas`' scalar term inline in Python floats,
    #: term for term; the vector-resource state sets it to a method
    #: ``(u, src, dests, constraints, view) -> list[float]``, and
    #: :meth:`move_deltas` then calls its :meth:`_resource_deltas`.
    _node_resource_deltas = None

    def move_deltas(
        self, u: int, constraints: ConstraintSpec
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(violation_delta, cut_delta)`` of moving *u* to every part.

        Shape ``(k,)`` each; entries at ``assign[u]`` are zero.  Negative
        values are improvements.  O(k²) numpy over the whole row — the
        escape path of :meth:`best_moves`, and the reference the tests
        hold the degree-local evaluator to.
        """
        src = int(self.assign[u])
        cu = self._store.col(u)
        k = self.k
        if self._node_resource_deltas is not None:
            # the overriding state's hook on basic slices (one node, every
            # part): the same per-entry arithmetic, without the gathers
            every = slice(None)
            dv = self._resource_deltas(
                slice(u, u + 1), slice(src, src + 1), every, every,
                constraints,
            )
        elif math.isfinite(constraints.rmax):
            # the scalar term of _resource_deltas, its shed in Python floats
            rmax = constraints.rmax
            pw = self.part_weight
            w_u = float(self.g.node_weights[u])
            ps = float(pw[src])
            shed = max(ps - w_u - rmax, 0.0) - max(ps - rmax, 0.0)
            dv = shed + (
                np.maximum(pw + w_u - rmax, 0.0) - np.maximum(pw - rmax, 0.0)
            )
        else:
            dv = np.zeros(k)
        bmax = constraints.bmax
        if np.isfinite(bmax):
            relu_bw = self._relu_bw(bmax)
            bws = self.bw[src]
            relu_src = relu_bw[src]  # == max(bws - bmax, 0), pre-reduced
            t = bws - cu
            shed_c = np.maximum(t - bmax, 0.0) - relu_src
            shed_c[src] = 0.0
            # adding u's connectivity onto each candidate row d
            add = np.maximum(self.bw + cu[None, :] - bmax, 0.0) - relu_bw
            add[:, src] = 0.0
            add_d = add.sum(axis=1) - np.diagonal(add)
            # the src↔dest entry changes by cu[src] - cu[dest]
            sd = np.maximum(t + cu[src] - bmax, 0.0) - relu_src
            dv += (shed_c.sum() - shed_c) + add_d + sd
        dc = cu[src] - cu
        dv[src] = 0.0
        dc[src] = 0.0
        return dv, dc

    def best_move(
        self, u: int, constraints: ConstraintSpec
    ) -> tuple[float, float, int] | None:
        """Best ``(violation_delta, cut_delta, dest)`` for node *u*.

        Candidate destinations are the parts *u* already connects to; when
        *u*'s part is over the resource cap, every part is a candidate (the
        escape rule).  Ties break lexicographically, last on the smallest
        part id.  Returns ``None`` when no candidate exists.
        """
        u = int(u)
        src = int(self.assign[u])
        view = self._view(constraints)
        if view.over[src]:
            return self._escape_move(u, src, constraints)
        return self._node_move(u, src, constraints, view)

    def best_moves(
        self, nodes: np.ndarray, constraints: ConstraintSpec
    ) -> list[tuple[float, float, int] | None]:
        """:meth:`best_move` over *nodes* (order preserved).

        The degree-local evaluator: every violation and cut term of a part
        a node does not touch is exactly zero, so only the nodes' live
        connectivity entries are scored — from ``_BATCH_MIN_NODES`` nodes
        on, one numpy pass over O(Σ deg) entries and O(Σ deg²) bandwidth
        pairs, never a ``(k,)`` row per node; smaller batches run
        :meth:`_node_move` per node.  Escape nodes score all k parts
        through :meth:`move_deltas`.
        """
        nodes = np.asarray(nodes, dtype=np.int64)
        if nodes.size < _BATCH_MIN_NODES:
            view = self._view(constraints)
            over = view.over
            return [
                self._escape_move(u, src, constraints) if over[src]
                else self._node_move(u, src, constraints, view)
                for u, src in zip(nodes.tolist(), self.assign[nodes].tolist())
            ]
        out: list = [None] * nodes.size
        srcs = self.assign[nodes]
        escape = self.overloaded_mask(constraints)[srcs]
        for i in np.flatnonzero(escape).tolist():
            out[i] = self._escape_move(int(nodes[i]), int(srcs[i]), constraints)
        rows, parts, ws = self._store.entries(nodes)
        own = parts == srcs[rows]
        cu_src = np.zeros(nodes.size)
        cu_src[rows[own]] = ws[own]
        cand = ~own & ~escape[rows]
        r, d, x = rows[cand], parts[cand], ws[cand]
        if r.size == 0:
            return out
        dv, dc = self._candidate_deltas(nodes, srcs, cu_src, r, d, x, constraints)
        # per node, the lexicographic min of (dv, dc, dest)
        order = np.lexsort((d, dc, dv, r))
        head = np.ones(order.size, dtype=bool)
        head[1:] = r[order[1:]] != r[order[:-1]]
        pick = order[head]
        for i, a, b, c in zip(
            r[pick].tolist(), dv[pick].tolist(), dc[pick].tolist(),
            d[pick].tolist(),
        ):
            out[i] = (a, b, c)
        return out

    def _escape_move(self, u: int, src: int, constraints) -> tuple | None:
        """The escape rule: every part but *src* is a candidate."""
        return select_escape_move(*self.move_deltas(u, constraints), src)

    def _node_move(
        self, u: int, src: int, constraints, view: _EpochView
    ) -> tuple[float, float, int] | None:
        """Best move of the single node *u* among the parts it touches —
        the Python-float twin of :meth:`_candidate_deltas` plus the
        selection, for calls too small to pay a numpy pass.

        One loop scores and selects: per candidate, the resource term,
        the bandwidth term with the same float operations in the same
        order as the numpy pass, and the running lexicographic minimum.
        Candidates come in ascending part order, so keeping the first of
        equal ``(dv, dc)`` pairs is the smallest-part tie-break.
        """
        cu_src, dests, cus = 0.0, [], []
        for p, x in self._store.node_entries(u):
            if p == src:
                cu_src = x
            else:
                dests.append(p)
                cus.append(x)
        if not dests:
            return None
        hook = self._node_resource_deltas
        res = None if hook is None else hook(u, src, dests, constraints, view)
        scalar = hook is None and math.isfinite(constraints.rmax)
        if scalar:
            rmax = constraints.rmax
            pw = view.pw
            w_u = float(self.g.node_weights[u])
            shed_r = max(pw[src] - w_u - rmax, 0.0) - max(pw[src] - rmax, 0.0)
        bmax = constraints.bmax
        bounded = math.isfinite(bmax)
        if bounded:
            bw_row = view.bw_row
            bsrc = bw_row(src)
            shed = []
            for c, x in zip(dests, cus):
                t, o = bsrc[c] - x - bmax, bsrc[c] - bmax
                shed.append((t if t > 0.0 else 0.0) - (o if o > 0.0 else 0.0))
            total = 0.0
            for v in shed:
                total += v
        best = None
        for i, d in enumerate(dests):
            if scalar:
                t, o = pw[d] + w_u - rmax, pw[d] - rmax
                v = shed_r + ((t if t > 0.0 else 0.0) - (o if o > 0.0 else 0.0))
            else:
                v = 0.0 if res is None else res[i]
            if bounded:
                bd = bw_row(d)
                add = 0.0
                for c, x in zip(dests, cus):
                    if c != d:
                        t, o = bd[c] + x - bmax, bd[c] - bmax
                        add += (t if t > 0.0 else 0.0) - (o if o > 0.0 else 0.0)
                t, o = bsrc[d] - cus[i] + cu_src - bmax, bsrc[d] - bmax
                sd = (t if t > 0.0 else 0.0) - (o if o > 0.0 else 0.0)
                v = v + (((total - shed[i]) + add) + sd)
            dc = cu_src - cus[i]
            if best is None or v < best_dv or (v == best_dv and dc < best_dc):
                best, best_dv, best_dc = d, v, dc
        return (best_dv, best_dc, best)

    def _candidate_deltas(
        self,
        nodes: np.ndarray,
        srcs: np.ndarray,
        cu_src: np.ndarray,
        r: np.ndarray,
        d: np.ndarray,
        x: np.ndarray,
        constraints,
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(dv, dc)`` of moving ``nodes[r[i]]`` to the part ``d[i]`` it
        touches with weight ``x[i]``; ``cu_src`` is each node's weight into
        its own part.  *r* is ascending, so a node's candidates are
        contiguous."""
        dv = self._resource_deltas(nodes, srcs, r, d, constraints)
        if dv is None:
            dv = np.zeros(r.size)
        bmax = constraints.bmax
        if math.isfinite(bmax):
            dv = dv + self._bandwidth_deltas(srcs, cu_src, r, d, x, bmax)
        return dv, cu_src[r] - x

    def _bandwidth_deltas(
        self,
        srcs: np.ndarray,
        cu_src: np.ndarray,
        r: np.ndarray,
        d: np.ndarray,
        x: np.ndarray,
        bmax: float,
    ) -> np.ndarray:
        """Bandwidth-violation part of :meth:`_candidate_deltas`.

        Moving to *d* takes ``x[c]`` off every ``bw[src, c]`` and puts it
        on every ``bw[d, c]``, and changes ``bw[src, d]`` by
        ``cu_src - x[d]``; a part the node does not touch changes no
        entry, so the sums run over the node's candidates only.  Same
        per-entry expressions as :meth:`move_deltas`.
        """
        bw, relu = self.bw, self._relu_bw(bmax)
        s = srcs[r]
        shed = np.maximum(bw[s, d] - x - bmax, 0.0) - relu[s, d]
        total = np.bincount(r, weights=shed, minlength=srcs.size)
        # every (candidate i, other candidate j of the same node) pair
        cnt = np.bincount(r, minlength=srcs.size)
        start = np.cumsum(cnt) - cnt
        pi, pj = _flat_slice_indices(start[r], cnt[r])
        other = pi != pj
        pi, pj = pi[other], pj[other]
        dd, dc_ = d[pi], d[pj]
        term = np.maximum(bw[dd, dc_] + x[pj] - bmax, 0.0) - relu[dd, dc_]
        add = np.bincount(pi, weights=term, minlength=r.size)
        sd = np.maximum(bw[s, d] - x + cu_src[r] - bmax, 0.0) - relu[s, d]
        return ((total[r] - shed) + add) + sd

    def recompute(self) -> None:
        """Rebuild everything from scratch (tests/debugging only).

        Invalidates everything keyed to the pre-rebuild matrices: the relu
        cache (its epoch would otherwise still match) and the move trail
        (rolling back across a rebuild would corrupt the fresh state).
        """
        fresh = RefinementState(
            self.g, self.assign, self.k, conn_format=self._store.format
        )
        self._store = fresh._store
        self.part_weight = fresh.part_weight
        self.part_size = fresh.part_size
        self.bw = fresh.bw
        self._epoch += 1
        self._relu_cache = None
        self._view_cache = None
        self._trail.clear()

    def __repr__(self) -> str:
        return (
            f"RefinementState(n={self.g.n}, k={self.k}, cut={self.cut:g}, "
            f"boundary={int(self.boundary_mask().sum())})"
        )
