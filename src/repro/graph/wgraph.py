"""Core weighted undirected graph used throughout the library.

Design notes
------------
* Nodes are dense integer ids ``0 .. n-1``.  Node weights model FPGA
  resources (``R_p`` in the paper), edge weights model sustained channel
  bandwidth.  Both are float64 (integer-valued in all paper experiments).
* The structure is immutable after construction.  Algorithms that "modify"
  a graph (contraction, subgraphs) build a new :class:`WGraph`.
* Storage is CSR (``indptr``/``indices``/``weights``) for cache-friendly
  traversal in hot loops, mirroring what a C partitioner (METIS) uses, plus
  a canonical edge list for iteration and I/O.
* Self loops are rejected: a FIFO from a process to itself never crosses a
  partition boundary and carries no mapping cost; the paper's model has none.
* Parallel edges are merged at construction by *summing* their weights —
  exactly the coarsening semantics of Section IV.A of the paper.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

import numpy as np

from repro.util.errors import GraphError

__all__ = ["WGraph"]


def _check_node_weights(n: int, node_weights: Iterable[float]) -> np.ndarray:
    """*node_weights* as a float64 array, checked: *n* of them, finite and
    non-negative."""
    if not isinstance(node_weights, np.ndarray):
        node_weights = list(node_weights)  # generators, tuples, ...
    nw = np.array(node_weights, dtype=np.float64)  # never the caller's array
    if nw.shape != (n,):
        raise GraphError(f"expected {n} node weights, got {nw.shape}")
    if not np.all(np.isfinite(nw)):
        raise GraphError("node weights must be finite")
    if np.any(nw < 0):
        raise GraphError("node weights must be non-negative")
    return nw


class WGraph:
    """Undirected weighted graph with weighted nodes.

    Parameters
    ----------
    n:
        Number of nodes (ids ``0..n-1``).
    edges:
        Iterable of ``(u, v, weight)`` triples.  ``(u, v)`` and ``(v, u)``
        denote the same edge; duplicates are merged by summing weights.
    node_weights:
        Per-node resource weights; defaults to all ones (the unweighted
        GPP of Section I).

    Raises
    ------
    GraphError
        On out-of-range endpoints, self loops, negative or non-finite
        weights, or a negative node count.
    """

    __slots__ = (
        "_n",
        "_node_weights",
        "_edge_u",
        "_edge_v",
        "_edge_w",
        "_indptr",
        "_indices",
        "_weights",
        "_adj_edge_id",
        "_digest",
    )

    def __init__(
        self,
        n: int,
        edges: Iterable[tuple[int, int, float]] = (),
        node_weights: Iterable[float] | None = None,
    ) -> None:
        if n < 0:
            raise GraphError(f"node count must be >= 0, got {n}")
        self._n = int(n)

        self._node_weights = (
            np.ones(self._n) if node_weights is None
            else _check_node_weights(self._n, node_weights)
        )
        self._node_weights.setflags(write=False)

        # Merge duplicate / reversed edges by summing weights.
        merged: dict[tuple[int, int], float] = {}
        for item in edges:
            try:
                u, v, w = item
            except (TypeError, ValueError) as exc:
                raise GraphError(f"edge {item!r} is not a (u, v, w) triple") from exc
            u, v = int(u), int(v)
            w = float(w)
            if not (0 <= u < self._n and 0 <= v < self._n):
                raise GraphError(
                    f"edge ({u}, {v}) out of range for n={self._n}"
                )
            if u == v:
                raise GraphError(f"self loop on node {u} is not allowed")
            if not np.isfinite(w):
                raise GraphError(f"edge ({u}, {v}) has non-finite weight {w}")
            if w < 0:
                raise GraphError(f"edge ({u}, {v}) has negative weight {w}")
            key = (u, v) if u < v else (v, u)
            merged[key] = merged.get(key, 0.0) + w

        m = len(merged)
        eu = np.empty(m, dtype=np.int64)
        ev = np.empty(m, dtype=np.int64)
        ew = np.empty(m, dtype=np.float64)
        for i, ((u, v), w) in enumerate(sorted(merged.items())):
            eu[i], ev[i], ew[i] = u, v, w
        self._edge_u, self._edge_v, self._edge_w = eu, ev, ew
        for a in (eu, ev, ew):
            a.setflags(write=False)

        # CSR adjacency (both directions).
        deg = np.zeros(self._n, dtype=np.int64)
        np.add.at(deg, eu, 1)
        np.add.at(deg, ev, 1)
        indptr = np.zeros(self._n + 1, dtype=np.int64)
        np.cumsum(deg, out=indptr[1:])
        indices = np.empty(2 * m, dtype=np.int64)
        weights = np.empty(2 * m, dtype=np.float64)
        adj_edge_id = np.empty(2 * m, dtype=np.int64)
        cursor = indptr[:-1].copy()
        for i in range(m):
            u, v, w = eu[i], ev[i], ew[i]
            indices[cursor[u]] = v
            weights[cursor[u]] = w
            adj_edge_id[cursor[u]] = i
            cursor[u] += 1
            indices[cursor[v]] = u
            weights[cursor[v]] = w
            adj_edge_id[cursor[v]] = i
            cursor[v] += 1
        self._indptr, self._indices, self._weights = indptr, indices, weights
        self._adj_edge_id = adj_edge_id
        for a in (indptr, indices, weights, adj_edge_id):
            a.setflags(write=False)
        self._digest: str | None = None

    @classmethod
    def _from_canonical(
        cls,
        n: int,
        eu: np.ndarray,
        ev: np.ndarray,
        ew: np.ndarray,
        node_weights: np.ndarray,
    ) -> "WGraph":
        """Fast construction from already-canonical edge arrays.

        The caller guarantees what ``__init__`` normally establishes:
        ``eu[i] < ev[i]``, pairs strictly lexicographically sorted and
        unique, endpoints in range, weights finite and non-negative.  The
        CSR layout built here is element-for-element identical to the one
        ``__init__`` builds from the same edges (each node's adjacency is
        ordered by ascending canonical edge id), which the coarsening
        differential tests assert.  Internal use only — contraction and
        other hot paths that produce canonical arrays by construction.
        """
        self = object.__new__(cls)
        self._n = int(n)
        nw = np.ascontiguousarray(node_weights, dtype=np.float64).copy()
        if nw.shape != (self._n,):
            raise GraphError(f"expected {self._n} node weights, got {nw.shape}")
        self._node_weights = nw
        eu = np.ascontiguousarray(eu, dtype=np.int64)
        ev = np.ascontiguousarray(ev, dtype=np.int64)
        ew = np.ascontiguousarray(ew, dtype=np.float64).copy()
        m = eu.size
        self._edge_u, self._edge_v, self._edge_w = eu, ev, ew

        deg = np.bincount(eu, minlength=self._n) + np.bincount(
            ev, minlength=self._n
        )
        indptr = np.zeros(self._n + 1, dtype=np.int64)
        np.cumsum(deg, out=indptr[1:])
        # directed entries: edge i contributes (u -> v) and (v -> u); sorting
        # by (endpoint, edge id) reproduces __init__'s fill order exactly
        ends = np.concatenate([eu, ev])
        partners = np.concatenate([ev, eu])
        eid = np.concatenate([np.arange(m), np.arange(m)])
        order = np.lexsort((eid, ends))
        self._indices = partners[order]
        self._weights = np.concatenate([ew, ew])[order]
        self._adj_edge_id = eid[order]
        self._indptr = indptr
        for a in (
            self._node_weights,
            eu,
            ev,
            ew,
            self._indptr,
            self._indices,
            self._weights,
            self._adj_edge_id,
        ):
            a.setflags(write=False)
        self._digest = None
        return self

    def content_digest(self) -> str:
        """Stable hex digest of the full graph content (structure + weights).

        Two graphs compare ``==`` iff their digests agree, so the digest is
        a safe dictionary key for memoising partitioning results (see
        :class:`repro.util.parallel.KeyedCache`).  Computed lazily, cached.
        """
        if self._digest is None:
            import hashlib

            h = hashlib.sha256()
            h.update(str(self._n).encode())
            for a in (
                self._node_weights,
                self._edge_u,
                self._edge_v,
                self._edge_w,
            ):
                h.update(np.ascontiguousarray(a).tobytes())
            self._digest = h.hexdigest()
        return self._digest

    # ------------------------------------------------------------------ #
    # basic accessors
    # ------------------------------------------------------------------ #
    @property
    def n(self) -> int:
        """Number of nodes."""
        return self._n

    @property
    def m(self) -> int:
        """Number of (merged, undirected) edges."""
        return len(self._edge_w)

    @property
    def node_weights(self) -> np.ndarray:
        """Read-only float64 array of node resource weights, shape ``(n,)``."""
        return self._node_weights

    @property
    def edge_array(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Read-only ``(u, v, w)`` arrays in canonical (sorted) edge order."""
        return self._edge_u, self._edge_v, self._edge_w

    @property
    def csr(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Read-only CSR adjacency ``(indptr, indices, weights)``."""
        return self._indptr, self._indices, self._weights

    def degree(self, u: int) -> int:
        """Number of distinct neighbours of *u*."""
        self._check_node(u)
        return int(self._indptr[u + 1] - self._indptr[u])

    def weighted_degree(self, u: int) -> float:
        """Sum of incident edge weights of *u*."""
        self._check_node(u)
        lo, hi = self._indptr[u], self._indptr[u + 1]
        return float(self._weights[lo:hi].sum())

    def neighbors(self, u: int) -> np.ndarray:
        """Read-only array of neighbour ids of *u*."""
        self._check_node(u)
        lo, hi = self._indptr[u], self._indptr[u + 1]
        return self._indices[lo:hi]

    def neighbor_weights(self, u: int) -> tuple[np.ndarray, np.ndarray]:
        """Neighbour ids and matching edge weights of *u* (read-only views)."""
        self._check_node(u)
        lo, hi = self._indptr[u], self._indptr[u + 1]
        return self._indices[lo:hi], self._weights[lo:hi]

    def has_edge(self, u: int, v: int) -> bool:
        self._check_node(u)
        self._check_node(v)
        return v in set(self.neighbors(u).tolist()) if u != v else False

    def edge_weight(self, u: int, v: int) -> float:
        """Weight of edge ``(u, v)``; 0.0 if absent."""
        self._check_node(u)
        self._check_node(v)
        nbrs, ws = self.neighbor_weights(u)
        hits = np.nonzero(nbrs == v)[0]
        return float(ws[hits[0]]) if hits.size else 0.0

    def edges(self) -> Iterator[tuple[int, int, float]]:
        """Iterate canonical ``(u, v, w)`` triples with ``u < v``."""
        for u, v, w in zip(self._edge_u, self._edge_v, self._edge_w):
            yield int(u), int(v), float(w)

    @property
    def total_node_weight(self) -> float:
        return float(self._node_weights.sum())

    @property
    def total_edge_weight(self) -> float:
        return float(self._edge_w.sum())

    # ------------------------------------------------------------------ #
    # structure queries
    # ------------------------------------------------------------------ #
    def is_connected(self) -> bool:
        """True iff the graph has one connected component (n==0 counts as True)."""
        if self._n == 0:
            return True
        seen = np.zeros(self._n, dtype=bool)
        stack = [0]
        seen[0] = True
        count = 1
        while stack:
            u = stack.pop()
            for v in self.neighbors(u):
                if not seen[v]:
                    seen[v] = True
                    count += 1
                    stack.append(int(v))
        return count == self._n

    def connected_components(self) -> list[list[int]]:
        """Connected components as sorted lists of node ids."""
        comp = np.full(self._n, -1, dtype=np.int64)
        ncomp = 0
        for s in range(self._n):
            if comp[s] >= 0:
                continue
            comp[s] = ncomp
            stack = [s]
            while stack:
                u = stack.pop()
                for v in self.neighbors(u):
                    if comp[v] < 0:
                        comp[v] = ncomp
                        stack.append(int(v))
            ncomp += 1
        out: list[list[int]] = [[] for _ in range(ncomp)]
        for u in range(self._n):
            out[comp[u]].append(u)
        return out

    def adjacency_matrix(self) -> np.ndarray:
        """Dense symmetric weighted adjacency matrix, shape ``(n, n)``."""
        a = np.zeros((self._n, self._n), dtype=np.float64)
        a[self._edge_u, self._edge_v] = self._edge_w
        a[self._edge_v, self._edge_u] = self._edge_w
        return a

    def subgraph(self, nodes: Iterable[int]) -> tuple["WGraph", np.ndarray]:
        """Induced subgraph on *nodes*.

        Returns
        -------
        (sub, index):
            *sub* — the induced :class:`WGraph` with relabelled ids
            ``0..len(nodes)-1`` (in the order given); *index* — array mapping
            new ids back to the original ids.
        """
        idx = np.asarray(list(nodes), dtype=np.int64)
        if idx.size != len(set(idx.tolist())):
            raise GraphError("subgraph nodes contain duplicates")
        for u in idx:
            self._check_node(int(u))
        old2new = {int(o): i for i, o in enumerate(idx)}
        edges = [
            (old2new[u], old2new[v], w)
            for u, v, w in self.edges()
            if u in old2new and v in old2new
        ]
        sub = WGraph(len(idx), edges, node_weights=self._node_weights[idx])
        return sub, idx

    # ------------------------------------------------------------------ #
    # misc
    # ------------------------------------------------------------------ #
    def with_node_weights(self, node_weights: Iterable[float]) -> "WGraph":
        """Copy of the graph with node weights replaced."""
        return WGraph._from_canonical(
            self._n, self._edge_u, self._edge_v, self._edge_w,
            _check_node_weights(self._n, node_weights),
        )

    def _check_node(self, u: int) -> None:
        if not (0 <= u < self._n):
            raise GraphError(f"node {u} out of range for n={self._n}")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WGraph):
            return NotImplemented
        return (
            self._n == other._n
            and np.array_equal(self._node_weights, other._node_weights)
            and np.array_equal(self._edge_u, other._edge_u)
            and np.array_equal(self._edge_v, other._edge_v)
            and np.array_equal(self._edge_w, other._edge_w)
        )

    def __hash__(self) -> int:  # pragma: no cover - WGraph is not hashable
        raise TypeError("WGraph is mutable-adjacent and unhashable")

    def __repr__(self) -> str:
        return (
            f"WGraph(n={self._n}, m={self.m}, "
            f"node_weight={self.total_node_weight:g}, "
            f"edge_weight={self.total_edge_weight:g})"
        )
