"""Core weighted hypergraph used by the connectivity-metric partitioners.

Design notes
------------
* Nodes are dense integer ids ``0 .. n-1`` with float64 resource weights,
  exactly like :class:`~repro.graph.wgraph.WGraph`.
* A **net** (hyperedge) is a set of ≥1 pins (node ids) with a float64
  weight.  The first pin given is the net's **root** — for PPN-derived
  hypergraphs the producer process — used to attribute the net's traffic
  to part *pairs* (the value travels from the root's part to each other
  part the net touches).  The (λ−1) connectivity objective itself is
  root-independent.
* Storage is CSR both ways: ``net_indptr``/``pins`` lists each net's pins,
  and the transposed incidence ``inc_indptr``/``inc_nets`` lists each
  node's nets — the same layout hMETIS/KaHyPar use for cache-friendly
  traversal.
* The structure is immutable after construction; contraction builds a new
  :class:`HGraph`.
* Nets with identical pin *sets* are merged at construction by summing
  weights (the "identical-net detection" of n-level coarsening); the
  merged net keeps the root of the first occurrence.  Duplicate pins
  within one net are rejected.
* A net with a single pin is legal (it can arise from contraction or from
  external ``.hgr`` instances) and never contributes to any objective.
* Every 2-pin-only hypergraph is exactly a weighted graph:
  :meth:`from_wgraph` / :meth:`to_wgraph` convert losslessly, which the
  differential test suite leans on.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

from repro.graph.wgraph import WGraph
from repro.obs.memory import note_bytes
from repro.util.errors import GraphError

__all__ = ["HGraph"]


class HGraph:
    """Undirected weighted hypergraph with weighted nodes and rooted nets.

    Parameters
    ----------
    n:
        Number of nodes (ids ``0..n-1``).
    nets:
        Iterable of ``(pins, weight)`` pairs; *pins* is a sequence of
        distinct node ids whose **first entry is the net's root**.
    node_weights:
        Per-node resource weights; defaults to all ones.

    Raises
    ------
    GraphError
        On out-of-range pins, duplicate pins within a net, empty nets,
        negative or non-finite weights, or a negative node count.
    """

    __slots__ = (
        "_n",
        "_node_weights",
        "_net_weights",
        "_net_indptr",
        "_pins",
        "_roots",
        "_inc_indptr",
        "_inc_nets",
        "_pin_net_ids",
        "_adj_cache",
        "_digest",
    )

    def __init__(
        self,
        n: int,
        nets: Iterable[tuple[Sequence[int], float]] = (),
        node_weights: Iterable[float] | None = None,
    ) -> None:
        if n < 0:
            raise GraphError(f"node count must be >= 0, got {n}")
        self._n = int(n)

        if node_weights is None:
            nw = np.ones(self._n, dtype=np.float64)
        else:
            nw = np.asarray(list(node_weights), dtype=np.float64)
            if nw.shape != (self._n,):
                raise GraphError(f"expected {self._n} node weights, got {nw.shape}")
            if not np.all(np.isfinite(nw)):
                raise GraphError("node weights must be finite")
            if np.any(nw < 0):
                raise GraphError("node weights must be non-negative")
        self._node_weights = nw
        self._node_weights.setflags(write=False)

        # identical-net detection: merge nets with equal pin sets, summing
        # weights; the first occurrence's root wins.  Canonical net order is
        # by sorted pin tuple (mirrors WGraph's sorted edge list).
        merged: dict[tuple[int, ...], tuple[float, int]] = {}
        for item in nets:
            try:
                pins, w = item
            except (TypeError, ValueError) as exc:
                raise GraphError(f"net {item!r} is not a (pins, weight) pair") from exc
            pin_list = [int(p) for p in pins]
            if not pin_list:
                raise GraphError("a net needs at least one pin")
            for p in pin_list:
                if not 0 <= p < self._n:
                    raise GraphError(f"pin {p} out of range for n={self._n}")
            key = tuple(sorted(pin_list))
            if len(set(key)) != len(key):
                raise GraphError(f"net {pin_list} has duplicate pins")
            w = float(w)
            if not np.isfinite(w):
                raise GraphError(f"net {pin_list} has non-finite weight {w}")
            if w < 0:
                raise GraphError(f"net {pin_list} has negative weight {w}")
            if key in merged:
                w_old, root = merged[key]
                merged[key] = (w_old + w, root)
            else:
                merged[key] = (w, pin_list[0])

        items = sorted(merged.items())
        n_nets = len(items)
        net_indptr = np.zeros(n_nets + 1, dtype=np.int64)
        net_w = np.empty(n_nets, dtype=np.float64)
        roots = np.empty(n_nets, dtype=np.int64)
        pin_chunks: list[tuple[int, ...]] = []
        for e, (key, (w, root)) in enumerate(items):
            net_indptr[e + 1] = net_indptr[e] + len(key)
            net_w[e] = w
            roots[e] = root
            pin_chunks.append(key)
        pins = (
            np.concatenate([np.asarray(c, dtype=np.int64) for c in pin_chunks])
            if pin_chunks
            else np.empty(0, dtype=np.int64)
        )
        # net id of every pin slot (the transpose key, reused by Φ builds)
        pin_net_ids = np.repeat(np.arange(n_nets, dtype=np.int64),
                                np.diff(net_indptr))
        self._net_indptr, self._pins = net_indptr, pins
        self._net_weights, self._roots = net_w, roots
        self._pin_net_ids = pin_net_ids

        # transposed incidence: nets of each node, ascending net id per node
        deg = np.zeros(self._n, dtype=np.int64)
        np.add.at(deg, pins, 1)
        inc_indptr = np.zeros(self._n + 1, dtype=np.int64)
        np.cumsum(deg, out=inc_indptr[1:])
        order = np.argsort(pins, kind="stable")
        self._inc_indptr = inc_indptr
        self._inc_nets = pin_net_ids[order]
        for a in (net_indptr, pins, net_w, roots, pin_net_ids,
                  inc_indptr, self._inc_nets):
            a.setflags(write=False)
        self._adj_cache: dict[int, np.ndarray] = {}
        self._digest: str | None = None
        note_bytes(
            "hgraph.csr",
            net_indptr.nbytes + pins.nbytes + net_w.nbytes + roots.nbytes
            + pin_net_ids.nbytes + inc_indptr.nbytes + self._inc_nets.nbytes,
            n=self._n, nets=n_nets,
        )

    def content_digest(self) -> str:
        """Stable hex digest of the full hypergraph content.

        Two hypergraphs compare ``==`` iff their digests agree (structure,
        both weight kinds, and roots all participate), so the digest is a
        safe dictionary key for memoising partitioning results — the
        hypergraph counterpart of :meth:`WGraph.content_digest
        <repro.graph.wgraph.WGraph.content_digest>`.  Computed lazily,
        cached.
        """
        if self._digest is None:
            import hashlib

            h = hashlib.sha256()
            h.update(str(self._n).encode())
            for a in (
                self._node_weights,
                self._net_indptr,
                self._pins,
                self._net_weights,
                self._roots,
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
    def n_nets(self) -> int:
        """Number of (merged) nets."""
        return len(self._net_weights)

    @property
    def n_pins(self) -> int:
        """Total pin count over all nets."""
        return len(self._pins)

    @property
    def node_weights(self) -> np.ndarray:
        """Read-only float64 node resource weights, shape ``(n,)``."""
        return self._node_weights

    @property
    def net_weights(self) -> np.ndarray:
        """Read-only float64 net weights, shape ``(n_nets,)``."""
        return self._net_weights

    @property
    def roots(self) -> np.ndarray:
        """Read-only root pin (producer node id) per net, shape ``(n_nets,)``."""
        return self._roots

    @property
    def pin_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only ``(pins, net_ids)`` — parallel arrays over all pin slots
        (the COO form of the incidence matrix, for vectorized Φ builds)."""
        return self._pins, self._pin_net_ids

    @property
    def incidence(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only ``(inc_indptr, inc_nets)`` — the transposed CSR:
        node *u*'s nets are ``inc_nets[inc_indptr[u]:inc_indptr[u + 1]]``
        (for unchecked, batched reads of many nodes' nets)."""
        return self._inc_indptr, self._inc_nets

    def pins_of(self, e: int) -> np.ndarray:
        """Read-only sorted array of net *e*'s pins."""
        self._check_net(e)
        lo, hi = self._net_indptr[e], self._net_indptr[e + 1]
        return self._pins[lo:hi]

    def net_size(self, e: int) -> int:
        """Number of pins of net *e*."""
        self._check_net(e)
        return int(self._net_indptr[e + 1] - self._net_indptr[e])

    def nets_of(self, u: int) -> np.ndarray:
        """Read-only ascending array of net ids incident to node *u*."""
        self._check_node(u)
        lo, hi = self._inc_indptr[u], self._inc_indptr[u + 1]
        return self._inc_nets[lo:hi]

    def degree(self, u: int) -> int:
        """Number of nets incident to *u*."""
        self._check_node(u)
        return int(self._inc_indptr[u + 1] - self._inc_indptr[u])

    def adjacent_nodes(self, u: int) -> np.ndarray:
        """Sorted distinct nodes sharing at least one net with *u* (sans *u*).

        The hypergraph analogue of a graph neighbour list; for a 2-pin-only
        hypergraph it equals ``WGraph.neighbors`` exactly (sorted ids).
        Cached per node — the structure is immutable, and the FM driver
        asks for the same neighbourhood after every move of *u*.
        """
        cached = self._adj_cache.get(u)
        if cached is not None:
            return cached
        nets = self.nets_of(u)
        if nets.size == 0:
            out = np.empty(0, dtype=np.int64)
        else:
            chunks = [self.pins_of(int(e)) for e in nets]
            out = np.unique(np.concatenate(chunks))
            out = out[out != u]
        out.setflags(write=False)
        self._adj_cache[u] = out
        return out

    @property
    def total_node_weight(self) -> float:
        return float(self._node_weights.sum())

    @property
    def total_net_weight(self) -> float:
        return float(self._net_weights.sum())

    def nets(self) -> list[tuple[list[int], float]]:
        """All nets as ``(sorted pins, weight)`` in canonical order."""
        return [
            (self.pins_of(e).tolist(), float(self._net_weights[e]))
            for e in range(self.n_nets)
        ]

    # ------------------------------------------------------------------ #
    # graph conversions
    # ------------------------------------------------------------------ #
    @classmethod
    def from_wgraph(cls, g: WGraph) -> "HGraph":
        """Lossless lift of a weighted graph: one 2-pin net per edge
        (root = the smaller endpoint, matching the canonical edge order)."""
        eu, ev, ew = g.edge_array
        nets = [
            ((int(u), int(v)), float(w)) for u, v, w in zip(eu, ev, ew)
        ]
        return cls(g.n, nets, node_weights=g.node_weights)

    def to_wgraph(self) -> WGraph:
        """Exact inverse of :meth:`from_wgraph` for 2-pin-only hypergraphs.

        Raises :class:`GraphError` when any net has ≠2 pins — flattening a
        genuine multicast into edges is the modelling error this subsystem
        exists to avoid, so it never happens silently.
        """
        sizes = np.diff(self._net_indptr)
        if np.any(sizes != 2):
            bad = int(np.nonzero(sizes != 2)[0][0])
            raise GraphError(
                f"net {bad} has {int(sizes[bad])} pins; only 2-pin-only "
                f"hypergraphs convert to a WGraph losslessly — use "
                f"clique_expansion() for an approximate flattening"
            )
        edges = [
            (int(self._pins[self._net_indptr[e]]),
             int(self._pins[self._net_indptr[e] + 1]),
             float(self._net_weights[e]))
            for e in range(self.n_nets)
        ]
        return WGraph(self._n, edges, node_weights=self._node_weights)

    def star_expansion(self) -> WGraph:
        """The 2-pin **edge-cut model** of this hypergraph: net *e* becomes
        one edge ``(root, p)`` of full weight ``w_e`` per non-root pin *p* —
        exactly the flattening a per-consumer FIFO view produces, which
        charges a multicast once per consumer instead of once per extra
        part.  2-pin nets map to their edge unchanged.  This is the
        baseline the connectivity metric is benchmarked against.
        """
        edges: dict[tuple[int, int], float] = {}
        for e in range(self.n_nets):
            root = int(self._roots[e])
            w = float(self._net_weights[e])
            for p in self.pins_of(e):
                p = int(p)
                if p == root:
                    continue
                key = (p, root) if p < root else (root, p)
                edges[key] = edges.get(key, 0.0) + w
        return WGraph(
            self._n,
            [(u, v, w) for (u, v), w in edges.items()],
            node_weights=self._node_weights,
        )

    def clique_expansion(self) -> WGraph:
        """Standard clique expansion: net *e* becomes a clique over its pins
        with per-edge weight ``w_e / (|e| - 1)``.

        For a 2-pin net the single edge keeps weight ``w_e`` exactly, so the
        expansion of a 2-pin-only hypergraph *is* its graph.  Used to seed
        initial partitioning with the existing graph machinery; single-pin
        nets vanish.
        """
        edges: dict[tuple[int, int], float] = {}
        for e in range(self.n_nets):
            ps = self.pins_of(e)
            if ps.size < 2:
                continue
            w = float(self._net_weights[e]) / (ps.size - 1)
            for i in range(ps.size):
                for j in range(i + 1, ps.size):
                    key = (int(ps[i]), int(ps[j]))
                    edges[key] = edges.get(key, 0.0) + w
        return WGraph(
            self._n,
            [(u, v, w) for (u, v), w in edges.items()],
            node_weights=self._node_weights,
        )

    # ------------------------------------------------------------------ #
    # misc
    # ------------------------------------------------------------------ #
    def _check_node(self, u: int) -> None:
        if not (0 <= u < self._n):
            raise GraphError(f"node {u} out of range for n={self._n}")

    def _check_net(self, e: int) -> None:
        if not (0 <= e < self.n_nets):
            raise GraphError(f"net {e} out of range for n_nets={self.n_nets}")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HGraph):
            return NotImplemented
        return (
            self._n == other._n
            and np.array_equal(self._node_weights, other._node_weights)
            and np.array_equal(self._net_indptr, other._net_indptr)
            and np.array_equal(self._pins, other._pins)
            and np.array_equal(self._net_weights, other._net_weights)
            # roots drive the pairwise-traffic attribution, so two
            # hypergraphs differing only in roots are NOT equal
            and np.array_equal(self._roots, other._roots)
        )

    def __hash__(self) -> int:  # pragma: no cover - HGraph is unhashable
        raise TypeError("HGraph is unhashable")

    def __repr__(self) -> str:
        return (
            f"HGraph(n={self._n}, nets={self.n_nets}, pins={self.n_pins}, "
            f"node_weight={self.total_node_weight:g}, "
            f"net_weight={self.total_net_weight:g})"
        )
