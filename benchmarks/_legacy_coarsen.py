"""Frozen pre-vectorization coarsening implementations (reference only).

Snapshot of the per-node/per-edge Python loop kernels of
``repro.partition.coarsen`` and ``repro.hypergraph.coarsen`` as of the
commit preceding their NumPy rewrite, plus a loop-form reference for the
rewritten random matching.  Two jobs:

* ``benchmarks/bench_parallel_portfolio.py`` times them against the
  vectorized kernels (the coarsening-speedup artifact), and
* ``tests/test_coarsen_vectorized.py`` pins the vectorized kernels to
  these references **exactly** (identical matching arrays, identical
  contracted graphs) under fixed seeds.

Three of the four kernels were vectorized move-for-move, so their
references here are verbatim snapshots:

* ``heavy_edge_matching_legacy`` — sequential greedy over the weight-sorted
  edge list; the vectorized version computes the same matching by iterated
  locally-dominant edge selection.
* ``contract_legacy`` — dict-merge contraction; the vectorized version
  reproduces the identical coarse ``WGraph`` (same arrays, same CSR).
  It builds that graph through ``loop_wgraph``, the per-edge
  ``WGraph.__init__`` of the same commit (the numpy constructor that
  replaced it is pinned to it by ``tests/test_graph_wgraph.py``), so the
  reference's cost stays frozen when ``WGraph`` gets faster.
* ``heavy_pin_matching_legacy`` — sequential greedy over static pair
  ratings; the visit permutation is the only randomness, so the vectorized
  rounds formulation is exact.

``random_maximal_matching`` is the exception: the old loop drew one
``rng.integers`` call per visited node (a state-dependent stream that no
array pass can replay), so the rewrite moved its randomness up front —
one pre-drawn random priority per adjacency slot, each node pairing with
its lowest-priority free neighbour.  Both forms of that are kept here:

* ``random_maximal_matching_legacy`` — the *old* semantics, for benchmark
  comparison only (its matchings differ stream-wise from the new ones);
* ``random_maximal_matching_loopref`` — the *new* semantics in loop form,
  which the vectorized kernel must reproduce exactly.

Do not "fix" or optimise this module: its value is that it does not change.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.graph.wgraph import WGraph
from repro.hypergraph.hgraph import HGraph
from repro.util.errors import GraphError
from repro.util.rng import as_rng

__all__ = [
    "random_maximal_matching_legacy",
    "random_maximal_matching_loopref",
    "heavy_edge_matching_legacy",
    "matching_quality_legacy",
    "contract_legacy",
    "heavy_pin_matching_legacy",
    "loop_wgraph",
]


def random_maximal_matching_legacy(g: WGraph, seed=None) -> np.ndarray:
    """Pre-vectorization random matching (one RNG draw per visited node)."""
    rng = as_rng(seed)
    match = np.arange(g.n, dtype=np.int64)
    matched = np.zeros(g.n, dtype=bool)
    for u in rng.permutation(g.n):
        u = int(u)
        if matched[u]:
            continue
        nbrs = g.neighbors(u)
        free = nbrs[~matched[nbrs]]
        if free.size == 0:
            continue
        v = int(free[rng.integers(0, free.size)])
        match[u], match[v] = v, u
        matched[u] = matched[v] = True
    return match


def random_maximal_matching_loopref(g: WGraph, seed=None) -> np.ndarray:
    """Loop-form reference of the *vectorized* random matching semantics.

    All randomness is pre-drawn: one random priority per CSR adjacency
    slot (a single permutation — unique, tie-free) plus a visit
    permutation.  Each unmatched node, in visit order, pairs with the free
    neighbour behind its lowest-priority slot.  A random permutation
    restricted to any slot subset ranks that subset uniformly, so each
    choice is still a uniformly random free neighbour; the matching
    distribution matches the legacy semantics even though the streams
    differ.
    """
    rng = as_rng(seed)
    match = np.arange(g.n, dtype=np.int64)
    if g.n == 0:
        return match
    indptr, indices, _ = g.csr
    slot_pri = rng.permutation(indices.size)
    matched = np.zeros(g.n, dtype=bool)
    for u in rng.permutation(g.n):
        u = int(u)
        if matched[u]:
            continue
        lo, hi = int(indptr[u]), int(indptr[u + 1])
        slot_free = ~matched[indices[lo:hi]]
        if not slot_free.any():
            continue
        pri = np.where(slot_free, slot_pri[lo:hi], np.iinfo(np.int64).max)
        v = int(indices[lo + int(np.argmin(pri))])
        match[u], match[v] = v, u
        matched[u] = matched[v] = True
    return match


def heavy_edge_matching_legacy(g: WGraph, seed=None) -> np.ndarray:
    """Pre-vectorization HEM (sequential greedy over the sorted edge list)."""
    rng = as_rng(seed)
    match = np.arange(g.n, dtype=np.int64)
    if g.m == 0:
        return match
    eu, ev, ew = g.edge_array
    jitter = rng.permutation(g.m)
    order = np.lexsort((jitter, -ew))
    matched = np.zeros(g.n, dtype=bool)
    for i in order:
        u, v = int(eu[i]), int(ev[i])
        if not matched[u] and not matched[v]:
            match[u], match[v] = v, u
            matched[u] = matched[v] = True
    return match


def matching_quality_legacy(g: WGraph, match: np.ndarray) -> float:
    """Pre-vectorization matched-edge-weight total (per-node loop)."""
    total = 0.0
    for u in range(g.n):
        v = int(match[u])
        if v > u:
            total += g.edge_weight(u, v)
    return total


def contract_legacy(g: WGraph, match: np.ndarray) -> tuple[WGraph, np.ndarray]:
    """Pre-vectorization contraction (dict edge-merge, per-edge loop)."""
    node_map = np.full(g.n, -1, dtype=np.int64)
    next_id = 0
    for u in range(g.n):
        if node_map[u] >= 0:
            continue
        v = int(match[u])
        node_map[u] = next_id
        if v != u:
            node_map[v] = next_id
        next_id += 1
    coarse_w = np.zeros(next_id, dtype=np.float64)
    np.add.at(coarse_w, node_map, g.node_weights)
    merged: dict[tuple[int, int], float] = {}
    for u, v, w in g.edges():
        cu, cv = int(node_map[u]), int(node_map[v])
        if cu == cv:
            continue
        key = (cu, cv) if cu < cv else (cv, cu)
        merged[key] = merged.get(key, 0.0) + w
    edges = [(u, v, w) for (u, v), w in merged.items()]
    coarse = _wgraph_from_loop(next_id, loop_wgraph(next_id, edges, coarse_w))
    return coarse, node_map


def _wgraph_from_loop(n: int, ref: dict) -> WGraph:
    """A ``WGraph`` holding :func:`loop_wgraph`'s arrays, read-only as the
    constructor leaves them, without running the numpy build."""
    g = object.__new__(WGraph)
    g._n = n
    g._node_weights = ref["node_weights"]
    g._edge_u, g._edge_v, g._edge_w = ref["edge_array"]
    g._indptr, g._indices, g._weights = ref["csr"]
    g._adj_edge_id = ref["adj_edge_id"]
    g._digest = None
    for a in (g._node_weights, *ref["edge_array"], *ref["csr"],
              g._adj_edge_id):
        a.setflags(write=False)
    return g


def loop_wgraph(n, edges, node_weights=None):
    """The per-edge ``WGraph.__init__`` the numpy build replaced, frozen as
    the reference: a dict merge in input order, then a CSR fill loop.
    Returns the arrays and the content digest it would produce.

    ``tests/test_graph_wgraph.py`` pins the numpy constructor to it, and
    :func:`contract_legacy` builds its coarse graph through it, so the
    X11 coarsening reference keeps its per-edge cost when ``WGraph``
    gets faster."""
    nw = np.ones(n) if node_weights is None else np.array(
        list(node_weights), dtype=np.float64
    )
    merged = {}
    for item in edges:
        try:
            u, v, w = item
        except (TypeError, ValueError) as exc:
            raise GraphError(f"edge {item!r} is not a (u, v, w) triple") from exc
        u, v = int(u), int(v)
        w = float(w)
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"edge ({u}, {v}) out of range for n={n}")
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
    deg = np.zeros(n, dtype=np.int64)
    np.add.at(deg, eu, 1)
    np.add.at(deg, ev, 1)
    indptr = np.zeros(n + 1, dtype=np.int64)
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
    h = hashlib.sha256()
    h.update(str(n).encode())
    for a in (nw, eu, ev, ew):
        h.update(np.ascontiguousarray(a).tobytes())
    return {
        "node_weights": nw,
        "edge_array": (eu, ev, ew),
        "csr": (indptr, indices, weights),
        "adj_edge_id": adj_edge_id,
        "digest": h.hexdigest(),
    }


def heavy_pin_matching_legacy(hg: HGraph, seed=None) -> np.ndarray:
    """Pre-vectorization heavy-edge hypergraph matching (per-node dicts)."""
    rng = as_rng(seed)
    match = np.arange(hg.n, dtype=np.int64)
    matched = np.zeros(hg.n, dtype=bool)
    w = hg.net_weights
    for u in rng.permutation(hg.n):
        u = int(u)
        if matched[u]:
            continue
        rating: dict[int, float] = {}
        for e in hg.nets_of(u):
            e = int(e)
            pins = hg.pins_of(e)
            if pins.size < 2:
                continue
            r = float(w[e]) / (pins.size - 1)
            for v in pins:
                v = int(v)
                if v != u and not matched[v]:
                    rating[v] = rating.get(v, 0.0) + r
        if not rating:
            continue
        v = min(rating, key=lambda x: (-rating[x], x))
        match[u], match[v] = v, u
        matched[u] = matched[v] = True
    return match
