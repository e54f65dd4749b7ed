"""Coarsening phase: matchings and graph contraction (paper Section IV.A).

The paper uses three matching heuristics, "employed at different times,
multiple times, in order to find the best matching for the given graph":

* **Random Maximal Matching** — visit nodes in random order; match each
  unmatched node with a random unmatched neighbour.
* **Heavy Edge Matching (HEM)** — visit edges in descending weight order;
  select edges whose endpoints are both unmatched.
* **K-Means Matching** — cluster nodes by weight-based features, then match
  near nodes inside each cluster (after Khan's multilevel TSP scheme [28]).

Contraction merges each matched pair into one coarse node whose weight is the
sum of the pair's weights; parallel edges produced by common neighbours are
merged with summed weights (exactly the rules spelled out in IV.A).

Vectorization
-------------
The matching and contraction kernels here are NumPy array passes, not
per-node Python loops (see ``docs/parallel.md``, "Vectorized coarsening").
Sequential greedy matching — take candidate pairs in a fixed priority
order, skip pairs with a matched endpoint — is computed by iterated
*locally-dominant* selection: per round, a candidate is matched iff it
holds the best (lowest) priority rank at **both** endpoints, then dead
candidates are dropped.  That fixpoint equals the sequential greedy result
exactly, so HEM is bit-identical to its pre-vectorization loop (frozen in
``benchmarks/_legacy_coarsen.py``).  Random maximal matching pre-draws one
random priority per adjacency slot (each node pairs with its
lowest-priority free neighbour — still a uniformly random free neighbour)
precisely so it fits
the same static-priority scheme; its loop-form reference lives next to the
legacy copy and the differential tests pin both kernels to their
references.  Contraction reproduces the legacy coarse graph
array-for-array via :meth:`~repro.graph.wgraph.WGraph._from_canonical`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

import repro.obs as _obs
from repro.graph.wgraph import WGraph
from repro.util.errors import PartitionError
from repro.util.rng import as_rng

__all__ = [
    "greedy_match_by_rank",
    "random_maximal_matching",
    "heavy_edge_matching",
    "kmeans_matching",
    "matching_quality",
    "contract",
    "coarsen_once",
    "CoarseLevel",
    "Hierarchy",
    "build_hierarchy",
    "MATCHING_METHODS",
]


def _validate_matching(g: WGraph, match: np.ndarray) -> None:
    if match.shape != (g.n,):
        raise PartitionError(f"matching has shape {match.shape}, expected ({g.n},)")
    if g.n == 0:
        return
    if not ((match >= 0) & (match < g.n)).all():
        u = int(np.argmax((match < 0) | (match >= g.n)))
        raise PartitionError(f"match[{u}]={int(match[u])} out of range")
    sym = match[match] == np.arange(g.n)
    if not sym.all():
        u = int(np.argmax(~sym))
        raise PartitionError(f"matching not symmetric at ({u}, {int(match[u])})")


def greedy_match_by_rank(
    n: int, tails: np.ndarray, heads: np.ndarray, rank: np.ndarray | None = None
) -> np.ndarray:
    """Matching of sequential greedy over rank-ordered candidate pairs.

    Candidates ``(tails[i], heads[i])`` carry unique integer priorities
    ``rank[i]`` (lower = earlier); with ``rank=None`` the candidates are
    taken to be listed in priority order already (callers that sorted
    anyway skip a redundant argsort).  The sequential process — scan
    candidates in rank order, match a pair iff both endpoints are still
    unmatched — is computed without the scan: per round, select every
    *live* candidate whose rank is the minimum over live candidates at
    both its endpoints (selected candidates are node-disjoint because
    ranks are unique), mark endpoints matched, drop candidates with a
    matched endpoint, repeat.  The round fixpoint equals the sequential
    result exactly; rounds are O(log candidates) expected, each a full
    array pass.
    """
    match = np.arange(n, dtype=np.int64)
    E = tails.size
    if E == 0:
        return match
    if rank is None:
        t = np.ascontiguousarray(tails, dtype=np.int64)
        h = np.ascontiguousarray(heads, dtype=np.int64)
    else:
        order = np.argsort(rank)
        # entries in rank order; from here on an entry's id is its position
        t = np.ascontiguousarray(tails[order])
        h = np.ascontiguousarray(heads[order])
    # per-node incidence over entries (each entry listed under both
    # endpoints, ascending rank within a node): a node's lowest live
    # incident rank is simply the entry behind its advance pointer
    nodes = np.concatenate([t, h])
    eids = np.concatenate([np.arange(E), np.arange(E)])
    inc = eids[np.argsort((nodes << np.int64(33)) | eids)]
    cnt = np.bincount(nodes, minlength=n)
    bound = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(cnt, out=bound[1:])
    ptr = bound[:-1].copy()
    end = bound[1:]
    matched = np.zeros(n, dtype=bool)
    head_of = np.full(n, -1, dtype=np.int64)
    active = np.nonzero(cnt > 0)[0]
    while active.size:
        # lazily advance pointers past dead entries (an endpoint matched);
        # after the first check only nodes that just advanced are
        # re-checked, so total advancement work is bounded by 2E overall
        adv = active
        while adv.size:
            e = inc[np.minimum(ptr[adv], end[adv] - 1)]
            dead = (ptr[adv] < end[adv]) & (matched[t[e]] | matched[h[e]])
            adv = adv[dead]
            if adv.size:
                ptr[adv] += 1
        active = active[ptr[active] < end[active]]
        if active.size == 0:
            return match
        e = inc[ptr[active]]
        # locally-dominant selection: an entry matches iff it is the head
        # entry of both its endpoints (the globally minimal live entry
        # always qualifies, so every round makes progress)
        head_of[active] = e
        sel = np.unique(e[(head_of[t[e]] == e) & (head_of[h[e]] == e)])
        head_of[active] = -1
        st, sh = t[sel], h[sel]
        match[st] = sh
        match[sh] = st
        matched[st] = True
        matched[sh] = True
        active = active[~matched[active]]
    return match


def random_maximal_matching(g: WGraph, seed=None) -> np.ndarray:
    """Random maximal matching: ``match[u] == v`` iff u,v are paired; u if single.

    Visits nodes in a seeded random order; each unmatched node pairs with
    a uniformly random free neighbour (realised as the lowest pre-drawn
    priority among its free adjacency slots — slot priorities are one
    random permutation, so the pick is uniform and tie-free, and the whole
    matching becomes one static-priority greedy computable in array passes;
    see the module docstring).  Exactly reproduces
    ``benchmarks._legacy_coarsen.random_maximal_matching_loopref``.
    """
    rng = as_rng(seed)
    match = np.arange(g.n, dtype=np.int64)
    if g.n == 0:
        return match
    indptr, indices, _ = g.csr
    # draw order matters for stream-compatibility with the loop reference:
    # slot priorities first, visit permutation second
    slot_pri = rng.permutation(indices.size)
    visit = rng.permutation(g.n)
    if indices.size == 0:
        return match
    pos = np.empty(g.n, dtype=np.int64)
    pos[visit] = np.arange(g.n)
    deg = np.diff(indptr)
    tails = np.repeat(np.arange(g.n, dtype=np.int64), deg)
    # one int64 composite: visit position of the tail, then slot priority
    # (both ascending; slot_pri < 2**33 fits the low bits for any graph
    # whose adjacency this process can hold in memory)
    order = np.argsort((pos[tails] << np.int64(33)) | slot_pri)
    return greedy_match_by_rank(g.n, tails[order], indices[order])


def heavy_edge_matching(g: WGraph, seed=None) -> np.ndarray:
    """HEM per the paper: globally sort edges by descending weight, take edges
    with both endpoints unmatched.  Ties are broken by a seeded shuffle so
    repeated invocations explore different maximal matchings.

    Bit-identical to the sequential greedy over the sorted edge list
    (``benchmarks._legacy_coarsen.heavy_edge_matching_legacy``), computed
    by locally-dominant rounds instead of a per-edge Python loop.
    """
    rng = as_rng(seed)
    match = np.arange(g.n, dtype=np.int64)
    if g.m == 0:
        return match
    eu, ev, ew = g.edge_array
    jitter = rng.permutation(g.m)  # deterministic tie-break among equal weights
    order = np.lexsort((jitter, -ew))
    return greedy_match_by_rank(g.n, eu[order], ev[order])


def _node_features(g: WGraph) -> np.ndarray:
    """Per-node feature vector for k-means matching: (own weight, mean
    neighbour weight, weighted degree), standardised per column."""
    n = g.n
    feats = np.zeros((n, 3), dtype=np.float64)
    feats[:, 0] = g.node_weights
    for u in range(n):
        nbrs, ws = g.neighbor_weights(u)
        feats[u, 1] = g.node_weights[nbrs].mean() if nbrs.size else 0.0
        feats[u, 2] = ws.sum()
    std = feats.std(axis=0)
    std[std == 0] = 1.0
    return (feats - feats.mean(axis=0)) / std


def _lloyd(feats: np.ndarray, k: int, rng: np.random.Generator, iters: int = 12):
    """Tiny Lloyd's k-means (numpy); returns labels."""
    n = feats.shape[0]
    centers = feats[rng.choice(n, size=k, replace=False)]
    labels = np.zeros(n, dtype=np.int64)
    for _ in range(iters):
        d = ((feats[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        new_labels = d.argmin(axis=1)
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for c in range(k):
            members = feats[labels == c]
            if len(members):
                centers[c] = members.mean(axis=0)
    return labels


def kmeans_matching(g: WGraph, seed=None) -> np.ndarray:
    """K-means matching: cluster nodes on weight-based features, then inside
    each cluster greedily match *adjacent* pairs (heaviest connecting edge
    first), falling back to nearest-feature pairs."""
    rng = as_rng(seed)
    match = np.arange(g.n, dtype=np.int64)
    if g.n < 2:
        return match
    k = max(2, g.n // 4)
    if k >= g.n:
        k = max(1, g.n // 2)
    feats = _node_features(g)
    labels = _lloyd(feats, k, rng)
    matched = np.zeros(g.n, dtype=bool)
    for c in range(k):
        members = np.nonzero(labels == c)[0]
        member_set = set(members.tolist())
        # adjacent pairs first, heaviest edge first
        cand = []
        for u in members:
            nbrs, ws = g.neighbor_weights(int(u))
            for v, w in zip(nbrs, ws):
                if int(v) in member_set and u < v:
                    cand.append((float(w), int(u), int(v)))
        cand.sort(key=lambda t: (-t[0], t[1], t[2]))
        for _, u, v in cand:
            if not matched[u] and not matched[v]:
                match[u], match[v] = v, u
                matched[u] = matched[v] = True
        # remaining members: pair by feature proximity
        rest = [int(u) for u in members if not matched[u]]
        while len(rest) >= 2:
            u = rest.pop()
            d = [(float(((feats[u] - feats[v]) ** 2).sum()), v) for v in rest]
            d.sort()
            v = d[0][1]
            rest.remove(v)
            match[u], match[v] = v, u
            matched[u] = matched[v] = True
    return match


def matching_quality(g: WGraph, match: np.ndarray) -> float:
    """Total weight of matched edges (higher = better coarsening: more edge
    weight hidden inside coarse nodes, following the HEM rationale).

    One masked reduction over the edge array; non-adjacent matched pairs
    (k-means may produce them) contribute nothing, as before.
    """
    eu, ev, ew = g.edge_array
    if ew.size == 0:
        return 0.0
    m = np.asarray(match, dtype=np.int64)
    return float(ew[m[eu] == ev].sum())


def contract(g: WGraph, match: np.ndarray) -> tuple[WGraph, np.ndarray]:
    """Contract matched pairs into coarse nodes.

    Returns ``(coarse, node_map)`` with ``node_map[u]`` the coarse id of fine
    node *u* — the paper's "map from the nodes in the un-coarsened graph to
    those in the coarsened graph".

    Runs as array passes (coarse ids by cumulative count of pair
    representatives, parallel-edge merge by lexicographic grouping) and
    reproduces the dict-merge reference
    (``benchmarks._legacy_coarsen.contract_legacy``) array-for-array:
    same node map, same coarse graph, same CSR layout.
    """
    match = np.asarray(match)
    _validate_matching(g, match)
    match = match.astype(np.int64, copy=False)
    ids = np.arange(g.n, dtype=np.int64)
    # a node represents its pair iff it is its pair's smaller endpoint (or
    # single); coarse ids count representatives in node order, matching the
    # first-visit numbering of the sequential reference
    reps = match >= ids
    coarse_ids = np.cumsum(reps) - 1
    node_map = coarse_ids[np.minimum(ids, match)]
    next_id = int(coarse_ids[-1]) + 1 if g.n else 0
    coarse_w = np.zeros(next_id, dtype=np.float64)
    np.add.at(coarse_w, node_map, g.node_weights)

    eu, ev, ew = g.edge_array
    cu, cv = node_map[eu], node_map[ev]
    keep = cu != cv  # edges hidden inside a coarse node vanish
    lo = np.minimum(cu[keep], cv[keep])
    hi = np.maximum(cu[keep], cv[keep])
    w = ew[keep]
    if lo.size == 0:
        empty = np.empty(0, dtype=np.int64)
        coarse = WGraph._from_canonical(
            next_id, empty, empty, np.empty(0, dtype=np.float64), coarse_w
        )
        return coarse, node_map
    # group parallel coarse edges; the tertiary key keeps fine-edge order
    # within each group so weight sums accumulate in the reference's order
    order = np.lexsort((np.arange(lo.size), hi, lo))
    lo, hi, w = lo[order], hi[order], w[order]
    new_group = np.empty(lo.size, dtype=bool)
    new_group[0] = True
    new_group[1:] = (lo[1:] != lo[:-1]) | (hi[1:] != hi[:-1])
    seg = np.cumsum(new_group) - 1
    n_edges = int(seg[-1]) + 1
    merged_w = np.zeros(n_edges, dtype=np.float64)
    np.add.at(merged_w, seg, w)
    coarse = WGraph._from_canonical(
        next_id, lo[new_group], hi[new_group], merged_w, coarse_w
    )
    return coarse, node_map


MATCHING_METHODS = {
    "random": random_maximal_matching,
    "hem": heavy_edge_matching,
    "kmeans": kmeans_matching,
}


def coarsen_once(
    g: WGraph,
    seed=None,
    methods: tuple[str, ...] = ("random", "hem", "kmeans"),
) -> tuple[WGraph, np.ndarray, str]:
    """One coarsening step: run every requested matching, keep the best.

    "Each time we compare the results of the three heuristics with each other
    and choose the best one" (Section IV.A).  Best = largest matched edge
    weight, tie-broken by fewer coarse nodes then by method order.

    Returns ``(coarse, node_map, method_name)``.
    """
    if not methods:
        raise PartitionError("at least one matching method required")
    rng = as_rng(seed)
    best = None
    for rank, name in enumerate(methods):
        try:
            fn = MATCHING_METHODS[name]
        except KeyError:
            raise PartitionError(
                f"unknown matching method {name!r}; "
                f"valid: {sorted(MATCHING_METHODS)}"
            ) from None
        match = fn(g, seed=rng)
        quality = matching_quality(g, match)
        n_coarse = g.n - int((match != np.arange(g.n)).sum() // 2)
        key = (-quality, n_coarse, rank)
        if best is None or key < best[0]:
            best = (key, match, name)
    _, match, name = best
    coarse, node_map = contract(g, match)
    return coarse, node_map, name


#: Un-coarsening levels with at least this many nodes refine locally: the
#: FM frontier is seeded from the nodes the projection just un-contracted
#: instead of the whole boundary (n-level style).  Set above every pinned
#: corpus so small runs keep the historical global sweep.
LOCAL_REFINE_FROM = 200_000


@dataclass
class CoarseLevel:
    """One level of the multilevel hierarchy."""

    graph: WGraph
    #: fine-node -> coarse-node map *into this level* (None for the original).
    node_map: np.ndarray | None
    method: str | None = None


@dataclass
class Hierarchy:
    """Coarsening hierarchy; ``levels[0]`` is the input graph."""

    levels: list[CoarseLevel] = field(default_factory=list)

    @property
    def depth(self) -> int:
        return len(self.levels)

    @property
    def coarsest(self) -> WGraph:
        return self.levels[-1].graph

    def project(self, assign_coarse: np.ndarray, level: int) -> np.ndarray:
        """Project an assignment on ``levels[level]`` one step down, to
        ``levels[level-1]`` — the paper's "mapping vector is used to project
        the coarse graph partition onto the finer graph"."""
        if not 1 <= level < self.depth:
            raise PartitionError(f"cannot project from level {level}")
        node_map = self.levels[level].node_map
        return np.asarray(assign_coarse, dtype=np.int64)[node_map]

    def uncontracted_nodes(self, level: int) -> np.ndarray | None:
        """Locality seeds for refining ``levels[level-1]`` after projecting
        from ``levels[level]``: the fine nodes whose coarse parent merged
        ≥2 nodes.  ``None`` (refine the whole boundary) when the fine
        level has fewer than :data:`LOCAL_REFINE_FROM` nodes."""
        if self.levels[level - 1].graph.n < LOCAL_REFINE_FROM:
            return None
        node_map = self.levels[level].node_map
        members = np.bincount(node_map, minlength=self.levels[level].graph.n)
        return np.nonzero(members[node_map] >= 2)[0]


def build_hierarchy(
    g: WGraph,
    coarsen_to: int = 100,
    seed=None,
    methods: tuple[str, ...] = ("random", "hem", "kmeans"),
    min_shrink: float = 0.02,
) -> Hierarchy:
    """Coarsen *g* until it has at most *coarsen_to* nodes.

    Stops early when a step shrinks the graph by less than ``min_shrink``
    (no useful matching left, e.g. star graphs).  ``coarsen_to=100`` is the
    paper's default ("the input graph is coarsened to a parametrized size
    (default is 100)").
    """
    if coarsen_to < 1:
        raise PartitionError(f"coarsen_to must be >= 1, got {coarsen_to}")
    rng = as_rng(seed)
    with _obs.trace_span("coarsen", nodes=g.n, coarsen_to=coarsen_to) as sp:
        hier = Hierarchy(levels=[CoarseLevel(graph=g, node_map=None)])
        current = g
        while current.n > coarsen_to:
            with _obs.trace_span(
                "coarsen.level", level=len(hier.levels), nodes_in=current.n
            ) as lv:
                coarse, node_map, method = coarsen_once(
                    current, seed=rng, methods=methods
                )
                lv.set(nodes_out=coarse.n, method=method)
            if coarse.n >= current.n * (1 - min_shrink):
                break
            hier.levels.append(
                CoarseLevel(graph=coarse, node_map=node_map, method=method)
            )
            current = coarse
        sp.set(levels=len(hier.levels), coarsest=current.n)
    return hier
