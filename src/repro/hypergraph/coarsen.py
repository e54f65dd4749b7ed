"""Multilevel hypergraph coarsening (heavy-edge contraction, n-level style).

Follows the multilevel recipe of Schlag et al.'s recursive-bisection and
n-level partitioners, adapted to the matching-based level structure the
rest of this library uses:

* **Heavy-edge rating** — pair rating ``r(u, v) = Σ_{e ⊇ {u,v}} w_e /
  (|e| − 1)``: nets almost contracted away count most, big nets are
  discounted (for 2-pin-only hypergraphs this is exactly the edge weight,
  so the coarsening degenerates to graph HEM).
* **Matching** — visit nodes in random order, match each unmatched node
  with the unmatched partner of highest rating (ties: smaller id).
* **Contraction** — matched pairs merge; node weights sum; each net maps
  its pins through the node map and drops duplicates; nets left with a
  single pin disappear (they can never be cut again); nets whose pin sets
  become identical are merged with summed weights — the *identical-net
  detection* that keeps coarse hypergraphs small.  (The last two rules are
  byproducts of :class:`~repro.hypergraph.hgraph.HGraph` construction.)
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.hypergraph.hgraph import HGraph
from repro.partition.coarsen import MIN_SHRINK, greedy_match_by_rank
from repro.util.errors import PartitionError
from repro.util.rng import as_rng

__all__ = [
    "heavy_pin_matching",
    "contract_hyper",
    "coarsen_hyper_once",
    "HyperLevel",
    "HyperHierarchy",
    "build_hyper_hierarchy",
]

#: The vectorized matching materialises every ordered pin pair, Σ|e|²
#: entries at once, across roughly eight int64/float64 arrays (~64 bytes
#: per pair at peak, so this bound caps the transient at a few hundred
#: MB); past it the exact per-node loop runs instead (identical output,
#: O(max net) working memory — giant broadcast nets must not OOM the
#: machine the legacy loop handled).
_MAX_PAIR_ENTRIES = 5_000_000


def _heavy_pin_matching_loop(hg: HGraph, rng) -> np.ndarray:
    """Sequential form of :func:`heavy_pin_matching` (same output).

    Bounded-memory fallback for pathological Σ|e|² instances; the
    vectorized kernel is pinned to this process by the differential
    suite, so dispatching between them can never change a matching.
    """
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


def heavy_pin_matching(hg: HGraph, seed=None) -> np.ndarray:
    """Heavy-edge matching by pair rating: ``match[u] == v`` iff paired.

    The pair rating ``r(u, v)`` is *static* — it never depends on which
    nodes are already matched — so the sequential process (visit nodes in
    a seeded random order; pair each unmatched node with its best-rated
    unmatched partner, ties to the smaller id) is a greedy over a fixed
    priority order and vectorizes via the locally-dominant rounds kernel
    (:func:`repro.partition.coarsen.greedy_match_by_rank`).  Ratings are
    accumulated in ascending-net order per pair, reproducing the float
    sums of the per-node dict reference exactly
    (``benchmarks._legacy_coarsen.heavy_pin_matching_legacy``).

    The array formulation holds all Σ|e|² ordered pin pairs at once;
    instances past ``_MAX_PAIR_ENTRIES`` (a few giant broadcast nets)
    take the bounded-memory sequential path instead — same matching
    either way.
    """
    rng = as_rng(seed)
    match = np.arange(hg.n, dtype=np.int64)
    if hg.n == 0:
        return match
    pins, net_ids = hg.pin_arrays
    sizes_all = np.bincount(net_ids, minlength=hg.n_nets)
    big = sizes_all[sizes_all >= 2]
    if float((big.astype(np.float64) ** 2).sum()) > _MAX_PAIR_ENTRIES:
        return _heavy_pin_matching_loop(hg, rng)
    visit = rng.permutation(hg.n)
    if pins.size == 0:
        return match
    keep = sizes_all[net_ids] >= 2  # single-pin nets rate nothing
    p, e = pins[keep], net_ids[keep]
    if p.size == 0:
        return match
    kept_nets = np.unique(e)  # ascending net ids
    s = sizes_all[kept_nets]
    b = np.zeros(s.size, dtype=np.int64)
    np.cumsum(s[:-1], out=b[1:])
    # all ordered pin pairs per net (diagonal filtered below); per-pair
    # rating contribution w_e / (|e| - 1)
    s2 = s * s
    tot = int(s2.sum())
    net_of_pair = np.repeat(np.arange(s.size), s2)
    c2 = np.zeros(s.size, dtype=np.int64)
    np.cumsum(s2[:-1], out=c2[1:])
    q = np.arange(tot) - c2[net_of_pair]
    U = np.repeat(p, np.repeat(s, s))
    V = p[b[net_of_pair] + q % s[net_of_pair]]
    r = np.repeat(hg.net_weights[kept_nets] / (s - 1.0), s2)
    off = U != V
    U, V, r = U[off], V[off], r[off]
    # aggregate per ordered pair; a *stable* sort on the composite key
    # keeps ascending-net order within each pair so float sums match the
    # dict reference (node ids < 2**31 fit the composite)
    order = np.argsort((U << np.int64(32)) | V, kind="stable")
    U, V, r = U[order], V[order], r[order]
    new_group = np.empty(U.size, dtype=bool)
    new_group[0] = True
    new_group[1:] = (U[1:] != U[:-1]) | (V[1:] != V[:-1])
    seg = np.cumsum(new_group) - 1
    rating = np.zeros(int(seg[-1]) + 1, dtype=np.float64)
    np.add.at(rating, seg, r)
    Uu, Vu = U[new_group], V[new_group]
    # priority: visit position of u, then descending rating, then smaller v
    # — realised as chained stable sorts, least-significant key first
    # (radix for the int keys beats a multi-key lexsort here)
    pos = np.empty(hg.n, dtype=np.int64)
    pos[visit] = np.arange(hg.n)
    pair_order = np.argsort(Vu, kind="stable")
    pair_order = pair_order[np.argsort(-rating[pair_order], kind="stable")]
    pair_order = pair_order[np.argsort(pos[Uu[pair_order]], kind="stable")]
    return greedy_match_by_rank(hg.n, Uu[pair_order], Vu[pair_order])


def _validate_matching(hg: HGraph, match: np.ndarray) -> None:
    if match.shape != (hg.n,):
        raise PartitionError(
            f"matching has shape {match.shape}, expected ({hg.n},)"
        )
    for u in range(hg.n):
        v = int(match[u])
        if not 0 <= v < hg.n:
            raise PartitionError(f"match[{u}]={v} out of range")
        if v != u and int(match[v]) != u:
            raise PartitionError(f"matching not symmetric at ({u}, {v})")


def contract_hyper(hg: HGraph, match: np.ndarray) -> tuple[HGraph, np.ndarray]:
    """Contract matched pairs into coarse nodes.

    Returns ``(coarse, node_map)`` with ``node_map[u]`` the coarse id of
    fine node *u*.  Pin dedup, single-pin-net removal and identical-net
    merging all happen here (the latter two via HGraph construction).
    """
    _validate_matching(hg, match)
    node_map = np.full(hg.n, -1, dtype=np.int64)
    next_id = 0
    for u in range(hg.n):
        if node_map[u] >= 0:
            continue
        v = int(match[u])
        node_map[u] = next_id
        if v != u:
            node_map[v] = next_id
        next_id += 1
    coarse_w = np.zeros(next_id, dtype=np.float64)
    np.add.at(coarse_w, node_map, hg.node_weights)

    nets: list[tuple[list[int], float]] = []
    w = hg.net_weights
    roots = hg.roots
    for e in range(hg.n_nets):
        coarse_root = int(node_map[roots[e]])
        seen = {coarse_root}
        pins = [coarse_root]  # root first: HGraph keeps pins[0] as root
        for p in hg.pins_of(e):
            cp = int(node_map[p])
            if cp not in seen:
                seen.add(cp)
                pins.append(cp)
        if len(pins) >= 2:  # single-pin nets can never be cut again
            nets.append((pins, float(w[e])))
    return HGraph(next_id, nets, node_weights=coarse_w), node_map


def coarsen_hyper_once(hg: HGraph, seed=None) -> tuple[HGraph, np.ndarray]:
    """One coarsening step: heavy-edge matching + contraction."""
    match = heavy_pin_matching(hg, seed=seed)
    return contract_hyper(hg, match)


@dataclass
class HyperLevel:
    """One level of the multilevel hierarchy."""

    hgraph: HGraph
    #: fine-node -> coarse-node map *into this level* (None for the original).
    node_map: np.ndarray | None


@dataclass
class HyperHierarchy:
    """Coarsening hierarchy; ``levels[0]`` is the input hypergraph."""

    levels: list[HyperLevel] = field(default_factory=list)

    @property
    def depth(self) -> int:
        return len(self.levels)

    @property
    def coarsest(self) -> HGraph:
        return self.levels[-1].hgraph

    def project(self, assign_coarse: np.ndarray, level: int) -> np.ndarray:
        """Project an assignment on ``levels[level]`` down to
        ``levels[level-1]`` through the stored node map."""
        if not 1 <= level < self.depth:
            raise PartitionError(f"cannot project from level {level}")
        node_map = self.levels[level].node_map
        return np.asarray(assign_coarse, dtype=np.int64)[node_map]


def build_hyper_hierarchy(
    hg: HGraph,
    coarsen_to: int = 100,
    seed=None,
) -> HyperHierarchy:
    """Coarsen *hg* until it has at most *coarsen_to* nodes.

    Stops early when a step shrinks the node count by less than
    :data:`~repro.partition.coarsen.MIN_SHRINK` (no useful matching left,
    e.g. one giant net).
    """
    if coarsen_to < 1:
        raise PartitionError(f"coarsen_to must be >= 1, got {coarsen_to}")
    rng = as_rng(seed)
    hier = HyperHierarchy(levels=[HyperLevel(hgraph=hg, node_map=None)])
    current = hg
    while current.n > coarsen_to:
        coarse, node_map = coarsen_hyper_once(current, seed=rng)
        if coarse.n >= current.n * (1 - MIN_SHRINK):
            break
        hier.levels.append(HyperLevel(hgraph=coarse, node_map=node_map))
        current = coarse
    return hier
