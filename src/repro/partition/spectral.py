"""Spectral partitioning baseline (paper Section II.B).

Classic spectral bisection: split on the Fiedler vector (second-smallest
eigenvector of the weighted graph Laplacian), weight-balanced at the
splitting threshold; k parts by recursive bisection.  Serves as the
global-method comparator the related-work section discusses, and as the
"costly other algorithm" option for coarsest-level initial partitioning.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.graph.wgraph import WGraph
from repro.partition.base import PartitionResult
from repro.partition.fm import fm_refine_bisection
from repro.partition.metrics import ConstraintSpec, check_k, evaluate_partition
import repro.obs as _obs
from repro.util.errors import PartitionError

if TYPE_CHECKING:
    import scipy.sparse

__all__ = ["fiedler_vector", "spectral_bisection", "spectral_partition"]

_DENSE_CUTOVER = 64  # below this, dense eigensolve is faster and more robust


def laplacian(g: WGraph) -> scipy.sparse.csr_matrix:
    """Weighted combinatorial Laplacian L = D - A as sparse CSR."""
    # scipy costs ~0.3 s to import and only this module uses it: load on call
    import scipy.sparse

    eu, ev, ew = g.edge_array
    n = g.n
    rows = np.concatenate([eu, ev])
    cols = np.concatenate([ev, eu])
    vals = np.concatenate([-ew, -ew])
    a = scipy.sparse.coo_matrix((vals, (rows, cols)), shape=(n, n))
    deg = np.zeros(n)
    np.add.at(deg, eu, ew)
    np.add.at(deg, ev, ew)
    return (a + scipy.sparse.diags(deg)).tocsr()


def fiedler_vector(g: WGraph) -> np.ndarray:
    """Eigenvector of the second-smallest Laplacian eigenvalue.

    Requires a connected graph with at least 2 nodes.
    """
    if g.n < 2:
        raise PartitionError("Fiedler vector needs at least 2 nodes")
    if not g.is_connected():
        raise PartitionError("spectral bisection requires a connected graph")
    import scipy.linalg
    import scipy.sparse.linalg

    lap = laplacian(g)
    if g.n <= _DENSE_CUTOVER:
        vals, vecs = scipy.linalg.eigh(lap.toarray())
        return vecs[:, 1]
    # ARPACK draws a random start vector unless given one, and the
    # eigenvector's sign follows it: a fixed start keeps the partition
    # reproducible
    v0 = np.random.default_rng(0).random(g.n)
    vals, vecs = scipy.sparse.linalg.eigsh(
        lap, k=2, sigma=-1e-8, which="LM", v0=v0
    )
    order = np.argsort(vals)
    return vecs[:, order[1]]


def spectral_bisection(g: WGraph, refine: bool = True) -> np.ndarray:
    """Bisect by thresholding the Fiedler vector at the weighted median.

    The threshold is placed so both sides carry ~half the node weight
    (weighted-median split), then optionally polished with one FM run.
    """
    f = fiedler_vector(g)
    order = np.argsort(f, kind="stable")
    cum = np.cumsum(g.node_weights[order])
    half = g.total_node_weight / 2.0
    split = int(np.searchsorted(cum, half)) + 1
    split = min(max(split, 1), g.n - 1)
    assign = np.zeros(g.n, dtype=np.int64)
    assign[order[split:]] = 1
    if refine:
        cap = 0.6 * g.total_node_weight  # generous balance envelope
        assign = fm_refine_bisection(g, assign, max_weight=(cap, cap))
    return assign


def spectral_partition(
    g: WGraph,
    k: int,
    refine: bool = True,
    constraints: ConstraintSpec | None = None,
) -> PartitionResult:
    """Recursive spectral bisection into *k* parts.

    Like the METIS baseline, any *constraints* are only audited afterwards,
    never enforced.
    """
    check_k(k, g.n)
    sw = _obs.timed_span("spectral", nodes=g.n, k=k)
    assign = np.zeros(g.n, dtype=np.int64)

    def rec(nodes: np.ndarray, k_sub: int, first_label: int) -> None:
        if k_sub == 1:
            assign[nodes] = first_label
            return
        sub, idx = g.subgraph(nodes)
        if sub.n < 2:
            assign[nodes] = first_label
            return
        if not sub.is_connected():
            # split off components round-robin instead of spectrally
            comps = sub.connected_components()
            halves: list[list[int]] = [[], []]
            weights = [0.0, 0.0]
            for comp in sorted(comps, key=lambda c: -sub.node_weights[c].sum()):
                side = int(weights[1] < weights[0])
                halves[side].extend(comp)
                weights[side] += float(sub.node_weights[comp].sum())
            a = np.zeros(sub.n, dtype=np.int64)
            a[halves[1]] = 1
        else:
            a = spectral_bisection(sub, refine=refine)
            if len(set(a.tolist())) < 2:  # degenerate split: force one node off
                a[:] = 0
                a[int(np.argmax(sub.node_weights))] = 1
        k0 = k_sub // 2
        rec(idx[a == 0], k0, first_label)
        rec(idx[a == 1], k_sub - k0, first_label + k0)

    with sw:
        rec(np.arange(g.n, dtype=np.int64), k, 0)
    return PartitionResult(
        assign=assign,
        k=k,
        metrics=evaluate_partition(g, assign, k, constraints),
        algorithm="spectral",
        runtime=sw.elapsed,
        constraints=constraints or ConstraintSpec(),
    )
