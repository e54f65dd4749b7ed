"""Constructors bridging :class:`~repro.graph.wgraph.WGraph` with common inputs."""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from typing import TYPE_CHECKING

import numpy as np

from repro.graph.wgraph import WGraph
from repro.util.errors import GraphError

if TYPE_CHECKING:
    import networkx as nx

__all__ = ["from_edges", "from_adjacency", "from_networkx", "to_networkx"]


def from_edges(
    n: int,
    edges: Iterable[tuple[int, int, float]],
    node_weights: Iterable[float] | None = None,
) -> WGraph:
    """Build a graph from ``(u, v, w)`` triples (thin alias of the constructor)."""
    return WGraph(n, edges, node_weights=node_weights)


def from_adjacency(
    adj: np.ndarray, node_weights: Iterable[float] | None = None
) -> WGraph:
    """Build a graph from a dense symmetric weighted adjacency matrix.

    The matrix must be square and symmetric with a zero diagonal; entry
    ``adj[u, v] > 0`` becomes an edge of that weight.
    """
    a = np.asarray(adj, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise GraphError(f"adjacency matrix must be square, got {a.shape}")
    if not np.allclose(a, a.T):
        raise GraphError("adjacency matrix must be symmetric")
    if np.any(np.diag(a) != 0):
        raise GraphError("adjacency matrix must have a zero diagonal (no self loops)")
    n = a.shape[0]
    iu, iv = np.nonzero(np.triu(a, k=1))
    edges = [(int(u), int(v), float(a[u, v])) for u, v in zip(iu, iv)]
    return WGraph(n, edges, node_weights=node_weights)


def from_networkx(
    g: nx.Graph,
    weight: str = "weight",
    node_weight: str = "weight",
    default_edge_weight: float = 1.0,
    default_node_weight: float = 1.0,
) -> tuple[WGraph, list]:
    """Convert a networkx graph.

    Node labels are relabelled to ``0..n-1`` in sorted order when possible
    (insertion order otherwise).  Returns the graph and the label list such
    that ``labels[i]`` is the original label of node ``i``.
    """
    if g.is_directed():
        raise GraphError("directed graphs are not supported; use .to_undirected()")
    try:
        labels = sorted(g.nodes())
    except TypeError:
        labels = list(g.nodes())
    index: Mapping = {lbl: i for i, lbl in enumerate(labels)}
    node_weights = [
        float(g.nodes[lbl].get(node_weight, default_node_weight)) for lbl in labels
    ]
    edges = [
        (index[u], index[v], float(d.get(weight, default_edge_weight)))
        for u, v, d in g.edges(data=True)
    ]
    return WGraph(len(labels), edges, node_weights=node_weights), labels


def to_networkx(g: WGraph) -> nx.Graph:
    """Convert to a networkx ``Graph`` with ``weight`` node/edge attributes."""
    import networkx as nx  # ~0.2 s to import, and no partitioner needs it

    out = nx.Graph()
    for u in range(g.n):
        out.add_node(u, weight=float(g.node_weights[u]))
    for u, v, w in g.edges():
        out.add_edge(u, v, weight=w)
    return out
