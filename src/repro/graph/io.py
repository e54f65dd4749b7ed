"""JSON (de)serialisation of graphs — the library's native on-disk format."""

from __future__ import annotations

import json
from pathlib import Path

from repro.graph.wgraph import WGraph
from repro.util.errors import GraphError

__all__ = [
    "graph_to_json", "graph_from_doc", "graph_from_json", "save_graph",
    "load_graph",
]

_FORMAT = "repro-wgraph-v1"


def graph_to_json(g: WGraph) -> str:
    """Serialise *g* to a JSON string."""
    doc = {
        "format": _FORMAT,
        "n": g.n,
        "node_weights": [float(w) for w in g.node_weights],
        "edges": [[u, v, w] for u, v, w in g.edges()],
    }
    return json.dumps(doc, indent=1)


def graph_from_doc(doc) -> WGraph:
    """Build a graph from a decoded :func:`graph_to_json` document."""
    if not isinstance(doc, dict) or doc.get("format") != _FORMAT:
        raise GraphError(f"not a {_FORMAT} document")
    try:
        return WGraph(
            int(doc["n"]), doc["edges"], node_weights=doc["node_weights"]
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise GraphError(f"malformed graph document: {exc}") from exc


def graph_from_json(text: str) -> WGraph:
    """Parse a graph serialised by :func:`graph_to_json`."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphError(f"invalid JSON: {exc}") from exc
    return graph_from_doc(doc)


def save_graph(g: WGraph, path: str | Path) -> None:
    Path(path).write_text(graph_to_json(g))


def load_graph(path: str | Path) -> WGraph:
    return graph_from_json(Path(path).read_text())
