"""Deterministic force-directed graph layout (Fruchterman-Reingold).

Pure-numpy implementation: O(n^2) per iteration, ample for the paper-sized
figures; seeded initial placement makes the generated figures byte-stable
across runs (asserted by the artefact tests).
"""

from __future__ import annotations

import numpy as np

from repro.graph.wgraph import WGraph
from repro.util.rng import as_rng

__all__ = ["force_layout"]


def force_layout(
    g: WGraph,
    iterations: int = 150,
    seed=0,
    weight_attraction: bool = True,
) -> np.ndarray:
    """Coordinates in the unit square, shape ``(n, 2)``.

    *weight_attraction* scales attraction by edge weight so heavy channels
    pull their endpoints together — partition structure becomes visible, as
    in the paper's weighted drawings (Figures 3/7/11).
    """
    n = g.n
    if n == 0:
        return np.zeros((0, 2))
    if n == 1:
        return np.array([[0.5, 0.5]])
    rng = as_rng(seed)
    pos = rng.random((n, 2))
    k = np.sqrt(1.0 / n)  # ideal pairwise distance
    eu, ev, ew = g.edge_array
    if len(ew) and weight_attraction and ew.max() > 0:
        w_norm = ew / ew.max()
    else:
        # unweighted, or every channel weightless: uniform attraction
        w_norm = np.ones_like(ew)
    temperature = 0.1
    cooling = temperature / max(iterations, 1)

    for _ in range(iterations):
        delta = pos[:, None, :] - pos[None, :, :]  # (n, n, 2)
        dist = np.sqrt((delta**2).sum(axis=2))
        np.fill_diagonal(dist, 1.0)
        # repulsion: k^2 / d
        rep = (k * k) / dist
        disp = (delta / dist[:, :, None]) * rep[:, :, None]
        force = disp.sum(axis=1)
        # attraction along edges: d^2 / k, scaled by weight
        if len(ew):
            dvec = pos[eu] - pos[ev]
            d = np.sqrt((dvec**2).sum(axis=1))
            d[d == 0] = 1e-9
            att = (d * d / k) * w_norm
            f = (dvec / d[:, None]) * att[:, None]
            np.add.at(force, eu, -f)
            np.add.at(force, ev, f)
        flen = np.sqrt((force**2).sum(axis=1))
        flen[flen == 0] = 1e-9
        step = np.minimum(flen, temperature)
        pos += (force / flen[:, None]) * step[:, None]
        temperature = max(temperature - cooling, 1e-3)

    # normalise into [0.05, 0.95]^2
    mins = pos.min(axis=0)
    spans = pos.max(axis=0) - mins
    spans[spans == 0] = 1.0
    return 0.05 + 0.9 * (pos - mins) / spans
