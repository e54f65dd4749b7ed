"""Host speed reference for the batch workloads' time figures.

On a shared host the same partitioner call runs up to 1.6x slower, in CPU
time as much as in wall time, in spells that last from seconds to
minutes.  Taking each input's best pass removes the short spells but not
one that covers a whole run.  So a batch run also times a fixed kernel,
independent of the partitioner, before every call, and reports its best
times scaled to the speed at which the kernel's best run takes
:data:`REFERENCE_S`:

    reported = best measured * REFERENCE_S / (best kernel time of the run)

The kernel does the partitioner's kind of work: a Python loop over
adjacency lists choosing each node's best part, and numpy gathers and
bincounts over an edge list.  Over 20 s windows of one repeated call on
the reference host, the best call varied 3.9% (coefficient of variation)
and the scaled best call 2.7%.  In spells that covered whole runs the
kernel slowed about 1.6x where the partitioner slowed about 1.4x, so
there the scaled figure errs low by about a tenth instead of high by
four tenths.  A change to the partitioner moves the reported time
exactly as it moves the measured one; the raw figures are printed beside
the scaled ones.
"""

from __future__ import annotations

import gc
import time

import numpy as np

__all__ = ["REFERENCE_S", "SpeedProbe"]

#: The kernel's best time on the reference host (a shared 2-vCPU x86-64
#: VM, CPython 3.11, numpy 2.4) outside slow spells.
REFERENCE_S = 0.023

_NODES = 3000
_EDGES = 12000
_PARTS = 8


class SpeedProbe:
    """Times the reference kernel and keeps the samples of one run."""

    def __init__(self) -> None:
        rng = np.random.default_rng(7)
        self._eu = rng.integers(0, _NODES, _EDGES)
        self._ev = rng.integers(0, _NODES, _EDGES)
        self._ew = rng.random(_EDGES)
        self._nbr: list[list[tuple[int, float]]] = [[] for _ in range(_NODES)]
        for u, v, w in zip(self._eu.tolist(), self._ev.tolist(),
                           self._ew.tolist()):
            if u != v:
                self._nbr[u].append((v, w))
                self._nbr[v].append((u, w))
        self._part0 = [u * _PARTS // _NODES for u in range(_NODES)]
        self.samples: list[float] = []
        self._kernel()  # warm-up, not kept

    def _kernel(self) -> None:
        part = list(self._part0)
        for _ in range(4):
            for u in range(_NODES):
                pu = part[u]
                conn = [0.0] * _PARTS
                for v, w in self._nbr[u]:
                    conn[part[v]] += w
                best = max(range(_PARTS), key=conn.__getitem__)
                if conn[best] > conn[pu]:
                    part[u] = best
            a = np.asarray(part)
            for _ in range(10):
                np.bincount(a[self._eu] * _PARTS + a[self._ev],
                            weights=self._ew, minlength=_PARTS * _PARTS)

    def sample(self) -> None:
        """Time one kernel run (garbage collection held off meanwhile)."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            self._kernel()
            self.samples.append(time.perf_counter() - t0)
        finally:
            if enabled:
                gc.enable()

    def scale(self) -> float:
        """Factor from measured best times to reference-speed times."""
        return REFERENCE_S / min(self.samples)
