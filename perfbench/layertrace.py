"""Layer spans the benchmark puts around calls into the partitioner.

The partitioner's own spans (``repro.obs``) are not used for the layer
breakdown: the benchmark wraps each layer's public entry point itself,
wherever a loaded ``repro`` module binds it, so a layer keeps its timing
when a caller moves to another module.  Every wrapped call is one span:

* **total** time is the call's wall time;
* **self** time is the total minus the part covered by nested spans (an
  FM pass inside initial partitioning is charged to the FM layer, not to
  initial partitioning), so the self times of all layers plus the
  driver's own remainder add up to the traced wall time.

Hooks run outside every span and their cost is kept out of the enclosing
span's self time too; it is reported on its own as ``instrument_s``.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

__all__ = ["LayerTracer", "edge_cut"]


def edge_cut(g, assign) -> float:
    """Total weight of the edges of *g* whose endpoints lie in different parts."""
    eu, ev, ew = g.edge_array
    return float(ew[assign[eu] != assign[ev]].sum())


class LayerTracer:
    """Wraps layer entry points, records per-layer calls and self times.

    Use as a context manager: the patches made by :meth:`patch_function`
    and :meth:`patch_init` are undone on exit.  Single-threaded by design
    (the batch workloads run the partitioner in-process with one job).
    """

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.instrument_s = 0.0
        self._stack: list[list] = []  # open spans: [layer, covered_s]
        self._undo: list[tuple] = []

    def __enter__(self) -> "LayerTracer":
        return self

    def __exit__(self, *exc) -> None:
        for owner, name, value in reversed(self._undo):
            setattr(owner, name, value)
        self._undo.clear()

    # ------------------------------------------------------------------ #
    def inside(self, layer: str) -> bool:
        """True when a span of *layer* is open (hooks ask who called them)."""
        return any(frame[0] == layer for frame in self._stack)

    def _run_hook(self, hook, *args):
        t0 = time.perf_counter()
        try:
            return hook(*args)
        finally:
            dt = time.perf_counter() - t0
            self.instrument_s += dt
            if self._stack:
                self._stack[-1][1] += dt

    def wrap(self, layer: str, fn, before=None, after=None):
        """*fn* timed as a span of *layer*.

        ``before(args, kwargs)`` runs ahead of the span and its return
        value is handed to ``after(args, kwargs, out, ctx, elapsed_s)``,
        which runs once the span has closed.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            ctx = tracer._run_hook(before, args, kwargs) if before else None
            frame = [layer, 0.0]
            tracer._stack.append(frame)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                tracer._stack.pop()
                tracer.calls[layer] += 1
                tracer.total_s[layer] += dt
                tracer.self_s[layer] += dt - frame[1]
                if tracer._stack:
                    tracer._stack[-1][1] += dt
            if after:
                tracer._run_hook(after, args, kwargs, out, ctx, dt)
            return out

        return traced

    def patch_function(self, fn, layer: str, before=None, after=None) -> None:
        """Replace *fn* by its traced wrapper in every loaded repro module."""
        traced = self.wrap(layer, fn, before, after)
        for mod in list(sys.modules.values()):
            name = getattr(mod, "__name__", "") or ""
            if name != "repro" and not name.startswith("repro."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, attr, traced)
                    self._undo.append((mod, attr, fn))

    def patch_init(self, cls, layer: str, after=None) -> None:
        """Trace construction of *cls* (every binding shares the class)."""
        init = cls.__init__
        cls.__init__ = self.wrap(layer, init, after=after)
        self._undo.append((cls, "__init__", init))

    def self_sum_s(self) -> float:
        return float(sum(self.self_s.values()))
