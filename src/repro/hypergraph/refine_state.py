"""Vectorized incremental state for connectivity-metric refinement.

:class:`HyperRefinementState` generalises
:class:`~repro.partition.refine_state.RefinementState` from graphs to
hypergraphs.  In place of the per-node part-connectivity matrix it keeps
the **pin-count matrix** ``Φ`` of shape ``(k, n_nets)``: ``Φ[p, e]`` is the
number of net *e*'s pins currently assigned to part *p* — the KaHyPar-style
state from which every connectivity quantity is one comparison away:

* net connectivity ``λ(e) = |{p : Φ[p, e] > 0}|`` (tracked incrementally),
* the (λ−1) objective ``Σ w_e (λ(e) − 1)``,
* gain of moving *u* to *d*: a net contributes ``+w_e`` iff *u* is its last
  pin in the source part, ``−w_e`` iff part *d* holds none of its pins yet,
* the pairwise traffic matrix ``bw`` under root attribution (the net's
  value travels from the root's part to each other connected part), whose
  upper triangle sums to the objective — exactly the ``bw``/cut relation
  the graph engine has, so the paper's ``Bmax`` cap carries over.

A move costs **O(pins(u) + k)** amortised: each incident net updates two
``Φ`` entries and at most two ``bw`` pairs, except when the *root* pin
itself moves, which re-attributes that net's ≤ λ pairs.  The move trail,
rollback, epoch counter and lexicographic ``(violation, cut, dest)`` move
selection mirror the graph engine bit for bit — on a 2-pin-only hypergraph
every tracked quantity and every chosen move is identical to
``RefinementState`` (pinned by ``tests/test_hyper_differential.py``).

Move evaluation is degree-local, like the graph engine's: a node's
candidate destinations are the parts its positive-weight nets reach,
read from one gather of ``Φ[:, nets(u)]``, and only those are scored.
``best_moves`` runs one numpy pass over a batch's flat incidence list;
``best_move`` (the FM's revalidation call) and small batches run a
Python loop per node that sums in the same order, so both agree bit for
bit.  Nodes in an over-cap part (the escape rule) score all k parts
through :meth:`~HyperRefinementState.move_deltas`, which stays the
k-wide reference the tests hold the evaluator to.

Data-structure invariants are documented in ``docs/hypergraph.md``.
"""

from __future__ import annotations

import math

import numpy as np

from repro.hypergraph.hgraph import HGraph
from repro.hypergraph.metrics import check_hyper_assignment
from repro.partition.conn_store import _flat_slice_indices
from repro.partition.metrics import ConstraintSpec, PartitionMetrics
from repro.partition.refine_state import (
    _EpochView,
    constrained_key,
    metrics_from_matrices,
    select_best_move,
    select_escape_move,
    upper_flat_index,
)
from repro.util.errors import PartitionError

__all__ = ["HyperRefinementState"]

#: :meth:`HyperRefinementState.best_moves` scores a batch with one numpy
#: pass over the nodes' flat incidence list from this many nodes on;
#: below it (and in :meth:`~HyperRefinementState.best_move`, the FM's
#: revalidation call) a Python loop per node is cheaper.  Measured on
#: the ``multicast120`` FM calls: the pass costs about as much as the
#: loop over 5–6 nodes and a third of it over 20.
_BATCH_MIN_NODES = 6


class HyperRefinementState:
    """Mutable k-way assignment over a hypergraph with incremental Φ/bw.

    Parameters
    ----------
    hg, assign, k:
        Hypergraph, initial node→part assignment (validated, copied),
        part count.

    Notes
    -----
    All tracked quantities are exact under integer-valued weights; the
    invariant suite (``tests/test_hyper_refine_invariants.py``) checks them
    against from-scratch recomputation after every pass.
    """

    __slots__ = (
        "hg",
        "k",
        "assign",
        "phi",
        "lam",
        "part_weight",
        "part_size",
        "bw",
        "_trail",
        "_iu_flat",
        "_epoch",
        "_view_cache",
    )

    def __init__(self, hg: HGraph, assign: np.ndarray, k: int) -> None:
        self.hg = hg
        self.k = int(k)
        a = check_hyper_assignment(hg, assign, k).copy()
        self.assign = a

        pins, net_ids = hg.pin_arrays
        phi = np.zeros((self.k, hg.n_nets), dtype=np.int64)
        np.add.at(phi, (a[pins], net_ids), 1)
        self.phi = phi
        self.lam = (phi > 0).sum(axis=0)

        pw = np.zeros(self.k, dtype=np.float64)
        np.add.at(pw, a, hg.node_weights)
        self.part_weight = pw
        self.part_size = np.bincount(a, minlength=self.k)

        bw = np.zeros((self.k, self.k), dtype=np.float64)
        w = hg.net_weights
        root_parts = a[hg.roots] if hg.n_nets else np.empty(0, dtype=np.int64)
        for e in np.nonzero(self.lam > 1)[0]:
            rp = int(root_parts[e])
            we = float(w[e])
            for p in np.nonzero(phi[:, e])[0]:
                p = int(p)
                if p != rp:
                    bw[rp, p] += we
                    bw[p, rp] += we
        self.bw = bw

        self._trail: list[tuple[int, int]] = []
        self._iu_flat = upper_flat_index(self.k)
        self._epoch = 0
        self._view_cache: _EpochView | None = None

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    @property
    def cut(self) -> float:
        """The (λ−1) connectivity objective (== triu of ``bw``)."""
        return float(self.bw.take(self._iu_flat).sum())

    @property
    def epoch(self) -> int:
        """Monotone move counter (same caching contract as the graph engine)."""
        return self._epoch

    def connection_vector(self, u: int) -> np.ndarray:
        """Summed weight of *u*'s nets with another pin in each part,
        shape ``(k,)``.  Equals the graph engine's ``conn[:, u]`` on a
        2-pin-only hypergraph."""
        nets = self.hg.nets_of(u)
        src = int(self.assign[u])
        cu = np.zeros(self.k, dtype=np.float64)
        if nets.size == 0:
            return cu
        phi_e = self.phi[:, nets]
        mask = phi_e > 0
        mask[src] = phi_e[src] > 1  # discount u's own pin
        return mask @ self.hg.net_weights[nets]

    def boundary_mask(self) -> np.ndarray:
        """Boolean mask of nodes incident to at least one cut net (λ > 1)."""
        out = np.zeros(self.hg.n, dtype=bool)
        pins, net_ids = self.hg.pin_arrays
        out[pins[self.lam[net_ids] > 1]] = True
        return out

    def boundary_nodes(self) -> np.ndarray:
        """Sorted array of boundary-node ids."""
        return np.nonzero(self.boundary_mask())[0]

    def key(self, constraints: ConstraintSpec) -> tuple[float, float]:
        """``(total violation, connectivity objective)`` — the FM key,
        computed by the exact function the graph engine uses."""
        return constrained_key(
            self.bw, self.part_weight, self._iu_flat, constraints
        )

    def metrics(self, constraints: ConstraintSpec | None = None) -> PartitionMetrics:
        """:class:`PartitionMetrics` from the tracked matrices (no rescan)."""
        constraints = constraints or ConstraintSpec()
        return metrics_from_matrices(
            self.bw, self.part_weight, self.k, constraints
        )

    def overloaded_mask(self, constraints: ConstraintSpec) -> np.ndarray:
        """Boolean ``(k,)`` mask of parts over the resource cap (the FM
        escape/seed hook — same semantics as the graph engine's)."""
        if np.isfinite(constraints.rmax):
            return self.part_weight > constraints.rmax
        return np.zeros(self.k, dtype=bool)

    def overloaded_nodes(self, constraints: ConstraintSpec) -> np.ndarray:
        """Sorted ids of nodes living in an over-cap part (FM extra seeds)."""
        return np.nonzero(self.overloaded_mask(constraints)[self.assign])[0]

    # ------------------------------------------------------------------ #
    # flow-refinement hooks (see repro.partition.flow_refine)
    # ------------------------------------------------------------------ #
    def flow_adjacency(self, u: int) -> tuple[np.ndarray, np.ndarray]:
        """Weighted adjacency of *u* by **clique expansion** of its nets:
        every net *e* with ≥ 2 pins contributes ``w_e / (|pins(e)| − 1)``
        to each of *u*'s co-pins.  Exact on 2-pin nets (where it equals
        the graph edge weight) and the standard conservative approximation
        on larger ones — cutting all arcs of the expansion costs at least
        as much as cutting the net once, so flow corridors built on it
        never undercount a candidate cut."""
        hg = self.hg
        acc: dict[int, float] = {}
        for e in hg.nets_of(u):
            e = int(e)
            size = hg.net_size(e)
            if size < 2:
                continue
            w = float(hg.net_weights[e]) / (size - 1)
            for v in hg.pins_of(e):
                v = int(v)
                if v != u:
                    acc[v] = acc.get(v, 0.0) + w
        if not acc:
            return (
                np.empty(0, dtype=np.int64),
                np.empty(0, dtype=np.float64),
            )
        nbrs = np.array(sorted(acc), dtype=np.int64)
        ws = np.array([acc[int(v)] for v in nbrs], dtype=np.float64)
        return nbrs, ws

    def pair_boundary(self, a: int, b: int) -> np.ndarray:
        """Sorted ids of part-*a*/*b* pins of nets touching both parts —
        the seed set of a flow corridor."""
        pins, net_ids = self.hg.pin_arrays
        cut = (self.phi[a] > 0) & (self.phi[b] > 0)
        nodes = np.unique(pins[cut[net_ids]])
        sides = self.assign[nodes]
        return nodes[(sides == a) | (sides == b)]

    def flow_node_weights(self) -> np.ndarray:
        """Per-node weights for the most-balanced min-cut heuristic."""
        return self.hg.node_weights

    # ------------------------------------------------------------------ #
    # moves and rollback
    # ------------------------------------------------------------------ #
    def move(self, u: int, dest: int) -> None:
        """Move node *u* to part *dest*, logging the move on the trail."""
        src = self._move(u, dest)
        if src >= 0:
            self._trail.append((u, src))

    def _move(self, u: int, dest: int) -> int:
        """Unlogged move; returns the source part, or -1 for a no-op."""
        src = int(self.assign[u])
        dest = int(dest)
        if not (0 <= dest < self.k):
            raise PartitionError(f"destination part {dest} out of range")
        if dest == src:
            return -1
        hg = self.hg
        phi, bw, lam = self.phi, self.bw, self.lam
        a = self.assign
        w = hg.net_weights
        roots = hg.roots
        for e in hg.nets_of(u):
            e = int(e)
            we = float(w[e])
            r = int(roots[e])
            if r == u:
                # the root moves with u: re-attribute every pair of this net
                for p in np.nonzero(phi[:, e])[0]:
                    p = int(p)
                    if p != src:
                        bw[src, p] -= we
                        bw[p, src] -= we
                phi[src, e] -= 1
                phi[dest, e] += 1
                if phi[src, e] == 0:
                    lam[e] -= 1
                if phi[dest, e] == 1:
                    lam[e] += 1
                for p in np.nonzero(phi[:, e])[0]:
                    p = int(p)
                    if p != dest:
                        bw[dest, p] += we
                        bw[p, dest] += we
            else:
                rp = int(a[r])
                if phi[src, e] == 1 and src != rp:
                    bw[src, rp] -= we
                    bw[rp, src] -= we
                if phi[dest, e] == 0 and dest != rp:
                    bw[dest, rp] += we
                    bw[rp, dest] += we
                phi[src, e] -= 1
                phi[dest, e] += 1
                if phi[src, e] == 0:
                    lam[e] -= 1
                if phi[dest, e] == 1:
                    lam[e] += 1
        w_u = float(hg.node_weights[u])
        self.part_weight[src] -= w_u
        self.part_weight[dest] += w_u
        self.part_size[src] -= 1
        self.part_size[dest] += 1
        a[u] = dest
        self._epoch += 1
        return src

    def snapshot(self) -> int:
        """Opaque mark of the current move-trail position."""
        return len(self._trail)

    def rollback(self, mark: int) -> None:
        """Rewind to :meth:`snapshot` mark *mark*, undoing moves in reverse."""
        if not (0 <= mark <= len(self._trail)):
            raise PartitionError(
                f"rollback mark {mark} outside trail of {len(self._trail)}"
            )
        while len(self._trail) > mark:
            u, src = self._trail.pop()
            self._move(u, src)

    def clear_trail(self) -> None:
        """Drop rollback history (call when a prefix is committed for good)."""
        self._trail.clear()

    def copy(self) -> "HyperRefinementState":
        """Independent copy sharing only the immutable hypergraph."""
        out = object.__new__(HyperRefinementState)
        out.hg = self.hg
        out.k = self.k
        out.assign = self.assign.copy()
        out.phi = self.phi.copy()
        out.lam = self.lam.copy()
        out.part_weight = self.part_weight.copy()
        out.part_size = self.part_size.copy()
        out.bw = self.bw.copy()
        out._trail = list(self._trail)
        out._iu_flat = self._iu_flat
        out._epoch = 0
        out._view_cache = None
        return out

    # ------------------------------------------------------------------ #
    # move evaluation
    # ------------------------------------------------------------------ #
    def _view(self, constraints) -> _EpochView:
        view = self._view_cache
        if (
            view is None
            or view.epoch != self._epoch
            or (view.constraints is not constraints
                and view.constraints != constraints)
        ):
            view = self._view_cache = _EpochView(self, constraints)
        return view

    def move_deltas(
        self, u: int, constraints: ConstraintSpec
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(violation_delta, cut_delta)`` of moving *u* to every part.

        Shape ``(k,)`` each; entries at ``assign[u]`` are zero, negative
        values are improvements.  The connectivity deltas are one masked
        matrix-vector product; the bandwidth-violation deltas come from
        :meth:`_bandwidth_deltas` for every other part.  O(k · nets(u))
        numpy over the whole row — the escape path of :meth:`best_moves`,
        and the reference the tests hold the degree-local evaluator to.
        """
        hg = self.hg
        src = int(self.assign[u])
        k = self.k
        nets = hg.nets_of(u)
        w = hg.net_weights[nets]
        phi_e = self.phi[:, nets]  # (k, nE) gather
        dv = np.zeros(k, dtype=np.float64)
        # connectivity (cut) deltas: +w_e when dest holds no pin of e yet,
        # -w_e when u is the last pin of e in src
        leaves = float(w[phi_e[src] == 1].sum()) if nets.size else 0.0
        dc = (phi_e == 0).astype(np.float64) @ w - leaves if nets.size else (
            np.zeros(k, dtype=np.float64)
        )
        rmax, bmax = constraints.rmax, constraints.bmax
        pw = self.part_weight
        if np.isfinite(rmax):
            w_u = float(hg.node_weights[u])
            shed = max(0.0, pw[src] - w_u - rmax) - max(0.0, pw[src] - rmax)
            dv += shed + (
                np.maximum(pw + w_u - rmax, 0.0) - np.maximum(pw - rmax, 0.0)
            )
        if np.isfinite(bmax) and nets.size:
            dests = [d for d in range(k) if d != src]
            dv[dests] += self._bandwidth_deltas(
                u, src, dests, nets, w, phi_e, bmax
            )
        dv[src] = 0.0
        dc[src] = 0.0
        return dv, dc

    def _bandwidth_deltas(
        self,
        u: int,
        src: int,
        dests: list[int],
        nets: np.ndarray,
        w: np.ndarray,
        phi_e: np.ndarray,
        bmax: float,
    ) -> list[float]:
        """Bandwidth-violation delta of moving *u* to each of *dests*.

        *nets*, *w* and ``phi_e = phi[:, nets]`` are *u*'s nets, their
        weights and pin counts.  Per destination, the exact per-pair
        ``bw`` changes accumulate net by net and the ``relu(· − Bmax)``
        difference applies once per touched pair — the same per-entry
        arithmetic as the graph engine, so the two agree exactly on
        2-pin-only hypergraphs with integer weights.
        """
        bw = self.bw
        roots = self.hg.roots[nets]
        root_parts = self.assign[roots]
        # per net: the parts it currently touches (computed once)
        touched = [np.nonzero(phi_e[:, j])[0] for j in range(nets.size)]
        out = []
        for dest in dests:
            acc: dict[tuple[int, int], float] = {}
            for j in range(nets.size):
                we = float(w[j])
                if int(roots[j]) == u:
                    # root moves: pairs (src, p) die, pairs (dest, p) rise
                    stays = phi_e[src, j] > 1
                    for p in touched[j]:
                        p = int(p)
                        if p != src:
                            key = (p, src) if p < src else (src, p)
                            acc[key] = acc.get(key, 0.0) - we
                        if (p != src or stays) and p != dest:
                            key = (p, dest) if p < dest else (dest, p)
                            acc[key] = acc.get(key, 0.0) + we
                else:
                    rp = int(root_parts[j])
                    if phi_e[src, j] == 1 and src != rp:
                        key = (src, rp) if src < rp else (rp, src)
                        acc[key] = acc.get(key, 0.0) - we
                    if phi_e[dest, j] == 0 and dest != rp:
                        key = (dest, rp) if dest < rp else (rp, dest)
                        acc[key] = acc.get(key, 0.0) + we
            v = 0.0
            for (p, q), d in acc.items():
                if d != 0.0:
                    old = bw[p, q]
                    v += max(old + d - bmax, 0.0) - max(old - bmax, 0.0)
            out.append(v)
        return out

    def best_move(
        self, u: int, constraints: ConstraintSpec
    ) -> tuple[float, float, int] | None:
        """Best ``(violation_delta, cut_delta, dest)`` for node *u*.

        Candidate destinations are the parts *d* some positive-weight net
        of *u* has a pin in (``connection_vector(u)[d] > 0``); when *u*'s
        part is over the resource cap, every part is a candidate (the
        escape rule).  Ties break lexicographically, last on the smallest
        part id, through the graph engine's ``select_best_move``.
        Returns ``None`` when no candidate exists.
        """
        u = int(u)
        src = int(self.assign[u])
        view = self._view(constraints)
        if view.over[src]:
            return self._escape_move(u, src, constraints)
        return self._node_move(u, src, constraints, view)

    def best_moves(
        self, nodes: np.ndarray, constraints: ConstraintSpec
    ) -> list[tuple[float, float, int] | None]:
        """:meth:`best_move` over *nodes* (order preserved).

        The degree-local evaluator: a part none of a node's nets reaches
        is no candidate, so only the parts in the connectivity sets of
        the node's nets are scored.  From ``_BATCH_MIN_NODES`` nodes on,
        one numpy pass over the nodes' flat incidence list scores the
        whole batch (per-node sums by ``bincount``, the per-node minimum
        by one ``lexsort``); smaller batches run the per-node loop.
        Escape nodes score all k parts through :meth:`move_deltas`.
        """
        nodes = np.asarray(nodes, dtype=np.int64)
        if nodes.size < _BATCH_MIN_NODES:
            return [self.best_move(u, constraints) for u in nodes.tolist()]
        out: list = [None] * nodes.size
        k, n_rows = self.k, nodes.size
        srcs = self.assign[nodes]
        escape = None
        if any(self._view(constraints).over):
            escape = self.overloaded_mask(constraints)[srcs]
            for i in np.flatnonzero(escape).tolist():
                out[i] = self._escape_move(
                    int(nodes[i]), int(srcs[i]), constraints
                )
        indptr, inc = self.hg.incidence
        lo = indptr[nodes]
        deg = indptr[nodes + 1] - lo
        rows, flat = _flat_slice_indices(lo, deg)
        nets = inc[flat]
        w = self.hg.net_weights[nets]
        phi_g = self.phi.take(nets, axis=1)  # (k, pins of the batch)
        total = np.bincount(rows, weights=w, minlength=n_rows)
        last = phi_g[srcs[rows], np.arange(rows.size)] == 1
        leaves = np.bincount(rows[last], weights=w[last], minlength=n_rows)
        # weight of each node's nets with a pin in each part, summed in
        # pin order per (node, part) — the order the per-node loop sums in
        parts, slots = np.nonzero(phi_g)
        present = np.bincount(
            rows[slots] * k + parts, weights=w[slots], minlength=n_rows * k
        ).reshape(n_rows, k)
        present[np.arange(n_rows), srcs] = 0.0
        if escape is not None:
            present[escape] = 0.0
        r, d = np.nonzero(present > 0.0)
        if r.size == 0:
            return out
        dc = (total[r] - present[r, d]) - leaves[r]
        rmax = constraints.rmax
        if math.isfinite(rmax):
            pw = self.part_weight
            wu = self.hg.node_weights[nodes]
            ps = pw[srcs]
            shed = np.maximum(ps - wu - rmax, 0.0) - np.maximum(ps - rmax, 0.0)
            pd = pw[d]
            dv = shed[r] + (
                np.maximum(pd + wu[r] - rmax, 0.0) - np.maximum(pd - rmax, 0.0)
            )
        else:
            dv = np.zeros(r.size)
        bmax = constraints.bmax
        if math.isfinite(bmax):
            start = np.cumsum(deg) - deg
            bwd = np.empty(r.size)
            cuts = np.flatnonzero(np.diff(r)) + 1
            for a, b in zip([0, *cuts.tolist()], [*cuts.tolist(), r.size]):
                i = int(r[a])
                s, e = int(start[i]), int(start[i] + deg[i])
                bwd[a:b] = self._bandwidth_deltas(
                    int(nodes[i]), int(srcs[i]), d[a:b].tolist(),
                    nets[s:e], w[s:e], phi_g[:, s:e], bmax,
                )
            dv = dv + bwd
        # per node, the lexicographic min of (dv, dc, dest)
        order = np.lexsort((d, dc, dv, r))
        head = np.ones(order.size, dtype=bool)
        head[1:] = r[order[1:]] != r[order[:-1]]
        pick = order[head]
        for i, a, b, c in zip(
            r[pick].tolist(), dv[pick].tolist(), dc[pick].tolist(),
            d[pick].tolist(),
        ):
            out[i] = (a, b, c)
        return out

    def _escape_move(self, u: int, src: int, constraints) -> tuple | None:
        """The escape rule: every part but *src* is a candidate."""
        return select_escape_move(*self.move_deltas(u, constraints), src)

    def _node_move(
        self, u: int, src: int, constraints, view: _EpochView
    ) -> tuple[float, float, int] | None:
        """Best move of the single node *u* among the parts its nets
        reach — the Python-float twin of the :meth:`best_moves` pass,
        summing in the same order, for calls too small to pay for it."""
        hg = self.hg
        indptr, inc = hg.incidence
        nets = inc[indptr[u]:indptr[u + 1]]
        if not nets.size:
            return None
        w = hg.net_weights[nets]
        phi_e = self.phi.take(nets, axis=1)
        wl = w.tolist()
        total = leaves = 0.0
        for c, x in zip(phi_e[src].tolist(), wl):
            total += x
            if c == 1:
                leaves += x
        present = [0.0] * self.k
        parts, slots = np.nonzero(phi_e)
        for p, j in zip(parts.tolist(), slots.tolist()):
            present[p] += wl[j]
        dests = [p for p, x in enumerate(present) if x > 0.0 and p != src]
        if not dests:
            return None
        dc = [(total - present[p]) - leaves for p in dests]
        rmax = constraints.rmax
        if math.isfinite(rmax):
            pw = view.pw
            w_u = float(hg.node_weights[u])
            t, o = pw[src] - w_u - rmax, pw[src] - rmax
            shed = (t if t > 0.0 else 0.0) - (o if o > 0.0 else 0.0)
            dv = []
            for d in dests:
                t, o = pw[d] + w_u - rmax, pw[d] - rmax
                dv.append(shed + ((t if t > 0.0 else 0.0) - (o if o > 0.0 else 0.0)))
        else:
            dv = [0.0] * len(dests)
        bmax = constraints.bmax
        if math.isfinite(bmax):
            bwd = self._bandwidth_deltas(u, src, dests, nets, w, phi_e, bmax)
            dv = [a + b for a, b in zip(dv, bwd)]
        return select_best_move(dv, dc, dests)

    def recompute(self) -> None:
        """Rebuild everything from scratch (tests/debugging only)."""
        fresh = HyperRefinementState(self.hg, self.assign, self.k)
        self.phi = fresh.phi
        self.lam = fresh.lam
        self.part_weight = fresh.part_weight
        self.part_size = fresh.part_size
        self.bw = fresh.bw
        self._epoch += 1
        self._view_cache = None
        self._trail.clear()

    def __repr__(self) -> str:
        return (
            f"HyperRefinementState(n={self.hg.n}, nets={self.hg.n_nets}, "
            f"k={self.k}, connectivity={self.cut:g}, "
            f"boundary={int(self.boundary_mask().sum())})"
        )
