"""K-way refinement passes.

Two flavours are provided:

``greedy_kway_refine``
    The unconstrained, cut-driven boundary refinement used by the METIS-like
    baseline: move boundary nodes to the adjacent part with the largest
    positive gain, subject to a balance cap.  Greedy — only improving moves.

``constrained_kway_fm``
    The paper's refinement: an FM-discipline pass whose move selection is
    *lexicographic* — first reduce constraint violation (pairwise bandwidth
    over ``Bmax``, resources over ``Rmax``), then reduce cut.  Worsening-cut
    moves are accepted when violation does not increase (hill-climbing with
    best-prefix recovery, Section II.A); each node moves at most once per
    pass.  "Partitions will be changed and nodes will move between
    partitions as far as constraints met" (Section IV.B).

All passes run on the shared vectorized engine
(:class:`~repro.partition.refine_state.RefinementState`): part connectivity,
pairwise bandwidth, part weights and the boundary set are maintained
incrementally in O(deg + k) per move, and the constrained pass orders moves
with a :class:`~repro.partition.refine_state.BucketQueue` — the float-weight
analogue of the FM gain buckets — giving near-linear passes on
bounded-degree process networks.  Data-structure invariants and tie-breaking
rules are documented in ``docs/refinement.md``.
"""

from __future__ import annotations

import heapq

import numpy as np

import repro.obs as _obs
from repro.graph.wgraph import WGraph
from repro.partition.metrics import ConstraintSpec, check_assignment
from repro.partition.refine_state import BucketQueue, RefinementState
from repro.util.errors import PartitionError
from repro.util.rng import as_rng

__all__ = [
    "greedy_kway_refine",
    "rebalance_pass",
    "constrained_kway_fm",
    "run_constrained_fm",
    "move_delta",
]

_EPS = 1e-12


def _as_state(
    g: WGraph, assign: np.ndarray, k: int, state: RefinementState | None
) -> RefinementState:
    """Validate/adopt a caller-provided engine state, or build a fresh one.

    Callers that chain passes (rebalance → greedy refine, or per-level FM
    candidates) pass the previous pass's state so connectivity and bandwidth
    are never recomputed from scratch.
    """
    if state is None:
        return RefinementState(g, assign, k)
    if state.g is not g or state.k != k:
        raise PartitionError("provided state does not match graph/k")
    if not np.array_equal(state.assign, assign):
        raise PartitionError(
            "provided state holds a different assignment than the one passed"
        )
    return state


def rebalance_pass(
    g: WGraph,
    assign: np.ndarray,
    k: int,
    max_part_weight: float,
    state: RefinementState | None = None,
) -> np.ndarray:
    """Explicit balance phase (kmetis style).

    While any part exceeds *max_part_weight*, evict the node whose move
    damages the cut least into the lightest part that can take it.  Used by
    the METIS-like baseline between projection and cut refinement; gives up
    (returning the best effort) when no move can reduce the overflow —
    e.g. single nodes heavier than the cap.

    Every eviction is permanent — a destination accepted a node only because
    it stays under the cap, so it can never become a source — which bounds
    the pass at ``n`` moves total (the old implementation rescanned under a
    ``4·n`` guess and did O(n·k) Python work per move; candidate scoring is
    now one vectorized lexsort over the source part's members).

    The eviction choice minimises the deterministic key ``(cut damage,
    -weight, node, dest)``, so no random tie-breaking is involved.
    """
    a = check_assignment(g, assign, k)
    st = _as_state(g, a, k, state)
    node_w = g.node_weights
    cap = float(max_part_weight)

    def current_src() -> int:
        """The part legacy eviction would drain next, or -1 when balanced."""
        over = np.nonzero((st.part_weight > cap) & (st.part_size > 1))[0]
        if over.size == 0:
            return -1
        return int(over[int(np.argmax(st.part_weight[over]))])

    def fresh_key(v: int, src: int):
        """Current best eviction key of node *v*: min over feasible dests of
        ``(cut damage, -weight, node, dest)`` — exactly the scan order."""
        w_v = float(node_w[v])
        cv = st.connection_vector(v)
        best = None
        for d in range(k):
            if d == src or st.part_weight[d] + w_v > cap:
                continue
            key = (float(cv[src] - cv[d]), -w_v, v, d)
            if best is None or key < best:
                best = key
        return best

    def build_heap(src: int) -> list:
        """Eviction queue of part *src*: every member's best key, in one
        vectorized sweep over the connectivity matrix."""
        members = np.nonzero(st.assign == src)[0]
        w_m = node_w[members]
        conn_m = st.conn_columns(members)  # (members, k)
        damage = np.ascontiguousarray(conn_m[:, src][:, None] - conn_m)
        feasible = st.part_weight[None, :] + w_m[:, None] <= cap
        feasible[:, src] = False
        masked = np.where(feasible, damage, np.inf)
        best_dest = np.argmin(masked, axis=1)  # first min = smallest dest
        best_dmg = masked[np.arange(members.size), best_dest]
        live = np.isfinite(best_dmg)
        heap = [
            (float(d), -float(w), int(u), int(t))
            for d, w, u, t in zip(
                best_dmg[live], w_m[live], members[live], best_dest[live]
            )
        ]
        heapq.heapify(heap)
        return heap

    # One cached eviction heap per over-capacity part.  A cached key can
    # only go stale in three ways, each handled exactly:
    #   * it rose (its destination filled up) — caught by lazy revalidation
    #     on pop, same discipline as the FM queue;
    #   * it fell because a neighbour was evicted — the eviction loop pushes
    #     the fresh key into the owner's heap immediately;
    #   * a destination *reopened* — impossible while every tracked part
    #     stays over the cap, because parts only shed while over it; the
    #     one-time event of a part dropping to/below the cap clears the
    #     whole cache.
    # Eviction order therefore equals a full rescan per move (the reference
    # behaviour) without rebuilding state when the heaviest-part argmax
    # ping-pongs between two draining parts.
    heaps: dict[int, list] = {}
    for _ in range(g.n + 1):  # ≤ n evictions possible (see docstring)
        src = current_src()
        if src < 0:
            break
        heap = heaps.get(src)
        if heap is None:
            heap = heaps[src] = build_heap(src)
        drained = False
        while heap:
            entry = heapq.heappop(heap)
            u = entry[2]
            if st.assign[u] != src:
                continue  # already evicted
            fresh = fresh_key(u, src)
            if fresh is None:
                continue  # no destination fits u any more
            if fresh != entry:
                heapq.heappush(heap, fresh)
                continue
            st.move(u, entry[3])
            # refresh every cached heap whose member just lost a neighbour
            # (or gained one in its destination) before any break
            for v in g.neighbors(u):
                v = int(v)
                part_v = int(st.assign[v])
                heap_v = heaps.get(part_v)
                if heap_v is not None:
                    key_v = fresh_key(v, part_v)
                    if key_v is not None:
                        heapq.heappush(heap_v, key_v)
            if st.part_weight[src] <= cap:
                heaps.clear()  # src crossed the cap: destinations reopened
                drained = True
                break
            if current_src() != src:
                drained = True  # another part is now the heaviest: switch
                break
        if not drained:
            break  # no feasible eviction for the heaviest part: give up
    st.clear_trail()
    return st.assign.copy()


def greedy_kway_refine(
    g: WGraph,
    assign: np.ndarray,
    k: int,
    max_part_weight: float = float("inf"),
    max_passes: int = 8,
    seed=None,
    state: RefinementState | None = None,
) -> np.ndarray:
    """Cut-driven greedy boundary refinement (METIS style).

    Moves a boundary node to the *adjacent* part with the highest positive
    gain, provided the destination stays under *max_part_weight*.  Among
    equal-gain destinations the one improving balance wins.  Passes repeat
    over the whole boundary until no move fires.
    """
    if max_passes < 1:
        raise PartitionError(f"max_passes must be >= 1, got {max_passes}")
    a = check_assignment(g, assign, k)
    st = _as_state(g, a, k, state)
    rng = as_rng(seed)

    for _ in range(max_passes):
        boundary = st.boundary_nodes()
        if boundary.size == 0:
            break
        rng.shuffle(boundary)
        moved = 0
        for u in boundary:
            u = int(u)
            src = int(st.assign[u])
            if st.part_size[src] <= 1:
                continue  # kmetis rule: never empty a part
            entries = st.conn_entries(u)  # ascending part order
            cu_src = next((x for p, x in entries if p == src), 0.0)
            w_u = float(g.node_weights[u])
            best_dest, best_gain = -1, _EPS
            for dest, x in entries:
                if dest == src:
                    continue
                if st.part_weight[dest] + w_u > max_part_weight:
                    continue
                gain = x - cu_src
                if gain > best_gain + _EPS:
                    best_dest, best_gain = dest, gain
                elif (
                    best_dest >= 0
                    and abs(gain - best_gain) <= _EPS
                    and st.part_weight[dest] < st.part_weight[best_dest]
                ):
                    best_dest = dest
            if best_dest >= 0:
                st.move(u, best_dest)
                moved += 1
        if moved == 0:
            break
    st.clear_trail()
    return st.assign.copy()


def move_delta(
    state,
    u: int,
    dest: int,
    constraints: ConstraintSpec,
    conn: np.ndarray | None = None,
) -> tuple[float, float]:
    """Effect of moving *u* to *dest*: ``(violation_delta, cut_delta)``.

    Negative values are improvements.  Works on either a
    :class:`~repro.partition.refine_state.RefinementState` (O(k²) vectorized)
    or the legacy :class:`~repro.partition.base.PartitionState` (computed
    from its bandwidth matrix in O(k) Python).
    """
    src = int(state.assign[u])
    if dest == src:
        return (0.0, 0.0)
    if isinstance(state, RefinementState):
        dv, dc = state.move_deltas(u, constraints)
        return (float(dv[dest]), float(dc[dest]))
    if conn is None:
        conn = state.connection_vector(u)
    w_u = float(state.g.node_weights[u])
    rmax, bmax = constraints.rmax, constraints.bmax

    dv = 0.0
    if np.isfinite(rmax):
        w_src, w_dest = state.part_weight[src], state.part_weight[dest]
        dv += max(0.0, w_src - w_u - rmax) - max(0.0, w_src - rmax)
        dv += max(0.0, w_dest + w_u - rmax) - max(0.0, w_dest - rmax)

    if np.isfinite(bmax):
        for c in range(state.k):
            if c == src or c == dest or conn[c] == 0.0:
                continue
            old_sc = state.bw[src, c]
            old_dc = state.bw[dest, c]
            dv += max(0.0, old_sc - conn[c] - bmax) - max(0.0, old_sc - bmax)
            dv += max(0.0, old_dc + conn[c] - bmax) - max(0.0, old_dc - bmax)
        old_sd = state.bw[src, dest]
        new_sd = old_sd - conn[dest] + conn[src]
        dv += max(0.0, new_sd - bmax) - max(0.0, old_sd - bmax)

    cut_delta = float(conn[src] - conn[dest])
    return (float(dv), cut_delta)


def constrained_kway_fm(
    g: WGraph,
    assign: np.ndarray,
    k: int,
    constraints: ConstraintSpec,
    max_passes: int = 6,
    seed=None,
    state: RefinementState | None = None,
) -> np.ndarray:
    """Constraint-driven FM k-way refinement (the GP local search).

    Per pass, nodes move at most once, ordered by a gain-bucket queue on
    ``(violation_delta, cut_delta)`` with lazy invalidation.  Moves that
    would *increase* violation are never taken; cut-worsening moves with
    non-increasing violation are taken FM-style (best state by
    ``(total violation, cut)`` is restored at the end — via the engine's
    move trail, not an O(n) assignment copy per improvement).  A pass
    stops after ``max(50, n // 10)`` consecutive non-improving moves (see
    :func:`run_constrained_fm`).

    When *state* is given the engine is reused (and left holding the
    returned assignment, so callers can read ``state.metrics()`` without a
    from-scratch evaluation).
    """
    if max_passes < 1:
        raise PartitionError(f"max_passes must be >= 1, got {max_passes}")
    a = check_assignment(g, assign, k)
    st = _as_state(g, a, k, state)
    return run_constrained_fm(
        st, g.n, g.neighbors, constraints,
        max_passes=max_passes, seed=seed,
    )


def run_constrained_fm(
    st,
    n: int,
    neighbors_of,
    constraints: ConstraintSpec,
    max_passes: int = 6,
    seed=None,
) -> np.ndarray:
    """The constrained-FM pass discipline, engine-agnostic.

    *st* is any refinement-state engine exposing the
    :class:`~repro.partition.refine_state.RefinementState` move protocol
    (``assign``/``epoch``, ``boundary_nodes``, ``overloaded_nodes``,
    ``key``, ``best_move``/``best_moves``, ``move``/``snapshot``/
    ``rollback``/``clear_trail``); *neighbors_of(u)* returns the nodes
    whose gains a move of *u* can change.  The graph engine passes
    ``g.neighbors``; the hypergraph Φ engine passes
    ``HGraph.adjacent_nodes``; the vector-resource engine
    (:class:`~repro.partition.vector_state.VectorRefinementState`) passes
    ``g.neighbors`` with a
    :class:`~repro.partition.vector_state.VectorConstraints` threaded
    through in place of the scalar spec.  What counts as "over budget"
    (extra FM seeds, the escape rule) is the state's business via
    ``overloaded_nodes``/``overloaded_mask``, so one driver serves all
    three objectives with identical move ordering, tie-breaking, queue
    discipline and best-prefix recovery — the 2-pin differential parity
    between the graph and Φ engines is a property of their states alone.

    Every pass seeds the queue with the whole boundary plus the
    overloaded nodes (so violations stay reachable from an empty
    boundary), and stops after ``max(50, n // 10)`` consecutive
    non-improving moves — the standard early exit that keeps passes
    cheap on large graphs.
    """
    rng = as_rng(seed)
    abort_after = max(50, n // 10)

    # Pass statistics ship to the obs registry, labeled by engine — the
    # local accumulators keep the per-move cost at zero lock traffic
    # (one observe_bulk flush at the end) and at literally nothing when
    # metrics are off.
    rec = _obs.metrics_on()
    engine = type(st).__name__ if rec else ""
    passes = tried = escape_seeds = revalidations = repushed = 0
    gains: list | None = [] if rec else None

    st.clear_trail()
    best_key = st.key(constraints)
    best_mark = st.snapshot()

    for _ in range(max_passes):
        passes += 1
        locked = np.zeros(n, dtype=bool)
        start_key = st.key(constraints)

        queue = BucketQueue()

        def push_all(nodes: np.ndarray) -> None:
            # queue order matches the given node order (FIFO within
            # equal keys)
            epoch = st.epoch
            for u, mv in zip(nodes, st.best_moves(nodes, constraints)):
                if mv is not None:
                    dv, dc, dest = mv
                    queue.push((dv, dc), (int(u), dest, epoch))

        seeds = st.boundary_nodes()
        extra = st.overloaded_nodes(constraints)
        if extra.size:
            if rec:
                escape_seeds += int(extra.size)
            seeds = np.union1d(seeds, extra)
        seeds = seeds.astype(np.int64)
        rng.shuffle(seeds)
        push_all(seeds)

        stagnant = 0
        while queue:
            (dv, dc), (u, dest, entry_epoch) = queue.pop()
            if locked[u]:
                continue
            if entry_epoch != st.epoch:
                # something moved since this entry was computed: revalidate
                revalidations += 1
                fresh = st.best_move(u, constraints)
                if fresh is None:
                    continue
                if fresh != (dv, dc, dest):
                    repushed += 1
                    queue.push((fresh[0], fresh[1]), (u, fresh[2], st.epoch))
                    continue
            if dv > _EPS:
                break  # every remaining move strictly worsens violation
            if dv > -_EPS and dc > _EPS and stagnant >= abort_after:
                break
            st.move(u, dest)
            if rec:
                tried += 1
                gains.append(dc)
            locked[u] = True
            key_now = st.key(constraints)
            if key_now < best_key:
                best_key = key_now
                best_mark = st.snapshot()
                stagnant = 0
            else:
                stagnant += 1
            if stagnant > abort_after:
                break
            nbrs = neighbors_of(u)
            push_all(nbrs[~locked[nbrs]])

        # FM discipline: rewind to the best prefix seen so far
        st.rollback(best_mark)
        if not best_key < start_key:
            break  # the pass found nothing better anywhere
    if rec:
        # after the final rollback the trail length *is* the kept prefix
        kept = int(st.snapshot())
        _obs.add("fm.passes", passes, engine=engine)
        _obs.add("fm.moves_tried", tried, engine=engine)
        _obs.add("fm.moves_kept", kept, engine=engine)
        _obs.add("fm.moves_rolled_back", tried - kept, engine=engine)
        _obs.add("fm.revalidations", revalidations, engine=engine)
        _obs.add("fm.repushed", repushed, engine=engine)
        if escape_seeds:
            _obs.add("fm.escape_seeds", escape_seeds, engine=engine)
        if gains:
            _obs.observe_bulk(
                "fm.gain", gains, buckets=_obs.GAIN_BUCKETS, engine=engine
            )
    st.clear_trail()
    return st.assign.copy()
