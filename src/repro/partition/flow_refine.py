"""Flow-based refinement on the shared engine seam.

Move-at-a-time local search (the constrained FM in
:mod:`repro.partition.kway_refine`) improves a cut one node at a time and
stalls on any improvement that needs a *group* of nodes to cross together.
The strongest modern refiners (the KaHyPar/Mt-KaHyPar lineage) escape that
plateau with **max-flow min-cut on boundary-region subproblems**: carve a
corridor of nodes around the cut between two parts, collapse everything
outside it into a super-source/super-sink, and let a max-flow computation
find the *optimal* cut through the corridor — an entire group move in one
step.  This module is that refiner, written as a second implementation of
the engine-agnostic pass protocol:

* :func:`extract_corridor` — BFS from the pair boundary under a per-side
  size budget, through the state's ``flow_adjacency`` hook (plain weighted
  neighbours on the graph engines; a clique expansion of the incident nets
  on the hypergraph Φ engine, each net *e* contributing
  ``w_e / (|pins(e)| − 1)`` per pin pair — exact on 2-pin nets).
* :class:`FlowNetwork` — a Dinic-style solver (incremental BFS level
  graphs + blocking-flow DFS) on the corridor network, with super-source
  arcs for edges leaving the corridor on side *a* and super-sink arcs for
  side *b*.
* :func:`most_balanced_min_cut` — among the closure of all min cuts
  (every residual-closed superset of the source-reachable set is one),
  pick the source side whose weight is nearest the pair's balance point:
  SCC-condense the free nodes (reachable from neither terminal), then
  greedily admit components in reverse-topological order.  Any choice is
  a true min cut; the greedy only decides *which* one.
* :func:`run_flow_refine` — the pairwise/active-block scheduler: adjacent
  part pairs in decreasing-traffic order, each refined under a
  never-worse acceptance guard on the state's own ``(violation, cut)``
  key (componentwise for the vector-resource engine), with a part pair
  staying *active* only while flow keeps finding improvements around it.

The pass runs on any state exposing the
:class:`~repro.partition.refine_state.RefinementState` move protocol plus
the three flow hooks (``flow_adjacency``, ``pair_boundary``,
``flow_node_weights``) — the scalar graph engine, the hypergraph Φ engine
and the vector-resource engine all qualify, so ``gp_partition``,
``hyper_partition``, ``mlkp``, ``mr_gp_partition`` and
``evolve_partition`` invoke one refiner through ``refine="fm+flow"``.  Unlike
:func:`~repro.partition.kway_refine.run_constrained_fm`, adjacency comes
from the state's hooks rather than a ``neighbors_of`` argument: hypergraph
corridors need *weighted* expansion of the incident nets, which a plain
neighbour list cannot supply.

The flow core is pinned by an exhaustive differential battery
(``tests/test_flow_core.py``: max-flow == brute-force min-cut enumeration
on every small graph), the refiner by invariant and cross-engine suites
(``tests/test_flow_refine.py``).  See ``docs/refinement.md``.
"""

from __future__ import annotations

from collections import deque

import numpy as np

import repro.obs as _obs
from repro.util.errors import PartitionError

__all__ = [
    "REFINE_MODES",
    "check_refine_mode",
    "FlowNetwork",
    "most_balanced_min_cut",
    "extract_corridor",
    "run_flow_refine",
]

_EPS = 1e-12

#: The refinement-stage spellings accepted everywhere a ``refine=`` knob
#: exists (``partition_graph``, the CLI, GP/evolve configs, the mlkp
#: parameter, the engine adapters): ``"fm"`` is each driver's native
#: behaviour (byte-identical to before the knob existed), ``"fm+flow"``
#: runs the native refinement and then a guarded flow stage on the
#: finest level.
REFINE_MODES = ("fm", "fm+flow")


def check_refine_mode(refine: str) -> str:
    """Validate a ``refine=`` knob value; returns it unchanged."""
    if refine not in REFINE_MODES:
        raise PartitionError(
            f"refine must be one of {REFINE_MODES}, got {refine!r}"
        )
    return refine


class FlowNetwork:
    """An s-t flow network over dense small integer node ids.

    Arcs are stored as interleaved residual pairs (arc ``i`` and its
    reverse ``i ^ 1``), the classic adjacency-array layout; capacities are
    floats (process-network bandwidths), compared against ``1e-12``
    everywhere a zero test is needed.  :meth:`max_flow` is Dinic's
    algorithm — incremental BFS level graphs, then blocking-flow DFS with
    per-node arc iterators — which is overkill for corridor-sized
    networks but keeps the solver's complexity independent of the
    corridor budget.  ``paths`` counts augmenting
    paths for the obs spans.
    """

    __slots__ = ("n", "head", "to", "cap", "cap0", "paths")

    def __init__(self, n: int) -> None:
        self.n = int(n)
        self.head: list[list[int]] = [[] for _ in range(self.n)]
        self.to: list[int] = []
        self.cap: list[float] = []
        self.cap0: list[float] = []  # original capacities (flow readback)
        self.paths = 0

    def add_arc(self, u: int, v: int, cap: float, rev_cap: float = 0.0) -> None:
        """Arc ``u → v`` with capacity *cap* plus its reverse at *rev_cap*
        (``rev_cap=cap`` models an undirected edge)."""
        for x, y, c in ((u, v, float(cap)), (v, u, float(rev_cap))):
            self.head[x].append(len(self.to))
            self.to.append(y)
            self.cap.append(c)
            self.cap0.append(c)

    @property
    def n_arcs(self) -> int:
        return len(self.to)

    def arc_flow(self, i: int) -> float:
        """Signed flow currently on arc *i* (original minus residual)."""
        return self.cap0[i] - self.cap[i]

    def node_excess(self, u: int) -> float:
        """Net outflow of *u* — zero at every interior node of a valid
        flow, ``+value`` at the source, ``−value`` at the sink.

        ``cap[i] + cap[i ^ 1]`` is invariant under augmentation, so
        :meth:`arc_flow` is already the *signed* net flow of arc *i*
        (its partner carries the negation): summing it over the arcs
        leaving *u* counts inflow and outflow exactly once each."""
        return sum(self.arc_flow(i) for i in self.head[u])

    def _levels(self, s: int, t: int) -> list[int] | None:
        level = [-1] * self.n
        level[s] = 0
        q = deque([s])
        while q:
            u = q.popleft()
            for i in self.head[u]:
                v = self.to[i]
                if self.cap[i] > _EPS and level[v] < 0:
                    level[v] = level[u] + 1
                    q.append(v)
        return level if level[t] >= 0 else None

    def _augment(
        self, s: int, t: int, level: list[int], it: list[int]
    ) -> float:
        """Push one augmenting path of the level graph; returns its
        bottleneck, or 0.0 once *s* is a dead end.

        Depth-first from *s* with an explicit stack, because a path can
        be longer than Python's recursion limit: arcs are tried in
        insertion order from ``it[u]``, which advances only past arcs
        that are inadmissible or lead to a dead end, and a dead end's
        level is cleared for the rest of the phase."""
        head, to, cap = self.head, self.to, self.cap
        path: list[int] = []  # arcs from s to u
        flow = [float("inf")]  # flow[j]: bottleneck of path[:j]
        u = s
        while u != t:
            arcs = head[u]
            while it[u] < len(arcs):
                i = arcs[it[u]]
                if cap[i] > _EPS and level[to[i]] == level[u] + 1:
                    path.append(i)
                    flow.append(min(flow[-1], cap[i]))
                    u = to[i]
                    break
                it[u] += 1
            else:
                level[u] = -1  # dead end: prune for the rest of this phase
                if not path:
                    return 0.0
                flow.pop()
                u = to[path.pop() ^ 1]  # back to the arc's tail
                it[u] += 1
        d = flow[-1]
        for i in path:
            cap[i] -= d
            cap[i ^ 1] += d
        return d

    def max_flow(self, s: int, t: int) -> float:
        """Maximum s-t flow value (mutates residual capacities)."""
        if s == t:
            raise PartitionError("flow source and sink must differ")
        total = 0.0
        while True:
            level = self._levels(s, t)
            if level is None:
                return total
            it = [0] * self.n
            while True:
                pushed = self._augment(s, t, level, it)
                if pushed <= _EPS:
                    break
                total += pushed
                self.paths += 1

    def reach_from(self, s: int) -> list[bool]:
        """Nodes reachable from *s* through residual arcs — the canonical
        (smallest) source side of a min cut after :meth:`max_flow`."""
        mark = [False] * self.n
        mark[s] = True
        q = deque([s])
        while q:
            u = q.popleft()
            for i in self.head[u]:
                v = self.to[i]
                if self.cap[i] > _EPS and not mark[v]:
                    mark[v] = True
                    q.append(v)
        return mark

    def reach_to(self, t: int) -> list[bool]:
        """Nodes that can reach *t* through residual arcs — the canonical
        (smallest) sink side of a min cut after :meth:`max_flow`."""
        mark = [False] * self.n
        mark[t] = True
        q = deque([t])
        while q:
            x = q.popleft()
            for i in self.head[x]:
                # arc i runs x → y, so its partner i^1 runs y → x: y can
                # step to x through the residual iff cap[i^1] > 0
                y = self.to[i]
                if not mark[y] and self.cap[i ^ 1] > _EPS:
                    mark[y] = True
                    q.append(y)
        return mark


def _residual_scc(
    net: FlowNetwork, free: list[bool]
) -> tuple[list[list[int]], dict[int, int]]:
    """Tarjan SCCs of the free nodes under residual arcs, iteratively.

    Emission order is reverse topological on the condensation DAG (every
    component is emitted after all components reachable from it) — the
    order :func:`most_balanced_min_cut` consumes directly.  Roots are
    visited in ascending node id and arcs in insertion order, so the
    decomposition is deterministic.
    """
    index: dict[int, int] = {}
    low: dict[int, int] = {}
    onstack: set[int] = set()
    stack: list[int] = []
    comps: list[list[int]] = []
    comp_of: dict[int, int] = {}
    counter = 0
    for root in range(net.n):
        if not free[root] or root in index:
            continue
        work = [(root, 0)]
        while work:
            u, pi = work.pop()
            if pi == 0:
                index[u] = low[u] = counter
                counter += 1
                stack.append(u)
                onstack.add(u)
            descended = False
            arcs = net.head[u]
            while pi < len(arcs):
                i = arcs[pi]
                pi += 1
                v = net.to[i]
                if net.cap[i] <= _EPS or not free[v]:
                    continue
                if v not in index:
                    work.append((u, pi))
                    work.append((v, 0))
                    descended = True
                    break
                if v in onstack:
                    low[u] = min(low[u], index[v])
            if descended:
                continue
            if low[u] == index[u]:
                comp = []
                while True:
                    x = stack.pop()
                    onstack.discard(x)
                    comp.append(x)
                    comp_of[x] = len(comps)
                    if x == u:
                        break
                comps.append(comp)
            if work:
                p = work[-1][0]
                low[p] = min(low[p], low[u])
    return comps, comp_of


def most_balanced_min_cut(
    net: FlowNetwork,
    s: int,
    t: int,
    weights,
    target: float,
) -> list[bool]:
    """Pick the min cut whose source-side weight is nearest *target*.

    Must be called after :meth:`FlowNetwork.max_flow`.  The closure of
    all min cuts: a set ``A`` is the source side of a min cut iff it
    contains ``R(s)`` (residual-reachable from *s*), excludes ``R⁻(t)``
    (residual-reaching *t*), and is closed under residual arcs — no
    residual arc may leave ``A``.  Free nodes (in neither terminal set)
    can therefore join the source side SCC by SCC, each component only
    after every residual successor among the free components; iterating
    Tarjan's reverse-topological emission order makes that a single
    greedy sweep.  A component is admitted iff it moves the source-side
    weight strictly closer to *target* — any admission pattern yields a
    true min cut (pinned by ``tests/test_flow_core.py``), the greedy
    only chooses among them.
    """
    S = net.reach_from(s)
    T = net.reach_to(t)
    side = list(S)
    free = [not S[v] and not T[v] for v in range(net.n)]
    w_src = sum(float(weights[v]) for v in range(net.n) if S[v])
    if any(free):
        comps, comp_of = _residual_scc(net, free)
        admitted = [False] * len(comps)
        for ci, comp in enumerate(comps):
            closed = True
            for u in comp:
                for i in net.head[u]:
                    if net.cap[i] <= _EPS:
                        continue
                    v = net.to[i]
                    if free[v] and comp_of[v] != ci and not admitted[comp_of[v]]:
                        closed = False
                        break
                if not closed:
                    break
            if not closed:
                continue
            wc = sum(float(weights[u]) for u in comp)
            if abs(w_src + wc - target) + _EPS < abs(w_src - target):
                admitted[ci] = True
                w_src += wc
                for u in comp:
                    side[u] = True
    return side


def extract_corridor(
    st, a: int, b: int, budget: int
) -> tuple[np.ndarray, np.ndarray]:
    """The corridor of the part pair ``(a, b)``: per side, the pair
    boundary plus a BFS-grown margin of same-part nodes.

    Growth runs through the state's ``flow_adjacency`` hook restricted to
    nodes of the growing side, FIFO from the boundary in ascending node
    id, and stops at ``max(budget, |boundary side|)`` nodes — the
    boundary is never truncated (a corridor that misses part of the
    current cut could not improve it).  Returns the two sides as sorted
    id arrays; either may be empty when the pair shares no boundary.
    """
    bnodes = st.pair_boundary(a, b)
    assign = st.assign
    out = []
    for part in (a, b):
        seeds = [int(u) for u in bnodes[assign[bnodes] == part]]
        visited = set(seeds)
        cap = max(int(budget), len(visited))
        q = deque(seeds)
        while q and len(visited) < cap:
            u = q.popleft()
            nbrs, _ = st.flow_adjacency(u)
            for v in nbrs:
                v = int(v)
                if assign[v] == part and v not in visited:
                    visited.add(v)
                    q.append(v)
                    if len(visited) >= cap:
                        break
        out.append(np.array(sorted(visited), dtype=np.int64))
    return out[0], out[1]


def _anchor(st, part: int, corridor: np.ndarray) -> int:
    """The corridor node of *part* farthest from the pair boundary — the
    terminal anchor when the corridor swallowed the whole part.

    Without a remainder to collapse into the super-terminal, the terminal
    would be isolated and the only min cut would relabel the entire side
    (always rejected).  Pinning the most interior node to its part (the
    FlowCutter/KaHyPar piercing heuristic) keeps the subproblem anchored;
    distance ties break toward the smallest node id."""
    members = set(int(u) for u in corridor)
    assign = st.assign
    dist = {
        int(u): 0
        for u in corridor
        if any(
            int(assign[v]) != part
            for v in st.flow_adjacency(int(u))[0]
        )
    }
    q = deque(sorted(dist))
    far = min(members) if not dist else None
    while q:
        u = q.popleft()
        far = u if far is None or dist[u] > dist[far] or (
            dist[u] == dist[far] and u < far
        ) else far
        for v in st.flow_adjacency(u)[0]:
            v = int(v)
            if v in members and v not in dist:
                dist[v] = dist[u] + 1
                q.append(v)
    return int(far)


def _build_network(
    st, a: int, b: int, ca: np.ndarray, cb: np.ndarray
) -> tuple[FlowNetwork, list[int]]:
    """Corridor → flow network: node 0 is the super-source (the collapsed
    remainder of part *a*), node 1 the super-sink (remainder of *b*),
    corridor nodes follow in ``(ca, cb)`` order.  Corridor-internal edges
    become symmetric arc pairs; edges to a non-corridor node of part *a*
    accumulate source capacity, of part *b* sink capacity; edges leaving
    the pair entirely are invisible to this subproblem (moving a corridor
    node cannot change their cut contribution between *a* and *b*).  A
    side whose corridor covers its whole part has no remainder arcs; it
    gets an effectively-infinite arc to its :func:`_anchor` node instead,
    so the terminal stays connected and the side can never be emptied."""
    ids: dict[int, int] = {}
    order: list[int] = []
    for u in ca:
        ids[int(u)] = len(order) + 2
        order.append(int(u))
    for u in cb:
        ids[int(u)] = len(order) + 2
        order.append(int(u))
    net = FlowNetwork(2 + len(order))
    assign = st.assign
    s_cap: dict[int, float] = {}
    t_cap: dict[int, float] = {}
    und: dict[tuple[int, int], float] = {}
    for u in order:
        iu = ids[u]
        nbrs, ws = st.flow_adjacency(u)
        for v, w in zip(nbrs, ws):
            v = int(v)
            pv = int(assign[v])
            if pv != a and pv != b:
                continue
            j = ids.get(v)
            if j is not None:
                if u < v:  # adjacency rows are symmetric: count each pair once
                    key = (iu, j)
                    und[key] = und.get(key, 0.0) + float(w)
            elif pv == a:
                s_cap[iu] = s_cap.get(iu, 0.0) + float(w)
            else:
                t_cap[iu] = t_cap.get(iu, 0.0) + float(w)
    big = sum(und.values()) + sum(s_cap.values()) + sum(t_cap.values()) + 1.0
    if not s_cap and len(ca):
        s_cap[ids[_anchor(st, a, ca)]] = big
    if not t_cap and len(cb):
        t_cap[ids[_anchor(st, b, cb)]] = big
    for (i, j), w in sorted(und.items()):
        net.add_arc(i, j, w, w)
    for i, w in sorted(s_cap.items()):
        net.add_arc(0, i, w)
    for i, w in sorted(t_cap.items()):
        net.add_arc(i, 1, w)
    return net, order


def _try_budget(
    st, a: int, b: int, constraints, budget: int
) -> tuple[bool, int, int, float]:
    """One flow attempt on pair ``(a, b)`` at a fixed corridor *budget*.

    Returns ``(accepted, corridor_size, augmenting_paths, cut_gain)``.
    The candidate relabelling (source side → *a*, rest → *b*) is applied
    through the state's move protocol and kept only if the state's own
    ``(violation, cut)`` key strictly improves and neither part empties —
    otherwise every move is rolled back, so the pass composes with any
    constraint model the state implements (scalar, Φ, componentwise).
    """
    ca, cb = extract_corridor(st, a, b, budget)
    csize = int(ca.size + cb.size)
    if ca.size == 0 or cb.size == 0:
        return False, csize, 0, 0.0
    net, order = _build_network(st, a, b, ca, cb)
    if not net.to:
        return False, csize, 0, 0.0
    net.max_flow(0, 1)
    node_w = st.flow_node_weights()
    weights = [0.0, 0.0] + [float(node_w[u]) for u in order]
    wa = float(st.part_weight[a])
    wb = float(st.part_weight[b])
    weights[0] = wa - float(node_w[ca].sum())
    weights[1] = wb - float(node_w[cb].sum())
    side = most_balanced_min_cut(net, 0, 1, weights, (wa + wb) / 2.0)
    moves = [
        (u, a if side[idx + 2] else b)
        for idx, u in enumerate(order)
        if (a if side[idx + 2] else b) != int(st.assign[u])
    ]
    if not moves:
        return False, csize, net.paths, 0.0
    mark = st.snapshot()
    before = st.key(constraints)
    for u, dest in moves:
        st.move(u, dest)
    after = st.key(constraints)
    if (
        after < before
        and st.part_size[a] > 0
        and st.part_size[b] > 0
    ):
        st.clear_trail()
        return True, csize, net.paths, before[1] - after[1]
    st.rollback(mark)
    return False, csize, net.paths, 0.0


def _refine_pair(
    st, a: int, b: int, constraints, budget: int
) -> tuple[bool, int, int, float]:
    """Flow-refine one part pair in place, adaptively scaling the corridor.

    A wide corridor lets the min cut shift a lot of weight between the
    parts, so its cuts — optimal for the *pair cut* — are often too
    unbalanced to pass the acceptance guard.  Following the adaptive
    scaling idiom of the KaHyPar-lineage refiners, rejection retries with
    the budget halved (a corridor of *h* nodes per side can relabel at
    most *h* nodes, so shrinking it bounds the weight shift) until a
    candidate is accepted or the corridor degenerates to the bare
    boundary.  Returns the totals over all attempts:
    ``(accepted, corridor_size, augmenting_paths, cut_gain)``.
    """
    with _obs.trace_span("flow.pair", a=a, b=b) as sp:
        csize = paths = attempts = 0
        ok, gain = False, 0.0
        bgt = max(int(budget), 1)
        while True:
            ok, c, p, gain = _try_budget(st, a, b, constraints, bgt)
            csize += c
            paths += p
            attempts += 1
            if ok or bgt == 1:
                break
            bgt //= 2
        if _obs.tracing_on():
            sp.set(corridor_size=csize, augmenting_paths=paths,
                   attempts=attempts, cut_improvement=gain, accepted=ok)
        return ok, csize, paths, gain


#: Scheduler rounds over the active part pairs.  Pairs stay active across
#: rounds only while flow keeps improving them, so the scheduler usually
#: converges before the cap.
FLOW_ROUNDS = 2


def run_flow_refine(st, constraints) -> np.ndarray:
    """The flow pass discipline, engine-agnostic (pairwise scheduler).

    *st* is any refinement-state engine exposing the
    :class:`~repro.partition.refine_state.RefinementState` move protocol
    (``assign``, ``bw``, ``part_weight``/``part_size``, ``key``,
    ``move``/``snapshot``/``rollback``/``clear_trail``) plus the flow
    hooks ``flow_adjacency(u)``, ``pair_boundary(a, b)`` and
    ``flow_node_weights()`` — the second pass implementation on the seam
    :func:`~repro.partition.kway_refine.run_constrained_fm` defines.
    Adjacency comes from the state hooks instead of a ``neighbors_of``
    argument because the Φ engine's corridors need *weighted* clique
    expansion of the incident nets, which a neighbour list cannot carry.

    Per round, part pairs with positive traffic are visited in
    decreasing ``bw[a, b]`` order (ties by pair id); a pair is scheduled
    only while one of its blocks is *active* — touched by an accepted
    improvement in the previous round (every block starts active).  Each
    pair refinement is guarded never-worse on ``st.key(constraints)``,
    so the pass as a whole never worsens ``(violation, cut)`` and
    terminates (every acceptance strictly decreases a bounded key).

    Each corridor side holds at most ``max(8, n // k)`` nodes (the pair
    boundary itself is always included, since a smaller corridor could
    not represent the current cut).  Corridor growth, the flow
    computation and the most-balanced selection are all deterministic.
    Returns the refined assignment (a copy); the state is left holding
    it, trail cleared.
    """
    k = int(st.k)
    n = int(st.assign.shape[0])
    budget = max(8, n // max(k, 1))
    rec = _obs.metrics_on()
    engine = type(st).__name__ if rec else ""
    pairs_run = accepted = corridor_total = paths_total = 0
    gain_total = 0.0

    st.clear_trail()
    with _obs.trace_span("flow.refine", k=k, nodes=n) as sp:
        active = set(range(k))
        for _ in range(FLOW_ROUNDS):
            iu, ju = np.triu_indices(k, k=1)
            traffic = st.bw[iu, ju]
            pairs = [
                (int(x), int(y))
                for x, y, w in zip(iu, ju, traffic)
                if w > _EPS and (int(x) in active or int(y) in active)
            ]
            pairs.sort(key=lambda p: (-float(st.bw[p[0], p[1]]), p))
            touched: set[int] = set()
            for x, y in pairs:
                ok, csize, paths, gain = _refine_pair(
                    st, x, y, constraints, budget
                )
                pairs_run += 1
                corridor_total += csize
                paths_total += paths
                if ok:
                    accepted += 1
                    gain_total += gain
                    touched.add(x)
                    touched.add(y)
            if not touched:
                break
            active = touched
        if _obs.tracing_on():
            sp.set(pairs=pairs_run, accepted=accepted,
                   cut_improvement=gain_total)
    if rec:
        _obs.add("flow.pairs", pairs_run, engine=engine)
        _obs.add("flow.accepted", accepted, engine=engine)
        _obs.add("flow.corridor_size", corridor_total, engine=engine)
        _obs.add("flow.augmenting_paths", paths_total, engine=engine)
        _obs.add("flow.cut_improvement", gain_total, engine=engine)
    st.clear_trail()
    return st.assign.copy()
