"""Adversarial battery for the flow core (:mod:`repro.partition.flow_refine`).

Max-flow/min-cut has a crisp ground truth on small instances: the min s-t
cut can be found by enumerating every subset of the interior nodes.  This
suite pins the Dinic solver and the most-balanced min-cut selection
against that brute force —

* **exhaustively** over every undirected unit-weight graph on up to 5
  nodes (all 2^C(n,2) edge subsets), and
* by **fuzzing** over random weighted graphs and random *directed*
  networks up to 7 nodes (hypothesis-driven seeds),

asserting for each instance that the max-flow value equals the
brute-force min cut, that the flow conserves at every interior node, and
that every side :func:`most_balanced_min_cut` returns is itself a true
min cut no further from the balance target than the canonical
source-reachable side.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from repro.partition.flow_refine import (
    FlowNetwork,
    most_balanced_min_cut,
)
from repro.util.errors import PartitionError
from repro.util.rng import as_rng

EPS = 1e-9


# --------------------------------------------------------------------- #
# brute-force references
# --------------------------------------------------------------------- #
def brute_force_min_cut(
    n: int, arcs: list[tuple[int, int, float]], s: int, t: int
) -> float:
    """Min directed s-t cut by enumerating all 2^(n-2) source sides."""
    interior = [v for v in range(n) if v != s and v != t]
    best = float("inf")
    for r in range(len(interior) + 1):
        for chosen in itertools.combinations(interior, r):
            side = {s, *chosen}
            cut = sum(w for u, v, w in arcs if u in side and v not in side)
            best = min(best, cut)
    return best


def cut_value(
    net: FlowNetwork, side: list[bool], arcs: list[tuple[int, int, float]]
) -> float:
    """Original capacity crossing from *side* to its complement."""
    return sum(w for u, v, w in arcs if side[u] and not side[v])


def build_undirected(
    n: int, edges: list[tuple[int, int, float]]
) -> tuple[FlowNetwork, list[tuple[int, int, float]]]:
    """Undirected edges → paired-arc network + its directed arc list."""
    net = FlowNetwork(n)
    arcs = []
    for u, v, w in edges:
        net.add_arc(u, v, w, rev_cap=w)
        arcs.append((u, v, w))
        arcs.append((v, u, w))
    return net, arcs


def assert_flow_is_valid(net: FlowNetwork, s: int, t: int, value: float):
    """Conservation at interior nodes, ±value at the terminals, and no
    residual capacity below zero anywhere."""
    assert min(net.cap, default=0.0) >= -EPS
    for u in range(net.n):
        excess = net.node_excess(u)
        if u == s:
            assert excess == pytest.approx(value, abs=EPS)
        elif u == t:
            assert excess == pytest.approx(-value, abs=EPS)
        else:
            assert excess == pytest.approx(0.0, abs=EPS)


def assert_side_is_min_cut(
    net: FlowNetwork,
    side: list[bool],
    arcs: list[tuple[int, int, float]],
    s: int,
    t: int,
    value: float,
):
    assert side[s] and not side[t]
    assert cut_value(net, side, arcs) == pytest.approx(value, abs=EPS)


# --------------------------------------------------------------------- #
# exhaustive enumeration: every small undirected graph
# --------------------------------------------------------------------- #
class TestExhaustive:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_every_unit_weight_graph_matches_brute_force(self, n):
        # all 2^C(n,2) edge subsets; s=0, t=n-1 throughout.  The empty
        # graph and disconnected instances are included on purpose — a
        # zero max-flow must match a zero (or finite) brute-force cut.
        pairs = list(itertools.combinations(range(n), 2))
        s, t = 0, n - 1
        for bits in range(1 << len(pairs)):
            edges = [
                (u, v, 1.0)
                for i, (u, v) in enumerate(pairs)
                if bits >> i & 1
            ]
            net, arcs = build_undirected(n, edges)
            value = net.max_flow(s, t)
            expected = brute_force_min_cut(n, arcs, s, t)
            assert value == pytest.approx(expected, abs=EPS), (
                f"n={n} edges={edges}"
            )
            assert_flow_is_valid(net, s, t, value)
            # the canonical source side is a min cut
            assert_side_is_min_cut(
                net, net.reach_from(s), arcs, s, t, value
            )

    def test_every_terminal_pair_on_weighted_k4(self):
        # one fixed weighted instance, every ordered (s, t) pair
        edges = [
            (0, 1, 3.0), (0, 2, 1.0), (0, 3, 2.0),
            (1, 2, 5.0), (1, 3, 1.0), (2, 3, 4.0),
        ]
        for s, t in itertools.permutations(range(4), 2):
            net, arcs = build_undirected(4, edges)
            value = net.max_flow(s, t)
            assert value == pytest.approx(
                brute_force_min_cut(4, arcs, s, t), abs=EPS
            )
            assert_flow_is_valid(net, s, t, value)


# --------------------------------------------------------------------- #
# fuzzed corpora: random weighted graphs and directed networks
# --------------------------------------------------------------------- #
def random_instance(seed: int, directed: bool):
    rng = as_rng(seed)
    n = int(rng.integers(3, 8))  # n ≤ 7 keeps the brute force exact
    density = float(rng.uniform(0.2, 0.9))
    net = FlowNetwork(n)
    arcs = []
    if directed:
        for u in range(n):
            for v in range(n):
                if u != v and rng.random() < density:
                    w = float(rng.integers(1, 10))
                    net.add_arc(u, v, w)
                    arcs.append((u, v, w))
    else:
        edges = [
            (u, v, float(rng.integers(1, 10)))
            for u, v in itertools.combinations(range(n), 2)
            if rng.random() < density
        ]
        net, arcs = build_undirected(n, edges)
    s = 0
    t = n - 1
    return net, arcs, s, t


class TestFuzzed:
    @given(seed=hst.integers(0, 4000))
    @settings(max_examples=60, deadline=None)
    def test_random_undirected_matches_brute_force(self, seed):
        net, arcs, s, t = random_instance(seed, directed=False)
        value = net.max_flow(s, t)
        assert value == pytest.approx(
            brute_force_min_cut(net.n, arcs, s, t), abs=EPS
        )
        assert_flow_is_valid(net, s, t, value)
        assert_side_is_min_cut(net, net.reach_from(s), arcs, s, t, value)

    @given(seed=hst.integers(0, 4000))
    @settings(max_examples=60, deadline=None)
    def test_random_directed_matches_brute_force(self, seed):
        net, arcs, s, t = random_instance(seed, directed=True)
        value = net.max_flow(s, t)
        assert value == pytest.approx(
            brute_force_min_cut(net.n, arcs, s, t), abs=EPS
        )
        assert_flow_is_valid(net, s, t, value)

    @given(seed=hst.integers(0, 4000))
    @settings(max_examples=40, deadline=None)
    def test_sink_side_is_also_a_min_cut(self, seed):
        # the complement of R⁻(t) (everything that cannot reach t) is the
        # *largest* min cut, the dual of reach_from(s)
        net, arcs, s, t = random_instance(seed, directed=False)
        value = net.max_flow(s, t)
        reach_t = net.reach_to(t)
        side = [not reach_t[v] for v in range(net.n)]
        assert_side_is_min_cut(net, side, arcs, s, t, value)


# --------------------------------------------------------------------- #
# most-balanced min-cut selection
# --------------------------------------------------------------------- #
class TestMostBalanced:
    @given(
        seed=hst.integers(0, 4000),
        wseed=hst.integers(0, 100),
        frac=hst.floats(0.0, 1.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_selected_side_is_a_true_min_cut(self, seed, wseed, frac):
        # whatever the weights and target, the returned side must be a
        # min cut sandwiched between R(s) and the complement of R⁻(t),
        # and at least as close to the target as the canonical side
        net, arcs, s, t = random_instance(seed, directed=False)
        value = net.max_flow(s, t)
        rng = as_rng(wseed)
        weights = rng.integers(1, 8, size=net.n).astype(float)
        total = float(weights.sum())
        target = frac * total
        side = most_balanced_min_cut(net, s, t, weights, target)
        assert_side_is_min_cut(net, side, arcs, s, t, value)
        S = net.reach_from(s)
        T = net.reach_to(t)
        for v in range(net.n):
            if S[v]:
                assert side[v], "canonical source side must be included"
            if T[v]:
                assert not side[v], "sink-reaching nodes must be excluded"
        w_side = float(sum(weights[v] for v in range(net.n) if side[v]))
        w_canon = float(sum(weights[v] for v in range(net.n) if S[v]))
        assert abs(w_side - target) <= abs(w_canon - target) + EPS

    def test_picks_the_balanced_cut_on_a_path(self):
        # path 0-1-2-3 with unit capacities: every prefix is a min cut;
        # the selection must land on the one nearest the target
        net, arcs = build_undirected(
            4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)]
        )
        value = net.max_flow(0, 3)
        assert value == pytest.approx(1.0, abs=EPS)
        weights = np.ones(4)
        side = most_balanced_min_cut(net, 0, 3, weights, 2.0)
        assert sum(side) == 2  # {0, 1} — weight 2, exactly on target
        assert_side_is_min_cut(net, side, arcs, 0, 3, value)
        # a skewed target pulls the cut toward the sink
        net2, arcs2 = build_undirected(
            4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)]
        )
        net2.max_flow(0, 3)
        side2 = most_balanced_min_cut(net2, 0, 3, weights, 3.0)
        assert sum(side2) == 3  # {0, 1, 2}
        assert_side_is_min_cut(net2, side2, arcs2, 0, 3, 1.0)

    def test_respects_residual_closure_on_asymmetric_capacities(self):
        # 0 →(1) 1 →(5) 2 →(1) 3: min cut 1; node 1 and 2 are free but
        # 1 can only join the source side together with 2? No — the
        # residual arc 1→2 keeps capacity, so admitting 1 without 2
        # would leave a residual arc out of the side.  The SCC closure
        # must therefore admit {1,2} jointly or not at all.
        net = FlowNetwork(4)
        arcs = []
        for u, v, w in [(0, 1, 1.0), (1, 2, 5.0), (2, 3, 1.0)]:
            net.add_arc(u, v, w, rev_cap=w)
            arcs.append((u, v, w))
            arcs.append((v, u, w))
        value = net.max_flow(0, 3)
        assert value == pytest.approx(1.0, abs=EPS)
        weights = np.array([1.0, 1.0, 1.0, 1.0])
        # target 3.5 → wants everything but the sink on the source side
        side = most_balanced_min_cut(net, 0, 3, weights, 3.5)
        assert side == [True, True, True, False]
        assert_side_is_min_cut(net, side, arcs, 0, 3, value)
        # target 1.0 → the canonical minimal side {0}
        side_min = most_balanced_min_cut(net, 0, 3, weights, 1.0)
        assert side_min == [True, False, False, False]

    def test_admission_is_all_or_nothing_per_scc(self):
        # cycle of residual arcs between two free nodes: a target that
        # would profit from half the component must not split it
        net = FlowNetwork(5)
        arcs = []
        for u, v, w in [(0, 1, 2.0), (1, 2, 9.0), (2, 1, 9.0), (2, 3, 9.0),
                        (3, 2, 9.0), (3, 4, 2.0)]:
            net.add_arc(u, v, w)
            arcs.append((u, v, w))
        value = net.max_flow(0, 4)
        assert value == pytest.approx(2.0, abs=EPS)
        weights = np.array([1.0, 10.0, 10.0, 10.0, 1.0])
        # the free interior {1,2,3} weighs 30; target 16 sits closer to
        # w(R(s)) than to w(R(s))+30, so nothing may be admitted
        side = most_balanced_min_cut(net, 0, 4, weights, 16.0)
        assert_side_is_min_cut(net, side, arcs, 0, 4, value)


# --------------------------------------------------------------------- #
# solver odds and ends
# --------------------------------------------------------------------- #
class TestNetworkBasics:
    def test_same_terminal_rejected(self):
        net = FlowNetwork(2)
        net.add_arc(0, 1, 1.0)
        with pytest.raises(PartitionError):
            net.max_flow(0, 0)

    def test_disconnected_terminals_flow_zero(self):
        net = FlowNetwork(4)
        net.add_arc(0, 1, 5.0, rev_cap=5.0)
        net.add_arc(2, 3, 5.0, rev_cap=5.0)
        assert net.max_flow(0, 3) == pytest.approx(0.0, abs=EPS)
        side = net.reach_from(0)
        assert side == [True, True, False, False]

    def test_parallel_arcs_accumulate(self):
        net = FlowNetwork(2)
        net.add_arc(0, 1, 1.5)
        net.add_arc(0, 1, 2.5)
        assert net.max_flow(0, 1) == pytest.approx(4.0, abs=EPS)

    def test_augmenting_path_counter_moves(self):
        net, _ = build_undirected(
            3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)]
        )
        assert net.paths == 0
        net.max_flow(0, 2)
        assert net.paths >= 1

    def test_path_longer_than_the_recursion_limit(self):
        # one augmenting path through 2,000 levels: the blocking-flow DFS
        # must not recurse once per level
        n = 2001
        net = FlowNetwork(n)
        for u in range(n - 1):
            cap = 3.0 if u == 1234 else 5.0 + u % 3
            net.add_arc(u, u + 1, cap, rev_cap=1.0)
        assert net.max_flow(0, n - 1) == 3.0
        assert net.paths == 1
        assert_flow_is_valid(net, 0, n - 1, 3.0)
