"""Tests for matchings, contraction and the multilevel hierarchy."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import WGraph, random_process_network
from repro.partition.coarsen import (
    Hierarchy,
    build_hierarchy,
    coarsen_once,
    contract,
    heavy_edge_matching,
    kmeans_matching,
    matching_quality,
    random_maximal_matching,
)
from repro.partition.metrics import cut_value
from repro.util.errors import PartitionError

ALL_MATCHINGS = [random_maximal_matching, heavy_edge_matching, kmeans_matching]


def assert_valid_matching(g, match):
    assert match.shape == (g.n,)
    for u in range(g.n):
        v = int(match[u])
        assert 0 <= v < g.n
        if v != u:
            assert int(match[v]) == u


class TestMatchings:
    @pytest.mark.parametrize("fn", ALL_MATCHINGS)
    def test_valid_on_random_graph(self, fn):
        g = random_process_network(20, 40, seed=2)
        assert_valid_matching(g, fn(g, seed=0))

    @pytest.mark.parametrize("fn", ALL_MATCHINGS)
    def test_valid_on_edgeless_graph(self, fn):
        g = WGraph(5)
        match = fn(g, seed=0)
        assert_valid_matching(g, match)

    def test_adjacency_matchings_leave_edgeless_unmatched(self):
        """Random/HEM only match along edges; k-means may pair non-adjacent
        (near-feature) nodes, which contraction supports."""
        g = WGraph(5)
        assert np.array_equal(random_maximal_matching(g, seed=0), np.arange(5))
        assert np.array_equal(heavy_edge_matching(g, seed=0), np.arange(5))

    @pytest.mark.parametrize("fn", ALL_MATCHINGS)
    def test_deterministic(self, fn):
        g = random_process_network(15, 30, seed=3)
        assert np.array_equal(fn(g, seed=7), fn(g, seed=7))

    def test_random_matching_is_maximal(self):
        g = random_process_network(20, 35, seed=1)
        match = random_maximal_matching(g, seed=0)
        # maximality: no edge with both endpoints unmatched
        for u, v, _ in g.edges():
            assert not (match[u] == u and match[v] == v)

    def test_hem_prefers_heavy_edges(self):
        # star-free example: heaviest edge must be matched
        g = WGraph(4, [(0, 1, 10.0), (1, 2, 1.0), (2, 3, 5.0)])
        match = heavy_edge_matching(g, seed=0)
        assert match[0] == 1 and match[1] == 0
        assert match[2] == 3 and match[3] == 2

    def test_hem_matched_weight_at_least_random(self):
        """HEM's greedy-by-weight should on average dominate random matching."""
        totals = {"hem": 0.0, "rand": 0.0}
        for seed in range(10):
            g = random_process_network(30, 70, seed=seed, edge_weight_range=(1, 20))
            totals["hem"] += matching_quality(g, heavy_edge_matching(g, seed=seed))
            totals["rand"] += matching_quality(
                g, random_maximal_matching(g, seed=seed)
            )
        assert totals["hem"] >= totals["rand"]

    def test_kmeans_single_node(self):
        g = WGraph(1)
        assert kmeans_matching(g, seed=0).tolist() == [0]


class TestContract:
    def test_pair_merge_node_weights(self):
        g = WGraph(4, [(0, 1, 1.0), (1, 2, 2.0), (2, 3, 3.0)], node_weights=[1, 2, 3, 4])
        match = np.array([1, 0, 3, 2])
        coarse, node_map = contract(g, match)
        assert coarse.n == 2
        assert coarse.total_node_weight == 10.0
        assert node_map[0] == node_map[1]
        assert node_map[2] == node_map[3]

    def test_parallel_edges_summed(self):
        # square: contracting (0,1) and (2,3) makes a double edge merged to sum
        g = WGraph(4, [(0, 1, 1.0), (1, 2, 2.0), (3, 0, 5.0), (2, 3, 1.0)])
        coarse, _ = contract(g, np.array([1, 0, 3, 2]))
        assert coarse.n == 2
        assert coarse.m == 1
        assert coarse.edge_weight(0, 1) == 7.0  # 2 + 5

    def test_intra_pair_edge_vanishes(self):
        g = WGraph(2, [(0, 1, 9.0)])
        coarse, _ = contract(g, np.array([1, 0]))
        assert coarse.n == 1 and coarse.m == 0

    def test_identity_matching(self):
        g = random_process_network(8, 12, seed=0)
        coarse, node_map = contract(g, np.arange(8))
        assert coarse == g
        assert np.array_equal(node_map, np.arange(8))

    def test_invalid_matching_rejected(self):
        g = WGraph(3, [(0, 1, 1.0)])
        with pytest.raises(PartitionError):
            contract(g, np.array([1, 2, 0]))  # not symmetric
        with pytest.raises(PartitionError):
            contract(g, np.array([0, 1]))  # wrong shape

    @given(seed=st.integers(0, 5000))
    @settings(max_examples=30, deadline=None)
    def test_property_contraction_conserves_weights(self, seed):
        """Total node weight conserved; edge weight = coarse edge weight +
        weight hidden inside coarse nodes; projected cut identical."""
        g = random_process_network(16, 32, seed=seed)
        match = random_maximal_matching(g, seed=seed)
        coarse, node_map = contract(g, match)
        assert np.isclose(coarse.total_node_weight, g.total_node_weight)
        hidden = matching_quality(g, match)
        assert np.isclose(coarse.total_edge_weight + hidden, g.total_edge_weight)
        # any coarse assignment projects with identical cut
        rng = np.random.default_rng(seed)
        a_coarse = rng.integers(0, 3, size=coarse.n)
        a_fine = a_coarse[node_map]
        assert np.isclose(
            cut_value(coarse, a_coarse), cut_value(g, a_fine)
        )


class TestCoarsenOnce:
    def test_returns_best_method(self):
        g = random_process_network(20, 40, seed=4)
        coarse, node_map, method = coarsen_once(g, seed=0)
        assert method in ("random", "hem", "kmeans")
        assert coarse.n < g.n

    def test_method_subset(self):
        g = random_process_network(20, 40, seed=4)
        _, _, method = coarsen_once(g, seed=0, methods=("hem",))
        assert method == "hem"

    def test_unknown_method_rejected(self):
        g = random_process_network(10, 15, seed=0)
        with pytest.raises(PartitionError):
            coarsen_once(g, methods=("bogus",))

    def test_empty_methods_rejected(self):
        g = random_process_network(10, 15, seed=0)
        with pytest.raises(PartitionError):
            coarsen_once(g, methods=())


class TestHierarchy:
    def test_build_reaches_target(self):
        g = random_process_network(200, 500, seed=1)
        hier = build_hierarchy(g, coarsen_to=25, seed=0)
        assert hier.coarsest.n <= 25 or hier.depth > 1
        assert hier.levels[0].graph is g
        # sizes strictly decreasing
        sizes = [lvl.graph.n for lvl in hier.levels]
        assert all(a > b for a, b in zip(sizes, sizes[1:]))

    def test_no_coarsening_needed(self):
        g = random_process_network(10, 15, seed=0)
        hier = build_hierarchy(g, coarsen_to=100, seed=0)
        assert hier.depth == 1
        assert hier.coarsest is g

    def test_project_roundtrip_cut(self):
        g = random_process_network(60, 150, seed=2)
        hier = build_hierarchy(g, coarsen_to=10, seed=0)
        rng = np.random.default_rng(0)
        a = rng.integers(0, 4, size=hier.coarsest.n)
        cut_coarse = cut_value(hier.coarsest, a)
        a_fine = a
        for level in range(hier.depth - 1, 0, -1):
            a_fine = hier.project(a_fine, level)
        assert np.isclose(cut_value(g, a_fine), cut_coarse)

    def test_project_bad_level(self):
        g = random_process_network(10, 15, seed=0)
        hier = build_hierarchy(g, coarsen_to=100, seed=0)
        with pytest.raises(PartitionError):
            hier.project(np.zeros(10, dtype=np.int64), 0)

    def test_bad_coarsen_to(self):
        g = random_process_network(10, 15, seed=0)
        with pytest.raises(PartitionError):
            build_hierarchy(g, coarsen_to=0)

    def test_total_node_weight_constant_across_levels(self):
        g = random_process_network(100, 250, seed=3)
        hier = build_hierarchy(g, coarsen_to=10, seed=0)
        for lvl in hier.levels:
            assert np.isclose(lvl.graph.total_node_weight, g.total_node_weight)
