"""Tests for the initial partitioning phase (Section IV.B)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import WGraph, paper_graph, random_process_network
from repro.partition.initial import greedy_grow_once, greedy_initial_partition
from repro.partition.metrics import ConstraintSpec, evaluate_partition, part_weights
from repro.util.errors import PartitionError


class TestGreedyGrowOnce:
    def test_all_assigned(self):
        g = random_process_network(12, 25, seed=0)
        a = greedy_grow_once(g, 3, rmax=1e9)
        assert a.min() >= 0 and a.max() < 3

    def test_heaviest_node_in_part0(self):
        g = random_process_network(12, 25, seed=1)
        a = greedy_grow_once(g, 3, rmax=1e9)
        heaviest = int(np.argmax(g.node_weights))
        assert a[heaviest] == 0

    def test_respects_rmax_when_possible(self):
        g, spec = paper_graph(1)
        a = greedy_grow_once(g, spec.k, rmax=spec.rmax)
        w = part_weights(g, a, spec.k)
        # growing respects Rmax; leftovers may overflow only when unavoidable.
        # With the paper graph's regime, at most one part may exceed.
        assert (w > spec.rmax).sum() <= 1

    def test_explicit_seeds_used(self):
        g = random_process_network(12, 25, seed=2)
        a = greedy_grow_once(g, 2, rmax=1e9, seed_nodes=[3, 7])
        assert a[3] == 0
        # node 7 gets part 1 unless absorbed by part 0 first
        assert a[7] in (0, 1)

    def test_impossibly_small_rmax_still_assigns_everything(self):
        """Leftover placement violates Rmax only as a last resort but never
        leaves nodes unassigned (paper's step 4)."""
        g = random_process_network(10, 18, seed=3)
        a = greedy_grow_once(g, 2, rmax=1.0)
        assert (a >= 0).all() and (a < 2).all()

    def test_k_validation(self):
        g = random_process_network(5, 8, seed=0)
        with pytest.raises(PartitionError):
            greedy_grow_once(g, 0, rmax=10)
        with pytest.raises(PartitionError):
            greedy_grow_once(g, 6, rmax=10)


class TestGreedyInitialPartition:
    def test_feasible_on_planted_instance(self):
        from repro.graph import planted_partition_network

        g, _ = planted_partition_network(16, 4, rmax=100, bmax=14, seed=1)
        cons = ConstraintSpec(bmax=14, rmax=100)
        a = greedy_initial_partition(g, 4, cons, restarts=10, seed=0)
        m = evaluate_partition(g, a, 4, cons)
        assert m.resource_violation == 0.0

    def test_deterministic(self):
        g = random_process_network(14, 30, seed=4)
        cons = ConstraintSpec(bmax=20, rmax=200)
        a1 = greedy_initial_partition(g, 3, cons, restarts=5, seed=9)
        a2 = greedy_initial_partition(g, 3, cons, restarts=5, seed=9)
        assert np.array_equal(a1, a2)

    def test_more_restarts_not_worse(self):
        """Restart rounds only replace the incumbent when strictly better
        (goodness order), so 10 restarts <= goodness of 1 restart."""
        from repro.partition.goodness import goodness_key

        g, spec = paper_graph(2)
        cons = ConstraintSpec(bmax=spec.bmax, rmax=spec.rmax)
        a1 = greedy_initial_partition(g, spec.k, cons, restarts=1, seed=5)
        a10 = greedy_initial_partition(g, spec.k, cons, restarts=10, seed=5)
        k1 = goodness_key(evaluate_partition(g, a1, spec.k, cons), cons)
        k10 = goodness_key(evaluate_partition(g, a10, spec.k, cons), cons)
        assert k10 <= k1

    def test_bad_restarts_rejected(self):
        g = random_process_network(8, 14, seed=0)
        with pytest.raises(PartitionError):
            greedy_initial_partition(g, 2, ConstraintSpec(), restarts=0)

    @given(seed=st.integers(0, 2000), k=st.integers(2, 5))
    @settings(max_examples=15, deadline=None)
    def test_property_every_node_exactly_one_part(self, seed, k):
        g = random_process_network(12, 22, seed=seed)
        cons = ConstraintSpec(bmax=30, rmax=g.total_node_weight / k * 1.3)
        a = greedy_initial_partition(g, k, cons, restarts=3, seed=seed)
        assert a.shape == (12,)
        assert a.min() >= 0 and a.max() < k
