"""Tests for k-way refinement (both flavours) and the goodness function.

``TestMoveDelta`` checks the frozen per-node reference of
``benchmarks/_legacy_refine.py``; the live engine's move deltas are checked
in ``tests/test_refine_invariants.py``.
"""

import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))
from _legacy_refine import PartitionState, move_delta  # noqa: E402

from repro.graph import WGraph, paper_graph, random_process_network  # noqa: E402
from repro.partition.goodness import goodness_key, is_better  # noqa: E402
from repro.partition.kway_refine import (  # noqa: E402
    constrained_kway_fm,
    greedy_kway_refine,
)
from repro.partition.metrics import (  # noqa: E402
    ConstraintSpec,
    cut_value,
    evaluate_partition,
    part_weights,
)
from repro.util.errors import PartitionError  # noqa: E402


class TestGoodness:
    def _metrics(self, g, a, cons):
        return evaluate_partition(g, a, 4, cons)

    def test_feasible_beats_infeasible(self):
        g, spec = paper_graph(1)
        cons = ConstraintSpec(bmax=spec.bmax, rmax=spec.rmax)
        feasible_like = evaluate_partition(g, np.arange(12) % 4, 4, ConstraintSpec())
        infeasible = evaluate_partition(g, np.arange(12) % 4, 4, ConstraintSpec(bmax=0.0))
        assert goodness_key(feasible_like, cons) < goodness_key(infeasible, cons)

    def test_cut_breaks_ties(self):
        from repro.partition.metrics import PartitionMetrics

        a = PartitionMetrics(4, cut=10, max_local_bandwidth=5, max_resource=5,
                             bandwidth_violation=0, resource_violation=0)
        b = PartitionMetrics(4, cut=12, max_local_bandwidth=4, max_resource=6,
                             bandwidth_violation=0, resource_violation=0)
        cons = ConstraintSpec(bmax=100, rmax=100)
        assert is_better(a, b, cons)
        assert not is_better(b, a, cons)

    def test_violation_dominates_cut(self):
        from repro.partition.metrics import PartitionMetrics

        small_cut_violating = PartitionMetrics(
            4, cut=1, max_local_bandwidth=50, max_resource=5,
            bandwidth_violation=10, resource_violation=0)
        big_cut_feasible = PartitionMetrics(
            4, cut=100, max_local_bandwidth=5, max_resource=5,
            bandwidth_violation=0, resource_violation=0)
        cons = ConstraintSpec(bmax=40, rmax=100)
        assert is_better(big_cut_feasible, small_cut_violating, cons)


class TestGreedyKwayRefine:
    def test_cut_never_increases(self):
        for seed in range(5):
            g = random_process_network(20, 45, seed=seed)
            rng = np.random.default_rng(seed)
            a = rng.integers(0, 4, size=20)
            out = greedy_kway_refine(g, a, 4, seed=seed)
            assert cut_value(g, out) <= cut_value(g, a) + 1e-9

    def test_balance_cap_respected(self):
        g = random_process_network(20, 45, seed=3, node_weight_range=(1, 5))
        a = np.arange(20) % 4
        cap = part_weights(g, a, 4).max()  # moves must not exceed current max
        out = greedy_kway_refine(g, a, 4, max_part_weight=cap, seed=0)
        assert part_weights(g, out, 4).max() <= cap + 1e-9

    def test_improves_obviously_bad_partition(self):
        # two cliques, alternate assignment -> refinement should help
        edges = [(u, v, 5.0) for u in range(4) for v in range(u + 1, 4)]
        edges += [(u, v, 5.0) for u in range(4, 8) for v in range(u + 1, 8)]
        edges.append((0, 4, 1.0))
        g = WGraph(8, edges)
        bad = np.array([0, 1, 0, 1, 0, 1, 0, 1])
        out = greedy_kway_refine(g, bad, 2, seed=0)
        assert cut_value(g, out) < cut_value(g, bad)

    def test_bad_passes_rejected(self):
        g = random_process_network(8, 14, seed=0)
        with pytest.raises(PartitionError):
            greedy_kway_refine(g, np.zeros(8, dtype=int), 2, max_passes=0)


class TestMoveDelta:
    @given(seed=st.integers(0, 3000))
    @settings(max_examples=30, deadline=None)
    def test_property_delta_matches_recompute(self, seed):
        """move_delta's incremental (violation, cut) deltas equal the
        from-scratch difference after actually moving."""
        g = random_process_network(12, 24, seed=seed)
        k = 4
        rng = np.random.default_rng(seed)
        cons = ConstraintSpec(bmax=8.0, rmax=g.total_node_weight / 3)
        state = PartitionState(g, rng.integers(0, k, size=12), k)

        def violation(st_):
            m = evaluate_partition(g, st_.assign, k, cons)
            return m.total_violation

        for _ in range(10):
            u = int(rng.integers(0, 12))
            dest = int(rng.integers(0, k))
            dv, dc = move_delta(state, u, dest, cons)
            v0, c0 = violation(state), state.cut
            state.move(u, dest)
            v1, c1 = violation(state), state.cut
            assert dv == pytest.approx(v1 - v0, abs=1e-9)
            assert dc == pytest.approx(c1 - c0, abs=1e-9)

    def test_same_part_is_zero(self):
        g = random_process_network(10, 18, seed=0)
        state = PartitionState(g, np.arange(10) % 3, 3)
        assert move_delta(state, 0, int(state.assign[0]), ConstraintSpec()) == (0.0, 0.0)


class TestConstrainedKwayFM:
    def test_violation_never_increases(self):
        for seed in range(6):
            g = random_process_network(16, 34, seed=seed)
            k = 4
            rng = np.random.default_rng(seed)
            a = rng.integers(0, k, size=16)
            cons = ConstraintSpec(bmax=10.0, rmax=g.total_node_weight / k * 1.2)
            before = evaluate_partition(g, a, k, cons).total_violation
            out = constrained_kway_fm(g, a, k, cons, seed=seed)
            after = evaluate_partition(g, out, k, cons).total_violation
            assert after <= before + 1e-9

    def test_repairs_resource_overflow(self):
        """All nodes piled into one part must spread out under Rmax."""
        g = random_process_network(12, 25, seed=1, node_weight_range=(5, 10))
        k = 3
        a = np.zeros(12, dtype=np.int64)
        cons = ConstraintSpec(rmax=g.total_node_weight / 2)
        out = constrained_kway_fm(g, a, k, cons, max_passes=8, seed=0)
        m = evaluate_partition(g, out, k, cons)
        assert m.resource_violation == 0.0

    def test_reduces_bandwidth_violation_on_paper_graph(self):
        g, spec = paper_graph(1)
        cons = ConstraintSpec(bmax=spec.bmax, rmax=spec.rmax)
        rng = np.random.default_rng(2)
        a = rng.integers(0, spec.k, size=12)
        before = evaluate_partition(g, a, spec.k, cons)
        out = constrained_kway_fm(g, a, spec.k, cons, max_passes=8, seed=0)
        after = evaluate_partition(g, out, spec.k, cons)
        assert after.total_violation <= before.total_violation

    def test_feasible_input_stays_feasible(self):
        from repro.graph import planted_partition_network

        g, planted = planted_partition_network(16, 4, rmax=100, bmax=14, seed=2)
        cons = ConstraintSpec(bmax=14, rmax=100)
        out = constrained_kway_fm(g, planted, 4, cons, seed=0)
        m = evaluate_partition(g, out, 4, cons)
        assert m.feasible
        # and the cut may only improve
        assert m.cut <= cut_value(g, planted) + 1e-9

    def test_deterministic(self):
        g = random_process_network(14, 30, seed=3)
        cons = ConstraintSpec(bmax=12, rmax=100)
        a = np.arange(14) % 4
        out1 = constrained_kway_fm(g, a, 4, cons, seed=11)
        out2 = constrained_kway_fm(g, a, 4, cons, seed=11)
        assert np.array_equal(out1, out2)

    def test_bad_passes_rejected(self):
        g = random_process_network(8, 14, seed=0)
        with pytest.raises(PartitionError):
            constrained_kway_fm(g, np.zeros(8, dtype=int), 2, ConstraintSpec(), max_passes=0)

    @given(seed=st.integers(0, 2000))
    @settings(max_examples=15, deadline=None)
    def test_property_valid_assignment_out(self, seed):
        g = random_process_network(12, 22, seed=seed)
        rng = np.random.default_rng(seed)
        k = 3
        a = rng.integers(0, k, size=12)
        cons = ConstraintSpec(bmax=9, rmax=g.total_node_weight / 2)
        out = constrained_kway_fm(g, a, k, cons, seed=seed)
        assert out.shape == (12,)
        assert out.min() >= 0 and out.max() < k
