"""Tests for PartitionState incremental maintenance and PartitionResult.

``PartitionState`` is the frozen per-node reference state of
``benchmarks/_legacy_refine.py``; the differential corpora were produced on
it, so its bookkeeping stays under test.
"""

import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))
from _legacy_refine import PartitionState  # noqa: E402

from repro.graph import WGraph, random_process_network  # noqa: E402
from repro.partition.base import PartitionResult  # noqa: E402
from repro.partition.metrics import (  # noqa: E402
    ConstraintSpec,
    bandwidth_matrix,
    evaluate_partition,
    part_weights,
)
from repro.util.errors import PartitionError  # noqa: E402


def sample_state():
    g = random_process_network(10, 20, seed=5)
    assign = np.arange(10) % 3
    return g, PartitionState(g, assign, 3)


class TestPartitionState:
    def test_initial_consistency(self):
        g, st_ = sample_state()
        assert np.allclose(st_.bw, bandwidth_matrix(g, st_.assign, 3))
        assert np.allclose(st_.part_weight, part_weights(g, st_.assign, 3))

    def test_move_updates_weights(self):
        g, st_ = sample_state()
        w0 = st_.part_weight.copy()
        nw = g.node_weights[0]
        src = int(st_.assign[0])
        st_.move(0, (src + 1) % 3)
        assert st_.part_weight[src] == pytest.approx(w0[src] - nw)

    def test_move_noop_same_part(self):
        g, st_ = sample_state()
        before = st_.bw.copy()
        st_.move(0, int(st_.assign[0]))
        assert np.allclose(st_.bw, before)

    def test_move_out_of_range_dest(self):
        g, st_ = sample_state()
        with pytest.raises(PartitionError):
            st_.move(0, 7)

    def test_gain_matches_cut_change(self):
        g, st_ = sample_state()
        for u in range(g.n):
            src = int(st_.assign[u])
            dest = (src + 1) % 3
            before = st_.cut
            gain = st_.gain(u, dest)
            st2 = st_.copy()
            st2.move(u, dest)
            assert st2.cut == pytest.approx(before - gain)

    def test_copy_independent(self):
        g, st_ = sample_state()
        cp = st_.copy()
        cp.move(0, (int(cp.assign[0]) + 1) % 3)
        assert not np.array_equal(cp.assign, st_.assign)
        # original untouched
        assert np.allclose(st_.bw, bandwidth_matrix(g, st_.assign, 3))

    def test_boundary_nodes(self):
        g = WGraph(4, [(0, 1, 1.0), (2, 3, 1.0)])
        st_ = PartitionState(g, [0, 0, 1, 1], 2)
        assert st_.boundary_nodes().size == 0
        st2 = PartitionState(g, [0, 1, 1, 1], 2)
        assert set(st2.boundary_nodes().tolist()) == {0, 1}

    def test_connection_vector(self):
        g = WGraph(3, [(0, 1, 2.0), (0, 2, 5.0)])
        st_ = PartitionState(g, [0, 1, 1], 2)
        conn = st_.connection_vector(0)
        assert conn.tolist() == [0.0, 7.0]

    def test_recompute_matches_incremental(self):
        g, st_ = sample_state()
        rng = np.random.default_rng(0)
        for _ in range(30):
            u = int(rng.integers(0, g.n))
            dest = int(rng.integers(0, 3))
            st_.move(u, dest)
        bw_inc = st_.bw.copy()
        pw_inc = st_.part_weight.copy()
        st_.recompute()
        assert np.allclose(bw_inc, st_.bw)
        assert np.allclose(pw_inc, st_.part_weight)

    def test_metrics_delegates(self):
        g, st_ = sample_state()
        m = st_.metrics(ConstraintSpec(bmax=3, rmax=100))
        m2 = evaluate_partition(g, st_.assign, 3, ConstraintSpec(bmax=3, rmax=100))
        assert m == m2

    def test_repr(self):
        _, st_ = sample_state()
        assert "PartitionState" in repr(st_)

    @given(seed=st.integers(0, 5000), moves=st.integers(1, 60))
    @settings(max_examples=25, deadline=None)
    def test_property_incremental_equals_batch(self, seed, moves):
        """Random move sequences keep bw matrix and part weights exact."""
        g = random_process_network(12, 22, seed=seed)
        k = 4
        rng = np.random.default_rng(seed)
        state = PartitionState(g, rng.integers(0, k, size=12), k)
        for _ in range(moves):
            state.move(int(rng.integers(0, 12)), int(rng.integers(0, k)))
        assert np.allclose(state.bw, bandwidth_matrix(g, state.assign, k))
        assert np.allclose(state.part_weight, part_weights(g, state.assign, k))
        assert np.isclose(
            state.cut, evaluate_partition(g, state.assign, k).cut
        )


class TestPartitionResult:
    def test_table_row_shape(self):
        g, st_ = sample_state()
        m = st_.metrics()
        r = PartitionResult(
            assign=st_.assign, k=3, metrics=m, algorithm="X", runtime=1.2345
        )
        row = r.table_row()
        assert row[0] == "X"
        assert row[1] == m.cut
        assert row[2] == pytest.approx(1.2345, abs=1e-4)

    def test_feasible_passthrough(self):
        g, st_ = sample_state()
        m = st_.metrics(ConstraintSpec(bmax=0.0, rmax=0.0))
        r = PartitionResult(assign=st_.assign, k=3, metrics=m, algorithm="X")
        assert r.feasible == m.feasible
        assert r.cut == m.cut
