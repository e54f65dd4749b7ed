"""Tests for multi-resource constrained partitioning."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.api import partition_graph
from repro.graph import random_process_network
from repro.partition.multires import (
    MR_GP_CONFIG,
    VectorConstraints,
    evaluate_multires,
    mr_constrained_fm,
    mr_gp_partition,
    mr_greedy_initial,
)
from repro.partition.vector_state import VectorGraph
from repro.util.errors import InfeasibleError, PartitionError


def instance(seed=0, n=20, n_res=3):
    g = random_process_network(n, int(2.2 * n), seed=seed)
    rng = np.random.default_rng(seed)
    w = np.stack(
        [rng.integers(1, 30, n).astype(float) for _ in range(n_res)], axis=1
    )
    return g, w


def loose_cons(w, k, slack=1.4, bmax=1e9):
    rmax = tuple(slack * w[:, r].sum() / k for r in range(w.shape[1]))
    return VectorConstraints(bmax=bmax, rmax=rmax)


class TestVectorConstraints:
    def test_validation(self):
        with pytest.raises(PartitionError):
            VectorConstraints(bmax=-1, rmax=(1,))
        with pytest.raises(PartitionError):
            VectorConstraints(bmax=1, rmax=())
        with pytest.raises(PartitionError):
            VectorConstraints(bmax=1, rmax=(1, -2))
        with pytest.raises(PartitionError):
            VectorConstraints(bmax=1, rmax=(1, 2), names=("a",))

    def test_n_resources(self):
        assert VectorConstraints(bmax=1, rmax=(1, 2, 3)).n_resources == 3


class TestEvaluate:
    def test_loads_and_violations(self):
        g, w = instance(0, n=10, n_res=2)
        cons = VectorConstraints(bmax=1e9, rmax=(1.0, 1e9))
        a = np.zeros(10, dtype=np.int64)
        m = evaluate_multires(g, w, a, 2, cons)
        # everything in part 0: load = column sums
        assert m.max_loads == (w[:, 0].sum(), w[:, 1].sum())
        assert m.resource_violation == pytest.approx(w[:, 0].sum() - 1.0)
        assert not m.feasible

    def test_dimension_mismatch_rejected(self):
        g, w = instance(0, n_res=2)
        cons = VectorConstraints(bmax=1, rmax=(1, 2, 3))
        with pytest.raises(PartitionError):
            evaluate_multires(g, w, np.zeros(g.n, dtype=int), 2, cons)

    def test_bad_weights_rejected(self):
        g, w = instance(0)
        with pytest.raises(PartitionError):
            evaluate_multires(
                g, w[:5], np.zeros(g.n, dtype=int), 2,
                VectorConstraints(bmax=1, rmax=(1, 1, 1)),
            )
        with pytest.raises(PartitionError):
            evaluate_multires(
                g, -w, np.zeros(g.n, dtype=int), 2,
                VectorConstraints(bmax=1, rmax=(1, 1, 1)),
            )


class TestMrFM:
    def test_violation_never_increases(self):
        for seed in range(4):
            g, w = instance(seed)
            k = 3
            cons = loose_cons(w, k, slack=1.2, bmax=25.0)
            rng = np.random.default_rng(seed)
            a = rng.integers(0, k, size=g.n)
            before = evaluate_multires(g, w, a, k, cons).total_violation
            out = mr_constrained_fm(g, w, a, k, cons, seed=seed)
            after = evaluate_multires(g, w, out, k, cons).total_violation
            assert after <= before + 1e-9

    def test_repairs_vector_overflow(self):
        g, w = instance(1, n=16, n_res=2)
        k = 2
        cons = loose_cons(w, k, slack=1.5)
        a = np.zeros(16, dtype=np.int64)
        out = mr_constrained_fm(g, w, a, k, cons, max_passes=8, seed=0)
        m = evaluate_multires(g, w, out, k, cons)
        assert m.resource_violation == 0.0

    def test_deterministic(self):
        g, w = instance(2)
        cons = loose_cons(w, 3)
        a = np.arange(g.n) % 3
        o1 = mr_constrained_fm(g, w, a, 3, cons, seed=5)
        o2 = mr_constrained_fm(g, w, a, 3, cons, seed=5)
        assert np.array_equal(o1, o2)


class TestMrInitialAndGP:
    def test_initial_feasible_resources_on_loose(self):
        g, w = instance(3)
        k = 3
        cons = loose_cons(w, k, slack=1.5)
        a = mr_greedy_initial(g, w, k, cons, restarts=5, seed=0)
        m = evaluate_multires(g, w, a, k, cons)
        assert m.resource_violation == 0.0

    def test_gp_feasible_three_resources(self):
        g, w = instance(4, n=24, n_res=3)
        k = 4
        cons = loose_cons(w, k, slack=1.3, bmax=40.0)
        res = mr_gp_partition(g, w, k, cons, seed=0)
        assert res.feasible
        for load, cap in zip(res.metrics.max_loads, cons.rmax):
            assert load <= cap + 1e-9

    def test_one_binding_resource_drives_the_split(self):
        """Resource 1 is scarce (tight cap) while resource 0 is abundant;
        the partitioner must balance on the scarce one."""
        g, w = instance(5, n=18, n_res=2)
        k = 2
        cons = VectorConstraints(
            bmax=1e9,
            rmax=(10 * w[:, 0].sum(), 0.65 * w[:, 1].sum()),
        )
        res = mr_gp_partition(g, w, k, cons, seed=0)
        assert res.feasible
        assert res.metrics.max_loads[1] <= 0.65 * w[:, 1].sum() + 1e-9

    def test_infeasible_raise(self):
        g, w = instance(6, n=10)
        cons = VectorConstraints(bmax=0.0, rmax=(0.5, 0.5, 0.5))
        with pytest.raises(InfeasibleError):
            mr_gp_partition(
                g, w, 2, cons,
                replace(MR_GP_CONFIG, max_cycles=2, on_infeasible="raise"),
                seed=0,
            )

    def test_infeasible_return(self):
        g, w = instance(6, n=10)
        cons = VectorConstraints(bmax=0.0, rmax=(0.5, 0.5, 0.5))
        res = mr_gp_partition(
            g, w, 2, cons, replace(MR_GP_CONFIG, max_cycles=2), seed=0
        )
        assert not res.feasible
        assert res.metrics.total_violation > 0

    def test_bad_args(self):
        g, w = instance(0)
        cons = loose_cons(w, 2)
        with pytest.raises(PartitionError):
            mr_gp_partition(g, w, 0, cons)
        with pytest.raises(PartitionError):
            mr_gp_partition(
                g, w, 2, cons, replace(MR_GP_CONFIG, on_infeasible="explode")
            )

    def test_partition_graph_bundles_the_matrix_once(self, monkeypatch):
        """``partition_graph(resources=W)`` builds one VectorGraph and GP
        runs on it; the only other build is the coarsening's level 0."""
        g, w = instance(8, n=60, n_res=2)
        built = []
        init = VectorGraph.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(VectorGraph, "__init__", counting_init)
        partition_graph(g, 4, rmax=loose_cons(w, 4).rmax, resources=w,
                        seed=0, cache=False)
        assert len(built) == 2

    def test_multilevel_path(self):
        g, w = instance(7, n=150, n_res=2)
        k = 4
        cons = loose_cons(w, k, slack=1.25, bmax=1e9)
        res = mr_gp_partition(
            g, w, k, cons, replace(MR_GP_CONFIG, coarsen_to=40), seed=0
        )
        assert res.assign.shape == (150,)
        assert res.feasible

    @given(seed=st.integers(0, 500))
    @settings(max_examples=8, deadline=None)
    def test_property_valid_output(self, seed):
        g, w = instance(seed, n=14, n_res=2)
        cons = loose_cons(w, 3, slack=1.4, bmax=50.0)
        res = mr_gp_partition(
            g, w, 3, cons, replace(MR_GP_CONFIG, max_cycles=3, restarts=3),
            seed=seed,
        )
        assert res.assign.min() >= 0 and res.assign.max() < 3
        m = evaluate_multires(g, w, res.assign, 3, cons)
        assert m.cut == res.metrics.cut
