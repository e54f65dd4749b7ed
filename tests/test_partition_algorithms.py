"""Tests for the end-to-end partitioners: MLKP, GP, spectral, exact."""

import hashlib
import os
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import (
    WGraph,
    paper_graph,
    planted_partition_network,
    random_process_network,
)
from repro.partition.exact import (
    exact_min_cut,
    exact_partition,
    feasibility_certificate,
)
from repro.partition.gp import GPConfig, gp_partition
from repro.partition.metrics import ConstraintSpec, cut_value, evaluate_partition
from repro.partition.mlkp import (
    MLKP_CONFIG,
    mlkp_partition,
    recursive_bisection,
)
from repro.partition.spectral import (
    fiedler_vector,
    spectral_bisection,
    spectral_partition,
)
from repro.util.errors import InfeasibleError, PartitionError


class TestMLKP:
    def test_valid_partition(self):
        g = random_process_network(50, 120, seed=0)
        res = mlkp_partition(g, 4, seed=0)
        assert res.assign.shape == (50,)
        assert res.assign.min() >= 0 and res.assign.max() < 4
        assert res.algorithm == "MLKP"

    def test_uses_all_parts_on_reasonable_graph(self):
        g = random_process_network(60, 150, seed=1)
        res = mlkp_partition(g, 4, seed=0)
        assert len(set(res.assign.tolist())) == 4

    def test_balance_reasonable(self):
        g = random_process_network(100, 250, seed=2, node_weight_range=(1, 4))
        res = mlkp_partition(g, 4, seed=0)
        from repro.partition.metrics import part_weights

        w = part_weights(g, res.assign, 4)
        ideal = g.total_node_weight / 4
        # balance is 1.03 + one-node granularity slack
        assert w.max() <= 1.03 * ideal + g.node_weights.max() + 1e-9

    def test_beats_random_assignment(self):
        g = random_process_network(60, 160, seed=3)
        rng = np.random.default_rng(0)
        random_cut = cut_value(g, rng.integers(0, 4, size=60))
        res = mlkp_partition(g, 4, seed=0)
        assert res.cut < random_cut

    def test_constraints_audited_not_enforced(self):
        g, spec = paper_graph(1)
        cons = ConstraintSpec(bmax=spec.bmax, rmax=spec.rmax)
        res = mlkp_partition(g, spec.k, seed=0, constraints=cons)
        # on the calibrated instance MLKP violates both (paper Table I)
        assert not res.feasible

    def test_deterministic(self):
        g = random_process_network(40, 100, seed=4)
        r1 = mlkp_partition(g, 3, seed=5)
        r2 = mlkp_partition(g, 3, seed=5)
        assert np.array_equal(r1.assign, r2.assign)

    def test_k_validation(self):
        g = random_process_network(10, 18, seed=0)
        with pytest.raises(PartitionError):
            mlkp_partition(g, 0)
        with pytest.raises(PartitionError):
            mlkp_partition(g, 11)

    def test_k1(self):
        g = random_process_network(10, 18, seed=0)
        res = mlkp_partition(g, 1, seed=0)
        assert res.cut == 0.0

    def test_recursive_bisection_parts(self):
        g = random_process_network(30, 70, seed=5)
        a = recursive_bisection(g, 5, seed=0)
        assert set(a.tolist()) == set(range(5))


#: workers racing MLKP's cycles (CI re-runs the pinned rows with 2)
N_JOBS = int(os.environ.get("REPRO_TEST_JOBS", "1"))

#: ``(hierarchy, refine) -> (assign digest, (total, bandwidth, resource
#: violation, cut))`` of MLKP at k=4, seed 3.  Recorded with the two
#: hand-written refinement blocks (depth 1, and every projected level)
#: that the one per-level helper replaced, so the rows prove the level
#: walk bit-identical: "depth1" has nothing to coarsen (n=16), "deep"
#: walks 5 levels; fm+flow differs from fm on both.
MLKP_INSTANCES = {"depth1": (16, 30, 1), "deep": (120, 260, 0)}
MLKP_EXPECTED = {
    ("depth1", "fm"): ("50c40feaa25bbcf9", (0.0, 0.0, 0.0, 93.0)),
    ("depth1", "fm+flow"): ("97396d320770b421", (0.0, 0.0, 0.0, 67.0)),
    ("deep", "fm"): ("51883193daeb86dd", (10.0, 10.0, 0.0, 178.0)),
    ("deep", "fm+flow"): ("da2e19c340499971", (6.0, 6.0, 0.0, 174.0)),
}


@pytest.mark.parametrize("case", sorted(MLKP_EXPECTED), ids="-".join)
def test_mlkp_pinned(case):
    name, refine = case
    n, m, graph_seed = MLKP_INSTANCES[name]
    g = random_process_network(n, m, seed=graph_seed, node_weight_range=(1, 9))
    cons = ConstraintSpec(
        bmax=40.0, rmax=float(round(1.15 * g.total_node_weight / 4))
    )
    res = mlkp_partition(
        g, 4, cons, replace(MLKP_CONFIG, refine=refine), seed=3,
        n_jobs=N_JOBS,
    )
    assert res.info["levels"] == (1 if name == "depth1" else 5)
    m_ = res.metrics
    digest = hashlib.sha256(
        np.asarray(res.assign, dtype=np.int64).tobytes()
    ).hexdigest()[:16]
    assert (digest, (
        m_.total_violation, m_.bandwidth_violation, m_.resource_violation,
        m_.cut,
    )) == MLKP_EXPECTED[case]

class TestGP:
    def test_feasible_on_planted(self):
        g, _ = planted_partition_network(20, 4, rmax=110, bmax=15, seed=0)
        cons = ConstraintSpec(bmax=15, rmax=110)
        res = gp_partition(g, 4, cons, seed=0)
        assert res.feasible
        assert res.algorithm == "GP"

    @pytest.mark.parametrize("exp", [1, 2, 3])
    def test_feasible_on_paper_graphs(self, exp):
        g, spec = paper_graph(exp)
        cons = ConstraintSpec(bmax=spec.bmax, rmax=spec.rmax)
        res = gp_partition(g, spec.k, cons, GPConfig(max_cycles=20), seed=0)
        assert res.feasible, f"GP must meet both constraints on {spec.name}"

    def test_deterministic(self):
        g, spec = paper_graph(2)
        cons = ConstraintSpec(bmax=spec.bmax, rmax=spec.rmax)
        r1 = gp_partition(g, spec.k, cons, seed=3)
        r2 = gp_partition(g, spec.k, cons, seed=3)
        assert np.array_equal(r1.assign, r2.assign)

    def test_unconstrained_still_partitions(self):
        g = random_process_network(30, 60, seed=1)
        res = gp_partition(g, 3, ConstraintSpec(), seed=0)
        assert res.feasible  # no constraints -> trivially feasible
        assert res.assign.max() < 3

    def test_infeasible_return_mode(self):
        g = random_process_network(10, 20, seed=2, node_weight_range=(10, 20))
        cons = ConstraintSpec(bmax=0.0, rmax=1.0)  # impossible
        res = gp_partition(g, 3, cons, GPConfig(max_cycles=2), seed=0)
        assert not res.feasible
        assert res.metrics.total_violation > 0

    def test_infeasible_raise_mode(self):
        g = random_process_network(10, 20, seed=2, node_weight_range=(10, 20))
        cons = ConstraintSpec(bmax=0.0, rmax=1.0)
        with pytest.raises(InfeasibleError) as exc_info:
            gp_partition(
                g, 3, cons, GPConfig(max_cycles=2, on_infeasible="raise"), seed=0
            )
        assert exc_info.value.best is not None
        assert not exc_info.value.best.feasible

    def test_cycles_reported(self):
        g, spec = paper_graph(1)
        cons = ConstraintSpec(bmax=spec.bmax, rmax=spec.rmax)
        res = gp_partition(g, spec.k, cons, GPConfig(max_cycles=20), seed=0)
        assert 1 <= res.info["cycles"] <= 20

    def test_k_validation(self):
        g = random_process_network(10, 18, seed=0)
        with pytest.raises(PartitionError):
            gp_partition(g, 0, ConstraintSpec())
        with pytest.raises(PartitionError):
            gp_partition(g, 11, ConstraintSpec())

    def test_config_validation(self):
        with pytest.raises(PartitionError):
            GPConfig(coarsen_to=0)
        with pytest.raises(PartitionError):
            GPConfig(restarts=0)
        with pytest.raises(PartitionError):
            GPConfig(max_cycles=0)
        with pytest.raises(PartitionError):
            GPConfig(on_infeasible="explode")
        with pytest.raises(PartitionError):
            GPConfig(matchings=())

    def test_multilevel_path_on_large_graph(self):
        """Graph above coarsen_to exercises real coarsening + projection."""
        g = random_process_network(250, 600, seed=7, node_weight_range=(1, 6))
        cons = ConstraintSpec(
            bmax=g.total_edge_weight, rmax=1.1 * g.total_node_weight / 4
        )
        res = gp_partition(g, 4, cons, GPConfig(coarsen_to=50, max_cycles=3), seed=0)
        assert res.info["levels"] > 1
        assert res.assign.shape == (250,)

    @given(seed=st.integers(0, 1000))
    @settings(max_examples=10, deadline=None)
    def test_property_valid_output(self, seed):
        g = random_process_network(15, 30, seed=seed)
        cons = ConstraintSpec(bmax=25, rmax=g.total_node_weight / 2)
        res = gp_partition(g, 3, cons, GPConfig(max_cycles=3, restarts=3), seed=seed)
        assert res.assign.shape == (15,)
        assert res.assign.min() >= 0 and res.assign.max() < 3


class TestSpectral:
    def test_fiedler_orthogonal_to_ones(self):
        g = random_process_network(20, 40, seed=0)
        f = fiedler_vector(g)
        assert abs(f.sum()) < 1e-6

    def test_fiedler_requires_connected(self):
        g = WGraph(4, [(0, 1, 1.0), (2, 3, 1.0)])
        with pytest.raises(PartitionError):
            fiedler_vector(g)

    def test_bisection_two_cliques(self):
        edges = [(u, v, 5.0) for u in range(5) for v in range(u + 1, 5)]
        edges += [(u + 5, v + 5, 5.0) for u in range(5) for v in range(u + 1, 5)]
        edges.append((0, 5, 1.0))
        g = WGraph(10, edges)
        a = spectral_bisection(g)
        assert cut_value(g, a) == 1.0

    def test_partition_k4(self):
        g = random_process_network(40, 90, seed=1)
        res = spectral_partition(g, 4)
        assert set(res.assign.tolist()) == set(range(4))
        assert res.algorithm == "spectral"

    def test_partition_handles_disconnected_subcalls(self):
        # a graph that fragments during recursion should not crash
        g = random_process_network(30, 32, seed=2)  # sparse
        res = spectral_partition(g, 4)
        assert res.assign.shape == (30,)

    def test_large_graph_sparse_path(self):
        g = random_process_network(120, 280, seed=3)
        res = spectral_partition(g, 2)
        assert res.assign.shape == (120,)

    def test_sparse_path_is_reproducible(self):
        # the sparse eigensolver used to start from a random vector, so
        # repeated calls could return the parts relabelled or reshaped
        g = random_process_network(400, 1100, seed=17)
        runs = [spectral_partition(g, 4).assign for _ in range(4)]
        for a in runs[1:]:
            np.testing.assert_array_equal(a, runs[0])

    def test_k_validation(self):
        g = random_process_network(10, 18, seed=0)
        with pytest.raises(PartitionError):
            spectral_partition(g, 0)
        with pytest.raises(PartitionError):
            spectral_partition(g, 11)


class TestExact:
    def test_min_cut_triangle(self):
        g = WGraph(3, [(0, 1, 1.0), (1, 2, 2.0), (0, 2, 3.0)])
        # k=2: best is isolating node 1? cuts: {0}|{1,2}: 1+3=4;
        # {1}|{0,2}: 1+2=3; {2}|{0,1}: 2+3=5 -> 3
        assert exact_min_cut(g, 2) == 3.0

    def test_heuristics_never_beat_exact(self):
        for seed in range(4):
            g = random_process_network(10, 20, seed=seed)
            opt = exact_min_cut(g, 3)
            res = mlkp_partition(g, 3, seed=0)
            assert res.cut >= opt - 1e-9

    def test_constraint_enforcement(self):
        g, spec = paper_graph(1)
        cons = ConstraintSpec(bmax=spec.bmax, rmax=spec.rmax)
        res = exact_partition(g, spec.k, cons, enforce=True)
        assert res.feasible

    def test_exact_constrained_cut_at_most_gp(self):
        g, spec = paper_graph(1)
        cons = ConstraintSpec(bmax=spec.bmax, rmax=spec.rmax)
        opt = exact_partition(g, spec.k, cons, enforce=True)
        gp = gp_partition(g, spec.k, cons, GPConfig(max_cycles=20), seed=0)
        assert opt.cut <= gp.cut + 1e-9

    def test_infeasible_raises(self):
        g = WGraph(3, [(0, 1, 5.0), (1, 2, 5.0)], node_weights=[10, 10, 10])
        with pytest.raises(InfeasibleError):
            exact_partition(g, 2, ConstraintSpec(rmax=5.0), enforce=True)

    def test_feasibility_certificate(self):
        g = WGraph(4, [(0, 1, 1.0), (2, 3, 1.0)], node_weights=[1, 1, 1, 1])
        assert feasibility_certificate(g, 2, ConstraintSpec(rmax=2.0)) is not None
        assert feasibility_certificate(g, 2, ConstraintSpec(rmax=1.0)) is None

    def test_size_limit(self):
        g = random_process_network(25, 40, seed=0)
        with pytest.raises(PartitionError):
            exact_partition(g, 2)

    def test_require_all_parts(self):
        g = WGraph(3, [(0, 1, 10.0), (1, 2, 10.0), (0, 2, 10.0)])
        res = exact_partition(g, 3, require_all_parts=True)
        assert len(set(res.assign.tolist())) == 3

    def test_k_validation(self):
        g = WGraph(3, [(0, 1, 1.0)])
        with pytest.raises(PartitionError):
            exact_partition(g, 0)
        with pytest.raises(PartitionError):
            exact_partition(g, 4)

    @given(seed=st.integers(0, 500))
    @settings(max_examples=8, deadline=None)
    def test_property_exact_lower_bounds_heuristics(self, seed):
        g = random_process_network(9, 16, seed=seed)
        opt = exact_min_cut(g, 2)
        heuristic = recursive_bisection(g, 2, seed=seed)
        assert opt <= cut_value(g, heuristic) + 1e-9
