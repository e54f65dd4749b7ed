"""Invariant/property tests for the vector-resource engine.

Load-bearing properties, in the order the subsystem composes them:

* **Load tracking** — the incremental ``(k, R)`` load matrix equals a
  from-scratch recompute after every move; rollback restores every
  tracked matrix exactly; the tracked ``(violation, cut)`` key and
  metrics equal the from-scratch :func:`evaluate_multires`.
* **Move deltas** — ``move_deltas`` equals the brute-force evaluate-
  the-move difference for every (node, destination).  That the move
  evaluator picks the same move as a scan over these rows is pinned
  for both engines in ``tests/test_refine_invariants.py``.
* **Feasibility** — ``evaluate_multires(...).feasible`` holds iff both
  violations are zero iff every part load is under every cap and every
  pairwise bandwidth under ``Bmax``.
* **Greedy leftover placement** — the violation-aware rule of
  :func:`leftover_destination` (regression for the old max-headroom-only
  rule, which could pick a part with strictly more new excess).
* **EA guard** — recombination on the vector engine never returns a
  child worse than the better parent under the goodness order.
* **Execution** — ``mr_gp_partition`` and vector ``evolve_partition``
  are bit-identical between serial and ``n_jobs=N`` runs (worker counts
  honour ``REPRO_TEST_JOBS``, default 2), and the multires cache serves
  parallel requests from serial entries (``n_jobs`` is not in the key).
"""

import os
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.evolve import evolve_partition, make_engine, recombine
from repro.fpga.resources import random_device_matrix
from repro.graph import random_process_network
from repro.partition.goodness import goodness_key
from repro.partition.multires import (
    MR_GP_CONFIG,
    MultiResResult,
    VectorConstraints,
    evaluate_multires,
    leftover_destination,
    mr_constrained_fm,
    mr_gp_partition,
    mr_greedy_initial,
)
from repro.partition.vector_state import (
    VectorGraph,
    VectorRefinementState,
    check_weight_matrix,
)
from repro.util.errors import PartitionError
from repro.util.parallel import memo_cache

N_JOBS = int(os.environ.get("REPRO_TEST_JOBS", "2"))


def instance(seed=0, n=20, m=None, n_res=3):
    g = random_process_network(n, m or int(2.2 * n), seed=seed)
    rng = np.random.default_rng(seed)
    w = np.stack(
        [rng.integers(1, 30, n).astype(float) for _ in range(n_res)], axis=1
    )
    return g, w


def cons_for(g, w, k, slack=1.3, bmax_frac=0.4):
    return VectorConstraints(
        bmax=float(np.ceil(bmax_frac * g.total_edge_weight)),
        rmax=tuple(
            float(np.ceil(slack * w[:, r].sum() / k))
            for r in range(w.shape[1])
        ),
    )


def scratch_loads(w, assign, k):
    out = np.zeros((k, w.shape[1]))
    np.add.at(out, assign, w)
    return out


class TestLoadTracking:
    def test_incremental_loads_equal_scratch_after_every_move(self):
        for seed in range(3):
            g, w = instance(seed, n=18)
            k = 3
            rng = np.random.default_rng(seed)
            a = rng.integers(0, k, size=g.n)
            st_ = VectorRefinementState(g, w, a, k)
            for _ in range(60):
                u = int(rng.integers(g.n))
                dest = int(rng.integers(k))
                st_.move(u, dest)
                np.testing.assert_array_equal(
                    st_.loads, scratch_loads(w, st_.assign, k)
                )

    def test_rollback_restores_every_tracked_matrix(self):
        g, w = instance(1, n=16)
        k = 3
        rng = np.random.default_rng(1)
        a = rng.integers(0, k, size=g.n)
        st_ = VectorRefinementState(g, w, a, k)
        before = {
            "assign": st_.assign.copy(),
            "loads": st_.loads.copy(),
            "conn": st_.conn.copy(),
            "bw": st_.bw.copy(),
            "part_weight": st_.part_weight.copy(),
            "part_size": st_.part_size.copy(),
            "ncnt": st_.ncnt.copy(),
        }
        mark = st_.snapshot()
        for _ in range(40):
            st_.move(int(rng.integers(g.n)), int(rng.integers(k)))
        st_.rollback(mark)
        for name, ref in before.items():
            np.testing.assert_array_equal(
                getattr(st_, name), ref, err_msg=f"rollback corrupted {name}"
            )

    def test_tracked_key_and_metrics_equal_scratch_evaluate(self):
        g, w = instance(2, n=18)
        k = 3
        cons = cons_for(g, w, k)
        rng = np.random.default_rng(2)
        a = rng.integers(0, k, size=g.n)
        st_ = VectorRefinementState(g, w, a, k)
        for _ in range(30):
            st_.move(int(rng.integers(g.n)), int(rng.integers(k)))
            m_scratch = evaluate_multires(g, w, st_.assign, k, cons)
            m_tracked = st_.metrics(cons)
            assert st_.key(cons) == (
                m_scratch.total_violation, m_scratch.cut
            )
            assert m_tracked == m_scratch

    def test_copy_is_independent(self):
        g, w = instance(3, n=14)
        st_ = VectorRefinementState(g, w, np.arange(g.n) % 2, 2)
        cp = st_.copy()
        assert isinstance(cp, VectorRefinementState)
        st_.move(0, 1)
        np.testing.assert_array_equal(cp.loads, scratch_loads(w, cp.assign, 2))
        assert not np.array_equal(cp.assign, st_.assign)

    def test_recompute_rebuilds_loads(self):
        g, w = instance(4, n=14)
        st_ = VectorRefinementState(g, w, np.arange(g.n) % 3, 3)
        st_.move(0, 1)
        st_.recompute()
        np.testing.assert_array_equal(
            st_.loads, scratch_loads(w, st_.assign, 3)
        )


class TestMoveDeltas:
    @pytest.mark.parametrize("seed", range(3))
    def test_deltas_match_brute_force(self, seed):
        g, w = instance(seed, n=14)
        k = 3
        cons = cons_for(g, w, k, slack=1.1, bmax_frac=0.25)
        rng = np.random.default_rng(seed)
        a = rng.integers(0, k, size=g.n)
        st_ = VectorRefinementState(g, w, a, k)
        base = st_.key(cons)
        for u in range(g.n):
            dv, dc = st_.move_deltas(u, cons)
            for dest in range(k):
                if dest == int(a[u]):
                    assert dv[dest] == 0.0 and dc[dest] == 0.0
                    continue
                b = a.copy()
                b[u] = dest
                m = evaluate_multires(g, w, b, k, cons)
                assert dv[dest] == pytest.approx(
                    m.total_violation - base[0], abs=1e-9
                )
                assert dc[dest] == pytest.approx(m.cut - base[1], abs=1e-9)

    def test_overloaded_mask_is_componentwise(self):
        g, w = instance(6, n=12, n_res=2)
        k = 2
        a = np.zeros(g.n, dtype=np.int64)
        st_ = VectorRefinementState(g, w, a, k)
        # cap resource 1 only: part 0 is over on one component
        cons = VectorConstraints(
            bmax=1e9, rmax=(1e9, float(w[:, 1].sum() - 1))
        )
        mask = st_.overloaded_mask(cons)
        assert mask.tolist() == [True, False]
        assert st_.overloaded_nodes(cons).tolist() == list(range(g.n))


class TestFeasibilityIff:
    @given(seed=st.integers(0, 300))
    @settings(max_examples=12, deadline=None)
    def test_feasible_iff_zero_violation_iff_caps_hold(self, seed):
        g, w = instance(seed % 7, n=14, n_res=2)
        k = 3
        rng = np.random.default_rng(seed)
        cons = cons_for(g, w, k, slack=float(rng.uniform(0.8, 1.6)))
        a = rng.integers(0, k, size=g.n)
        m = evaluate_multires(g, w, a, k, cons)
        assert m.feasible == (
            m.bandwidth_violation == 0.0 and m.resource_violation == 0.0
        )
        loads = scratch_loads(w, a, k)
        caps_hold = bool(
            np.all(loads <= np.asarray(cons.rmax) + 1e-12)
        )
        st_ = VectorRefinementState(g, w, a, k)
        bw_ok = bool(np.all(st_.bw <= cons.bmax + 1e-12))
        assert m.feasible == (caps_hold and bw_ok)
        assert m.total_violation >= 0.0

    def test_weight_matrix_validation(self):
        g, w = instance(0)
        with pytest.raises(PartitionError):
            check_weight_matrix(g, w[:5])
        with pytest.raises(PartitionError):
            check_weight_matrix(g, -w)
        with pytest.raises(PartitionError):
            check_weight_matrix(g, w[:, 0])  # 1-D


class TestLeftoverPlacement:
    def test_no_fit_prefers_zero_violation_increase(self):
        """Regression: two resources, no part fits.  Part 0 has the larger
        min-headroom (the old rule's pick) but placing there adds 2 units
        of excess on the binding resource; part 1 absorbs the node with
        *zero* new excess.  The violation-delta rule must pick part 1."""
        rmax = np.array([10.0, 10.0])
        loads = np.array([[9.0, 8.0], [13.0, 2.0]])
        w_u = np.array([0.0, 4.0])
        headroom = (rmax - (loads + w_u)).min(axis=1)
        assert np.all(headroom < 0)  # genuinely no fit
        old_rule = int(np.argmax(headroom))
        assert old_rule == 0  # the defect: headroom alone picks part 0
        assert leftover_destination(loads, rmax, w_u) == 1

    def test_no_fit_ties_break_by_headroom_then_part(self):
        rmax = np.array([10.0])
        loads = np.array([[12.0], [11.0]])
        w_u = np.array([2.0])
        # equal violation delta (2.0 each); part 1 has more headroom
        assert leftover_destination(loads, rmax, w_u) == 1
        loads = np.array([[11.0], [11.0]])
        # full tie: smallest part id wins
        assert leftover_destination(loads, rmax, w_u) == 0

    def test_fitting_part_still_wins_by_headroom(self):
        rmax = np.array([10.0, 10.0])
        loads = np.array([[2.0, 2.0], [6.0, 6.0]])
        w_u = np.array([1.0, 1.0])
        assert leftover_destination(loads, rmax, w_u) == 0

    def test_greedy_initial_zero_resource_violation_on_loose_caps(self):
        g, w = instance(3)
        cons = cons_for(g, w, 3, slack=1.5, bmax_frac=1e6)
        a = mr_greedy_initial(g, w, 3, cons, restarts=5, seed=0)
        m = evaluate_multires(g, w, a, 3, cons)
        assert m.resource_violation == 0.0


class TestEAGuard:
    @pytest.mark.parametrize("seed", range(3))
    def test_recombine_never_worse_than_better_parent(self, seed):
        g, w = instance(seed, n=28, m=60)
        k = 3
        cons = cons_for(g, w, k, slack=1.2, bmax_frac=0.35)
        vg = VectorGraph(g, w)
        engine = make_engine(vg, k)
        assert engine.kind == "vector"
        cfg = replace(MR_GP_CONFIG, max_cycles=2, restarts=3)
        p1 = mr_gp_partition(g, w, k, cons, cfg, seed=seed, cache=False)
        p2 = mr_gp_partition(g, w, k, cons, cfg, seed=seed + 100, cache=False)
        better, other = p1, p2
        if goodness_key(p2.metrics, cons) < goodness_key(p1.metrics, cons):
            better, other = p2, p1
        child, metrics = recombine(
            engine, better.assign, other.assign, cons, seed=seed,
            parent_metrics=better.metrics,
        )
        assert goodness_key(metrics, cons) <= goodness_key(
            better.metrics, cons
        )
        # the returned metrics are honest (tracked == from-scratch)
        assert metrics == evaluate_multires(g, w, child, k, cons)

    def test_vector_engine_contract_aggregates_weights(self):
        g, w = instance(1, n=20)
        vg = VectorGraph(g, w)
        engine = make_engine(vg, 2)
        labels = np.zeros(g.n, dtype=np.int64)
        match = engine.restricted_matching(vg, labels, 1, seed=0)
        coarse, node_map = engine.contract(vg, match)
        assert isinstance(coarse, VectorGraph)
        agg = np.zeros((coarse.n, w.shape[1]))
        np.add.at(agg, node_map, w)
        np.testing.assert_array_equal(coarse.weights, agg)
        # per-resource totals are conserved through contraction
        np.testing.assert_array_equal(
            coarse.weights.sum(axis=0), w.sum(axis=0)
        )

    def test_digest_covers_weight_matrix(self):
        g, w = instance(2, n=12)
        d1 = VectorGraph(g, w).content_digest()
        w2 = w.copy()
        w2[0, 0] += 1.0
        d2 = VectorGraph(g, w2).content_digest()
        assert d1 != d2
        assert d1 == VectorGraph(g, w.copy()).content_digest()


class TestExecution:
    def test_mr_gp_serial_equals_parallel(self):
        g, w = instance(4, n=36, m=80)
        k = 3
        cons = cons_for(g, w, k, slack=1.25, bmax_frac=0.35)
        serial = mr_gp_partition(g, w, k, cons, seed=5, n_jobs=1,
                                 cache=False)
        parallel = mr_gp_partition(g, w, k, cons, seed=5, n_jobs=N_JOBS,
                                   cache=False)
        np.testing.assert_array_equal(serial.assign, parallel.assign)
        assert serial.metrics == parallel.metrics
        assert serial.info["cycles"] == parallel.info["cycles"]

    def test_evolve_vector_serial_equals_parallel(self):
        from repro.evolve import EvolveConfig

        g, w = instance(5, n=30, m=66)
        k = 3
        cons = cons_for(g, w, k, slack=1.25, bmax_frac=0.35)
        vg = VectorGraph(g, w)
        cfg = EvolveConfig(pop_size=4, generations=3)
        memo_cache.clear()
        serial = evolve_partition(vg, k, cons, config=cfg, seed=9,
                                  n_jobs=1, cache=False)
        memo_cache.clear()
        parallel = evolve_partition(vg, k, cons, config=cfg, seed=9,
                                    n_jobs=N_JOBS, cache=False)
        assert serial.algorithm == "EA-vector"
        np.testing.assert_array_equal(serial.assign, parallel.assign)
        assert serial.info["history"] == parallel.info["history"]

    def test_fm_never_increases_total_violation(self):
        for seed in range(4):
            g, w = instance(seed)
            k = 3
            cons = cons_for(g, w, k, slack=1.2, bmax_frac=0.3)
            rng = np.random.default_rng(seed)
            a = rng.integers(0, k, size=g.n)
            before = evaluate_multires(g, w, a, k, cons).total_violation
            out = mr_constrained_fm(g, w, a, k, cons, seed=seed)
            after = evaluate_multires(g, w, out, k, cons).total_violation
            assert after <= before + 1e-9

    def test_cache_roundtrip_and_jobs_neutrality(self):
        g, w = instance(6, n=24, m=52)
        k = 3
        cons = cons_for(g, w, k)
        memo_cache.clear()
        cold = mr_gp_partition(g, w, k, cons, seed=3, n_jobs=1)
        assert "cache_hit" not in cold.info
        # a parallel request must be served by the serial run's entry:
        # n_jobs is not part of the cache key (results are identical)
        warm = mr_gp_partition(g, w, k, cons, seed=3, n_jobs=N_JOBS)
        assert warm.info.get("cache_hit") is True
        np.testing.assert_array_equal(cold.assign, warm.assign)
        assert warm.metrics == cold.metrics
        assert isinstance(warm, MultiResResult)
        # the delivered copy must not alias the stored arrays
        warm.assign[0] = (warm.assign[0] + 1) % k
        again = mr_gp_partition(g, w, k, cons, seed=3)
        np.testing.assert_array_equal(again.assign, cold.assign)
        # cache=False stays cold
        stats = memo_cache.stats()
        cold2 = mr_gp_partition(g, w, k, cons, seed=3, cache=False)
        assert "cache_hit" not in cold2.info
        assert memo_cache.stats()["hits"] == stats["hits"]
        memo_cache.clear()

    def test_cache_key_ignores_delivery_fields(self):
        # on_infeasible only changes how the result is delivered, and a
        # seed given on the config is the same run as the seed argument
        g, w = instance(6, n=24, m=52)
        k = 3
        cons = cons_for(g, w, k)
        memo_cache.clear()
        cold = mr_gp_partition(g, w, k, cons, seed=3)
        assert cold.feasible
        for config, seed in (
            (replace(MR_GP_CONFIG, on_infeasible="raise"), 3),
            (replace(MR_GP_CONFIG, seed=3), None),
        ):
            warm = mr_gp_partition(g, w, k, cons, config, seed=seed)
            assert warm.info.get("cache_hit") is True
            np.testing.assert_array_equal(warm.assign, cold.assign)
        memo_cache.clear()

    def test_cache_key_separates_result_knobs(self):
        # every knob that can change the partition is part of the key
        g, w = instance(6, n=24, m=52)
        k = 3
        cons = cons_for(g, w, k)
        memo_cache.clear()
        mr_gp_partition(g, w, k, cons, seed=3)
        for changed in (
            replace(MR_GP_CONFIG, restarts=4),
            replace(MR_GP_CONFIG, level_candidates=2),
            replace(MR_GP_CONFIG, refine="fm+flow"),
        ):
            out = mr_gp_partition(g, w, k, cons, changed, seed=3)
            assert "cache_hit" not in out.info, changed
        assert memo_cache.stats()["hits"] == 0
        memo_cache.clear()
