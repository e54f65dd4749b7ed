"""Property-based invariants of the vectorized refinement engine.

Three families:

1. every refinement entry point returns a *valid* assignment and never
   worsens its objective (goodness key, cut, or overflow — whichever the
   pass optimises),
2. :class:`~repro.partition.refine_state.RefinementState`'s incrementally
   maintained connectivity / bandwidth / part-weight / boundary quantities
   equal a from-scratch ``evaluate_partition`` (and a fresh engine build)
   after arbitrary move sequences and after whole passes,
3. the move trail rewinds exactly (rollback is the inverse of the applied
   move sequence),
4. the degree-local move evaluator (``best_move``/``best_moves``) picks
   exactly the move a brute-force scan over full ``move_deltas`` rows
   picks, on the scalar and the vector-resource state.

Uses ``hypothesis`` for the sweeps (with seeded ``repro.util.rng`` data so
failures replay deterministically).
"""

import contextlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import WGraph, random_process_network
from repro.partition.fm import default_side_caps, fm_pass_bisection, fm_refine_bisection
from repro.partition.goodness import goodness_key
from repro.partition.kway_refine import (
    constrained_kway_fm,
    greedy_kway_refine,
    rebalance_pass,
)
from repro.partition.metrics import (
    ConstraintSpec,
    cut_value,
    evaluate_partition,
    part_weights,
)
from repro.partition import refine_state
from repro.partition.refine_state import BucketQueue, RefinementState
from repro.partition.vector_state import VectorConstraints, VectorRefinementState
from repro.util.errors import PartitionError
from repro.util.rng import as_rng


def _assert_state_consistent(state: RefinementState, atol: float = 1e-8) -> None:
    """Incremental quantities must equal a from-scratch rebuild."""
    fresh = RefinementState(state.g, state.assign, state.k)
    np.testing.assert_allclose(state.conn, fresh.conn, atol=atol)
    np.testing.assert_array_equal(state.ncnt, fresh.ncnt)
    np.testing.assert_allclose(state.bw, fresh.bw, atol=atol)
    np.testing.assert_allclose(state.part_weight, fresh.part_weight, atol=atol)
    np.testing.assert_array_equal(state.part_size, fresh.part_size)
    np.testing.assert_array_equal(state.boundary_nodes(), fresh.boundary_nodes())


class TestStateIncrementalEqualsScratch:
    @given(seed=st.integers(0, 4000))
    @settings(max_examples=30, deadline=None)
    def test_random_move_sequences(self, seed):
        rng = as_rng(seed)
        n, k = 18, 4
        g = random_process_network(n, 36, seed=seed, node_weight_range=(1, 5))
        state = RefinementState(g, rng.integers(0, k, size=n), k)
        cons = ConstraintSpec(bmax=9.0, rmax=g.total_node_weight / 3)
        for _ in range(15):
            u = int(rng.integers(0, n))
            dest = int(rng.integers(0, k))
            state.move(u, dest)
        _assert_state_consistent(state)
        m_inc = state.metrics(cons)
        m_ref = evaluate_partition(g, state.assign, k, cons)
        assert m_inc.cut == pytest.approx(m_ref.cut, abs=1e-9)
        assert m_inc.total_violation == pytest.approx(m_ref.total_violation, abs=1e-9)
        assert m_inc.max_resource == pytest.approx(m_ref.max_resource, abs=1e-9)
        assert m_inc.max_local_bandwidth == pytest.approx(
            m_ref.max_local_bandwidth, abs=1e-9
        )
        assert state.key(cons) == pytest.approx(
            (m_ref.total_violation, m_ref.cut), abs=1e-9
        )

    @given(seed=st.integers(0, 4000))
    @settings(max_examples=20, deadline=None)
    def test_state_consistent_after_every_pass_kind(self, seed):
        """After each refinement entry point runs on a shared state, the
        state it leaves behind still matches a from-scratch rebuild."""
        rng = as_rng(seed)
        n, k = 16, 3
        g = random_process_network(n, 30, seed=seed, node_weight_range=(1, 4))
        a = rng.integers(0, k, size=n)
        cons = ConstraintSpec(bmax=10.0, rmax=1.2 * g.total_node_weight / k)

        state = RefinementState(g, a, k)
        rebalance_pass(g, a, k, 1.2 * g.total_node_weight / k, state=state)
        _assert_state_consistent(state)
        greedy_kway_refine(
            g, state.assign, k,
            max_part_weight=1.3 * g.total_node_weight / k,
            seed=seed, state=state,
        )
        _assert_state_consistent(state)
        constrained_kway_fm(
            g, state.assign, k, cons, max_passes=2, seed=seed, state=state
        )
        _assert_state_consistent(state)

    @given(seed=st.integers(0, 4000))
    @settings(max_examples=25, deadline=None)
    def test_move_deltas_match_actual_move(self, seed):
        """The vectorized (violation, cut) deltas equal the measured
        before/after difference for every destination."""
        rng = as_rng(seed)
        n, k = 14, 4
        g = random_process_network(n, 28, seed=seed)
        state = RefinementState(g, rng.integers(0, k, size=n), k)
        cons = ConstraintSpec(bmax=7.0, rmax=g.total_node_weight / 3)
        u = int(rng.integers(0, n))
        dv, dc = state.move_deltas(u, cons)
        v0, c0 = state.key(cons)
        for dest in range(k):
            trial = state.copy()
            trial.move(u, dest)
            v1, c1 = trial.key(cons)
            assert dv[dest] == pytest.approx(v1 - v0, abs=1e-9)
            assert dc[dest] == pytest.approx(c1 - c0, abs=1e-9)


@contextlib.contextmanager
def _vector_threshold(value):
    saved = refine_state._BATCH_MIN_NODES
    refine_state._BATCH_MIN_NODES = value
    try:
        yield
    finally:
        refine_state._BATCH_MIN_NODES = saved


def _brute_best_move(state, u, cons):
    """Lexicographic min of ``(dv, dc, dest)`` over full ``move_deltas``
    rows: the parts *u* connects to, or every part when *u*'s part is
    over budget (the escape rule)."""
    src = int(state.assign[u])
    dv, dc = state.move_deltas(u, cons)
    if state.overloaded_mask(cons)[src]:
        cand = range(state.k)
    else:
        cand = np.nonzero(state.connection_vector(u) > 0.0)[0]
    keys = [(float(dv[d]), float(dc[d]), int(d)) for d in cand if d != src]
    return min(keys) if keys else None


class TestDegreeLocalEvaluator:
    """``best_moves`` scores only the parts a node touches (escape nodes:
    all parts); it must pick exactly the move a brute-force scan over the
    full k-wide ``move_deltas`` rows picks.  Integer weights and integer
    ``bmax`` — the exactness contract."""

    @given(
        seed=st.integers(0, 4000),
        conn_format=st.sampled_from(["dense", "sparse"]),
        vector=st.booleans(),
        finite_bmax=st.booleans(),
        escape=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_best_moves_equal_brute_force(
        self, seed, conn_format, vector, finite_bmax, escape
    ):
        rng = as_rng(seed)
        n, k = 18, 5
        g = random_process_network(n, 36, seed=seed)
        a = rng.integers(0, k, size=n)
        if escape:
            a[: n // 2] = 0  # one heavy part, so a cap below its load bites
        bmax = float(np.ceil(g.total_edge_weight / k)) if finite_bmax else np.inf
        if vector:
            w = rng.integers(1, 20, size=(n, 2)).astype(float)
            state = VectorRefinementState(g, w, a, k, conn_format=conn_format)
            cap = state.loads.max(axis=0) - 1.0 if escape else 1.3 * w.sum(0) / k
            cons = VectorConstraints(bmax=bmax, rmax=tuple(cap))
        else:
            state = RefinementState(g, a, k, conn_format=conn_format)
            cap = (
                state.part_weight.max() - 1.0 if escape
                else 1.3 * g.total_node_weight / k
            )
            cons = ConstraintSpec(bmax=bmax, rmax=cap)
        if escape:
            assert state.overloaded_mask(cons).any()
        for _ in range(3):  # fresh state, then after a few moves
            nodes = rng.permutation(n)
            expected = [_brute_best_move(state, int(u), cons) for u in nodes]
            # best_moves has a per-node loop and a numpy pass: force each
            for threshold in (0, 10**9):
                with _vector_threshold(threshold):
                    assert state.best_moves(nodes, cons) == expected
            assert [state.best_move(int(u), cons) for u in nodes] == expected
            for u in rng.choice(n, size=3, replace=False):
                state.move(int(u), int(rng.integers(0, k)))


class TestRollback:
    def test_rollback_restores_everything(self):
        g = random_process_network(12, 24, seed=5, node_weight_range=(1, 3))
        rng = as_rng(7)
        state = RefinementState(g, rng.integers(0, 3, size=12), 3)
        before = state.copy()
        mark = state.snapshot()
        for _ in range(10):
            state.move(int(rng.integers(0, 12)), int(rng.integers(0, 3)))
        state.rollback(mark)
        np.testing.assert_array_equal(state.assign, before.assign)
        np.testing.assert_allclose(state.bw, before.bw, atol=1e-9)
        np.testing.assert_allclose(state.conn, before.conn, atol=1e-9)
        np.testing.assert_array_equal(state.part_size, before.part_size)

    def test_partial_rollback(self):
        g = random_process_network(10, 18, seed=1)
        state = RefinementState(g, np.arange(10) % 2, 2)
        state.move(0, 1)
        mid = state.snapshot()
        mid_assign = state.assign.copy()
        state.move(1, 1)
        state.move(2, 1)
        state.rollback(mid)
        np.testing.assert_array_equal(state.assign, mid_assign)
        _assert_state_consistent(state)

    def test_bad_mark_rejected(self):
        g = random_process_network(6, 8, seed=0)
        state = RefinementState(g, np.zeros(6, dtype=np.int64), 2)
        with pytest.raises(PartitionError):
            state.rollback(5)


class TestBucketQueue:
    def test_min_first_fifo_ties(self):
        q = BucketQueue()
        q.push((1.0, 0.0), "late")
        q.push((0.0, 2.0), "first")
        q.push((0.0, 2.0), "second")
        q.push((-1.0, 9.0), "best")
        order = [q.pop()[1] for _ in range(len(q))]
        assert order == ["best", "first", "second", "late"]

    def test_interleaved_push_pop(self):
        q = BucketQueue()
        q.push(2.0, "a")
        assert q.pop() == (2.0, "a")
        q.push(1.0, "b")
        q.push(2.0, "c")  # key 2.0's bucket was emptied, must still work
        assert q.pop() == (1.0, "b")
        assert q.pop() == (2.0, "c")
        assert not q
        with pytest.raises(IndexError):
            q.pop()


class TestPassesNeverWorsen:
    @given(seed=st.integers(0, 5000))
    @settings(max_examples=25, deadline=None)
    def test_constrained_fm_never_worsens_goodness(self, seed):
        rng = as_rng(seed)
        n, k = 15, 3
        g = random_process_network(n, 30, seed=seed, node_weight_range=(1, 4))
        a = rng.integers(0, k, size=n)
        cons = ConstraintSpec(bmax=8.0, rmax=1.2 * g.total_node_weight / k)
        out = constrained_kway_fm(g, a, k, cons, seed=seed)
        assert out.shape == (n,) and out.min() >= 0 and out.max() < k
        key_in = goodness_key(evaluate_partition(g, a, k, cons), cons)
        key_out = goodness_key(evaluate_partition(g, out, k, cons), cons)
        assert key_out <= key_in

    @given(seed=st.integers(0, 5000))
    @settings(max_examples=25, deadline=None)
    def test_greedy_never_worsens_cut_nor_cap(self, seed):
        rng = as_rng(seed)
        n, k = 15, 3
        g = random_process_network(n, 28, seed=seed, node_weight_range=(1, 3))
        a = rng.integers(0, k, size=n)
        cap = float(part_weights(g, a, k).max())
        out = greedy_kway_refine(g, a, k, max_part_weight=cap, seed=seed)
        assert out.shape == (n,) and out.min() >= 0 and out.max() < k
        assert cut_value(g, out) <= cut_value(g, a) + 1e-9
        assert part_weights(g, out, k).max() <= cap + 1e-9

    @given(seed=st.integers(0, 5000))
    @settings(max_examples=25, deadline=None)
    def test_rebalance_never_worsens_overflow(self, seed):
        rng = as_rng(seed)
        n, k = 15, 3
        g = random_process_network(n, 28, seed=seed, node_weight_range=(1, 5))
        a = rng.integers(0, k, size=n)
        cap = 1.1 * g.total_node_weight / k

        def overflow(assign):
            return float(np.maximum(part_weights(g, assign, k) - cap, 0.0).sum())

        out = rebalance_pass(g, a, k, cap)
        assert out.shape == (n,) and out.min() >= 0 and out.max() < k
        assert overflow(out) <= overflow(a) + 1e-9
        # the kmetis rule: no part may be emptied by rebalancing
        assert len(set(out.tolist())) >= len(set(a.tolist()))

    @given(seed=st.integers(0, 5000))
    @settings(max_examples=25, deadline=None)
    def test_fm_bisection_never_worsens_pair(self, seed):
        rng = as_rng(seed)
        n = 14
        g = random_process_network(n, 26, seed=seed)
        a = rng.integers(0, 2, size=n)
        caps = default_side_caps(g)

        def key(assign):
            w = part_weights(g, assign, 2)
            viol = max(0.0, w[0] - caps[0]) + max(0.0, w[1] - caps[1])
            return (viol, cut_value(g, assign))

        out_pass, cut_pass = fm_pass_bisection(g, a)
        assert key(out_pass) <= key(a)
        assert cut_pass == pytest.approx(cut_value(g, out_pass), abs=1e-9)
        out = fm_refine_bisection(g, a)
        assert key(out) <= key(a)



class TestSharedStateThreading:
    def test_state_mismatch_rejected(self):
        g = random_process_network(10, 18, seed=0)
        g2 = random_process_network(10, 18, seed=1)
        state = RefinementState(g2, np.zeros(10, dtype=np.int64), 2)
        with pytest.raises(PartitionError):
            greedy_kway_refine(g, np.zeros(10, dtype=np.int64), 2, state=state)

    def test_chained_passes_share_one_state(self):
        """rebalance → greedy on one state gives the same result as the
        rebuild-per-pass path (what mlkp relies on)."""
        g = random_process_network(30, 60, seed=3, node_weight_range=(1, 4))
        a = np.zeros(30, dtype=np.int64)
        cap = 1.2 * g.total_node_weight / 3

        state = RefinementState(g, a, 3)
        r1 = rebalance_pass(g, a, 3, cap, state=state)
        o1 = greedy_kway_refine(
            g, r1, 3, max_part_weight=cap, seed=9, state=state
        ).copy()

        r2 = rebalance_pass(g, a, 3, cap)
        o2 = greedy_kway_refine(g, r2, 3, max_part_weight=cap, seed=9)
        np.testing.assert_array_equal(o1, o2)

    def test_fm_leaves_state_at_returned_assignment(self):
        g = random_process_network(20, 40, seed=2)
        rng = as_rng(4)
        a = rng.integers(0, 3, size=20)
        cons = ConstraintSpec(bmax=9.0, rmax=1.2 * g.total_node_weight / 3)
        state = RefinementState(g, a, 3)
        out = constrained_kway_fm(g, a, 3, cons, seed=1, state=state)
        np.testing.assert_array_equal(out, state.assign)
        m = state.metrics(cons)
        ref = evaluate_partition(g, out, 3, cons)
        assert m.cut == pytest.approx(ref.cut, abs=1e-9)
        assert m.total_violation == pytest.approx(ref.total_violation, abs=1e-9)


class TestEdgeCases:
    def test_single_part(self):
        g = random_process_network(8, 14, seed=0)
        a = np.zeros(8, dtype=np.int64)
        state = RefinementState(g, a, 1)
        assert state.cut == 0.0
        assert state.boundary_nodes().size == 0
        out = greedy_kway_refine(g, a, 1, seed=0)
        np.testing.assert_array_equal(out, a)

    def test_edgeless_graph(self):
        g = WGraph(5, [], node_weights=[2, 1, 1, 1, 1])
        a = np.array([0, 0, 1, 1, 1])
        state = RefinementState(g, a, 2)
        assert state.cut == 0.0
        assert state.boundary_nodes().size == 0
        cons = ConstraintSpec(bmax=1.0, rmax=100.0)
        out = constrained_kway_fm(g, a, 2, cons, seed=0)
        np.testing.assert_array_equal(out, a)

    def test_zero_weight_edges_keep_boundary_exact(self):
        """Boundary membership is by *adjacency*, not by weight: a
        zero-weight crossing edge still marks its endpoints as boundary."""
        g = WGraph(4, [(0, 1, 0.0), (2, 3, 5.0)])
        a = np.array([0, 1, 0, 0])
        state = RefinementState(g, a, 2)
        assert set(state.boundary_nodes().tolist()) == {0, 1}
