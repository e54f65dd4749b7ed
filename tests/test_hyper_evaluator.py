"""The Φ engine's degree-local move evaluator.

:meth:`HyperRefinementState.best_move` and ``best_moves`` score only the
parts a node's nets reach (escape nodes: all parts).  They must pick
exactly the move a brute-force scan over the full k-wide ``move_deltas``
row picks, restricted to the candidate set ``connection_vector(u) > 0``
(every part under the escape rule); the per-node loop and the batch pass
must return identical tuples; and an FM pass with no overloaded part must
never fall back to the k-wide row.  Integer weights and integer ``Bmax``
— the exactness contract.  The graph-engine counterpart is
``tests/test_refine_invariants.py::TestDegreeLocalEvaluator``.
"""

import contextlib

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import multicast_network
from repro.hypergraph import HGraph, HyperRefinementState, constrained_hyper_fm
from repro.hypergraph import refine_state
from repro.partition.metrics import ConstraintSpec
from repro.util.rng import as_rng


@contextlib.contextmanager
def _batch_threshold(value):
    saved = refine_state._BATCH_MIN_NODES
    refine_state._BATCH_MIN_NODES = value
    try:
        yield
    finally:
        refine_state._BATCH_MIN_NODES = saved


def _brute_best_move(state, u, cons):
    """Lexicographic min of ``(dv, dc, dest)`` over the full
    ``move_deltas`` row: the parts with ``connection_vector(u) > 0``, or
    every part when *u*'s part is over budget (the escape rule)."""
    src = int(state.assign[u])
    dv, dc = state.move_deltas(u, cons)
    if state.overloaded_mask(cons)[src]:
        cand = range(state.k)
    else:
        cand = np.nonzero(state.connection_vector(u) > 0.0)[0]
    keys = [(float(dv[d]), float(dc[d]), int(d)) for d in cand if d != src]
    return min(keys) if keys else None


def _random_hypergraph(rng, n):
    """Multi-pin nets over all but the last two nodes (which stay
    netless), with single-pin nets and zero-weight nets mixed in."""
    nets = []
    for _ in range(2 * n):
        size = int(rng.integers(1, 6))
        pins = rng.choice(n - 2, size=size, replace=False)
        nets.append((pins.tolist(), float(rng.integers(0, 7))))
    return HGraph(n, nets, node_weights=rng.integers(1, 10, size=n))


def _check_all_paths(state, cons, rng):
    n = state.hg.n
    nodes = rng.permutation(n)
    expected = [_brute_best_move(state, int(u), cons) for u in nodes]
    # best_moves has a per-node loop and a numpy pass: force each
    for threshold in (0, 10**9):
        with _batch_threshold(threshold):
            assert state.best_moves(nodes, cons) == expected
    # batches just below and at the default threshold
    t = refine_state._BATCH_MIN_NODES
    for size in (1, t - 1, t, t + 1):
        assert state.best_moves(nodes[:size], cons) == expected[:size]
    assert [state.best_move(int(u), cons) for u in nodes] == expected


class TestDegreeLocalEvaluator:
    @given(
        seed=st.integers(0, 4000),
        finite_bmax=st.booleans(),
        escape=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_best_moves_equal_brute_force(self, seed, finite_bmax, escape):
        rng = as_rng(seed)
        n, k = 16, 5
        hg = _random_hypergraph(rng, n)
        a = rng.integers(0, k, size=n)
        if escape:
            a[: n // 2] = 0  # one heavy part, so a cap below its load bites
        bmax = (
            float(np.ceil(hg.total_net_weight / k)) if finite_bmax else np.inf
        )
        state = HyperRefinementState(hg, a, k)
        cap = (
            state.part_weight.max() - 1.0 if escape
            else 1.3 * hg.total_node_weight / k
        )
        cons = ConstraintSpec(bmax=bmax, rmax=float(cap))
        if escape:
            assert state.overloaded_mask(cons).any()
        for _ in range(3):  # fresh state, then after a few moves
            _check_all_paths(state, cons, rng)
            _check_all_paths(state.copy(), cons, rng)
            # move two roots (their nets' traffic is re-attributed) and
            # one arbitrary node
            roots = hg.roots[rng.choice(hg.n_nets, size=2)]
            for u in [*roots.tolist(), int(rng.integers(0, n))]:
                state.move(int(u), int(rng.integers(0, k)))

    def test_zero_weight_net_reaches_no_candidate(self):
        """Part 1 is reached only through a zero-weight net, so node 0's
        only candidate is part 2, although part 1 would cost less."""
        hg = HGraph(4, [((0, 1), 0.0), ((0, 2, 3), 3.0)])
        a = np.array([0, 1, 2, 2])
        state = HyperRefinementState(hg, a, 3)
        cons = ConstraintSpec()
        assert state.connection_vector(0).tolist() == [0.0, 0.0, 3.0]
        expected = (0.0, -3.0, 2)
        assert state.best_move(0, cons) == expected
        with _batch_threshold(0):
            assert state.best_moves(np.array([0]), cons) == [expected]


class TestFastPath:
    def test_fm_pass_without_overload_never_scores_k_wide(self, monkeypatch):
        """No part is over the cap, so no node is an escape node: one FM
        pass must score every move degree-locally and never build a
        k-wide ``move_deltas`` row nor a ``connection_vector``."""
        calls = {"move_deltas": 0, "connection_vector": 0, "scored": 0}
        real_moves = HyperRefinementState.best_moves

        def counting(name):
            real = getattr(HyperRefinementState, name)

            def wrapper(self, *args, **kwargs):
                calls[name] += 1
                return real(self, *args, **kwargs)

            return wrapper

        def scored(self, nodes, constraints):
            calls["scored"] += len(nodes)
            return real_moves(self, nodes, constraints)

        for name in ("move_deltas", "connection_vector"):
            monkeypatch.setattr(HyperRefinementState, name, counting(name))
        monkeypatch.setattr(HyperRefinementState, "best_moves", scored)
        hg = multicast_network(120, seed=0, fanout=8)
        k = 8
        a = as_rng(0).integers(0, k, size=hg.n)
        for bmax in (np.inf, 400.0):
            cons = ConstraintSpec(bmax=bmax, rmax=hg.total_node_weight)
            state = HyperRefinementState(hg, a, k)
            assert not state.overloaded_mask(cons).any()
            constrained_hyper_fm(
                hg, a, k, cons, max_passes=1, seed=0, state=state
            )
        assert calls["scored"] > hg.n  # the pass did score moves
        assert calls["move_deltas"] == 0
        assert calls["connection_vector"] == 0
