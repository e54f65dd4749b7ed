"""The engine's single-node paths against their frozen predecessors.

``RefinementState._node_move`` (one fused scoring-and-selection loop),
``_escape_move`` (a masked numpy lexicographic min over ``move_deltas``
rows) and ``DenseConnStore.apply_move`` (scalar writes below a degree
threshold) were rewritten for speed with the same float operations in
the same order.  Their predecessors are frozen in
``benchmarks/_legacy_refine.py``; here both run on the same states and
must return bit-identical tuples (``float.hex`` tells ``-0.0`` from
``0.0``) and leave byte-identical store arrays.

Weights are fractional (arbitrary doubles), where a reordered sum shows
in the last bits, unlike the integer weights the engine's other suites
use; the bandwidth cap sits low so its relu terms are active.
"""

import sys
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))
from _legacy_refine import (  # noqa: E402
    legacy_dense_apply_move,
    legacy_escape_move,
    legacy_node_entries,
    legacy_node_move,
    legacy_select_escape,
)

from repro.graph import WGraph  # noqa: E402
from repro.graph.generators import multicast_network  # noqa: E402
from repro.hypergraph.refine_state import HyperRefinementState  # noqa: E402
from repro.partition import conn_store  # noqa: E402
from repro.partition.conn_store import DenseConnStore  # noqa: E402
from repro.partition.metrics import ConstraintSpec  # noqa: E402
from repro.partition.refine_state import RefinementState  # noqa: E402
from repro.partition.vector_state import (  # noqa: E402
    VectorConstraints,
    VectorRefinementState,
)
from repro.util.rng import as_rng  # noqa: E402

N, K = 30, 5


def _bits(move):
    """A move tuple with its floats as exact hex strings."""
    if move is None:
        return None
    dv, dc, dest = move
    return (float(dv).hex(), float(dc).hex(), dest)


def _fractional_graph(rng) -> WGraph:
    """Random edges plus a hub of degree ``N - 1`` (so moves on both sides
    of the dense store's scalar-update threshold occur), fractional
    edge and node weights."""
    pairs = {(0, v) for v in range(1, N)}
    while len(pairs) < 3 * N:
        u, v = sorted(rng.choice(N, size=2, replace=False).tolist())
        pairs.add((u, v))
    edges = [(u, v, float(rng.uniform(0.05, 3.0))) for u, v in sorted(pairs)]
    return WGraph(N, edges, node_weights=rng.uniform(0.5, 4.0, size=N))


def test_hub_straddles_the_scalar_threshold():
    g = _fractional_graph(as_rng(0))
    deg = np.diff(g.csr[0])
    assert deg.max() >= conn_store._SCALAR_MOVE_MAX_DEG > deg.min()


@given(
    seed=st.integers(0, 10**6),
    conn_format=st.sampled_from(["dense", "sparse"]),
    vector=st.booleans(),
    finite_bmax=st.booleans(),
    escape=st.booleans(),
)
@settings(max_examples=80, deadline=None)
def test_node_and_escape_moves_bit_identical(
    seed, conn_format, vector, finite_bmax, escape
):
    rng = as_rng(seed)
    g = _fractional_graph(rng)
    a = rng.integers(0, K, size=N)
    if escape:
        # one heavy part; the cap sits below the three heaviest, so both
        # ends of a move can be over it
        a[: N // 2] = 0
    bmax = 0.4 * g.total_edge_weight / K if finite_bmax else np.inf
    if vector:
        w = rng.uniform(0.5, 9.0, size=(N, 2))
        state = VectorRefinementState(g, w, a, K, conn_format=conn_format)
        cap = (np.sort(state.loads, axis=0)[-3] - 0.5 if escape
               else 1.3 * w.sum(0) / K)
        cons = VectorConstraints(bmax=bmax, rmax=tuple(cap))
    else:
        state = RefinementState(g, a, K, conn_format=conn_format)
        cap = (np.sort(state.part_weight)[-3] - 0.5 if escape
               else 1.3 * g.total_node_weight / K)
        cons = ConstraintSpec(bmax=bmax, rmax=cap)
    if escape:
        assert state.overloaded_mask(cons).any()
    for _ in range(3):  # fresh state, then after moves leave float dust
        view = state._view(cons)
        for u in range(N):
            src = int(state.assign[u])
            assert state._store.node_entries(u) == legacy_node_entries(
                state._store, u
            )
            assert _bits(state._node_move(u, src, cons, view)) == _bits(
                legacy_node_move(state, u, src, cons, view)
            )
            assert _bits(state._escape_move(u, src, cons)) == _bits(
                legacy_escape_move(state, u, src, cons)
            )
        for u in rng.choice(N, size=6, replace=False):
            state.move(int(u), int(rng.integers(0, K)))


@given(seed=st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_dense_apply_move_bit_identical(seed):
    rng = as_rng(seed)
    g = _fractional_graph(rng)
    a = rng.integers(0, K, size=N)
    new, old = DenseConnStore(g, a, K), DenseConnStore(g, a, K)
    for _ in range(25):
        u = int(rng.integers(0, N))
        dest = int(rng.integers(0, K))
        if dest == a[u]:
            continue
        nbrs, ws = g.neighbor_weights(u)
        new.apply_move(int(a[u]), dest, nbrs, ws)
        legacy_dense_apply_move(old, int(a[u]), dest, nbrs, ws)
        a[u] = dest
    assert new.conn.tobytes() == old.conn.tobytes()
    assert new.ncnt.tobytes() == old.ncnt.tobytes()


@given(seed=st.integers(0, 10**6), finite_bmax=st.booleans())
@settings(max_examples=30, deadline=None)
def test_hyper_escape_selection_bit_identical(seed, finite_bmax):
    """The Φ engine's escape path shares the masked selection."""
    rng = as_rng(seed)
    hg = multicast_network(24, seed % 7, fanout=3)
    k = 4
    state = HyperRefinementState(hg, rng.integers(0, k, size=hg.n), k)
    total = float(hg.node_weights.sum())
    cons = ConstraintSpec(
        bmax=0.3 * float(hg.net_weights.sum()) if finite_bmax else np.inf,
        rmax=1.1 * total / k,
    )
    for u in range(hg.n):
        src = int(state.assign[u])
        dv, dc = state.move_deltas(u, cons)
        assert _bits(state._escape_move(u, src, cons)) == _bits(
            legacy_select_escape(dv, dc, src)
        )
