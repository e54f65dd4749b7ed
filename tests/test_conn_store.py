"""Sparse vs dense connectivity stores: differential + memory tests.

The sparse store's contract is *bit-identity* with the dense one under
integer-valued weights (the invariant every pinned corpus holds — see
``conn_store``'s module docstring).  The tests here enforce it at every
layer: raw store queries, move/rollback sequences through the engine,
each refinement driver (FM, greedy k-way, flow), the
vector-resource engine, and the end-to-end partitioners.  The memory
half pins the point of the exercise: the sparse footprint gauge on a
bounded-degree graph at k=64 lands far below the dense ``16·k·n``.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

import repro.obs as _obs
from repro.graph import random_process_network
from repro.graph.wgraph import WGraph
from repro.hypergraph import HGraph
from repro.hypergraph.refine_state import HyperRefinementState
from repro.partition.conn_store import (
    AUTO_SPARSE_CELLS,
    DenseConnStore,
    SparseConnStore,
    check_conn_format,
    make_conn_store,
)
from repro.partition.flow_refine import run_flow_refine
from repro.partition.gp import GPConfig, gp_partition
from repro.partition.kway_refine import (
    constrained_kway_fm,
    greedy_kway_refine,
    run_constrained_fm,
)
from repro.partition.metrics import ConstraintSpec, evaluate_partition
from repro.partition.mlkp import MLKP_CONFIG, mlkp_partition
from repro.partition.refine_state import (
    RefinementState,
    constrained_key,
    upper_flat_index,
)
from repro.partition.vector_state import VectorConstraints, VectorRefinementState
from repro.util.errors import PartitionError

# (n, m, k, seed) — integer weights by construction (random_process_network)
CORPUS = [
    (30, 70, 4, 0),
    (40, 90, 3, 1),
    (60, 150, 6, 2),
    (80, 200, 8, 3),
]


def _case(n, m, k, seed):
    g = random_process_network(n, m, seed=seed)
    a = np.random.default_rng(seed).integers(0, k, size=n).astype(np.int64)
    return g, a


def _ring_chord_graph(n: int, strides=(7, 101)) -> WGraph:
    """Bounded-degree graph (ring + chords, degree ≈ ``2·(1+len(strides))``).

    Built through ``_from_canonical`` so construction is O(m) numpy — the
    memory smoke below needs hundreds of thousands of nodes.
    """
    base = np.arange(n, dtype=np.int64)
    u = np.concatenate([base] * (1 + len(strides)))
    v = np.concatenate([(base + 1) % n] + [(base + s) % n for s in strides])
    eu, ev = np.minimum(u, v), np.maximum(u, v)
    order = np.lexsort((ev, eu))
    eu, ev = eu[order], ev[order]
    keep = np.ones(eu.size, dtype=bool)
    keep[1:] = (eu[1:] != eu[:-1]) | (ev[1:] != ev[:-1])
    eu, ev = eu[keep], ev[keep]
    return WGraph._from_canonical(
        n, eu, ev, np.ones(eu.size), np.ones(n)
    )


def _assert_stores_equal(sd: DenseConnStore, ss: SparseConnStore, g, assign):
    np.testing.assert_array_equal(sd.dense_conn(), ss.dense_conn())
    np.testing.assert_array_equal(sd.dense_counts(), ss.dense_counts())
    rng = np.random.default_rng(0)
    nodes = rng.integers(0, g.n, size=min(10, g.n))
    for u in nodes:
        np.testing.assert_array_equal(sd.col(int(u)), ss.col(int(u)))
        src = int(assign[u])
        dest = (src + 1) % sd.k
        assert sd.gain_pair(int(u), src, dest) == ss.gain_pair(
            int(u), src, dest
        )
    parts = rng.integers(0, sd.k, size=g.n)
    np.testing.assert_array_equal(sd.conn_at(parts), ss.conn_at(parts))
    np.testing.assert_array_equal(
        sd.same_part_counts(assign), ss.same_part_counts(assign)
    )
    np.testing.assert_array_equal(
        sd.gather_cols(nodes), ss.gather_cols(nodes)
    )
    cols = sd.gather_cols(nodes)
    positive = np.nonzero(cols > 0)  # (row, part), row-major order
    for got in (sd.entries(nodes), ss.entries(nodes)):
        np.testing.assert_array_equal(got[0], positive[0])
        np.testing.assert_array_equal(got[1], positive[1])
        np.testing.assert_array_equal(got[2], cols[positive])
    for c in range(sd.k):
        np.testing.assert_array_equal(sd.touching(c), ss.touching(c))


# --------------------------------------------------------------------- #
# store-level parity
# --------------------------------------------------------------------- #
class TestStoreParity:
    @pytest.mark.parametrize("n,m,k,seed", CORPUS)
    def test_fresh_stores_agree(self, n, m, k, seed):
        g, a = _case(n, m, k, seed)
        sd = make_conn_store(g, a, k, "dense")
        ss = make_conn_store(g, a, k, "sparse")
        assert sd.format == "dense" and ss.format == "sparse"
        _assert_stores_equal(sd, ss, g, a)

    @pytest.mark.parametrize("n,m,k,seed", CORPUS)
    def test_stores_agree_through_moves(self, n, m, k, seed):
        g, a = _case(n, m, k, seed)
        sd = make_conn_store(g, a.copy(), k, "dense")
        ss = make_conn_store(g, a.copy(), k, "sparse")
        assign = a.copy()
        rng = np.random.default_rng(seed + 100)
        for _ in range(200):
            u = int(rng.integers(0, n))
            src = int(assign[u])
            dest = int(rng.integers(0, k))
            if dest == src:
                continue
            nbrs, ws = g.neighbor_weights(u)
            sd.apply_move(src, dest, nbrs, ws)
            ss.apply_move(src, dest, nbrs, ws)
            assign[u] = dest
        _assert_stores_equal(sd, ss, g, assign)
        # capacity invariant: live entries never exceed min(deg, k)
        cap = ss.indptr[1:] - ss.indptr[:-1]
        assert np.all(ss.nnz <= cap)
        assert np.all(ss.counts[np.repeat(
            np.arange(n), ss.nnz)] >= 0)

    def test_copy_is_independent(self):
        g, a = _case(*CORPUS[0])
        k = CORPUS[0][2]
        ss = make_conn_store(g, a, k, "sparse")
        clone = ss.copy()
        nbrs, ws = g.neighbor_weights(0)
        ss.apply_move(int(a[0]), (int(a[0]) + 1) % k, nbrs, ws)
        sd = make_conn_store(g, a, k, "dense")
        np.testing.assert_array_equal(clone.dense_conn(), sd.dense_conn())

    def test_auto_threshold(self, monkeypatch):
        g, a = _case(*CORPUS[0])
        k = CORPUS[0][2]
        assert make_conn_store(g, a, k, "auto").format == "dense"
        monkeypatch.setattr(
            "repro.partition.conn_store.AUTO_SPARSE_CELLS", k * g.n - 1
        )
        assert make_conn_store(g, a, k, "auto").format == "sparse"
        assert AUTO_SPARSE_CELLS > 0  # module constant untouched outside

    def test_check_conn_format_rejects_junk(self):
        with pytest.raises(PartitionError, match="conn_format"):
            check_conn_format("csr")


# --------------------------------------------------------------------- #
# sparse moves through hubs, zero weights and emptied parts
# --------------------------------------------------------------------- #
@hst.composite
def _hub_graph_moves(draw):
    """A graph whose node 0 neighbours many nodes, integer edge weights in
    0..3 (zero-weight edges included), a start assignment, and a move
    sequence that opens with the hub, then random moves, then drains one
    part completely and refills it."""
    hub_deg = draw(hst.integers(8, 40))
    n = hub_deg + 1 + draw(hst.integers(0, 12))
    k = draw(hst.integers(2, 6))
    node = hst.integers(0, n - 1)
    extra = draw(hst.lists(hst.tuples(node, node), max_size=3 * n))
    weights = draw(hst.lists(
        hst.integers(0, 3), min_size=hub_deg + len(extra),
        max_size=hub_deg + len(extra),
    ))
    pairs = [(0, v) for v in range(1, hub_deg + 1)] + extra
    edges = [(u, v, w) for (u, v), w in zip(pairs, weights) if u != v]
    g = WGraph(n, edges)
    assign = draw(hst.lists(hst.integers(0, k - 1), min_size=n, max_size=n))
    moves = [(0, (assign[0] + 1) % k)] + draw(hst.lists(
        hst.tuples(node, hst.integers(0, k - 1)), max_size=40,
    ))
    drained = draw(hst.integers(0, k - 1))
    return g, k, np.array(assign, dtype=np.int64), moves, drained


class TestSparseMoves:
    @settings(max_examples=60, deadline=None)
    @given(_hub_graph_moves())
    def test_moves_match_dense_store(self, case):
        """After every move the sparse store holds the dense store's
        connectivity and counts, and no slice outgrows its capacity —
        through zero-weight edges, hub moves, and a part drained empty
        and refilled."""
        g, k, assign, moves, drained = case
        ss = SparseConnStore(g, assign, k)
        sd = DenseConnStore(g, assign, k)
        cap = ss.indptr[1:] - ss.indptr[:-1]
        assign = assign.copy()

        def move(u, dest):
            src = int(assign[u])
            if dest == src:
                return
            nbrs, ws = g.neighbor_weights(u)
            ss.apply_move(src, dest, nbrs, ws)
            sd.apply_move(src, dest, nbrs, ws)
            assign[u] = dest
            np.testing.assert_array_equal(ss.dense_conn(), sd.dense_conn())
            np.testing.assert_array_equal(
                ss.dense_counts(), sd.dense_counts()
            )
            assert np.all(ss.nnz <= cap)

        for u, dest in moves:
            move(u, dest)
        members = np.flatnonzero(assign == drained).tolist()
        for u in members:
            move(u, (drained + 1) % k)
        assert not np.any(assign == drained)
        for u in members:
            move(u, drained)


# --------------------------------------------------------------------- #
# the FM key
# --------------------------------------------------------------------- #
def _triu_key(bw, part_weight, constraints):
    """The FM key as the two-dimensional ``bw[triu_indices]`` gather."""
    upper = bw[np.triu_indices(bw.shape[0], 1)]
    cut = float(upper.sum())
    v = 0.0
    if np.isfinite(constraints.rmax):
        v += float(np.maximum(part_weight - constraints.rmax, 0.0).sum())
    if np.isfinite(constraints.bmax):
        v += float(np.maximum(upper - constraints.bmax, 0.0).sum())
    return (v, cut)


_KEY_BOUNDS = [
    ConstraintSpec(),
    ConstraintSpec(rmax=2.5),
    ConstraintSpec(bmax=0.75),
    ConstraintSpec(bmax=0.75, rmax=2.5),
]


class TestKey:
    @pytest.mark.parametrize("cons", _KEY_BOUNDS, ids=repr)
    @pytest.mark.parametrize("k", [1, 2, 5, 64])
    def test_flat_take_equals_triu_gather(self, k, cons):
        rng = np.random.default_rng(k)
        bw = rng.random((k, k)) * 3.0
        bw = bw + bw.T
        np.fill_diagonal(bw, 0.0)
        part_weight = rng.random(k) * 4.0
        got = constrained_key(bw, part_weight, upper_flat_index(k), cons)
        want = _triu_key(bw, part_weight, cons)
        assert [x.hex() for x in got] == [x.hex() for x in want]

    @pytest.mark.parametrize("cons", _KEY_BOUNDS, ids=repr)
    def test_engine_keys_equal_triu_gather(self, cons):
        g = random_process_network(60, 150, seed=2)
        k = 6
        a = np.random.default_rng(2).integers(0, k, size=g.n)
        states = [
            RefinementState(g, a, k, conn_format="dense"),
            RefinementState(g, a, k, conn_format="sparse"),
            HyperRefinementState(HGraph.from_wgraph(g), a, k),
        ]
        rng = np.random.default_rng(3)
        for _ in range(30):
            u, dest = int(rng.integers(0, g.n)), int(rng.integers(0, k))
            for st in states:
                st.move(u, dest)
                assert st.key(cons) == _triu_key(
                    st.bw, st.part_weight, cons
                )
                assert st.cut == st.key(cons)[1]


# --------------------------------------------------------------------- #
# engine-level parity (move protocol, rollback, every driver)
# --------------------------------------------------------------------- #
def _engine_pair(g, a, k):
    return (
        RefinementState(g, a.copy(), k, conn_format="dense"),
        RefinementState(g, a.copy(), k, conn_format="sparse"),
    )


class TestEngineParity:
    @pytest.mark.parametrize("n,m,k,seed", CORPUS)
    def test_moves_and_rollback(self, n, m, k, seed):
        g, a = _case(n, m, k, seed)
        st_d, st_s = _engine_pair(g, a, k)
        assert st_d.conn_format == "dense" and st_s.conn_format == "sparse"
        rng = np.random.default_rng(seed)
        marks = (st_d.snapshot(), st_s.snapshot())
        moved = 0
        for _ in range(150):
            u = int(rng.integers(0, n))
            dest = int(rng.integers(0, k))
            if dest == int(st_d.assign[u]):
                continue
            st_d.move(u, dest)
            st_s.move(u, dest)
            moved += 1
            if moved == 60:
                marks = (st_d.snapshot(), st_s.snapshot())
        np.testing.assert_array_equal(st_d.conn, st_s.conn)
        np.testing.assert_array_equal(st_d.ncnt, st_s.ncnt)
        np.testing.assert_array_equal(
            st_d.boundary_mask(), st_s.boundary_mask()
        )
        assert st_d.cut == st_s.cut
        cons = ConstraintSpec(bmax=50.0, rmax=30.0)
        assert st_d.key(cons) == st_s.key(cons)
        st_d.rollback(marks[0])
        st_s.rollback(marks[1])
        np.testing.assert_array_equal(st_d.assign, st_s.assign)
        np.testing.assert_array_equal(st_d.conn, st_s.conn)
        np.testing.assert_array_equal(st_d.ncnt, st_s.ncnt)

    @pytest.mark.parametrize("n,m,k,seed", CORPUS)
    def test_constrained_fm_parity(self, n, m, k, seed):
        g, a = _case(n, m, k, seed)
        cons = ConstraintSpec(
            bmax=0.2 * g.total_edge_weight,
            rmax=float(np.ceil(1.2 * g.total_node_weight / k)),
        )
        st_d, st_s = _engine_pair(g, a, k)
        out_d = run_constrained_fm(st_d, g.n, g.neighbors, cons, seed=seed)
        out_s = run_constrained_fm(st_s, g.n, g.neighbors, cons, seed=seed)
        np.testing.assert_array_equal(out_d, out_s)
        assert st_d.key(cons) == st_s.key(cons)

    @pytest.mark.parametrize("n,m,k,seed", CORPUS[:2])
    def test_greedy_kway_parity(self, n, m, k, seed):
        g, a = _case(n, m, k, seed)
        cap = float(np.ceil(1.1 * g.total_node_weight / k))
        st_d, st_s = _engine_pair(g, a, k)
        out_d = greedy_kway_refine(
            g, a.copy(), k, max_part_weight=cap, seed=seed, state=st_d
        )
        out_s = greedy_kway_refine(
            g, a.copy(), k, max_part_weight=cap, seed=seed, state=st_s
        )
        np.testing.assert_array_equal(out_d, out_s)

    @pytest.mark.parametrize("n,m,k,seed", CORPUS[:2])
    def test_flow_refine_parity(self, n, m, k, seed):
        g, a = _case(n, m, k, seed)
        cons = ConstraintSpec(
            bmax=0.2 * g.total_edge_weight,
            rmax=float(np.ceil(1.2 * g.total_node_weight / k)),
        )
        st_d, st_s = _engine_pair(g, a, k)
        out_d = run_flow_refine(st_d, cons)
        out_s = run_flow_refine(st_s, cons)
        np.testing.assert_array_equal(out_d, out_s)

    @pytest.mark.parametrize("n,m,k,seed", CORPUS[:2])
    def test_vector_engine_parity(self, n, m, k, seed):
        g, a = _case(n, m, k, seed)
        rng = np.random.default_rng(seed)
        w = rng.integers(1, 5, size=(n, 3)).astype(np.float64)
        caps = tuple(float(np.ceil(1.3 * w[:, r].sum() / k)) for r in range(3))
        cons = VectorConstraints(bmax=0.2 * g.total_edge_weight, rmax=caps)
        st_d = VectorRefinementState(g, w, a.copy(), k, conn_format="dense")
        st_s = VectorRefinementState(g, w, a.copy(), k, conn_format="sparse")
        out_d = run_constrained_fm(st_d, g.n, g.neighbors, cons, seed=seed)
        out_s = run_constrained_fm(st_s, g.n, g.neighbors, cons, seed=seed)
        np.testing.assert_array_equal(out_d, out_s)

    def test_recompute_preserves_format(self):
        g, a = _case(*CORPUS[0])
        k = CORPUS[0][2]
        st = RefinementState(g, a, k, conn_format="sparse")
        st.move(0, (int(a[0]) + 1) % k)
        st.recompute()
        assert st.conn_format == "sparse"


# --------------------------------------------------------------------- #
# escape seeds: global FM from an empty boundary
# --------------------------------------------------------------------- #
class TestEscapeSeeds:
    def test_empty_seed_set_still_fixes_violations(self):
        # everything in part 0 leaves an empty boundary: only the
        # overloaded-node (escape) seeds can start the pass
        g, a = _case(*CORPUS[0])
        k = CORPUS[0][2]
        a = np.zeros(g.n, dtype=np.int64)  # everything violates rmax
        cons = ConstraintSpec(
            rmax=float(np.ceil(1.5 * g.total_node_weight / k))
        )
        out = constrained_kway_fm(g, a, k, cons, seed=0)
        after = evaluate_partition(g, out, k, cons)
        before = evaluate_partition(g, a, k, cons)
        assert before.total_violation > 0 and after.total_violation == 0


# --------------------------------------------------------------------- #
# end-to-end parity + knob honesty
# --------------------------------------------------------------------- #
class TestEndToEnd:
    def test_gp_sparse_equals_dense(self):
        g = random_process_network(50, 120, seed=4)
        cons = ConstraintSpec(
            bmax=0.3 * g.total_edge_weight,
            rmax=float(np.ceil(1.3 * g.total_node_weight / 4)),
        )
        outs = {
            fmt: gp_partition(
                g, 4, cons, config=GPConfig(max_cycles=2, conn_format=fmt),
                seed=0,
            )
            for fmt in ("dense", "sparse")
        }
        np.testing.assert_array_equal(
            outs["dense"].assign, outs["sparse"].assign
        )

    def test_mlkp_sparse_equals_dense(self):
        g = random_process_network(60, 140, seed=5)
        outs = {
            fmt: mlkp_partition(
                g, 4, config=replace(MLKP_CONFIG, conn_format=fmt), seed=0
            )
            for fmt in ("dense", "sparse")
        }
        np.testing.assert_array_equal(
            outs["dense"].assign, outs["sparse"].assign
        )

    def test_partition_graph_knob(self):
        from repro.core.api import partition_graph

        g = random_process_network(40, 90, seed=6)
        r_d = partition_graph(g, 3, seed=0, conn_format="dense")
        r_s = partition_graph(g, 3, seed=0, conn_format="sparse")
        np.testing.assert_array_equal(r_d.assign, r_s.assign)

    def test_vector_path_sparse_equals_dense(self):
        # the vector engine honours conn_format (auto picks dense at this
        # size, so a sparse store proves the knob reached the engine),
        # and the partitions agree
        from repro.core.api import partition_graph

        g = random_process_network(40, 90, seed=7, node_weight_range=(1, 6))
        w = np.random.default_rng(7).integers(1, 5, size=(g.n, 2))
        caps = tuple(float(np.ceil(1.3 * c / 3)) for c in w.sum(axis=0))
        outs = {}
        for fmt in ("dense", "sparse"):
            with _obs.capture(memory=True) as cap:
                outs[fmt] = partition_graph(
                    g, 3, bmax=0.3 * g.total_edge_weight, rmax=caps,
                    resources=w.astype(float), seed=0, cache=False,
                    conn_format=fmt,
                )
            assert fmt in _conn_gauges(cap)
        np.testing.assert_array_equal(
            outs["dense"].assign, outs["sparse"].assign
        )
        assert outs["dense"].metrics == outs["sparse"].metrics

    def test_partition_graph_rejects_unsupported(self):
        from repro.core.api import partition_graph

        g = random_process_network(20, 40, seed=7)
        # no refinement engine, no store (Φ engine), no such config field
        for structure, method in ((g, "spectral"),
                                  (HGraph.from_wgraph(g), "gp"),
                                  (g, "evolve")):
            with pytest.raises(PartitionError, match="conn_format"):
                partition_graph(structure, 2, method=method,
                                conn_format="sparse")
        with pytest.raises(PartitionError, match="conn_format"):
            partition_graph(g, 2, conn_format="blocked")

    def test_gpconfig_validates(self):
        with pytest.raises(PartitionError, match="conn_format"):
            GPConfig(conn_format="csr")

    @pytest.mark.parametrize("engine", ["graph", "vector"])
    def test_initial_partitioning_honours_format(self, monkeypatch, engine):
        """Every state a ``conn_format="sparse"`` run builds — initial
        partitioning's included — is sparse, and the run returns the
        assignment of a dense run."""
        from repro.core.api import partition_graph
        from repro.partition import refine_state

        built = []
        real = refine_state.make_conn_store

        def spy(*args):
            store = real(*args)
            built.append(store.format)
            return store

        monkeypatch.setattr(refine_state, "make_conn_store", spy)
        g = random_process_network(60, 140, seed=8, node_weight_range=(1, 6))
        kwargs = dict(bmax=0.3 * g.total_edge_weight, seed=0)
        if engine == "vector":
            w = np.random.default_rng(8).integers(1, 5, size=(g.n, 2))
            kwargs["rmax"] = tuple(
                float(np.ceil(1.3 * c / 4)) for c in w.sum(axis=0)
            )
            kwargs.update(resources=w.astype(float), cache=False)
        else:
            kwargs["rmax"] = float(np.ceil(1.3 * g.total_node_weight / 4))
        outs = {}
        for fmt in ("dense", "sparse"):
            built.clear()
            cfg = GPConfig(max_cycles=2, conn_format=fmt)
            outs[fmt] = partition_graph(g, 4, config=cfg, **kwargs)
            # restarts=10 initial states, then the refinement states
            assert len(built) > 10 and set(built) == {fmt}
        np.testing.assert_array_equal(
            outs["dense"].assign, outs["sparse"].assign
        )


# --------------------------------------------------------------------- #
# memory
# --------------------------------------------------------------------- #
def _conn_gauges(cap):
    gauges = cap.metrics.get("gauges", {}).get("mem.alloc_bytes", {})
    return {
        dict(key).get("format"): value
        for key, value in gauges.items()
        if dict(key).get("site") == "refine_state.conn"
    }


class TestMemory:
    def test_gauge_reports_store_footprint(self):
        g = _ring_chord_graph(2000)
        a = np.random.default_rng(0).integers(0, 8, size=g.n)
        with _obs.capture(memory=True) as cap:
            st = RefinementState(g, a, 8, conn_format="sparse")
        by_format = _conn_gauges(cap)
        assert by_format["sparse"] == st._store.nbytes
        assert st._store.nbytes < 16 * 8 * g.n  # below the dense figure

    @pytest.mark.slow
    def test_sparse_footprint_200k_k64(self):
        n, k = 200_000, 64
        g = _ring_chord_graph(n)
        a = np.random.default_rng(0).integers(0, k, size=n)
        with _obs.capture(memory=True) as cap:
            st_s = RefinementState(g, a, k, conn_format="sparse")
            st_d = RefinementState(g, a, k, conn_format="dense")
        by_format = _conn_gauges(cap)
        assert by_format["dense"] == 16 * k * n
        assert by_format["sparse"] < 0.25 * by_format["dense"]
        # auto picks sparse up here (k·n = 12.8M cells > threshold) ...
        assert k * n > AUTO_SPARSE_CELLS
        # ... and both formats agree on the queries that drive refinement
        np.testing.assert_array_equal(
            st_d.boundary_mask(), st_s.boundary_mask()
        )
        assert st_d.cut == st_s.cut
