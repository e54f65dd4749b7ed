"""Differential tests: Φ engine vs the graph edge-cut engine on the 2-pin
degenerate case.

Every net of a 2-pin-only hypergraph is an edge, the (λ−1) connectivity
objective *is* the weighted edge cut, and the root-attributed pairwise
traffic matrix *is* the graph bandwidth matrix.  The Φ engine was built to
reduce to :class:`~repro.partition.refine_state.RefinementState` exactly in
that case — same floats, same candidate destinations, same lexicographic
move keys — and both refiners run the *same* extracted FM driver
(:func:`~repro.partition.kway_refine.run_constrained_fm`), so on the pinned
corpus below the two must produce **identical move sequences and final
assignments**, not merely equal objectives.

All corpus graphs have integer-valued weights and integer-valued caps, so
the compared floats are exact (see docs/refinement.md, "Scope of the
exactness claims"); fractional caps would reintroduce ~1 ulp summation
drift and are deliberately absent.
"""

import numpy as np
import pytest

from repro.graph import (
    paper_graph,
    planted_partition_network,
    random_process_network,
)
from repro.hypergraph import (
    HGraph,
    HyperRefinementState,
    connectivity_objective,
    constrained_hyper_fm,
    evaluate_hyper_partition,
    hyper_bandwidth_matrix,
    hyper_partition,
)
from repro.partition.gp import GPConfig
from repro.partition.goodness import goodness_key
from repro.partition.kway_refine import constrained_kway_fm
from repro.partition.metrics import (
    ConstraintSpec,
    bandwidth_matrix,
    cut_value,
    evaluate_partition,
)
from repro.partition.refine_state import RefinementState
from repro.util.rng import as_rng

# The pinned corpus: (case id, graph builder, k, integer-valued constraints).
# Every case is deterministic; the graphs carry integer weights throughout.


def _pn(n, m, seed, wmax=5):
    return random_process_network(n, m, seed=seed, node_weight_range=(1, wmax))


def _corpus():
    cases = []
    for seed in (0, 1, 2, 7, 13):
        g = _pn(18, 36, seed)
        cases.append(
            (f"pn18-s{seed}", g, 4,
             ConstraintSpec(bmax=9.0, rmax=float(round(
                 1.15 * g.total_node_weight / 4))))
        )
    g1, _ = paper_graph(1)
    cases.append(("paper1", g1, 4, ConstraintSpec(bmax=16.0, rmax=165.0)))
    g2, _ = paper_graph(2)
    cases.append(("paper2", g2, 4, ConstraintSpec(bmax=25.0, rmax=130.0)))
    gp, _ = planted_partition_network(24, 3, rmax=40.0, bmax=12.0, seed=5)
    cases.append(("planted24", gp, 3, ConstraintSpec(bmax=12.0, rmax=40.0)))
    return cases


CORPUS = _corpus()
IDS = [c[0] for c in CORPUS]


@pytest.mark.parametrize("case,g,k,cons", CORPUS, ids=IDS)
class TestTwoPinReduction:
    def test_objective_equals_edge_cut(self, case, g, k, cons):
        hg = HGraph.from_wgraph(g)
        rng = as_rng(hash(case) % 2**32)
        for _ in range(5):
            a = rng.integers(0, k, size=g.n)
            assert connectivity_objective(hg, a, k) == cut_value(g, a)
            np.testing.assert_array_equal(
                hyper_bandwidth_matrix(hg, a, k), bandwidth_matrix(g, a, k)
            )

    def test_state_quantities_identical(self, case, g, k, cons):
        hg = HGraph.from_wgraph(g)
        rng = as_rng(1)
        a = rng.integers(0, k, size=g.n)
        gs = RefinementState(g, a, k)
        hs = HyperRefinementState(hg, a, k)
        np.testing.assert_array_equal(gs.bw, hs.bw)
        np.testing.assert_array_equal(gs.boundary_nodes(), hs.boundary_nodes())
        assert gs.key(cons) == hs.key(cons)
        for u in range(g.n):
            dv_g, dc_g = gs.move_deltas(u, cons)
            dv_h, dc_h = hs.move_deltas(u, cons)
            # bit-for-bit: the FM queue revalidation depends on this
            np.testing.assert_array_equal(dv_g, dv_h)
            np.testing.assert_array_equal(dc_g, dc_h)
            np.testing.assert_array_equal(
                gs.connection_vector(u), hs.connection_vector(u)
            )
            assert gs.best_move(u, cons) == hs.best_move(u, cons)

    def test_refiner_moves_identical(self, case, g, k, cons):
        """Same seed, same start → the Φ-engine FM and the graph-engine FM
        must walk the identical move sequence and land on the identical
        final assignment."""
        hg = HGraph.from_wgraph(g)
        rng = as_rng(2)
        for trial in range(3):
            a = rng.integers(0, k, size=g.n)
            out_g = constrained_kway_fm(g, a, k, cons, seed=trial)
            out_h = constrained_hyper_fm(hg, a, k, cons, seed=trial)
            np.testing.assert_array_equal(out_g, out_h)

    def test_evaluation_identical(self, case, g, k, cons):
        hg = HGraph.from_wgraph(g)
        rng = as_rng(3)
        a = rng.integers(0, k, size=g.n)
        m_g = evaluate_partition(g, a, k, cons)
        m_h = evaluate_hyper_partition(hg, a, k, cons)
        assert m_g == m_h  # frozen dataclasses: full field equality


class TestFullPipelineConsistency:
    """hyper_partition on a 2-pin lift must report metrics that the
    edge-cut engine agrees with, and never violate what it claims."""

    @pytest.mark.parametrize("case,g,k,cons", CORPUS[:4], ids=IDS[:4])
    def test_reported_metrics_match_graph_evaluation(self, case, g, k, cons):
        hg = HGraph.from_wgraph(g)
        res = hyper_partition(
            hg, k, cons, config=GPConfig(max_cycles=3, restarts=4), seed=0
        )
        m_graph = evaluate_partition(g, res.assign, k, cons)
        assert res.metrics == m_graph
        assert res.feasible == m_graph.feasible

    def test_goodness_competitive_with_gp(self):
        """On the paper-1 instance the connectivity pipeline must reach a
        goodness key at least as good as an unrefined projection — and its
        self-reported key must be honest under the graph metric."""
        g, spec = paper_graph(1)
        cons = ConstraintSpec(bmax=spec.bmax, rmax=spec.rmax)
        hg = HGraph.from_wgraph(g)
        res = hyper_partition(hg, spec.k, cons, seed=0)
        key_h = goodness_key(
            evaluate_partition(g, res.assign, spec.k, cons), cons
        )
        assert key_h == goodness_key(res.metrics, cons)
