"""Tests for the hypergraph substrate: HGraph structure, PPN export,
connectivity metrics, the multicast generator, and end-to-end wiring
(`partition_graph` on an `HGraph`, `partition_ppn(model="hypergraph")`,
CLI `--model hypergraph`)."""

import numpy as np
import pytest

from repro.cli import main
from repro.core.api import partition_graph, partition_ppn
from repro.graph import WGraph, multicast_network, random_process_network
from repro.graph.metisio import save_hmetis
from repro.hypergraph import (
    HGraph,
    connectivity_objective,
    evaluate_hyper_partition,
    hyper_bandwidth_matrix,
    hyper_partition,
    net_lambdas,
    pin_count_matrix,
)
from repro.hypergraph.coarsen import (
    build_hyper_hierarchy,
    contract_hyper,
    heavy_pin_matching,
)
from repro.partition.metrics import ConstraintSpec
from repro.polyhedral.gallery import chain, fir_filter, lu, split_merge
from repro.polyhedral.ppn import derive_ppn
from repro.util.errors import GraphError, PartitionError


def small_hg():
    # one 4-pin broadcast (root 0) + two chain nets
    return HGraph(
        6,
        [((0, 1, 2, 3), 10.0), ((3, 4), 2.0), ((4, 5), 2.0)],
        node_weights=[1, 2, 3, 4, 5, 6],
    )


class TestHGraphStructure:
    def test_basic_accessors(self):
        hg = small_hg()
        assert hg.n == 6 and hg.n_nets == 3 and hg.n_pins == 8
        assert hg.net_size(0) == 4
        assert hg.pins_of(0).tolist() == [0, 1, 2, 3]
        assert hg.roots[0] == 0
        assert hg.degree(3) == 2  # broadcast + (3,4)
        assert hg.nets_of(3).tolist() == [0, 1]
        assert hg.adjacent_nodes(3).tolist() == [0, 1, 2, 4]
        assert hg.total_net_weight == 14.0

    def test_identical_nets_merge(self):
        hg = HGraph(4, [((0, 1, 2), 3.0), ((2, 1, 0), 4.0), ((0, 3), 1.0)])
        assert hg.n_nets == 2
        # merged net keeps first occurrence's root and summed weight
        e = [i for i in range(hg.n_nets) if hg.net_size(i) == 3][0]
        assert hg.net_weights[e] == 7.0 and hg.roots[e] == 0

    def test_single_pin_net_is_inert(self):
        hg = HGraph(3, [((0,), 5.0), ((1, 2), 1.0)])
        a = np.array([0, 0, 1])
        assert connectivity_objective(hg, a, 2) == 1.0

    def test_errors(self):
        with pytest.raises(GraphError):
            HGraph(3, [((0, 0, 1), 1.0)])  # duplicate pin
        with pytest.raises(GraphError):
            HGraph(3, [((0, 5), 1.0)])  # out of range
        with pytest.raises(GraphError):
            HGraph(3, [((), 1.0)])  # empty
        with pytest.raises(GraphError):
            HGraph(3, [((0, 1), -1.0)])  # negative weight
        with pytest.raises(GraphError):
            HGraph(2, node_weights=[1.0])  # wrong weight count

    def test_wgraph_roundtrip(self):
        g = random_process_network(15, 30, seed=4, node_weight_range=(1, 9))
        hg = HGraph.from_wgraph(g)
        assert hg.n_nets == g.m
        assert hg.to_wgraph() == g

    def test_to_wgraph_rejects_multicast(self):
        with pytest.raises(GraphError):
            small_hg().to_wgraph()

    def test_clique_expansion(self):
        hg = small_hg()
        g = hg.clique_expansion()
        # broadcast spreads 10/(4-1) over the 6 clique edges
        assert g.edge_weight(0, 1) == pytest.approx(10.0 / 3)
        assert g.edge_weight(3, 4) == 2.0  # 2-pin nets exact
        assert g.m == 6 + 2

    def test_clique_expansion_of_2pin_is_identity(self):
        g = random_process_network(12, 24, seed=1)
        assert HGraph.from_wgraph(g).clique_expansion() == g


class TestConnectivityMetrics:
    def test_hand_computed(self):
        hg = small_hg()
        a = np.array([0, 0, 1, 1, 2, 2])
        phi = pin_count_matrix(hg, a, 3)
        assert phi[:, 0].tolist() == [2, 2, 0]
        assert net_lambdas(phi).tolist() == [2, 2, 1]
        # broadcast spans 2 parts (10), (3,4) crosses (2), (4,5) internal
        assert connectivity_objective(hg, a, 3) == 12.0
        bw = hyper_bandwidth_matrix(hg, a, 3)
        assert bw[0, 1] == 10.0 and bw[1, 2] == 2.0 and bw[0, 2] == 0.0
        assert np.allclose(bw, bw.T)
        assert float(np.triu(bw, k=1).sum()) == 12.0

    def test_all_parts_spanned(self):
        hg = small_hg()
        a = np.array([0, 1, 2, 0, 1, 2])
        # broadcast λ=3 -> 20; (3,4): {0,1} -> 2; (4,5): {1,2} -> 2
        assert connectivity_objective(hg, a, 3) == 24.0

    def test_evaluate_matches_components(self):
        hg = multicast_network(30, seed=7, fanout=5)
        rng = np.random.default_rng(0)
        a = rng.integers(0, 4, size=30)
        cons = ConstraintSpec(bmax=30.0, rmax=300.0)
        m = evaluate_hyper_partition(hg, a, 4, cons)
        assert m.cut == connectivity_objective(hg, a, 4)
        bw = hyper_bandwidth_matrix(hg, a, 4)
        assert m.max_local_bandwidth == bw.max()


class TestPPNToHypergraph:
    def test_lu_pivot_broadcast_is_one_net(self):
        ppn = derive_ppn(lu(6))
        hg, names = ppn.to_hypergraph()
        assert hg.n == len(names) == 4
        sizes = [hg.net_size(e) for e in range(hg.n_nets)]
        assert max(sizes) > 2  # the pivot-row broadcast survived as a net
        # total hypergraph volume is below the 2-pin flattened volume
        g, _ = ppn.to_wgraph()
        assert hg.total_net_weight < g.total_edge_weight

    def test_fir_taps_multicast(self):
        ppn = derive_ppn(fir_filter(4, 32))
        hg, _ = ppn.to_hypergraph()
        # src broadcasts x to all taps: one net with 1 root + 4 consumers
        assert any(hg.net_size(e) == 5 for e in range(hg.n_nets))

    def test_scatter_stays_2pin(self):
        # split/merge distributes disjoint token sets: no multicast nets
        ppn = derive_ppn(split_merge(4, 32))
        hg, _ = ppn.to_hypergraph()
        assert all(hg.net_size(e) == 2 for e in range(hg.n_nets))

    def test_chain_equals_graph(self):
        ppn = derive_ppn(chain(6, 32))
        hg, _ = ppn.to_hypergraph()
        g, _ = ppn.to_wgraph()
        assert hg.to_wgraph() == g  # pure pipeline: models coincide

    def test_roots_are_producers(self):
        ppn = derive_ppn(fir_filter(3, 16))
        hg, names = ppn.to_hypergraph()
        index = {nm: i for i, nm in enumerate(names)}
        big = [e for e in range(hg.n_nets) if hg.net_size(e) > 2]
        assert all(int(hg.roots[e]) == index["src"] for e in big)

    @staticmethod
    def _recurrence_prog(n, even_consumers):
        """Producer with a self-loop recurrence on x, plus two consumers
        reading even (or even/odd) strided slices of x."""
        from repro.polyhedral.domain import domain
        from repro.polyhedral.program import SANLP, Statement, read, write

        prog = SANLP("recurrence", params={"N": n})
        prog.add_statement(
            Statement(
                "produce",
                domain(("i", 0, "N - 1"), N=n),
                reads=[read("x", "i - 1")],  # self-loop: x[i] = f(x[i-1])
                writes=[write("x", "i")],
                work=1,
            )
        )
        offsets = (0, 0) if even_consumers else (0, 1)
        for name, off in zip(("c1", "c2"), offsets):
            prog.add_statement(
                Statement(
                    name,
                    domain(("q", 0, n // 2 - 1), N=n),
                    reads=[read("x", f"2*q + {off}")],
                    writes=[write(f"y_{name}", "q")],
                    work=1,
                )
            )
        return prog

    def test_selfloop_values_excluded_from_multicast_weight(self):
        """The producer's self-loop recurrence ships every value to itself,
        but only the consumers' union may weight the net."""
        n = 16
        ppn = derive_ppn(self._recurrence_prog(n, even_consumers=True))
        hg, names = ppn.to_hypergraph()
        index = {nm: i for i, nm in enumerate(names)}
        big = [e for e in range(hg.n_nets) if hg.net_size(e) == 3]
        assert len(big) == 1  # produce + c1 + c2 share the even values
        assert hg.roots[big[0]] == index["produce"]
        assert hg.net_weights[big[0]] == n // 2  # evens only, no self-loop

    def test_selfloop_does_not_mask_scatter(self):
        """c1 reads evens, c2 reads odds — disjoint scatter, even though
        the self-loop overlaps both; must stay 2-pin."""
        ppn = derive_ppn(self._recurrence_prog(16, even_consumers=False))
        hg, _ = ppn.to_hypergraph()
        assert all(hg.net_size(e) == 2 for e in range(hg.n_nets))

    def test_parallel_channels_to_one_consumer_stay_scatter(self):
        """Sharing is judged between consumers: a consumer owning two
        overlapping channels must not fake a multicast with a consumer
        reading a disjoint slice."""
        import numpy as np

        from repro.polyhedral.dependence import Dependence
        from repro.polyhedral.ppn import PPN, Channel, Process

        def dep(src, dst, values):
            pairs = [(v, i) for i, v in enumerate(sorted(values))]
            return Dependence(
                producer=src, consumer=dst, array="A",
                token_count=len(pairs),
                production=np.ones(len(pairs), dtype=np.int64),
                consumption=np.ones(len(pairs), dtype=np.int64),
                pairs=pairs,
            )

        procs = [Process(nm, nm, 10, 5.0, 1.0) for nm in ("P", "C1", "C2")]
        chans = [
            Channel("P", "C1", "A", 10, dep("P", "C1", range(10))),
            Channel("P", "C1", "A", 10, dep("P", "C1", range(10))),
            Channel("P", "C2", "A", 10, dep("P", "C2", range(10, 20))),
        ]
        hg, names = PPN("scatter", procs, chans).to_hypergraph()
        assert all(hg.net_size(e) == 2 for e in range(hg.n_nets))
        weights = sorted(float(w) for w in hg.net_weights)
        assert weights == [10.0, 10.0]  # per-consumer distinct values


class TestMulticastGenerator:
    def test_deterministic(self):
        h1 = multicast_network(24, seed=5, fanout=4)
        h2 = multicast_network(24, seed=5, fanout=4)
        assert h1 == h2

    def test_shape_and_fanout(self):
        hg = multicast_network(30, seed=1, fanout=6, n_broadcasts=4)
        sizes = [hg.net_size(e) for e in range(hg.n_nets)]
        assert sum(1 for s in sizes if s == 7) == 4  # root + 6 consumers
        assert sum(1 for s in sizes if s == 2) >= 29 - 4  # backbone intact

    def test_fanout_clamped(self):
        hg = multicast_network(5, seed=0, fanout=50, n_broadcasts=1)
        assert max(hg.net_size(e) for e in range(hg.n_nets)) == 5

    def test_validation(self):
        with pytest.raises(GraphError):
            multicast_network(2, fanout=4)
        with pytest.raises(GraphError):
            multicast_network(10, fanout=1)


class TestCoarsening:
    def test_matching_symmetric_and_contract(self):
        hg = multicast_network(40, seed=3, fanout=5)
        match = heavy_pin_matching(hg, seed=0)
        coarse, node_map = contract_hyper(hg, match)
        assert coarse.n < hg.n
        assert coarse.total_node_weight == hg.total_node_weight
        # objective is conserved under projection of any coarse assignment
        rng = np.random.default_rng(1)
        a_c = rng.integers(0, 3, size=coarse.n)
        a_f = a_c[node_map]
        # fine objective == coarse objective: hidden nets are internal
        assert connectivity_objective(hg, a_f, 3) == connectivity_objective(
            coarse, a_c, 3
        )

    def test_hierarchy_projection(self):
        hg = multicast_network(60, seed=2, fanout=4)
        hier = build_hyper_hierarchy(hg, coarsen_to=10, seed=0)
        assert hier.depth >= 2
        assert hier.coarsest.n <= max(10, hg.n)
        a = np.zeros(hier.coarsest.n, dtype=np.int64)
        for level in range(hier.depth - 1, 0, -1):
            a = hier.project(a, level)
        assert a.shape == (hg.n,)


class TestEndToEndWiring:
    def test_partition_graph_gp_on_lifted_graph(self):
        g = random_process_network(20, 40, seed=0)
        res = partition_graph(
            HGraph.from_wgraph(g), 3, rmax=400.0, method="gp", seed=0
        )
        assert res.algorithm == "GP-hyper"
        assert res.info["model"] == "hypergraph"
        assert res.assign.shape == (20,)

    def test_partition_graph_hypergraph_gp_takes_gpconfig(self):
        # hypergraph GP is configured by GP's own config; None means
        # GPConfig(max_cycles=10), and other config classes are refused
        from repro.evolve.ea import EvolveConfig
        from repro.partition.gp import GPConfig

        g = random_process_network(20, 40, seed=0)
        runs = [
            partition_graph(HGraph.from_wgraph(g), 3, rmax=400.0,
                            method="gp", seed=0, config=config)
            for config in (None, GPConfig(max_cycles=10))
        ]
        direct = hyper_partition(
            HGraph.from_wgraph(g), 3, ConstraintSpec(rmax=400.0),
            config=GPConfig(max_cycles=10), seed=0,
        )
        for res in runs:
            np.testing.assert_array_equal(res.assign, direct.assign)
        with pytest.raises(PartitionError, match="GPConfig"):
            partition_graph(HGraph.from_wgraph(g), 2, method="gp",
                            config=EvolveConfig())

    def test_partition_ppn_hypergraph_model(self):
        res, hg, names = partition_ppn(
            fir_filter(4, 32), 3, rmax=200.0, model="hypergraph", seed=0
        )
        assert isinstance(hg, HGraph)
        assert len(names) == hg.n
        assert res.metrics.cut == connectivity_objective(
            hg, res.assign, 3
        )

    def test_partition_ppn_rejects_bad_model_args(self):
        with pytest.raises(PartitionError):
            partition_ppn(chain(4, 8), 2, model="wavelet")
        with pytest.raises(PartitionError):
            partition_ppn(chain(4, 8), 2, model="hypergraph", method="exact")
        with pytest.raises(PartitionError):
            partition_ppn(
                chain(4, 8), 2, model="hypergraph", bandwidth_mode="sustained"
            )

    def test_hypergraph_model_beats_edge_cut_on_multicast_ppn(self):
        """Acceptance: on a multicast-heavy gallery PPN the hypergraph model
        yields strictly lower modeled inter-partition traffic than the
        2-pin edge-cut model at equal constraints."""
        prog = fir_filter(6, 48)
        k, rmax = 3, 200.0
        res_h, hg, _ = partition_ppn(
            prog, k, rmax=rmax, model="hypergraph", seed=0
        )
        res_g, _, _ = partition_ppn(prog, k, rmax=rmax, model="graph", seed=0)
        cons = ConstraintSpec(rmax=rmax)
        traffic_h = evaluate_hyper_partition(hg, res_h.assign, k, cons)
        traffic_g = evaluate_hyper_partition(hg, res_g.assign, k, cons)
        assert traffic_h.feasible
        assert traffic_h.cut < traffic_g.cut

    def test_hyper_partition_infeasible_raise(self):
        from repro.partition.gp import GPConfig
        from repro.util.errors import InfeasibleError

        hg = multicast_network(12, seed=0, fanout=4)
        cfg = GPConfig(max_cycles=2, restarts=2, on_infeasible="raise")
        with pytest.raises(InfeasibleError):
            hyper_partition(
                hg, 3, ConstraintSpec(rmax=1.0), config=cfg, seed=0
            )


class TestHypergraphCLI:
    def test_partition_hgr_input(self, tmp_path, capsys):
        hg = multicast_network(18, seed=1, fanout=4)
        p = tmp_path / "mc.hgr"
        save_hmetis(hg, p)
        out = tmp_path / "assign.json"
        rc = main([
            "partition", "--input", str(p), "--k", "3",
            "--model", "hypergraph", "--rmax", "400",
            "--assign-out", str(out),
        ])
        assert rc == 0
        captured = capsys.readouterr().out
        assert "GP-hyper" in captured and "connectivity objective" in captured
        import json

        data = json.loads(out.read_text())
        assert len(data["assign"]) == 18 and data["k"] == 3

    def test_partition_graph_input_lifted(self, tmp_path, capsys):
        from repro.graph.io import graph_to_json

        g = random_process_network(12, 24, seed=0)
        p = tmp_path / "g.json"
        p.write_text(graph_to_json(g))
        rc = main([
            "partition", "--input", str(p), "--k", "2",
            "--model", "hypergraph", "--rmax", "400",
        ])
        assert rc == 0

    def test_generate_fanout_writes_hgr(self, tmp_path, capsys):
        from repro.graph.metisio import load_hmetis

        p = tmp_path / "mc.hgr"
        rc = main([
            "generate", "--n", "20", "--fanout", "5",
            "--seed", "2", "--out", str(p),
        ])
        assert rc == 0
        hg = load_hmetis(p)
        assert hg.n == 20
        assert max(hg.net_size(e) for e in range(hg.n_nets)) == 6

    def test_generate_requires_m_without_fanout(self, tmp_path):
        rc = main(["generate", "--n", "10", "--out", str(tmp_path / "g.json")])
        assert rc == 1  # ReproError -> error exit

    def test_hgr_with_graph_model_gets_clear_error(self, tmp_path, capsys):
        hg = multicast_network(12, seed=0, fanout=4)
        p = tmp_path / "mc.hgr"
        save_hmetis(hg, p)
        rc = main(["partition", "--input", str(p), "--k", "2"])
        assert rc == 1
        assert "--model hypergraph" in capsys.readouterr().err

    def test_incompatible_flags_rejected(self, tmp_path, capsys):
        hg = multicast_network(12, seed=0, fanout=4)
        p = tmp_path / "mc.hgr"
        save_hmetis(hg, p)
        rc = main([
            "partition", "--input", str(p), "--k", "2",
            "--model", "hypergraph", "--method", "exact",
        ])
        assert rc == 1
        assert "('gp', 'evolve')" in capsys.readouterr().err
        rc = main([
            "partition", "--input", str(p), "--k", "2",
            "--model", "hypergraph", "--dot", str(tmp_path / "g.dot"),
        ])
        assert rc == 1
        assert not (tmp_path / "g.dot").exists()

    def test_compare_races_2pin_baseline(self, tmp_path, capsys):
        hg = multicast_network(18, seed=2, fanout=5)
        p = tmp_path / "mc.hgr"
        save_hmetis(hg, p)
        rc = main([
            "partition", "--input", str(p), "--k", "3",
            "--model", "hypergraph", "--rmax", "400", "--compare",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "GP (2-pin model)" in out and "GP-hyper" in out
