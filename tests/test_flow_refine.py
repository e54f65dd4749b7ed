"""The flow refinement pass on the shared engine seam.

Three families, complementing ``tests/test_flow_core.py`` (which pins the
max-flow solver itself against brute-force min-cut enumeration):

1. corridor extraction invariants — each side is a connected superset of
   its half of the pair boundary, stays inside its part, and respects the
   size budget (never truncating the boundary),
2. ``run_flow_refine`` never worsens the state's ``(violation, cut)`` key
   and leaves the incremental engine consistent, on all three engines
   (scalar graph, hypergraph Φ via clique expansion, vector-resource),
3. the ``refine="fm+flow"`` drivers are never worse than ``refine="fm"``
   at equal seeds and bit-identical across worker counts,

plus the validation of the ``refine=`` knob everywhere it exists.
"""

import dataclasses
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.obs as obs
from repro.core.api import partition_graph
from repro.evolve.ea import EvolveConfig
from repro.fpga.resources import random_device_matrix
from repro.graph import random_process_network
from repro.graph.generators import multicast_network
from repro.hypergraph import HGraph, HyperRefinementState, constrained_hyper_fm
from repro.hypergraph.partition import HYPER_CONFIG
from repro.partition.flow_refine import (
    REFINE_MODES,
    check_refine_mode,
    extract_corridor,
    run_flow_refine,
)
from repro.partition.goodness import goodness_key
from repro.partition.gp import GPConfig, gp_partition
from repro.partition.metrics import ConstraintSpec, check_assignment
from repro.partition.engine import GraphEngine
from repro.partition.multires import MR_GP_CONFIG, mr_gp_partition
from repro.partition.refine_state import RefinementState
from repro.partition.vcycle import vcycle_refine
from repro.partition.vector_state import VectorConstraints, VectorRefinementState
from repro.util.errors import PartitionError
from repro.util.rng import as_rng

#: Worker count for the parallel-identity checks (CI may override).
N_JOBS = int(os.environ.get("REPRO_TEST_JOBS", "2"))


def _graph_case(seed, n=30, m=70, k=4):
    rng = as_rng(seed)
    g = random_process_network(n, m, seed=seed, node_weight_range=(1, 6))
    a = rng.integers(0, k, size=n)
    cons = ConstraintSpec(bmax=16.0, rmax=g.total_node_weight / k * 1.2)
    return g, a, k, cons


def _hyper_case(seed, n=22, k=3):
    rng = as_rng(seed)
    hg = multicast_network(
        n, seed=seed, fanout=4, node_weight_range=(1, 5),
        chain_weight_range=(1, 3), broadcast_weight_range=(4, 10),
    )
    a = rng.integers(0, k, size=hg.n)
    cons = ConstraintSpec(bmax=20.0, rmax=hg.total_node_weight / k * 1.2)
    return hg, a, k, cons


def _mr_config(**fields):
    """The vector pipeline's default config with *fields* changed."""
    return dataclasses.replace(MR_GP_CONFIG, **fields)


def _vector_case(seed, n=26, m=60, k=3):
    rng = as_rng(seed)
    g = random_process_network(n, m, seed=seed, node_weight_range=(1, 6))
    w, _ = random_device_matrix(n, seed=seed, n_resources=3)
    a = rng.integers(0, k, size=n)
    caps = tuple(float(x) for x in w.sum(axis=0) / k * 1.25)
    return g, w, a, k, VectorConstraints(bmax=30.0, rmax=caps)


#: ``partition_graph`` spellings whose config carries a ``refine`` field
#: besides scalar gp: each engine, and evolve on top of them.
REFINE_ENTRIES = ("gp-hypergraph", "gp-vector", "evolve")


def _refine_entry(entry):
    """(``partition_graph`` keyword arguments, default config) for one
    entry spelling of :data:`REFINE_ENTRIES`, k = 3."""
    g = random_process_network(30, 70, seed=4, node_weight_range=(1, 6))
    cons = dict(bmax=16.0, rmax=g.total_node_weight / 3 * 1.2)
    if entry == "gp-hypergraph":
        return dict(g=HGraph.from_wgraph(g), method="gp", **cons), HYPER_CONFIG
    if entry == "gp-vector":
        w, _ = random_device_matrix(g.n, seed=4, n_resources=2)
        caps = tuple(float(x) for x in w.sum(axis=0) / 3 * 1.25)
        return dict(
            g=g, method="gp", bmax=16.0, rmax=caps, resources=w, cache=False,
        ), MR_GP_CONFIG
    return dict(g=g, method="evolve", cache=False, **cons), EvolveConfig(
        pop_size=4, generations=2
    )


def _count_flow_stages(monkeypatch):
    """Count ``run_flow_refine`` calls from the multilevel driver and the
    engines (evolve refines through the latter)."""
    import repro.partition.engine as engine
    import repro.partition.multilevel as multilevel

    calls = []

    def counting(st, constraints, *args, **kwargs):
        calls.append(1)
        return run_flow_refine(st, constraints, *args, **kwargs)

    for module in (multilevel, engine):
        monkeypatch.setattr(module, "run_flow_refine", counting)
    return calls


# --------------------------------------------------------------------- #
# 1. corridor extraction
# --------------------------------------------------------------------- #
class TestCorridor:
    @given(seed=st.integers(0, 4000))
    @settings(max_examples=40, deadline=None)
    def test_connected_superset_of_boundary_within_budget(self, seed):
        g, a, k, _ = _graph_case(seed)
        stx = RefinementState(g, a, k)
        budget = 6
        for pa in range(k):
            for pb in range(pa + 1, k):
                bnodes = stx.pair_boundary(pa, pb)
                ca, cb = extract_corridor(stx, pa, pb, budget)
                for part, side in ((pa, ca), (pb, cb)):
                    seeds = set(
                        int(u) for u in bnodes[stx.assign[bnodes] == part]
                    )
                    members = set(int(u) for u in side)
                    # superset of the boundary half, never truncated
                    assert seeds <= members
                    # stays inside its part
                    assert all(stx.assign[u] == part for u in members)
                    # budget: boundary may exceed it, growth may not
                    assert len(members) <= max(budget, len(seeds))
                    # connected to the boundary through corridor nodes
                    reached, frontier = set(seeds), list(seeds)
                    while frontier:
                        u = frontier.pop()
                        nbrs, _w = stx.flow_adjacency(u)
                        for v in nbrs:
                            v = int(v)
                            if v in members and v not in reached:
                                reached.add(v)
                                frontier.append(v)
                    assert reached == members

    def test_budget_one_yields_exactly_the_boundary(self):
        g, a, k, _ = _graph_case(11)
        stx = RefinementState(g, a, k)
        bnodes = stx.pair_boundary(0, 1)
        ca, cb = extract_corridor(stx, 0, 1, 1)
        np.testing.assert_array_equal(
            ca, np.sort(bnodes[stx.assign[bnodes] == 0])
        )
        np.testing.assert_array_equal(
            cb, np.sort(bnodes[stx.assign[bnodes] == 1])
        )

    def test_no_shared_boundary_is_empty(self):
        # parts 0/1 fully separated: all of part 1's traffic goes to 2
        g = random_process_network(12, 20, seed=3)
        a = np.zeros(12, dtype=np.int64)
        a[6:] = 2
        stx = RefinementState(g, a, 3)
        ca, cb = extract_corridor(stx, 0, 1, 8)
        assert cb.size == 0


# --------------------------------------------------------------------- #
# 2. the pass never worsens, on every engine
# --------------------------------------------------------------------- #
class TestNeverWorse:
    @given(seed=st.integers(0, 4000))
    @settings(max_examples=25, deadline=None)
    def test_scalar_engine(self, seed):
        g, a, k, cons = _graph_case(seed)
        stx = RefinementState(g, a, k)
        before = stx.key(cons)
        out = run_flow_refine(stx, cons)
        after = stx.key(cons)
        assert after <= before  # lexicographic: violation first
        assert after[0] <= before[0] + 1e-9  # balance/violation preserved
        check_assignment(g, out, k)
        np.testing.assert_array_equal(out, stx.assign)
        # the incremental engine stayed consistent through the moves
        fresh = RefinementState(g, out, k)
        assert stx.key(cons) == pytest.approx(fresh.key(cons), abs=1e-9)

    @given(seed=st.integers(0, 4000))
    @settings(max_examples=20, deadline=None)
    def test_hyper_engine(self, seed):
        hg, a, k, cons = _hyper_case(seed)
        stx = HyperRefinementState(hg, a, k)
        before = stx.key(cons)
        out = run_flow_refine(stx, cons)
        after = stx.key(cons)
        assert after <= before
        fresh = HyperRefinementState(hg, out, k)
        assert stx.key(cons) == pytest.approx(fresh.key(cons), abs=1e-9)

    @given(seed=st.integers(0, 4000))
    @settings(max_examples=20, deadline=None)
    def test_vector_engine(self, seed):
        g, w, a, k, cons = _vector_case(seed)
        stx = VectorRefinementState(g, w, a, k)
        before = stx.key(cons)
        out = run_flow_refine(stx, cons)
        after = stx.key(cons)
        assert after <= before
        fresh = VectorRefinementState(g, w, out, k)
        assert stx.key(cons) == pytest.approx(fresh.key(cons), abs=1e-9)

    def test_obs_metrics_recorded(self):
        g, a, k, cons = _graph_case(29)
        obs.REGISTRY.reset()
        with obs.capture(tracing=False) as cap:
            run_flow_refine(RefinementState(g, a, k), cons)
        counters = cap.metrics["counters"]
        # zero-delta counters are dropped from a capture, so assert only
        # on the ones any non-trivial run must bump
        for name in ("flow.pairs", "flow.corridor_size"):
            assert name in counters, counters.keys()


# --------------------------------------------------------------------- #
# 3. the refine= drivers: never worse than fm, parallel-identical
# --------------------------------------------------------------------- #
class TestDrivers:
    CORPUS = [(2015, 36, 85, 4), (7, 30, 70, 3), (41, 44, 100, 4)]

    @pytest.mark.parametrize("seed,n,m,k", CORPUS)
    def test_gp_fm_plus_flow_never_worse(self, seed, n, m, k):
        g = random_process_network(n, m, seed=seed, node_weight_range=(1, 6))
        cons = ConstraintSpec(bmax=25.0, rmax=g.total_node_weight / k * 1.15)
        base = gp_partition(
            g, k, cons, config=GPConfig(max_cycles=3, refine="fm"), seed=seed
        )
        flow = gp_partition(
            g, k, cons, config=GPConfig(max_cycles=3, refine="fm+flow"),
            seed=seed,
        )
        kb = goodness_key(base.metrics, cons)
        kf = goodness_key(flow.metrics, cons)
        assert kf <= kb

    @pytest.mark.parametrize("seed,n,m,k", CORPUS)
    def test_vcycle_fm_plus_flow_never_worse(self, seed, n, m, k):
        # the V-cycle refines with the engine's policy: an fm+flow engine
        # adds the guarded flow stage on the finest level of each round
        g, a, k, cons = _graph_case(seed, n=n, m=m, k=k)
        base = vcycle_refine(GraphEngine(g, k), a, cons, seed=seed)
        flow = vcycle_refine(
            GraphEngine(g, k, refine="fm+flow"), a, cons, seed=seed
        )
        kb = RefinementState(g, base, k).key(cons)
        kf = RefinementState(g, flow, k).key(cons)
        assert kf <= kb

    def test_hyper_fm_plus_flow_never_worse(self):
        for seed in (3, 11, 29):
            hg, a, k, cons = _hyper_case(seed)
            afm = constrained_hyper_fm(hg, a, k, cons, seed=seed)
            k_fm = HyperRefinementState(hg, afm, k).key(cons)
            stx = HyperRefinementState(hg, afm, k)
            aff = run_flow_refine(stx, cons)
            assert HyperRefinementState(hg, aff, k).key(cons) <= k_fm

    def test_mr_gp_fm_plus_flow_never_worse(self):
        g, w, _a, k, cons = _vector_case(31, n=32, m=75)
        vg = None
        base = mr_gp_partition(
            g, w, k, cons, _mr_config(max_cycles=3, refine="fm"), seed=5,
            cache=False,
        )
        flow = mr_gp_partition(
            g, w, k, cons, _mr_config(max_cycles=3, refine="fm+flow"),
            seed=5, cache=False,
        )
        kb = (base.metrics.total_violation, base.metrics.cut)
        kf = (flow.metrics.total_violation, flow.metrics.cut)
        assert kf <= kb
        del vg

    def test_fm_plus_flow_bit_identical_across_jobs(self):
        g = random_process_network(32, 75, seed=13, node_weight_range=(1, 6))
        serial = partition_graph(
            g, 3, bmax=25.0, rmax=g.total_node_weight / 3 * 1.2,
            method="gp", seed=13, refine="fm+flow", n_jobs=1,
        )
        for n_jobs in (2, N_JOBS):
            pooled = partition_graph(
                g, 3, bmax=25.0, rmax=g.total_node_weight / 3 * 1.2,
                method="gp", seed=13, refine="fm+flow", n_jobs=n_jobs,
            )
            np.testing.assert_array_equal(serial.assign, pooled.assign)

    def test_vector_fm_plus_flow_bit_identical_across_jobs(self):
        g, w, _a, k, cons = _vector_case(19, n=30, m=68)
        runs = [
            mr_gp_partition(
                g, w, k, cons, _mr_config(max_cycles=2, refine="fm+flow"),
                seed=7, cache=False, n_jobs=j,
            )
            for j in (1, N_JOBS)
        ]
        np.testing.assert_array_equal(runs[0].assign, runs[1].assign)

    def test_evolve_config_carries_refine(self):
        g = random_process_network(24, 55, seed=9, node_weight_range=(1, 5))
        cfg = EvolveConfig(generations=2, pop_size=5, refine="fm+flow")
        r = partition_graph(
            g, 3, bmax=20.0, rmax=g.total_node_weight / 3 * 1.2,
            method="evolve", seed=9, config=cfg, cache=False,
        )
        check_assignment(g, r.assign, 3)


# --------------------------------------------------------------------- #
# validation of the refine= knob everywhere it exists
# --------------------------------------------------------------------- #
class TestValidation:
    def test_refine_modes(self):
        assert REFINE_MODES == ("fm", "fm+flow")
        for mode in REFINE_MODES:
            assert check_refine_mode(mode) == mode
        with pytest.raises(PartitionError, match="refine"):
            check_refine_mode("flows")

    @pytest.mark.parametrize("surface", [
        "GPConfig", "EvolveConfig", "engine", "mlkp", "partition_graph", "cli",
    ])
    def test_removed_flow_mode_rejected_everywhere(self, surface, capsys):
        """``refine="flow"`` (flow without FM) is no longer a mode: every
        surface that takes a refine value refuses it."""
        g = random_process_network(12, 22, seed=1)
        if surface == "cli":
            from repro.cli import build_parser

            with pytest.raises(SystemExit) as exc:
                build_parser().parse_args([
                    "partition", "--input", "g.json", "--k", "2",
                    "--refine", "flow",
                ])
            assert exc.value.code == 2
            assert "invalid choice: 'flow'" in capsys.readouterr().err
            return
        run = {
            "GPConfig": lambda: GPConfig(refine="flow"),
            "EvolveConfig": lambda: EvolveConfig(refine="flow"),
            "engine": lambda: GraphEngine(g, 2, refine="flow"),
            "mlkp": lambda: partition_graph(
                g, 2, method="mlkp", refine="flow"
            ),
            "partition_graph": lambda: partition_graph(
                g, 2, method="gp", refine="flow"
            ),
        }[surface]
        with pytest.raises(PartitionError, match="refine"):
            run()

    def test_configs_reject_bad_refine(self):
        with pytest.raises(PartitionError):
            GPConfig(refine="nope")
        with pytest.raises(PartitionError):
            EvolveConfig(refine="nope")

    def test_partition_graph_rejects_unsupported_methods(self):
        g = random_process_network(12, 22, seed=1)
        for method in ("spectral", "exact"):
            with pytest.raises(PartitionError, match="refine"):
                partition_graph(g, 2, method=method, refine="fm+flow")
        with pytest.raises(PartitionError):
            partition_graph(g, 2, method="gp", refine="nope")

    @pytest.mark.parametrize("seed", [3, 11, 29])
    def test_hyper_fm_plus_flow_never_worse_than_fm(self, seed):
        # hypergraph GP takes refine= like every multilevel method
        g = random_process_network(40, 90, seed=seed, node_weight_range=(1, 6))
        cons = dict(bmax=18.0, rmax=g.total_node_weight / 3 * 1.15)
        runs = {
            mode: partition_graph(
                HGraph.from_wgraph(g), 3, method="gp", seed=seed,
                refine=mode, **cons
            )
            for mode in ("fm", "fm+flow")
        }
        fm, flow = runs["fm"].metrics, runs["fm+flow"].metrics
        assert (flow.total_violation, flow.cut) <= (fm.total_violation, fm.cut)

    def test_explicit_refine_overrides_config(self, monkeypatch):
        # refine="fm" is an override, not "unspecified": a config asking
        # for fm+flow must not run the flow stage
        import repro.partition.multilevel as multilevel

        calls = []

        def counting(st, constraints, *args, **kwargs):
            calls.append(1)
            return run_flow_refine(st, constraints, *args, **kwargs)

        monkeypatch.setattr(multilevel, "run_flow_refine", counting)
        g = random_process_network(30, 70, seed=4, node_weight_range=(1, 6))
        cons = dict(bmax=16.0, rmax=g.total_node_weight / 3 * 1.2)
        overridden = partition_graph(
            g, 3, seed=4, config=GPConfig(refine="fm+flow"), refine="fm",
            **cons,
        )
        assert calls == []
        plain = partition_graph(g, 3, seed=4, refine="fm", **cons)
        np.testing.assert_array_equal(overridden.assign, plain.assign)
        # the probe does see the stage when it runs
        partition_graph(
            g, 3, seed=4, config=GPConfig(refine="fm+flow"), **cons
        )
        assert calls == [1]

    @pytest.mark.parametrize("entry", REFINE_ENTRIES)
    def test_explicit_refine_overrides_config_on_every_engine(
        self, monkeypatch, entry
    ):
        calls = _count_flow_stages(monkeypatch)
        kwargs, base = _refine_entry(entry)
        overridden = partition_graph(
            k=3, seed=4, config=dataclasses.replace(base, refine="fm+flow"),
            refine="fm", **kwargs,
        )
        assert calls == []
        plain = partition_graph(
            k=3, seed=4, config=dataclasses.replace(base, refine="fm"),
            **kwargs,
        )
        np.testing.assert_array_equal(overridden.assign, plain.assign)

    @pytest.mark.parametrize("entry", REFINE_ENTRIES)
    def test_unset_refine_keeps_config_value(self, monkeypatch, entry):
        calls = _count_flow_stages(monkeypatch)
        kwargs, base = _refine_entry(entry)
        kept = partition_graph(
            k=3, seed=4, config=dataclasses.replace(base, refine="fm+flow"),
            **kwargs,
        )
        assert calls, "the config's flow stage did not run"
        explicit = partition_graph(
            k=3, seed=4, config=base, refine="fm+flow", **kwargs
        )
        np.testing.assert_array_equal(kept.assign, explicit.assign)

    def test_drivers_reject_bad_refine(self):
        g, a, k, cons = _graph_case(1, n=14, m=26, k=2)
        with pytest.raises(PartitionError):
            GraphEngine(g, k, refine="nope")
        g2, w, _a, k2, cons2 = _vector_case(1, n=14, m=26, k=2)
        with pytest.raises(PartitionError):
            mr_gp_partition(g2, w, k2, cons2, GPConfig(refine="nope"))
