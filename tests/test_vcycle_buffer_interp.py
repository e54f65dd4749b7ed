"""Tests for V-cycle refinement, buffer sizing and the SANLP interpreter."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.suites import tight_instance
from repro.fpga.resources import random_device_matrix
from repro.graph import multicast_network, random_process_network
from repro.kpn.buffer_sizing import (
    brams_needed,
    minimal_uniform_capacity,
    per_channel_depths,
)
from repro.kpn.simulator import simulate_ppn
from repro.partition.gp import GPConfig, gp_partition
from repro.partition.goodness import goodness_key
from repro.partition.engine import GraphEngine, make_engine
from repro.partition.metrics import ConstraintSpec, evaluate_partition
from repro.partition.vcycle import (
    intra_part_matching,
    restricted_vcycle,
    vcycle_refine,
)
from repro.partition.vector_state import VectorConstraints, VectorGraph
from repro.polyhedral import SANLP, Statement, derive_ppn, domain, read, write
from repro.polyhedral.gallery import chain, fir_filter, matmul, producer_consumer
from repro.polyhedral.interpreter import InterpreterError, interpret
from repro.util.errors import PartitionError, ReproError


class TestIntraPartMatching:
    def test_never_crosses_parts(self):
        g = random_process_network(20, 45, seed=0)
        assign = np.arange(20) % 3
        match = intra_part_matching(g, assign, 3, seed=0)
        for u in range(20):
            v = int(match[u])
            if v != u:
                assert assign[u] == assign[v]

    def test_unknown_method_rejected(self):
        g = random_process_network(10, 18, seed=0)
        with pytest.raises(PartitionError):
            intra_part_matching(g, np.zeros(10, dtype=int), 1, method="bogus")

    @given(seed=st.integers(0, 1000))
    @settings(max_examples=15, deadline=None)
    def test_property_contraction_preserves_partition(self, seed):
        from repro.partition.coarsen import contract
        from repro.partition.metrics import cut_value

        g = random_process_network(16, 32, seed=seed)
        rng = np.random.default_rng(seed)
        assign = rng.integers(0, 3, size=16)
        match = intra_part_matching(g, assign, 3, seed=seed)
        coarse, node_map = contract(g, match)
        coarse_assign = np.empty(coarse.n, dtype=np.int64)
        coarse_assign[node_map] = assign
        # projecting back reproduces the fine assignment and its cut exactly
        assert np.array_equal(coarse_assign[node_map], assign)
        assert np.isclose(
            cut_value(coarse, coarse_assign), cut_value(g, assign)
        )


class TestVcycleRefine:
    def _instance(self, seed):
        g = random_process_network(60, 140, seed=seed, node_weight_range=(2, 12))
        cons = ConstraintSpec(bmax=25.0, rmax=1.15 * g.total_node_weight / 4)
        return g, cons

    def test_never_worse_goodness(self):
        for seed in range(4):
            g, cons = self._instance(seed)
            rng = np.random.default_rng(seed)
            a = rng.integers(0, 4, size=60)
            before = goodness_key(evaluate_partition(g, a, 4, cons), cons)
            eng = GraphEngine(g, 4)
            out = vcycle_refine(eng, a, cons, rounds=2, seed=seed)
            after = goodness_key(evaluate_partition(g, out, 4, cons), cons)
            assert after <= before

    def test_zero_rounds_identity(self):
        g, cons = self._instance(0)
        a = np.arange(60) % 4
        out = vcycle_refine(GraphEngine(g, 4), a, cons, rounds=0, seed=0)
        assert np.array_equal(out, a)

    def test_negative_rounds_rejected(self):
        g, cons = self._instance(0)
        with pytest.raises(PartitionError):
            vcycle_refine(
                GraphEngine(g, 4), np.zeros(60, dtype=int), cons, rounds=-1
            )

    def test_gp_with_vcycles_not_worse(self):
        g, cons = self._instance(7)
        base = gp_partition(g, 4, cons, GPConfig(max_cycles=2, restarts=3), seed=1)
        vc = gp_partition(
            g, 4, cons, GPConfig(max_cycles=2, restarts=3, vcycles=2), seed=1
        )
        k_base = goodness_key(base.metrics, cons)
        k_vc = goodness_key(vc.metrics, cons)
        assert k_vc <= k_base

    def test_config_validates_vcycles(self):
        with pytest.raises(PartitionError):
            GPConfig(vcycles=-1)


# --------------------------------------------------------------------- #
# V-cycle digest corpus
# --------------------------------------------------------------------- #
#: ``(n, k, seed, rounds) -> digest`` of ``vcycle_refine`` on
#: ``tight_instance(n, k, seed)`` from a random start.  Recorded with the
#: graph-only V-cycle that the engine-generic loop replaced (its own
#: matching, contraction and FM calls), so every value proves the loop
#: bit-identical.  The first 96 cases contract at least one level; in the
#: rest ``n <= max(30, 4k)``, nothing contracts, and the input must come
#: back unchanged.
VCYCLE_DIGESTS = {
    (60, 3, 0, 1): '37233ef2edaa77d0',
    (60, 3, 0, 2): '99a8b9db3015a88b',
    (60, 4, 1, 1): 'e1a1f10631d6a962',
    (60, 4, 1, 2): '0b4cc5a537521dcf',
    (60, 8, 2, 1): '0514e26a65861b36',
    (60, 8, 2, 2): '0514e26a65861b36',
    (60, 3, 3, 1): '964b79ce31ce1617',
    (60, 3, 3, 2): '964b79ce31ce1617',
    (60, 4, 4, 1): '3d552456217716e7',
    (60, 4, 4, 2): '3d552456217716e7',
    (60, 8, 5, 1): 'ccc3574d12e28182',
    (60, 8, 5, 2): 'ccc3574d12e28182',
    (60, 3, 6, 1): '3d86e56dfbfdeef8',
    (60, 3, 6, 2): '3d86e56dfbfdeef8',
    (60, 4, 7, 1): 'f8c459002cce98ea',
    (60, 4, 7, 2): 'f8c459002cce98ea',
    (60, 8, 8, 1): '1c208acaf3797e50',
    (60, 8, 8, 2): '1c208acaf3797e50',
    (60, 3, 9, 1): '2d2d7369b0e38ae0',
    (60, 3, 9, 2): 'ada288ed451de285',
    (60, 4, 10, 1): 'b2291d30081c3894',
    (60, 4, 10, 2): 'b2291d30081c3894',
    (60, 8, 11, 1): 'b3aadc8b7bd54dd4',
    (60, 8, 11, 2): 'b3aadc8b7bd54dd4',
    (120, 3, 0, 1): 'f3421213bcb54a17',
    (120, 3, 0, 2): '603713f5c69dabab',
    (120, 4, 1, 1): '38d19a1507536939',
    (120, 4, 1, 2): '402ad18504894cbc',
    (120, 8, 2, 1): '65b56ecf012715e1',
    (120, 8, 2, 2): '6e66ae690e77dc3a',
    (120, 3, 3, 1): '42009258582707a2',
    (120, 3, 3, 2): 'b106decdf852b740',
    (120, 4, 4, 1): '44910236fd85f85d',
    (120, 4, 4, 2): 'eefb4bd5efe150d1',
    (120, 8, 5, 1): 'a2cbbd55b1547107',
    (120, 8, 5, 2): '1aa139b85fcaa114',
    (120, 3, 6, 1): '560e98121f9c9098',
    (120, 3, 6, 2): 'ae36a3fb78278828',
    (120, 4, 7, 1): '700645115d5fc6e5',
    (120, 4, 7, 2): '6305599ea1be8e9a',
    (120, 8, 8, 1): 'f2040fcc8ec3cdbc',
    (120, 8, 8, 2): '854663fcf08d96b6',
    (120, 3, 9, 1): '6563959f7682c432',
    (120, 3, 9, 2): '5bc45a7834658c1e',
    (120, 4, 10, 1): 'f14fe0e6ccac1d74',
    (120, 4, 10, 2): '995fc09acc471a60',
    (120, 8, 11, 1): '5fc62102ff2d58a9',
    (120, 8, 11, 2): 'd3211d1b6e02194d',
    (180, 3, 0, 1): 'fb0681820320ec2a',
    (180, 3, 0, 2): '6da67cafc317a536',
    (180, 4, 1, 1): 'd59c89f3344cdf9f',
    (180, 4, 1, 2): '51c027a3ad5ad9ee',
    (180, 8, 2, 1): '071a258bb60b3570',
    (180, 8, 2, 2): 'b3df270b177f5cd7',
    (180, 3, 3, 1): '073b71d1bed1d9d8',
    (180, 3, 3, 2): 'e17a1da3b97c80e6',
    (180, 4, 4, 1): 'd74c2b0d27fd8680',
    (180, 4, 4, 2): 'c5ad0c08169fa2a6',
    (180, 8, 5, 1): '738141fe11dd97eb',
    (180, 8, 5, 2): 'b0615062828f9e95',
    (180, 3, 6, 1): 'c329026e94c4ed47',
    (180, 3, 6, 2): 'bc97ed96bc9838ff',
    (180, 4, 7, 1): '83d60e1cd57ed9e1',
    (180, 4, 7, 2): '98c755077e9c23af',
    (180, 8, 8, 1): '940ddad9c8114d31',
    (180, 8, 8, 2): '82af476f90d6f3f4',
    (180, 3, 9, 1): '55cf08518f500906',
    (180, 3, 9, 2): 'b0a238b689225efc',
    (180, 4, 10, 1): 'ff4c38d9a40fa17b',
    (180, 4, 10, 2): '1c0b0286884968d9',
    (180, 8, 11, 1): '8b9b63d6b7ccfa9d',
    (180, 8, 11, 2): '7c45febcd8f61a7d',
    (300, 3, 0, 1): 'e6adb27c5d1756c4',
    (300, 3, 0, 2): '18afe799c9709062',
    (300, 4, 1, 1): 'a080748afdfda26e',
    (300, 4, 1, 2): '7b978d4b1c280617',
    (300, 8, 2, 1): '72688fa34db6b6ce',
    (300, 8, 2, 2): 'a82d8aca1f0d7281',
    (300, 3, 3, 1): '594ab6a21bc96f54',
    (300, 3, 3, 2): '1445df4c24c970ee',
    (300, 4, 4, 1): '01d865d4d3128ba8',
    (300, 4, 4, 2): '762996870a43eb9f',
    (300, 8, 5, 1): '7fa8aa4076ce6882',
    (300, 8, 5, 2): '19c6e7aca0cc89bf',
    (300, 3, 6, 1): 'a6bdc3327b362ab7',
    (300, 3, 6, 2): '648c12119e410f21',
    (300, 4, 7, 1): 'd48f9c3d704dcbac',
    (300, 4, 7, 2): '3cfbf084022cd20d',
    (300, 8, 8, 1): '20591d5b17c8132f',
    (300, 8, 8, 2): 'bafd708fbda29bf3',
    (300, 3, 9, 1): '87c8d31ffebb3f83',
    (300, 3, 9, 2): '2a73e40882d2e653',
    (300, 4, 10, 1): '887ff5738270308e',
    (300, 4, 10, 2): '430b3a13cf551613',
    (300, 8, 11, 1): '16c1efd0ad3f5e6f',
    (300, 8, 11, 2): '2daed6675e27f212',
    (10, 3, 0, 2): '67f1ebe286ea2d56',
    (10, 3, 1, 2): '3113a4d1862ade1a',
    (10, 3, 2, 2): '7b7e2f1fe15afd66',
    (20, 3, 0, 2): 'c6b07fa7ce92c5a7',
    (20, 3, 1, 2): '5d07fb9ed7eda25d',
    (20, 3, 2, 2): '62c324ef088ca954',
    (30, 3, 0, 2): '7aaf03c59eb0dd77',
    (30, 3, 1, 2): '1a4b912d998f20ec',
    (30, 3, 2, 2): 'f348ecb0ef473e32',
    (12, 4, 0, 2): '0bffd988bb89ec92',
    (12, 4, 1, 2): 'c1ae7b29b7783ed6',
    (12, 4, 2, 2): 'a09c6ca629de80d2',
    (16, 4, 0, 2): '7768edc44201ef4a',
    (16, 4, 1, 2): 'c57ceaf25d06b1f6',
    (16, 4, 2, 2): 'e1294a4c38a3e58d',
    (30, 4, 0, 2): 'f4d2109b29d3162a',
    (30, 4, 1, 2): 'e5d7c57c2e273c69',
    (30, 4, 2, 2): '82b69dc2c90cb518',
    (16, 8, 0, 2): '7d231e5cd254d8ad',
    (16, 8, 1, 2): 'b9c8f84b942cd725',
    (16, 8, 2, 2): '83edceff8ae8c06b',
    (16, 8, 3, 2): '6bee906de5a33d3e',
    (24, 8, 0, 2): 'a79a1b9de1c19f3f',
    (24, 8, 1, 2): '18c8469f6bcb9852',
    (24, 8, 2, 2): 'dc79ef7964235539',
    (24, 8, 3, 2): '4ad3cfa5727d660b',
    (32, 8, 0, 2): '953802fc4fa0a189',
    (32, 8, 1, 2): '1e1bebf1d73ed3da',
    (32, 8, 2, 2): '1b8e84584ad1db38',
    (32, 8, 3, 2): '1f99f9edee43e61e',
}


def _digest(assign):
    return hashlib.sha256(
        np.asarray(assign, dtype=np.int64).tobytes()
    ).hexdigest()[:16]


def test_vcycle_digest_corpus():
    mismatched = []
    for (n, k, seed, rounds), expected in VCYCLE_DIGESTS.items():
        g, cons = tight_instance(n, k, seed)
        a = np.random.default_rng(1000 + seed).integers(0, k, size=n)
        eng = GraphEngine(g, k)
        out = vcycle_refine(eng, a, cons, rounds=rounds, seed=seed)
        if _digest(out) != expected:
            mismatched.append((n, k, seed, rounds))
        if n <= max(30, 4 * k):
            assert np.array_equal(out, a)
    assert not mismatched


# --------------------------------------------------------------------- #
# never worse on every engine
# --------------------------------------------------------------------- #
def _engine_case(kind, seed, k):
    """A small instance of *kind* with a random start assignment."""
    rng = np.random.default_rng(seed)
    if kind == "hypergraph":
        structure = multicast_network(48, seed=seed, fanout=4)
        total = float(structure.node_weights.sum())
    else:
        structure = random_process_network(
            48, 110, seed=seed, node_weight_range=(1, 9)
        )
        total = structure.total_node_weight
    cons = ConstraintSpec(bmax=30.0, rmax=float(round(1.2 * total / k)))
    if kind == "vector":
        w, names = random_device_matrix(structure.n, seed=seed)
        structure = VectorGraph(structure, w)
        cons = VectorConstraints(
            bmax=30.0,
            rmax=tuple(1.2 * float(c) / k for c in w.sum(axis=0)),
            names=names,
        )
    return structure, cons, rng.integers(0, k, size=structure.n)


@pytest.mark.parametrize("kind", ["graph", "hypergraph", "vector"])
@given(seed=st.integers(0, 10_000), k=st.integers(2, 5),
       rounds=st.integers(0, 3))
@settings(max_examples=12, deadline=None)
def test_vcycle_never_worse_on_every_engine(kind, seed, k, rounds):
    structure, cons, a = _engine_case(kind, seed, k)
    eng = make_engine(structure, k)
    out = vcycle_refine(
        eng, a, cons, rounds=rounds, seed=seed, coarsen_to=12
    )
    assert out.shape == a.shape
    assert goodness_key(eng.evaluate(out, cons), cons) <= goodness_key(
        eng.evaluate(a, cons), cons
    )
    if rounds == 0:
        assert np.array_equal(out, a)


class _IdentityFM:
    """An engine whose ``fm`` returns its input and records each call —
    exposes what :func:`restricted_vcycle` hands to every level."""

    def __init__(self, engine):
        self._engine = engine
        self.calls = []

    def __getattr__(self, name):
        return getattr(self._engine, name)

    def fm(self, structure, assign, constraints, max_passes, seed):
        self.calls.append((structure.n, np.array(assign, copy=True)))
        finest = structure.n == self._engine.structure.n
        metrics = self._engine.evaluate(assign, constraints) if finest else None
        return np.array(assign, copy=True), metrics


@pytest.mark.parametrize("kind", ["graph", "hypergraph", "vector"])
def test_restricted_vcycle_projects_label_classes_exactly(kind):
    """With refinement switched off, one cycle returns its start: both
    halves of a recombination-style overlay survive every contraction, and
    every projection back up is exact."""
    k = 3
    structure, cons, a = _engine_case(kind, 5, k)
    b = np.random.default_rng(6).integers(0, k, size=structure.n)
    labels = a * k + b
    for start in (a, b):
        eng = _IdentityFM(make_engine(structure, k))
        out, metrics, depth = restricted_vcycle(
            eng, start, labels, k * k, cons, seed=7, coarsen_to=8
        )
        assert depth > 1
        assert np.array_equal(out, start)
        assert metrics == eng.evaluate(start, cons)
        sizes = [n for n, _ in eng.calls]
        assert len(sizes) == depth
        assert sizes == sorted(set(sizes)) and sizes[-1] == structure.n


@pytest.mark.parametrize("kind", ["graph", "hypergraph", "vector"])
def test_restricted_vcycle_singleton_labels_refine_finest_only(kind):
    """Labels that are all distinct leave nothing to contract: the cycle
    has depth 1 and refines the finest level once."""
    structure, cons, a = _engine_case(kind, 2, 4)
    eng = _IdentityFM(make_engine(structure, 4))
    out, _metrics, depth = restricted_vcycle(
        eng, a, np.arange(structure.n), structure.n, cons, seed=0,
        coarsen_to=8,
    )
    assert depth == 1
    assert [n for n, _ in eng.calls] == [structure.n]
    assert np.array_equal(out, a)


class TestBufferSizing:
    def test_depths_positive_and_sufficient(self):
        ppn = derive_ppn(fir_filter(4, 32))
        depths = per_channel_depths(ppn)
        assert all(d >= 1 for d in depths.values())
        # simulating at the max depth completes
        cap = max(depths.values())
        res = simulate_ppn(ppn, fifo_capacity=cap)
        assert not res.deadlocked

    def test_minimal_uniform_capacity_chain(self):
        """A simple pipeline runs with depth-1 FIFOs."""
        ppn = derive_ppn(chain(4, 32))
        assert minimal_uniform_capacity(ppn) == 1

    def test_minimal_uniform_capacity_fir(self):
        """FIR's tapped delay line needs deeper FIFOs than 1."""
        ppn = derive_ppn(fir_filter(5, 40))
        c = minimal_uniform_capacity(ppn)
        assert c > 1
        assert not simulate_ppn(ppn, fifo_capacity=c, on_deadlock="return").deadlocked
        assert simulate_ppn(
            ppn, fifo_capacity=c - 1, on_deadlock="return"
        ).deadlocked

    def test_matmul_selfloop_sizing(self):
        ppn = derive_ppn(matmul(3))
        c = minimal_uniform_capacity(ppn)
        res = simulate_ppn(ppn, fifo_capacity=c, on_deadlock="return")
        assert not res.deadlocked

    def test_brams_needed(self):
        ppn = derive_ppn(chain(3, 16))
        assert brams_needed(ppn, tokens_per_bram=1024) == ppn.n_channels
        with pytest.raises(ReproError):
            brams_needed(ppn, tokens_per_bram=0)

    def test_empty_network(self):
        prog = SANLP("empty")
        prog.add_statement(
            Statement("solo", domain(("i", 0, 3)), writes=[write("a", "i")])
        )
        ppn = derive_ppn(prog)
        assert minimal_uniform_capacity(ppn) == 1


class TestInterpreter:
    def test_provenance_flow(self):
        prog = producer_consumer(4)
        store = interpret(prog)
        # b[i] was computed by consume from produce's a[i]
        val = store[("b", (2,))]
        assert val[0] == "consume"
        inner = val[2][0]
        assert inner[0] == "produce"

    def test_numeric_kernels(self):
        prog = SANLP("sum", params={"N": 5})
        prog.add_statement(
            Statement("src", domain(("i", 0, "N - 1"), N=5),
                      writes=[write("x", "i")])
        )
        prog.add_statement(
            Statement("dbl", domain(("i", 0, "N - 1"), N=5),
                      reads=[read("x", "i")], writes=[write("y", "i")])
        )
        kernels = {
            "src": lambda env: env["i"] * 10,
            "dbl": lambda env, x: x * 2,
        }
        store = interpret(prog, kernels=kernels)
        assert store[("y", (3,))] == 60

    def test_inputs_satisfy_external_reads(self):
        prog = SANLP("ext", params={"N": 3})
        prog.add_statement(
            Statement("c", domain(("i", 0, "N - 1"), N=3),
                      reads=[read("a", "i")], writes=[write("b", "i")])
        )
        store = interpret(
            prog,
            kernels={"c": lambda env, a: a + 1},
            inputs={("a", (i,)): 100 + i for i in range(3)},
        )
        assert store[("b", (1,))] == 102

    def test_strict_undefined_read_raises(self):
        prog = SANLP("bad")
        prog.add_statement(
            Statement("c", domain(("i", 0, 2)), reads=[read("a", "i")])
        )
        with pytest.raises(InterpreterError):
            interpret(prog)

    def test_nonstrict_yields_none(self):
        prog = SANLP("lenient")
        prog.add_statement(
            Statement("c", domain(("i", 0, 2)), reads=[read("a", "i")],
                      writes=[write("b", "i")])
        )
        store = interpret(
            prog, kernels={"c": lambda env, a: a}, strict=False
        )
        assert store[("b", (0,))] is None

    def test_kernel_failure_wrapped(self):
        prog = SANLP("boom")
        prog.add_statement(
            Statement("s", domain(("i", 0, 1)), writes=[write("a", "i")])
        )

        def bad_kernel(env):
            raise ValueError("nope")

        with pytest.raises(InterpreterError, match="nope"):
            interpret(prog, kernels={"s": bad_kernel})

    def test_interpreter_agrees_with_dependences(self):
        """The provenance chain realised by the interpreter must match the
        last-writer relation the dependence analysis reports."""
        from repro.polyhedral.dependence import find_dependences

        prog = matmul(3)
        deps, _ = find_dependences(prog)
        store = interpret(prog)
        # store[C, (i, j, N)] provenance chains through mac firings
        val = store[("C", (1, 1, 3))]
        assert val[0] == "mac"
        dep_pairs = {(d.producer, d.consumer) for d in deps}
        assert ("mac", "mac") in dep_pairs
