"""Driver corpus for the one multilevel driver
(``repro.partition.multilevel``).

``gp_partition``, ``hyper_partition`` and ``mr_gp_partition`` are thin
wrappers that build an engine adapter (``repro.partition.engine``) and run
the same cycle worker and driver.  Every case below pins the returned
partition by a fingerprint: the first 16 hex digits of the sha256 of
``assign.tobytes()`` (int64) plus the ``(total_violation,
bandwidth_violation, resource_violation, cut)`` tuple.

* **Scalar GP** — each config variant runs on a feasible instance (first
  cycle wins) and on an infeasible one that uses every cycle.  The
  expected values were recorded with the three hand-written pipeline
  loops the driver replaced, so they prove scalar GP bit-identical.
* **Scalar GP on the sparse store at k=64** — perfbench's ``ring1500``
  calls, recorded before the sparse store's per-neighbour update loop
  was added, so they prove the store rewrite bit-identical.
* **Hypergraph GP, first cycle feasible** — recorded the same way.  The
  driver draws four seeds per cycle where the hypergraph loop drew three;
  the first three of four equal the three, so a run that stops after its
  first cycle is bit-identical.
* **Hypergraph GP over several cycles** and **vector GP** — pinned to the
  driver's own values.  Later cycles of a hypergraph run draw from the
  four-seed stream, so they differ from the old loop's.  Vector GP now
  takes its per-level FM seeds from the shared uncoarsening stream (one
  candidate per level) instead of one pre-spawned seed per level; it
  makes the same FM calls, but with other seeds.

* **V-cycles off the graph engine** — ``vcycles=1`` rows on the
  hypergraph and vector engines, pinned to the driver's own values (both
  engines rejected the knob before the V-cycle loop became
  engine-generic).

``n_jobs`` races the cycles of all three engines through one
``parallel_map`` call; the result and ``info`` must not depend on it
(worker count from ``REPRO_TEST_JOBS``, default 2).
"""

import hashlib
import os

import numpy as np
import pytest

from repro.graph import multicast_network, random_process_network
from repro.hypergraph import HGraph
from repro.hypergraph.partition import hyper_partition
from repro.partition.goodness import goodness_key
from repro.partition.gp import GPConfig, gp_partition
from repro.partition.metrics import ConstraintSpec
from repro.partition.multires import VectorConstraints, mr_gp_partition
from repro.util.errors import PartitionError

N_JOBS = int(os.environ.get("REPRO_TEST_JOBS", "2"))
K = 4
SEED = 3


def fingerprint(res):
    m = res.metrics
    digest = hashlib.sha256(
        np.asarray(res.assign, dtype=np.int64).tobytes()
    ).hexdigest()[:16]
    return digest, (
        m.total_violation, m.bandwidth_violation, m.resource_violation, m.cut,
    )


def _graph():
    return random_process_network(120, 260, seed=11, node_weight_range=(1, 9))


def _rmax(total):
    return float(round(1.15 * total / K))


# --------------------------------------------------------------------- #
# scalar GP
# --------------------------------------------------------------------- #
SCALAR_CONFIGS = {
    "default": {},
    "vcycles": {"vcycles": 1},
    "fm+flow": {"refine": "fm+flow"},
    "hem": {"matchings": ("hem",)},
    "sparse": {"conn_format": "sparse"},
    "one-candidate": {"level_candidates": 1},
}
#: bmax 40 is met in the first cycle; bmax 22 is missed by every cycle
SCALAR_BMAX = {"feasible": 40.0, "infeasible": 22.0}


def run_scalar(config: str, instance: str, n_jobs=1):
    g = _graph()
    cons = ConstraintSpec(
        bmax=SCALAR_BMAX[instance], rmax=_rmax(g.total_node_weight)
    )
    cfg = GPConfig(coarsen_to=30, max_cycles=3, **SCALAR_CONFIGS[config])
    return gp_partition(g, K, cons, cfg, seed=SEED, n_jobs=n_jobs)


SCALAR_EXPECTED = {
    ('default', 'feasible'): ('5d1204517dc79a1a', (0.0, 0.0, 0.0, 121.0)),
    ('default', 'infeasible'): ('dc754bc923f558db', (8.0, 8.0, 0.0, 126.0)),
    ('fm+flow', 'feasible'): ('5c941f33d6b4c426', (0.0, 0.0, 0.0, 117.0)),
    ('fm+flow', 'infeasible'): ('dc754bc923f558db', (8.0, 8.0, 0.0, 126.0)),
    ('hem', 'feasible'): ('5d507483bb5b538a', (0.0, 0.0, 0.0, 121.0)),
    ('hem', 'infeasible'): ('1a617238acbbe584', (7.0, 7.0, 0.0, 125.0)),
    ('one-candidate', 'feasible'): ('5d1204517dc79a1a', (0.0, 0.0, 0.0, 121.0)),
    ('one-candidate', 'infeasible'): ('dc754bc923f558db', (8.0, 8.0, 0.0, 126.0)),
    ('sparse', 'feasible'): ('5d1204517dc79a1a', (0.0, 0.0, 0.0, 121.0)),
    ('sparse', 'infeasible'): ('dc754bc923f558db', (8.0, 8.0, 0.0, 126.0)),
    ('vcycles', 'feasible'): ('5d1204517dc79a1a', (0.0, 0.0, 0.0, 121.0)),
    ('vcycles', 'infeasible'): ('ebf516d0324b080f', (6.0, 6.0, 0.0, 131.0)),
}


@pytest.mark.parametrize("instance", sorted(SCALAR_BMAX))
@pytest.mark.parametrize("config", sorted(SCALAR_CONFIGS))
def test_scalar_gp_pinned(config, instance):
    res = run_scalar(config, instance)
    assert res.info["cycles"] == (1 if instance == "feasible" else 3)
    assert fingerprint(res) == SCALAR_EXPECTED[config, instance]


#: The perfbench ``ring1500`` path: the X15b config on the sparse store,
#: k=64, at the four partitioner seeds its workload seed 0 draws
#: (``np.random.default_rng([0, 3]).integers(2**31, size=4)``).  Unlike the
#: small-k rows above, its nodes' slices hold many parts, so a store
#: update that drops, moves or misplaces an entry shows here.
RING_EXPECTED = {
    1081993679: ('8e3c0462a950e9f6', (0.0, 0.0, 0.0, 1784.0)),
    1921939326: ('f263b31b92da524c', (0.0, 0.0, 0.0, 1794.0)),
    2050023942: ('5eeb78cbaca01c89', (0.0, 0.0, 0.0, 1785.0)),
    1847725933: ('73a6fedca821b1f2', (0.0, 0.0, 0.0, 1791.0)),
}


@pytest.mark.parametrize("seed", sorted(RING_EXPECTED))
def test_ring_sparse_pinned(seed):
    from repro.bench.suites import bounded_degree_graph

    k = 64
    g = bounded_degree_graph(1500)
    cons = ConstraintSpec(rmax=float(np.ceil(1.05 * g.n / k)))
    cfg = GPConfig(max_cycles=1, restarts=2, level_candidates=1,
                   matchings=("hem",), conn_format="sparse")
    res = gp_partition(g, k, cons, cfg, seed=seed)
    assert fingerprint(res) == RING_EXPECTED[seed]


# --------------------------------------------------------------------- #
# hypergraph GP
# --------------------------------------------------------------------- #
def hyper_instance(name: str):
    if name == "lift":
        g = _graph()
        return HGraph.from_wgraph(g), ConstraintSpec(
            bmax=40.0, rmax=_rmax(g.total_node_weight)
        )
    i = int(name[-1])
    hg = multicast_network(60, i, fanout=4)
    bmax = 0.0 if name.startswith("tight") else 60.0
    return hg, ConstraintSpec(
        bmax=bmax, rmax=_rmax(float(hg.node_weights.sum()))
    )


def run_hyper(name: str, vcycles: int = 0, **kwargs):
    hg, cons = hyper_instance(name)
    cfg = GPConfig(coarsen_to=20, max_cycles=3, vcycles=vcycles)
    return hyper_partition(hg, K, cons, cfg, seed=SEED, **kwargs)


HYPER_FIRST_CYCLE = ("multicast0", "multicast1", "multicast2", "lift")
HYPER_FIRST_CYCLE_EXPECTED = {
    'multicast0': ('5d5d668b69960293', (0.0, 0.0, 0.0, 132.0)),
    'multicast1': ('677a1c3ae3d113cb', (0.0, 0.0, 0.0, 105.0)),
    'multicast2': ('c04c8e3e3a8fd5f0', (0.0, 0.0, 0.0, 124.0)),
    'lift': ('5b15bbebc72b45a6', (0.0, 0.0, 0.0, 134.0)),
}


@pytest.mark.parametrize("name", HYPER_FIRST_CYCLE)
def test_hyper_first_cycle_pinned(name):
    res = run_hyper(name)
    assert res.info["cycles"] == 1
    assert fingerprint(res) == HYPER_FIRST_CYCLE_EXPECTED[name]


# --------------------------------------------------------------------- #
# tests that need the driver (not runnable against the old loops)
# --------------------------------------------------------------------- #
HYPER_MULTI_CYCLE_EXPECTED = {
    'tight0': ('44b7dd95e115090f', (132.0, 132.0, 0.0, 132.0)),
    'tight1': ('72f5d023e1b45fdb', (116.0, 116.0, 0.0, 116.0)),
}


@pytest.mark.parametrize("name", ["tight0", "tight1"])
def test_hyper_multi_cycle_pinned(name):
    """Pinned to the driver: cycles 2+ draw from the four-seed stream."""
    res = run_hyper(name)
    assert res.info["cycles"] == 3
    assert fingerprint(res) == HYPER_MULTI_CYCLE_EXPECTED[name]


#: ``hyper_partition`` with its default config on
#: ``multicast_network(120, i, fanout=8)`` at k=8, ``rmax = 1.1·W/k`` and
#: no bandwidth cap — the ``multicast120`` benchmark path, the only pinned
#: ``Bmax = ∞`` hypergraph runs.  Keyed by ``(i, seed)``; the seeds are
#: ``np.random.default_rng([s, 3]).integers(2**31, size=4)`` at s = 0, 1,
#: the partitioner seeds the benchmark draws for its run seeds 0 and 1.
HYPER_UNCAPPED_EXPECTED = {
    (0, 1081993679): ('b4400c730349c454', (0.0, 0.0, 0.0, 698.0)),
    (1, 1921939326): ('ad57ad95ba7aef15', (0.0, 0.0, 0.0, 858.0)),
    (2, 2050023942): ('fd5c359f18e1f0e9', (0.0, 0.0, 0.0, 642.0)),
    (3, 1847725933): ('1b21276acca9ce75', (0.0, 0.0, 0.0, 809.0)),
    (0, 958438296): ('62f2f17b87b87fb5', (0.0, 0.0, 0.0, 755.0)),
    (1, 30212171): ('7ca085e9504e1d66', (0.0, 0.0, 0.0, 756.0)),
    (2, 1763075151): ('0c08b9e3eb8c825d', (0.0, 0.0, 0.0, 675.0)),
    (3, 293363876): ('df1bbcb6ba57050c', (0.0, 0.0, 0.0, 763.0)),
}


@pytest.mark.parametrize(
    "case", list(HYPER_UNCAPPED_EXPECTED), ids=lambda c: f"{c[0]}-{c[1]}"
)
def test_hyper_uncapped_pinned(case):
    i, seed = case
    hg = multicast_network(120, i, fanout=8)
    cons = ConstraintSpec(rmax=1.1 * float(hg.node_weights.sum()) / 8)
    res = hyper_partition(hg, 8, cons, seed=seed)
    assert fingerprint(res) == HYPER_UNCAPPED_EXPECTED[case]


VECTOR_BMAX = {"feasible": 40.0, "infeasible": 0.0}


def run_vector(instance: str, n_jobs=1, vcycles=0):
    g = _graph()
    w = np.random.default_rng(4).integers(1, 10, size=(g.n, 2)).astype(float)
    cons = VectorConstraints(
        bmax=VECTOR_BMAX[instance],
        rmax=tuple(float(round(1.2 * c / K)) for c in w.sum(axis=0)),
    )
    return mr_gp_partition(
        g, w, K, cons,
        GPConfig(coarsen_to=30, max_cycles=3, level_candidates=1,
                 vcycles=vcycles),
        seed=SEED, n_jobs=n_jobs, cache=False,
    )


VECTOR_EXPECTED = {
    'feasible': ('3d7bc8f4923e565c', (0.0, 0.0, 0.0, 128.0)),
    'infeasible': ('4cc17ae32ff02bdf', (128.0, 128.0, 0.0, 128.0)),
}


@pytest.mark.parametrize("instance", sorted(VECTOR_BMAX))
def test_vector_gp_pinned(instance):
    """Pinned to the driver: per-level FM seeds come from the shared
    uncoarsening stream, so the values differ from the old vector loop."""
    res = run_vector(instance)
    assert res.info["cycles"] == (1 if instance == "feasible" else 3)
    assert fingerprint(res) == VECTOR_EXPECTED[instance]


#: ``vcycles=1`` on the hypergraph and vector engines, pinned to the
#: driver's own values (the graph engine's rows are in SCALAR_EXPECTED)
VCYCLES_EXPECTED = {
    ('hypergraph', 'lift'): ('3a8df1a49d876fae', (0.0, 0.0, 0.0, 132.0)),
    ('hypergraph', 'tight1'): ('72f5d023e1b45fdb', (116.0, 116.0, 0.0, 116.0)),
    ('vector', 'feasible'): ('3d7bc8f4923e565c', (0.0, 0.0, 0.0, 128.0)),
    ('vector', 'infeasible'): ('7b8ae57826978ef4', (128.0, 128.0, 0.0, 128.0)),
}


@pytest.mark.parametrize("case", sorted(VCYCLES_EXPECTED), ids="-".join)
def test_vcycles_pinned_on_every_engine(case):
    """The V-cycle runs on every engine, and each cycle's V-cycle is never
    worse than its input, so the run is never worse than ``vcycles=0``
    (a feasible first cycle stays feasible, so it still wins the race)."""
    engine, name = case
    run = run_hyper if engine == "hypergraph" else run_vector
    base, res = run(name), run(name, vcycles=1)
    assert res.info["cycles"] == base.info["cycles"]
    assert fingerprint(res) == VCYCLES_EXPECTED[case]
    assert goodness_key(res.metrics, res.constraints) <= goodness_key(
        base.metrics, base.constraints
    )


@pytest.mark.parametrize("engine", ["graph", "hypergraph", "vector"])
def test_vcycles_reach_every_engine_through_partition_graph(
    monkeypatch, engine
):
    """``partition_graph`` hands ``GPConfig(vcycles=1)`` to the engine's
    wrapper as given: the driver V-cycles every cycle on that engine, and
    the result equals the direct wrapper call."""
    from repro.core.api import partition_graph
    from repro.partition import multilevel

    kinds = []
    real = multilevel.vcycle_refine

    def spy(eng, *args, **kwargs):
        kinds.append(eng.kind)
        return real(eng, *args, **kwargs)

    monkeypatch.setattr(multilevel, "vcycle_refine", spy)
    cfg = GPConfig(coarsen_to=30, max_cycles=2, level_candidates=1, vcycles=1)
    g = _graph()
    if engine == "hypergraph":
        hg, cons = hyper_instance("tight0")
        direct = hyper_partition(hg, K, cons, cfg, seed=SEED)
        via = partition_graph(
            hg, K, bmax=cons.bmax, rmax=cons.rmax, config=cfg, seed=SEED
        )
    elif engine == "vector":
        w = np.random.default_rng(4).integers(1, 10, size=(g.n, 2))
        rmax = tuple(float(round(1.2 * c / K)) for c in w.sum(axis=0))
        cons = VectorConstraints(bmax=0.0, rmax=rmax)
        direct = mr_gp_partition(
            g, w.astype(float), K, cons, cfg, seed=SEED, cache=False
        )
        via = partition_graph(
            g, K, bmax=0.0, rmax=rmax, config=cfg, seed=SEED,
            resources=w.astype(float), cache=False,
        )
    else:
        cons = ConstraintSpec(bmax=22.0, rmax=_rmax(g.total_node_weight))
        direct = gp_partition(g, K, cons, cfg, seed=SEED)
        via = partition_graph(
            g, K, bmax=cons.bmax, rmax=cons.rmax, config=cfg, seed=SEED
        )
    # infeasible instances: both calls run both cycles, each V-cycled
    assert direct.info["cycles"] == via.info["cycles"] == 2
    assert kinds == [engine] * 4
    assert np.array_equal(direct.assign, via.assign)
    assert fingerprint(direct) == fingerprint(via)


@pytest.mark.parametrize("engine", ["graph", "hypergraph", "vector"])
def test_n_jobs_identical(engine):
    run = {
        "graph": lambda n_jobs: run_scalar("default", "infeasible", n_jobs),
        "hypergraph": lambda n_jobs: run_hyper("tight0", n_jobs=n_jobs),
        "vector": lambda n_jobs: run_vector("infeasible", n_jobs),
    }[engine]
    serial, parallel = run(1), run(N_JOBS)
    assert np.array_equal(serial.assign, parallel.assign)
    assert serial.info == parallel.info
    assert fingerprint(serial) == fingerprint(parallel)


class TestValidation:
    def test_vector_max_cycles_zero(self):
        g = _graph()
        w = np.ones((g.n, 1))
        cons = VectorConstraints(bmax=40.0, rmax=(60.0,))
        with pytest.raises(PartitionError, match="max_cycles"):
            mr_gp_partition(g, w, K, cons, GPConfig(max_cycles=0))

    @pytest.mark.parametrize("coarsen_to", [0, -5])
    def test_vector_coarsen_to(self, coarsen_to):
        g = _graph()
        w = np.ones((g.n, 1))
        cons = VectorConstraints(bmax=40.0, rmax=(60.0,))
        with pytest.raises(PartitionError, match="coarsen_to"):
            mr_gp_partition(g, w, K, cons, GPConfig(coarsen_to=coarsen_to))

    def test_unknown_matching_rejected_by_config(self):
        with pytest.raises(PartitionError, match="bogus"):
            GPConfig(matchings=("bogus",))

    @pytest.mark.parametrize("field,value,message", [
        ("coarsen_to", 0, "coarsen_to"),
        ("restarts", 0, "restarts"),
        ("max_cycles", 0, "max_cycles"),
        ("level_candidates", 0, "level_candidates"),
        ("refine_passes", 0, "refine_passes"),
        ("vcycles", -1, "vcycles"),
        ("matchings", (), "matching"),
        ("on_infeasible", "ignore", "on_infeasible"),
    ])
    def test_config_rejects_out_of_range_knob(self, field, value, message):
        # the one config validates itself, so every engine inherits the
        # same rejection at construction time
        with pytest.raises(PartitionError, match=message):
            GPConfig(**{field: value})

    @pytest.mark.parametrize("engine,config", [
        pytest.param("hypergraph", GPConfig(conn_format="sparse"),
                     id="hyper-conn_format"),
    ])
    def test_unhonoured_knob_rejected_before_coarsening(
        self, monkeypatch, engine, config
    ):
        from repro.partition import engine as engines

        def coarsen(*args, **kwargs):
            raise AssertionError("coarsened before rejecting the config")

        for cls in (engines.HyperEngine, engines.VectorGraphEngine):
            monkeypatch.setattr(cls, "coarsen", coarsen)
        if engine == "hypergraph":
            hg, cons = hyper_instance("multicast0")
            run = lambda: hyper_partition(hg, K, cons, config, seed=SEED)
        else:
            g = _graph()
            w = np.ones((g.n, 1))
            cons = VectorConstraints(bmax=40.0, rmax=(60.0,))
            run = lambda: mr_gp_partition(g, w, K, cons, config, cache=False)
        with pytest.raises(PartitionError, match="conn_format"):
            run()

