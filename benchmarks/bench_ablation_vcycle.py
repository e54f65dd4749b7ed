"""Study X8 — V-cycle refinement ablation (extension).

Section IV's "un-coarsened up to a certain intermediate level and then
coarsened back" has two realisations in this library: full restart cycles
(always on) and partition-preserving V-cycles (``GPConfig.vcycles``).  This
ablation measures what the V-cycles buy on every engine: mid-size tight
process networks (graph GP), multicast networks (hypergraph GP) and
device-matrix instances (vector GP), each at 0, 1 and 2 V-cycles over
three seeds.  Gate: 2 V-cycles are never worse than 0 in goodness at the
same seed.
"""

from conftest import emit

from repro.bench.suites import tight_instance
from repro.fpga.resources import random_device_matrix
from repro.graph import multicast_network, random_process_network
from repro.hypergraph.partition import hyper_partition
from repro.partition.gp import GPConfig, gp_partition
from repro.partition.goodness import goodness_key
from repro.partition.metrics import ConstraintSpec
from repro.partition.multires import mr_gp_partition
from repro.partition.vector_state import VectorConstraints
from repro.util.tables import format_table


def _graph_run(seed, vcycles):
    g, cons = tight_instance(180, 4, seed=400 + seed)
    cfg = GPConfig(max_cycles=3, restarts=5, coarsen_to=40, vcycles=vcycles)
    return gp_partition(g, 4, cons, cfg, seed=seed), cons


def _hyper_run(seed, vcycles):
    hg = multicast_network(120, seed, fanout=8)
    cons = ConstraintSpec(rmax=1.1 * float(hg.node_weights.sum()) / 8)
    cfg = GPConfig(max_cycles=3, restarts=5, vcycles=vcycles)
    return hyper_partition(hg, 8, cons, cfg, seed=seed), cons


def _vector_run(seed, vcycles):
    g = random_process_network(200, 480, seed=200 + seed)
    w, names = random_device_matrix(200, seed=200 + seed)
    caps = tuple(1.25 * float(c) / 4 for c in w.sum(axis=0))
    cons = VectorConstraints(bmax=float("inf"), rmax=caps, names=names)
    cfg = GPConfig(coarsen_to=50, restarts=5, max_cycles=3,
                   level_candidates=1, vcycles=vcycles)
    return mr_gp_partition(g, w, 4, cons, cfg, seed=seed, cache=False), cons


ENGINES = {
    "graph": ("tight PN n=180, K=4", _graph_run),
    "hypergraph": ("multicast n=120, K=8", _hyper_run),
    "vector": ("device matrix n=200, K=4", _vector_run),
}


def run_study():
    rows = []
    for engine, (instance, run) in ENGINES.items():
        for seed in (0, 1, 2):
            for vcycles in (0, 1, 2):
                res, cons = run(seed, vcycles)
                rows.append(
                    {
                        "engine": engine,
                        "instance": instance,
                        "seed": seed,
                        "vcycles": vcycles,
                        "cut": res.metrics.cut,
                        "runtime": res.runtime,
                        "feasible": res.feasible,
                        "key": goodness_key(res.metrics, cons),
                    }
                )
    return rows


def test_vcycle_ablation(benchmark):
    rows = benchmark.pedantic(run_study, rounds=1, iterations=1)
    table = format_table(
        ["engine", "instance", "seed", "vcycles", "cut", "time(s)",
         "feasible"],
        [
            [r["engine"], r["instance"], r["seed"], r["vcycles"], r["cut"],
             round(r["runtime"], 3), r["feasible"]]
            for r in rows
        ],
        title="X8 V-cycle refinement ablation (GP on every engine)",
    )
    emit("x8_vcycle_ablation.txt", table)
    # V-cycles must never worsen the goodness on the same seed
    by_run = {}
    for r in rows:
        by_run.setdefault((r["engine"], r["seed"]), {})[r["vcycles"]] = r
    for (engine, seed), grid in by_run.items():
        assert grid[2]["key"] <= grid[0]["key"], (
            f"{engine} seed {seed}: 2 V-cycles worsened the result vs 0"
        )
