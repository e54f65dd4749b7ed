"""Study X15b — million-node acceptance run for the sparse connectivity store.

The dense ``(k, n)`` connectivity matrices cost ``16·k·n`` bytes — a
flat 1.024 GB at n=1M, k=64 before a single move — and were the blocker
to million-node instances.  This driver is the acceptance workload for
the sparse store (``docs/refinement.md``): one full ``partition_graph``
call on a bounded-degree million-node network at k=64, with memory
instrumentation on, asserting that

* ``conn_format="auto"`` picked the sparse store at every level whose
  footprint matters (``k·n`` is 16× the auto threshold at the top);
* the ``mem.alloc_bytes{site=refine_state.conn}`` gauge at the finest
  level is **≥8× below** the dense figure;
* the run actually completes and satisfies its replication constraint.

``matchings=("hem",)`` is deliberate: the kmeans matching builds an
``O(n²)``-shaped distance tensor during Lloyd iterations and is not a
million-node algorithm; heavy-edge matching is linear.  Every level
refines with the same whole-boundary FM as the small corpora.

Not part of ``scripts/ci.sh`` (several minutes); the 80k-node
``x15_scale`` suite gates the same ratio in CI.

Artefact: ``benchmarks/artifacts/x15_scale_1m.txt`` +
``BENCH_x15_scale_1m.json``.
"""

import time

import numpy as np
from conftest import emit, emit_bench

import repro.obs as _obs
from repro.bench.suites import bounded_degree_graph
from repro.core import partition_graph
from repro.obs.benchdb import BenchMetric
from repro.partition.conn_store import AUTO_SPARSE_CELLS
from repro.partition.gp import GPConfig
from repro.util.tables import format_table

N = 1_000_000
K = 64
DENSE_BYTES = 16 * K * N  # what the (k, n) matrices would have cost


def test_million_node_sparse_store(benchmark):
    assert K * N > AUTO_SPARSE_CELLS  # "auto" must resolve to sparse here

    t0 = time.perf_counter()
    g = bounded_degree_graph(N)
    t_build = time.perf_counter() - t0
    rmax = float(np.ceil(1.05 * g.total_node_weight / K))
    cfg = GPConfig(
        max_cycles=1, restarts=2, level_candidates=1, matchings=("hem",)
    )

    def run():
        # gauges-only memory mode: the conn-store/RSS gauges publish,
        # tracemalloc stays off (per-allocation tracing multiplies a
        # minutes-long single-core run several-fold)
        with _obs.capture(memory="gauges") as cap:
            start = time.perf_counter()
            res = partition_graph(
                g, K, rmax=rmax, method="gp", config=cfg, seed=0
            )
            return cap, res, time.perf_counter() - start

    cap, res, t_gp = benchmark.pedantic(run, rounds=1, iterations=1)

    gauges = cap.metrics.get("gauges", {}).get("mem.alloc_bytes", {})
    conn = [
        (dict(key), value)
        for key, value in gauges.items()
        if dict(key).get("site") == "refine_state.conn"
    ]
    assert conn, "no refine_state.conn gauge was published"
    top = [(lab, v) for lab, v in conn if lab.get("n") == N]
    assert top, "no conn gauge at the finest (1M-node) level"
    assert {lab.get("format") for lab, _ in top} == {"sparse"}, (
        "auto format selection did not pick sparse at the finest level"
    )
    sparse_bytes = max(v for _, v in top)
    ratio = DENSE_BYTES / sparse_bytes
    rss_peak = max(
        cap.metrics.get("gauges", {}).get("mem.rss_peak_bytes", {}).values(),
        default=0.0,
    )

    rows = [
        ["nodes", f"{N:,}"],
        ["edges", f"{g.m:,}"],
        ["k", K],
        ["graph build (s)", round(t_build, 1)],
        ["partition_graph (s)", round(t_gp, 1)],
        ["cut", res.metrics.cut],
        ["feasible", res.feasible],
        ["dense conn would be (MB)", round(DENSE_BYTES / 1e6, 1)],
        ["sparse conn gauge (MB)", round(sparse_bytes / 1e6, 1)],
        ["dense/sparse ratio", f"{ratio:.1f}x"],
        ["rss peak (MB)", round(rss_peak / 1e6, 1)],
    ]
    table = format_table(
        ["quantity", "value"],
        rows,
        title="X15b million-node sparse connectivity store",
    )
    emit("x15_scale_1m.txt", table)

    p = {"n": N, "k": K}
    emit_bench("x15_scale_1m", [
        BenchMetric("x15b.graph_build.runtime", t_build, "s", p),
        BenchMetric("x15b.partition.runtime", t_gp, "s", p),
        BenchMetric("x15b.partition.cut", float(res.metrics.cut), "", p),
        BenchMetric(
            "x15b.partition.feasible", float(res.feasible), "", p,
            better="higher",
        ),
        BenchMetric("x15b.conn_bytes.sparse", float(sparse_bytes), "bytes", p),
        BenchMetric(
            "x15b.conn_bytes.dense_would_be", float(DENSE_BYTES), "bytes", p
        ),
        BenchMetric("x15b.conn_ratio", ratio, "", p, better="higher"),
        BenchMetric("x15b.rss_peak", float(rss_peak), "bytes", p),
    ])

    # acceptance: the finest-level conn footprint is ≥8× below dense
    assert ratio >= 8.0, (
        f"sparse conn store is only {ratio:.1f}x below the dense figure "
        f"({sparse_bytes / 1e6:.1f} MB vs {DENSE_BYTES / 1e6:.1f} MB)"
    )
    assert res.feasible, "million-node run did not satisfy its rmax"
