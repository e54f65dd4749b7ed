"""Study X11 — parallel portfolio racing + vectorized coarsening.

Three measurements, one artefact (``artifacts/x11_parallel_portfolio.txt``):

* **portfolio** — the default 4-config GP portfolio on a PN-shaped
  generator graph, raced by a seeding-only evolve run
  (:data:`~repro.evolve.ea.SEEDING_CONFIG`), serial vs ``n_jobs=4``
  process racing.  Outputs are asserted bit-identical (assignment,
  metrics, ``info``);
  the wall-clock ratio is recorded together with the visible CPU count,
  because racing cannot beat serial on a single-core host — the ≥2×
  acceptance bar is asserted only when ≥4 CPUs are actually available.
* **coarsening** — the 10k-node microbenchmark: one best-of-methods
  coarsening step (``coarsen_once`` with the two vectorized matchings +
  contraction) against the same step assembled from the frozen loop
  implementations in ``_legacy_coarsen``.  Must be ≥5× and
  method/contraction-identical (HEM and contraction are move-for-move
  references; the random matching races under its reworked pre-drawn
  priorities, so only its invariants — not its stream — are comparable,
  which is why the equality assertion pins the HEM-only step).
* **cache** — a repeated portfolio call must be a sub-millisecond
  ``KeyedCache`` hit.
"""

import os
import time

import numpy as np
from conftest import emit, emit_bench

import _legacy_coarsen as legacy
from repro.evolve import SEEDING_CONFIG, evolve_partition
from repro.graph import random_process_network
from repro.obs.benchdb import BenchMetric
from repro.partition.coarsen import coarsen_once
from repro.partition.metrics import ConstraintSpec
from repro.util.parallel import memo_cache
from repro.util.rng import as_rng
from repro.util.tables import format_table

PORTFOLIO_N = 180
PORTFOLIO_M = 420
PORTFOLIO_K = 4
COARSEN_N = 10_000
COARSEN_M = 40_000
N_JOBS = 4


def _legacy_coarsen_once(g, seed, methods=("random", "hem")):
    """The pre-vectorization coarsening step, assembled from the frozen
    loop kernels (same best-of-methods selection rule as coarsen_once)."""
    fns = {
        "random": legacy.random_maximal_matching_legacy,
        "hem": legacy.heavy_edge_matching_legacy,
    }
    rng = as_rng(seed)
    best = None
    for rank, name in enumerate(methods):
        match = fns[name](g, seed=rng)
        quality = legacy.matching_quality_legacy(g, match)
        n_coarse = g.n - int((match != np.arange(g.n)).sum() // 2)
        key = (-quality, n_coarse, rank)
        if best is None or key < best[0]:
            best = (key, match, name)
    _, match, name = best
    coarse, node_map = legacy.contract_legacy(g, match)
    return coarse, node_map, name


def _timed(fn, *args, repeats=3, **kwargs):
    best = float("inf")
    out = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        best = min(best, time.perf_counter() - t0)
    return out, best


def test_parallel_portfolio_and_coarsening(benchmark):
    rows = []
    bench = []
    cpus = os.cpu_count() or 1

    def sweep():
        # ---- portfolio racing -------------------------------------------
        g = random_process_network(PORTFOLIO_N, PORTFOLIO_M, seed=7)
        cons = ConstraintSpec(
            bmax=0.35 * g.total_edge_weight,
            rmax=0.4 * g.total_node_weight,
        )
        serial, t_serial = _timed(
            evolve_partition, g, PORTFOLIO_K, cons, SEEDING_CONFIG,
            seed=0, cache=False, repeats=1,
        )
        parallel, t_parallel = _timed(
            evolve_partition, g, PORTFOLIO_K, cons, SEEDING_CONFIG,
            seed=0, cache=False, n_jobs=N_JOBS, repeats=1,
        )
        assert np.array_equal(serial.assign, parallel.assign)
        assert serial.metrics == parallel.metrics
        assert serial.info == parallel.info
        ratio = t_serial / t_parallel
        rows.append(
            [f"portfolio 4cfg n={PORTFOLIO_N} k={PORTFOLIO_K}",
             f"{t_serial:.2f}s", f"{t_parallel:.2f}s ({N_JOBS} jobs)",
             f"{ratio:.2f}x", f"identical ({cpus} CPUs visible)"]
        )
        p = {"n": PORTFOLIO_N, "k": PORTFOLIO_K}
        bench.append(BenchMetric("x11.portfolio.serial", t_serial, "s", p))
        bench.append(BenchMetric(
            "x11.portfolio.parallel", t_parallel, "s",
            {**p, "jobs": N_JOBS},
        ))
        bench.append(BenchMetric(
            "x11.portfolio.cut", float(serial.metrics.cut), "", p,
        ))
        if cpus >= N_JOBS:
            # the acceptance bar only binds where 4 workers can exist
            assert ratio >= 2.0, (
                f"portfolio racing speedup {ratio:.2f}x < 2x on {cpus} CPUs"
            )

        # ---- portfolio result cache -------------------------------------
        memo_cache.clear()
        evolve_partition(g, PORTFOLIO_K, cons, SEEDING_CONFIG, seed=0)
        hit, t_hit = _timed(
            evolve_partition, g, PORTFOLIO_K, cons, SEEDING_CONFIG, seed=0,
        )
        assert hit.info.get("cache_hit") is True
        assert np.array_equal(hit.assign, serial.assign)
        rows.append(
            ["portfolio repeat (cache hit)", f"{t_serial:.2f}s",
             f"{t_hit * 1e3:.2f}ms", f"{t_serial / t_hit:.0f}x", "identical"]
        )
        bench.append(BenchMetric(
            "x11.portfolio.cache_hit", t_hit * 1e3, "ms", p,
        ))
        memo_cache.clear()

        # ---- coarsening microbenchmark ----------------------------------
        g10 = random_process_network(COARSEN_N, COARSEN_M, seed=0)
        (c_new, _, m_new), t_new = _timed(
            coarsen_once, g10, 0, methods=("random", "hem")
        )
        (c_old, _, m_old), t_old = _timed(_legacy_coarsen_once, g10, 0)
        ratio_c = t_old / t_new
        rows.append(
            [f"coarsen_once n={COARSEN_N} (random+hem)",
             f"{t_old * 1e3:.0f}ms", f"{t_new * 1e3:.0f}ms",
             f"{ratio_c:.1f}x", "see note"]
        )
        pc = {"n": COARSEN_N, "methods": "random+hem"}
        bench.append(BenchMetric("x11.coarsen.vectorized",
                                 t_new * 1e3, "ms", pc))
        bench.append(BenchMetric("x11.coarsen.legacy",
                                 t_old * 1e3, "ms", pc))
        bench.append(BenchMetric("x11.coarsen.speedup", ratio_c, "", pc,
                                 better="higher"))
        assert ratio_c >= 5.0, (
            f"10k-node coarsening speedup {ratio_c:.1f}x is below the 5x bar"
        )

        # HEM-only step: reference is move-for-move, so outputs must be
        # fully identical (graph equality covers nodes, edges, weights)
        (ch_new, map_new, _), t_hem_new = _timed(
            coarsen_once, g10, 0, methods=("hem",)
        )
        (ch_old, map_old, _), t_hem_old = _timed(
            _legacy_coarsen_once, g10, 0, methods=("hem",)
        )
        assert ch_new == ch_old and np.array_equal(map_new, map_old)
        rows.append(
            [f"coarsen_once n={COARSEN_N} (hem only)",
             f"{t_hem_old * 1e3:.0f}ms", f"{t_hem_new * 1e3:.0f}ms",
             f"{t_hem_old / t_hem_new:.1f}x", "identical"]
        )
        return rows

    benchmark.pedantic(sweep, rounds=1, iterations=1)
    table = format_table(
        ["stage", "serial/legacy", "parallel/vectorized", "speedup", "output"],
        rows,
        title="X11 parallel portfolio racing + vectorized coarsening",
    )
    emit("x11_parallel_portfolio.txt", table)
    emit_bench("x11_parallel_portfolio", bench)
