"""Extended evaluation suites (studies X1-X5 in DESIGN.md).

These go beyond the paper's three 12-node experiments, probing the regime
the paper motivates but does not measure ("graphs with potentially thousands
nodes", Section I): scaling, matching-strategy ablations, restart ablations,
constraint-tightness sweeps and the exact-optimality gap.

Importing this module also registers the ``repro bench`` suites (see
:mod:`repro.obs.benchdb`): ``smoke`` — the fast everything-touched run CI
gates on — plus thin wrappers around the X9/X11/X13/X14 study workloads
(``x9_refine``, ``x11_portfolio``, ``x13_multires``, ``x14_flow``) that
emit the same structured BENCH metrics at benchmark-driver scale, and
``x15_scale`` — the million-node-scale track (sparse connectivity store
footprint and constrained-FM time at k=64; the full 1M-node
acceptance driver lives in ``benchmarks/bench_scale_sparse.py``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.graph.generators import multicast_network, random_process_network
from repro.graph.wgraph import WGraph
from repro.obs.benchdb import BenchMetric, register_suite
from repro.partition.exact import exact_partition
from repro.partition.gp import GPConfig, gp_partition
from repro.partition.metrics import ConstraintSpec
from repro.partition.mlkp import mlkp_partition
from repro.partition.spectral import spectral_partition
from repro.util.errors import InfeasibleError

__all__ = [
    "SweepRow",
    "scaling_suite",
    "matching_ablation",
    "restart_ablation",
    "constraint_sweep",
    "exact_gap_suite",
    "tight_instance",
    "smoke_suite",
]


@dataclass
class SweepRow:
    """One measurement of a sweep; ``extra`` holds study-specific fields."""

    study: str
    params: dict
    algorithm: str
    cut: float
    runtime: float
    max_resource: float
    max_bandwidth: float
    feasible: bool
    extra: dict = field(default_factory=dict)

    def as_list(self) -> list:
        return [
            self.study,
            str(self.params),
            self.algorithm,
            self.cut,
            round(self.runtime, 4),
            self.max_resource,
            self.max_bandwidth,
            self.feasible,
        ]


def tight_instance(
    n: int, k: int, seed: int, slack: float = 1.15, bw_factor: float = 1.3
) -> tuple[WGraph, ConstraintSpec]:
    """A PN-shaped instance with constraints tight enough to matter:
    ``Rmax = slack * total/k``; ``Bmax = bw_factor * (random 4-way cut) / pairs``."""
    m = int(2.2 * n)
    g = random_process_network(n, m, seed=seed, node_weight_range=(4, 40))
    rmax = slack * g.total_node_weight / k
    rng = np.random.default_rng(seed)
    a = rng.integers(0, k, size=n)
    from repro.partition.metrics import bandwidth_matrix

    bw = bandwidth_matrix(g, a, k)
    pairs = k * (k - 1) / 2
    bmax = bw_factor * float(np.triu(bw, 1).sum()) / pairs
    return g, ConstraintSpec(bmax=float(np.ceil(bmax)), rmax=float(np.ceil(rmax)))


def scaling_suite(
    sizes: tuple[int, ...] = (50, 100, 200, 400, 800),
    k: int = 4,
    seed: int = 0,
    include_spectral: bool = True,
) -> list[SweepRow]:
    """X1 — runtime/cut scaling of GP vs MLKP (vs spectral) with n."""
    rows: list[SweepRow] = []
    for n in sizes:
        g, cons = tight_instance(n, k, seed=seed + n)
        runs = [
            ("GP", lambda: gp_partition(
                g, k, cons, GPConfig(max_cycles=5, restarts=5), seed=seed)),
            ("MLKP", lambda: mlkp_partition(g, k, seed=seed, constraints=cons)),
        ]
        if include_spectral:
            runs.append(
                ("spectral", lambda: spectral_partition(g, k, constraints=cons))
            )
        for name, fn in runs:
            res = fn()
            rows.append(
                SweepRow(
                    study="scaling",
                    params={"n": n, "k": k},
                    algorithm=name,
                    cut=res.metrics.cut,
                    runtime=res.runtime,
                    max_resource=res.metrics.max_resource,
                    max_bandwidth=res.metrics.max_local_bandwidth,
                    feasible=res.feasible,
                )
            )
    return rows


def matching_ablation(
    n: int = 150,
    k: int = 4,
    seeds: tuple[int, ...] = (0, 1, 2),
) -> list[SweepRow]:
    """X2 — coarsening matching strategy ablation.

    GP's Section IV.A races three matchings per level; this measures each
    alone versus the best-of-three default.
    """
    variants = {
        "random-only": ("random",),
        "hem-only": ("hem",),
        "kmeans-only": ("kmeans",),
        "best-of-3": ("random", "hem", "kmeans"),
    }
    rows: list[SweepRow] = []
    for seed in seeds:
        g, cons = tight_instance(n, k, seed=100 + seed)
        for name, methods in variants.items():
            cfg = GPConfig(
                max_cycles=4, restarts=5, matchings=methods, coarsen_to=30
            )
            res = gp_partition(g, k, cons, cfg, seed=seed)
            rows.append(
                SweepRow(
                    study="matching_ablation",
                    params={"n": n, "k": k, "seed": seed},
                    algorithm=name,
                    cut=res.metrics.cut,
                    runtime=res.runtime,
                    max_resource=res.metrics.max_resource,
                    max_bandwidth=res.metrics.max_local_bandwidth,
                    feasible=res.feasible,
                    extra={"cycles": res.info["cycles"]},
                )
            )
    return rows


def restart_ablation(
    restarts_grid: tuple[int, ...] = (1, 5, 10, 20),
    n: int = 120,
    k: int = 4,
    seeds: tuple[int, ...] = (0, 1, 2),
) -> list[SweepRow]:
    """X3 — initial-partitioning restart count ablation (paper default 10)."""
    rows: list[SweepRow] = []
    for seed in seeds:
        g, cons = tight_instance(n, k, seed=200 + seed)
        for restarts in restarts_grid:
            cfg = GPConfig(max_cycles=3, restarts=restarts, coarsen_to=30)
            res = gp_partition(g, k, cons, cfg, seed=seed)
            rows.append(
                SweepRow(
                    study="restart_ablation",
                    params={"restarts": restarts, "seed": seed},
                    algorithm=f"GP(r={restarts})",
                    cut=res.metrics.cut,
                    runtime=res.runtime,
                    max_resource=res.metrics.max_resource,
                    max_bandwidth=res.metrics.max_local_bandwidth,
                    feasible=res.feasible,
                )
            )
    return rows


def constraint_sweep(
    n: int = 60,
    k: int = 4,
    seed: int = 0,
    tightness_grid: tuple[float, ...] = (2.0, 1.6, 1.3, 1.15, 1.05),
) -> list[SweepRow]:
    """X4 — feasibility frontier: tighten Rmax/Bmax and watch GP keep
    satisfying while MLKP's violations grow."""
    rows: list[SweepRow] = []
    for tight in tightness_grid:
        g, cons = tight_instance(n, k, seed=seed, slack=tight, bw_factor=tight)
        for name, fn in (
            ("GP", lambda: gp_partition(
                g, k, cons, GPConfig(max_cycles=8, restarts=8), seed=seed)),
            ("MLKP", lambda: mlkp_partition(g, k, seed=seed, constraints=cons)),
        ):
            res = fn()
            m = res.metrics
            rows.append(
                SweepRow(
                    study="constraint_sweep",
                    params={"tightness": tight},
                    algorithm=name,
                    cut=m.cut,
                    runtime=res.runtime,
                    max_resource=m.max_resource,
                    max_bandwidth=m.max_local_bandwidth,
                    feasible=res.feasible,
                    extra={
                        "bw_violation": m.bandwidth_violation,
                        "res_violation": m.resource_violation,
                    },
                )
            )
    return rows


def exact_gap_suite(
    n: int = 11,
    k: int = 3,
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4),
) -> list[SweepRow]:
    """X5 — GP's optimality gap against the exact constrained optimum."""
    rows: list[SweepRow] = []
    for seed in seeds:
        g, cons = tight_instance(n, k, seed=300 + seed, slack=1.4, bw_factor=1.6)
        try:
            opt = exact_partition(g, k, cons, enforce=True)
        except InfeasibleError:
            continue
        gp = gp_partition(g, k, cons, GPConfig(max_cycles=10), seed=seed)
        gap = (gp.cut - opt.cut) / opt.cut if opt.cut else 0.0
        for res, tag in ((opt, "exact"), (gp, "GP")):
            rows.append(
                SweepRow(
                    study="exact_gap",
                    params={"seed": seed, "n": n, "k": k},
                    algorithm=tag,
                    cut=res.metrics.cut,
                    runtime=res.runtime,
                    max_resource=res.metrics.max_resource,
                    max_bandwidth=res.metrics.max_local_bandwidth,
                    feasible=res.feasible,
                    extra={"gap": gap if tag == "GP" else 0.0},
                )
            )
    return rows


# --------------------------------------------------------------------- #
# registered BENCH suites (`repro bench`; see repro.obs.benchdb)
# --------------------------------------------------------------------- #
def _run_metrics(name: str, fn, params: dict, seed: int) -> list[BenchMetric]:
    """Time *fn* and emit the standard (runtime, cut, feasible) triple.

    The cut and feasibility metrics are exact — the partitioners are
    deterministic at fixed seeds, so any drift there is a real behaviour
    change, not noise; only the runtime gets a tolerance band.
    """
    t0 = time.perf_counter()
    res = fn()
    elapsed = time.perf_counter() - t0
    return [
        BenchMetric(f"{name}.runtime", elapsed, "s", dict(params), seed),
        BenchMetric(f"{name}.cut", float(res.metrics.cut), "", dict(params),
                    seed),
        BenchMetric(f"{name}.feasible", float(res.feasible), "",
                    dict(params), seed, better="higher"),
    ]


@register_suite(
    "smoke",
    description="fast cross-method run (gp/mlkp/hyper/portfolio/multires) "
                "— the suite CI stage 10 gates on",
)
def smoke_suite(seed: int = 0) -> list[BenchMetric]:
    """Every major partitioning path once, at a size that stays seconds.

    Small on purpose: the value of the smoke suite is the *trajectory*
    (the same metrics across revisions under ``repro bench --compare``),
    not the absolute load, so it must be cheap enough to run in CI and
    as part of the test suite.
    """
    from repro.evolve.ea import SEEDING_CONFIG, evolve_partition
    from repro.hypergraph.partition import hyper_partition
    from repro.partition.multires import mr_gp_partition
    from repro.fpga.resources import random_device_matrix
    from repro.partition.vector_state import VectorConstraints

    out: list[BenchMetric] = []
    g, cons = tight_instance(60, 3, seed=seed)
    p = {"instance": "pn", "n": 60, "k": 3}
    out += _run_metrics(
        "gp", lambda: gp_partition(
            g, 3, cons, GPConfig(max_cycles=3, restarts=3), seed=seed
        ), p, seed,
    )
    out += _run_metrics(
        "mlkp", lambda: mlkp_partition(g, 3, seed=seed, constraints=cons),
        p, seed,
    )
    out += _run_metrics(
        "portfolio", lambda: evolve_partition(
            g, 3, cons, SEEDING_CONFIG, seed=seed, cache=False
        ), p, seed,
    )
    hg = multicast_network(40, seed=seed, fanout=4)
    out += _run_metrics(
        "hyper", lambda: hyper_partition(hg, 3, seed=seed),
        {"instance": "multicast", "n": 40, "k": 3}, seed,
    )
    gv = random_process_network(50, 120, seed=seed)
    w, names = random_device_matrix(50, seed=seed, n_resources=3)
    caps = tuple(1.3 * float(c) / 3 for c in w.sum(axis=0))
    vcons = VectorConstraints(bmax=float("inf"), rmax=caps, names=names)
    out += _run_metrics(
        "multires", lambda: mr_gp_partition(
            gv, w, 3, vcons,
            GPConfig(coarsen_to=20, restarts=3, max_cycles=3,
                     level_candidates=1),
            seed=seed, cache=False,
        ), {"instance": "device", "n": 50, "k": 3, "resources": 3}, seed,
    )
    return out


@register_suite(
    "x9_refine",
    description="study X9 workload: the vectorized refinement engine "
                "inside gp/mlkp at 1k-2k nodes",
)
def _x9_suite(seed: int = 0) -> list[BenchMetric]:
    out: list[BenchMetric] = []
    for n in (1000, 2000):
        g, cons = tight_instance(n, 8, seed=seed + n)
        p = {"instance": "pn", "n": n, "k": 8}
        out += _run_metrics(
            "x9.gp", lambda: gp_partition(
                g, 8, cons, GPConfig(max_cycles=3, restarts=3), seed=seed
            ), p, seed,
        )
        out += _run_metrics(
            "x9.mlkp",
            lambda: mlkp_partition(g, 8, seed=seed, constraints=cons),
            p, seed,
        )
    return out


@register_suite(
    "x11_portfolio",
    description="study X11 workload: the GP config portfolio (evolve's "
                "seeding), cold run plus the memo-cache hit",
)
def _x11_suite(seed: int = 0) -> list[BenchMetric]:
    from repro.evolve.ea import SEEDING_CONFIG, evolve_partition
    from repro.util.parallel import memo_cache

    g, cons = tight_instance(180, 4, seed=seed)
    p = {"instance": "pn", "n": 180, "k": 4}
    memo_cache.clear()
    out = _run_metrics(
        "x11.portfolio",
        lambda: evolve_partition(g, 4, cons, SEEDING_CONFIG, seed=seed),
        p, seed,
    )
    t0 = time.perf_counter()
    evolve_partition(g, 4, cons, SEEDING_CONFIG, seed=seed)
    out.append(BenchMetric(
        "x11.cache_hit", time.perf_counter() - t0, "s", dict(p), seed,
    ))
    return out


@register_suite(
    "x13_multires",
    description="study X13 workload: vector-resource multilevel GP on a "
                "device-shaped matrix",
)
def _x13_suite(seed: int = 0) -> list[BenchMetric]:
    from repro.fpga.resources import random_device_matrix
    from repro.partition.multires import mr_gp_partition
    from repro.partition.vector_state import VectorConstraints

    out: list[BenchMetric] = []
    for n in (200, 400):
        g = random_process_network(n, int(2.4 * n), seed=seed + n)
        w, names = random_device_matrix(n, seed=seed + n)
        caps = tuple(1.25 * float(c) / 4 for c in w.sum(axis=0))
        vcons = VectorConstraints(bmax=float("inf"), rmax=caps, names=names)
        out += _run_metrics(
            "x13.multires", lambda: mr_gp_partition(
                g, w, 4, vcons,
                GPConfig(coarsen_to=50, restarts=5, max_cycles=4,
                         level_candidates=1),
                seed=seed, cache=False,
            ), {"instance": "device", "n": n, "k": 4}, seed,
        )
    return out


@register_suite(
    "x14_flow",
    description="study X14 workload: corridor max-flow refinement "
                "(fm+flow) against plain fm",
)
def _x14_suite(seed: int = 0) -> list[BenchMetric]:
    out: list[BenchMetric] = []
    g, cons = tight_instance(300, 4, seed=seed)
    for mode in ("fm", "fm+flow"):
        p = {"instance": "pn", "n": 300, "k": 4, "refine": mode}
        out += _run_metrics(
            f"x14.{mode}", lambda mode=mode: gp_partition(
                g, 4, cons,
                GPConfig(max_cycles=3, restarts=3, refine=mode), seed=seed,
            ), p, seed,
        )
    return out


def bounded_degree_graph(n: int, strides: tuple = (7, 101)) -> WGraph:
    """Ring + chord graph with degree ``2·(1+len(strides))`` — the
    bounded-degree shape where the sparse connectivity store shines.

    Built through ``WGraph._from_canonical`` so construction is O(m)
    numpy; the X15 suite and the 1M-node acceptance driver
    (``benchmarks/bench_scale_sparse.py``) both need sizes where the
    edge-list ``__init__`` path would dominate the measurement.
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


@register_suite(
    "x15_scale",
    description="million-node-scale track: sparse vs dense connectivity "
                "store footprint and constrained-FM time at k=64",
)
def _x15_suite(seed: int = 0) -> list[BenchMetric]:
    """Sparse-engine scale telemetry on a bounded-degree 80k-node graph.

    ``k·n`` sits above the auto-sparse threshold, so this measures the
    representation large instances actually get: per-format store bytes
    and build peaks, the dense/sparse footprint ratio (gated
    ``better="higher"``), and the wall clock and cut of one
    whole-boundary constrained-FM call.  The assignment is
    contiguous blocks with 2% random perturbation — the post-projection
    shape uncoarsening hands to refinement.
    """
    import tracemalloc

    from repro.partition.kway_refine import constrained_kway_fm
    from repro.partition.metrics import evaluate_partition
    from repro.partition.refine_state import RefinementState

    n, k = 80_000, 64
    g = bounded_degree_graph(n)
    rng = np.random.default_rng(seed)
    a = (np.arange(n) * k // n).astype(np.int64)
    perturbed = rng.choice(n, size=n // 50, replace=False)
    a[perturbed] = rng.integers(0, k, size=perturbed.size)
    p = {"instance": "ring", "n": n, "k": k}

    out: list[BenchMetric] = []
    nbytes = {}
    for fmt in ("dense", "sparse"):
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        tracemalloc.reset_peak()
        t0 = time.perf_counter()
        st = RefinementState(g, a.copy(), k, conn_format=fmt)
        elapsed = time.perf_counter() - t0
        peak = tracemalloc.get_traced_memory()[1]
        if not tracing:
            tracemalloc.stop()
        nbytes[fmt] = st._store.nbytes
        pf = {**p, "format": fmt}
        out.append(BenchMetric(
            f"x15.state_build.{fmt}.runtime", elapsed, "s", pf, seed,
        ))
        out.append(BenchMetric(
            f"x15.conn_bytes.{fmt}", float(st._store.nbytes), "bytes",
            pf, seed,
        ))
        out.append(BenchMetric(
            f"x15.state_build.{fmt}.peak_bytes", float(peak), "bytes",
            pf, seed,
        ))
        del st
    out.append(BenchMetric(
        "x15.conn_ratio", nbytes["dense"] / nbytes["sparse"], "",
        dict(p), seed, better="higher",
    ))

    cons = ConstraintSpec(rmax=float(np.ceil(1.03 * g.total_node_weight / k)))
    t0 = time.perf_counter()
    res = constrained_kway_fm(g, a.copy(), k, cons, max_passes=2, seed=seed)
    elapsed = time.perf_counter() - t0
    m = evaluate_partition(g, res, k, cons)
    pf = {**p, "frontier": "global"}
    out.append(BenchMetric("x15.fm.global.runtime", elapsed, "s", pf, seed))
    out.append(BenchMetric("x15.fm.global.cut", float(m.cut), "", pf, seed))
    out.append(BenchMetric(
        "x15.fm.global.feasible", float(m.feasible), "", pf, seed,
        better="higher",
    ))
    return out
