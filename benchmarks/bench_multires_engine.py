"""Study X13 — the vector-resource engine unification, measured.

Three questions, one corpus (random + fpga device-shaped weight matrices):

* **FM speedup** — the seam-based vector FM
  (:func:`~repro.partition.multires.mr_constrained_fm` =
  ``run_constrained_fm`` on a ``VectorRefinementState``) against the
  frozen pre-unification loop (``_legacy_multires``), same starts, same
  seeds.  The frozen loop re-scans every candidate per step (O(n²·k)
  Python per pass); the engine pays O(deg + k) per move through the
  shared gain-bucket queue.
* **End-to-end speedup** — ``mr_gp_partition`` against
  ``legacy_mr_gp_partition`` at identical knobs, with feasibility
  compared (the engines' hill-climb tie-breaking differs, so cuts may
  differ a few percent either way; feasibility must not).
* **What the unification unlocks** — the memetic search
  (:func:`~repro.evolve.evolve_partition` on the vector engine, newly
  possible) against the restart-only ``mr_gp_partition`` at an equal
  evaluation budget, under the goodness order.

Artefact: ``benchmarks/artifacts/x13_multires_engine.txt``.

Acceptance (gated below): the seam FM is **faster** on every timing
instance (≥ 2× on the largest), end-to-end feasibility is **never lost**
vs the frozen path, and evolve is **never worse** than restart-only
vector GP under the goodness order.
"""

import time
from dataclasses import replace

import numpy as np
from conftest import emit, emit_bench

import _legacy_multires as legacy
from repro.evolve import EvolveConfig, evolve_partition
from repro.fpga.resources import random_device_matrix
from repro.graph.generators import random_process_network
from repro.obs.benchdb import BenchMetric
from repro.partition.goodness import goodness_key
from repro.partition.multires import (
    MR_GP_CONFIG,
    VectorConstraints,
    evaluate_multires,
    mr_constrained_fm,
    mr_gp_partition,
)
from repro.partition.vector_state import VectorGraph
from repro.util.tables import format_table

SEED = 2015


def make_instance(n, m, R, k, seed, kind="rand", slack=1.25, bmax_frac=0.35):
    g = random_process_network(n, m, seed=seed)
    if kind == "dev":
        w, _ = random_device_matrix(n, seed=seed, n_resources=R)
    else:
        rng = np.random.default_rng(seed)
        w = np.stack(
            [rng.integers(1, 30, n).astype(float) for _ in range(R)], axis=1
        )
    rmax = tuple(
        float(np.ceil(slack * max(w[:, r].sum() / k, w[:, r].max())))
        for r in range(R)
    )
    cons = VectorConstraints(
        bmax=float(np.ceil(bmax_frac * g.total_edge_weight)), rmax=rmax
    )
    return g, w, cons


def timed(fn, repeats: int = 1):
    """``(result, best-of-repeats wall-clock)`` — best-of keeps the CI
    gates below robust against scheduler stalls on loaded machines."""
    best = float("inf")
    out = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return out, best


def fm_speedup_study():
    """Seam FM vs frozen loop: same greedy start, same seed, wall-clock."""
    rows = []
    bench = []
    speedups = []
    for kind, n, m, R, k in (
        ("rand", 60, 132, 3, 4),
        ("dev", 90, 200, 4, 4),
        ("dev", 140, 310, 4, 6),
    ):
        g, w, cons = make_instance(n, m, R, k, SEED, kind=kind)
        start = legacy.legacy_mr_greedy_initial(
            g, w, k, cons, restarts=2, seed=SEED
        )
        new, t_new = timed(
            lambda: mr_constrained_fm(g, w, start.copy(), k, cons, seed=SEED),
            repeats=3,
        )
        old, t_old = timed(
            lambda: legacy.legacy_mr_constrained_fm(
                g, w, start.copy(), k, cons, seed=SEED
            ),
            repeats=2,
        )
        m_new = evaluate_multires(g, w, new, k, cons)
        m_old = evaluate_multires(g, w, old, k, cons)
        speedup = t_old / t_new if t_new > 0 else float("inf")
        speedups.append((n, speedup))
        rows.append([
            f"{kind} n={n} R={R} k={k}",
            round(t_old * 1e3, 1),
            round(t_new * 1e3, 1),
            f"{speedup:.1f}x",
            f"{m_old.total_violation:g}/{m_old.cut:g}",
            f"{m_new.total_violation:g}/{m_new.cut:g}",
        ])
        p = {"stage": "fm", "kind": kind, "n": n, "R": R, "k": k}
        bench.append(BenchMetric("x13.engine", t_new * 1e3, "ms", p))
        bench.append(BenchMetric("x13.legacy", t_old * 1e3, "ms", p))
        bench.append(BenchMetric("x13.cut", float(m_new.cut), "", p))
    table = format_table(
        ["instance", "legacy FM (ms)", "engine FM (ms)", "speedup",
         "legacy viol/cut", "engine viol/cut"],
        rows,
        title="X13a — vector FM: frozen loop vs shared engine",
    )
    return table, speedups, bench


def end_to_end_study():
    """mr_gp_partition vs the frozen serial pipeline, identical knobs."""
    rows = []
    bench = []
    feas_pairs = []
    speedups = []
    for kind, n, m, R, k in (
        ("rand", 40, 90, 3, 4),
        ("dev", 56, 124, 4, 4),
    ):
        g, w, cons = make_instance(n, m, R, k, SEED, kind=kind)
        new, t_new = timed(
            lambda: mr_gp_partition(g, w, k, cons, seed=SEED, cache=False)
        )
        old, t_old = timed(
            lambda: legacy.legacy_mr_gp_partition(g, w, k, cons, seed=SEED)
        )
        speedup = t_old / t_new if t_new > 0 else float("inf")
        speedups.append(speedup)
        feas_pairs.append((new.feasible, old.feasible))
        rows.append([
            f"{kind} n={n} R={R} k={k}",
            round(t_old, 3),
            round(t_new, 3),
            f"{speedup:.1f}x",
            f"{old.metrics.total_violation:g}/{old.metrics.cut:g}",
            f"{new.metrics.total_violation:g}/{new.metrics.cut:g}",
            f"{old.feasible}/{new.feasible}",
        ])
        p = {"stage": "e2e", "kind": kind, "n": n, "R": R, "k": k}
        bench.append(BenchMetric("x13.engine", t_new, "s", p))
        bench.append(BenchMetric("x13.cut", float(new.metrics.cut), "", p))
        bench.append(BenchMetric("x13.feasible", float(new.feasible), "",
                                 p, better="higher"))
    table = format_table(
        ["instance", "legacy (s)", "engine (s)", "speedup",
         "legacy viol/cut", "engine viol/cut", "feasible old/new"],
        rows,
        title="X13b — mr_gp_partition: frozen pipeline vs shared engine",
    )
    return table, feas_pairs, speedups, bench


def evolve_unlocked_study():
    """What the seam buys: the memetic search on vector instances."""
    ea_cfg = EvolveConfig(pop_size=4, generations=6, offspring_per_gen=2,
                          max_evals=16, seed_max_cycles=2)
    rows = []
    verdicts = []
    for kind, n, m, R, k, seed in (
        ("rand", 40, 90, 3, 4, SEED),
        ("dev", 48, 108, 4, 4, SEED + 1),
        ("dev", 56, 124, 3, 5, SEED + 2),
    ):
        g, w, cons = make_instance(n, m, R, k, seed, kind=kind)
        gp = mr_gp_partition(
            g, w, k, cons, replace(MR_GP_CONFIG, max_cycles=ea_cfg.max_evals),
            seed=seed, cache=False,
        )
        ea = evolve_partition(
            VectorGraph(g, w), k, cons, config=ea_cfg, seed=seed,
            cache=False,
        )
        kg = goodness_key(gp.metrics, cons)
        ke = goodness_key(ea.metrics, cons)
        verdict = "better" if ke < kg else ("equal" if ke == kg else "worse")
        verdicts.append(verdict)
        rows.append([
            f"{kind} n={n} R={R} k={k}",
            f"viol={kg[0]:g} cut={kg[3]:g}",
            f"viol={ke[0]:g} cut={ke[3]:g}",
            verdict,
        ])
    table = format_table(
        ["instance", f"restart-only GP ({ea_cfg.max_evals} cycles)",
         f"evolve ({ea_cfg.max_evals} evals)", "evolve is"],
        rows,
        title="X13c — equal-budget memetic search on vector instances "
              "(newly unlocked)",
    )
    return table, verdicts


def run_study():
    fm_table, fm_speedups, fm_bench = fm_speedup_study()
    e2e_table, feas_pairs, e2e_speedups, e2e_bench = end_to_end_study()
    ea_table, verdicts = evolve_unlocked_study()
    lines = [fm_table, "", e2e_table, "", ea_table, ""]
    largest_n, largest_speedup = max(fm_speedups)
    lines.append(
        f"headline: seam-based vector FM is {largest_speedup:.1f}x the "
        f"frozen loop at n={largest_n}; end-to-end mr_gp "
        f"{min(e2e_speedups):.1f}-{max(e2e_speedups):.1f}x; evolve verdicts "
        f"vs restart-only GP at equal budget: {', '.join(verdicts)}"
    )
    return "\n".join(lines), fm_speedups, feas_pairs, verdicts, \
        fm_bench + e2e_bench


def test_multires_engine(benchmark):
    (text, fm_speedups, feas_pairs, verdicts, bench) = benchmark.pedantic(
        run_study, rounds=1, iterations=1
    )
    emit("x13_multires_engine.txt", text)
    emit_bench("x13_multires_engine", bench, seed=SEED)
    # gated acceptance — see module docstring
    for n, s in fm_speedups:
        assert s > 1.0, f"vector FM slower than the frozen loop at n={n}"
    largest_n, largest_speedup = max(fm_speedups)
    assert largest_speedup >= 2.0, (
        f"expected >= 2x FM speedup at n={largest_n}, got {largest_speedup:.2f}x"
    )
    for new_feasible, old_feasible in feas_pairs:
        assert new_feasible or not old_feasible, (
            "engine path lost feasibility the frozen path had"
        )
    assert all(v in ("better", "equal") for v in verdicts), (
        f"evolve lost to restart-only GP at equal budget: {verdicts}"
    )


if __name__ == "__main__":
    text, _, _, _, bench = run_study()
    emit("x13_multires_engine.txt", text)
    emit_bench("x13_multires_engine", bench, seed=SEED)
