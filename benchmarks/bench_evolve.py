"""Study X12 — memetic search vs restart-only search at equal budget.

Every instance is partitioned three ways with the same seed:

* **GP** — the paper's restart-only search, its cycle cap set to the
  evolutionary run's total evaluation budget (so restart-only search gets
  at least as many coarsen/partition/refine attempts as the EA gets
  evaluations — a deliberately generous baseline).
* **portfolio** — the four-config GP portfolio (graph instances): a
  seeding-only evolve run (:data:`~repro.evolve.ea.SEEDING_CONFIG`), so
  the delta isolates what the evolutionary loop adds on top.
* **evolve** — :func:`~repro.evolve.evolve_partition` under
  ``max_evals`` equal to the GP cycle cap.

All three are compared under the goodness order (violation first, cut
last) on the instance's native objective — edge cut for graphs, (λ−1)
connectivity for hypergraphs, where the restart-only baseline is
:func:`~repro.hypergraph.partition.hyper_partition` with the same cycle
cap.  Measured wall-clock is reported per run so the "equal budget" claim
is auditable in the artefact.

Artefact: ``benchmarks/artifacts/x12_evolve_quality.txt``.

Acceptance (gated below): the EA is **never worse** than restart-only GP
anywhere in the corpus and **strictly better on ≥ 2 instances**.
"""

import dataclasses

from conftest import emit

from repro.evolve import SEEDING_CONFIG, EvolveConfig, evolve_partition
from repro.graph.generators import multicast_network, random_process_network
from repro.hypergraph.partition import hyper_partition
from repro.kpn.traffic import ppn_to_mapped_graph
from repro.partition.goodness import goodness_key
from repro.partition.gp import GPConfig, gp_partition
from repro.partition.metrics import ConstraintSpec
from repro.polyhedral.gallery import fir_filter, lu
from repro.polyhedral.ppn import derive_ppn
from repro.util.tables import format_table

SEED = 2015
EA_CFG = EvolveConfig(pop_size=6, generations=8, offspring_per_gen=3,
                      max_evals=30, seed_max_cycles=2)
#: restart-only search gets the EA's full evaluation budget in cycles
GP_CYCLES = EA_CFG.max_evals


def _constraints(total_node_weight, k, slack=1.15, bmax=float("inf")):
    return ConstraintSpec(rmax=float(round(slack * total_node_weight / k)),
                          bmax=bmax)


def _fmt_key(key):
    v, bv, rv, cut = key
    return f"viol={v:g} cut={cut:g}"


def _graph_instance_rows(name, g, k, cons, rows, keys):
    gp = gp_partition(
        g, k, cons, GPConfig(max_cycles=GP_CYCLES), seed=SEED
    )
    pf = evolve_partition(g, k, cons, SEEDING_CONFIG, seed=SEED, cache=False)
    ea = evolve_partition(g, k, cons, EA_CFG, seed=SEED, cache=False)
    k_gp = goodness_key(gp.metrics, cons)
    k_pf = goodness_key(pf.metrics, cons)
    k_ea = goodness_key(ea.metrics, cons)
    rows.append([
        name, g.n, k,
        f"{gp.metrics.cut:g}", f"{pf.metrics.cut:g}", f"{ea.metrics.cut:g}",
        _fmt_key(k_ea),
        f"{gp.runtime:.2f}", f"{pf.runtime:.2f}", f"{ea.runtime:.2f}",
        ea.info["evals"],
    ])
    keys[name] = (k_gp, k_pf, k_ea)


def _hyper_instance_rows(name, hg, k, cons, rows, keys):
    gp = hyper_partition(
        hg, k, cons, config=GPConfig(max_cycles=GP_CYCLES), seed=SEED
    )
    ea = evolve_partition(hg, k, cons, EA_CFG, seed=SEED, cache=False)
    k_gp = goodness_key(gp.metrics, cons)
    k_ea = goodness_key(ea.metrics, cons)
    rows.append([
        name, hg.n, k,
        f"{gp.metrics.cut:g}", "-", f"{ea.metrics.cut:g}",
        _fmt_key(k_ea),
        f"{gp.runtime:.2f}", "-", f"{ea.runtime:.2f}",
        ea.info["evals"],
    ])
    keys[name] = (k_gp, None, k_ea)


def test_evolve_vs_restart_only(benchmark, artifacts_dir):
    rows = []
    keys = {}

    def sweep():
        # gallery PPNs through the paper pipeline (2-pin mapping graph)
        for name, prog, k, bmax in [
            ("lu(10)", lu(10), 2, float("inf")),
            ("fir(8,64)", fir_filter(8, 64), 3, float("inf")),
        ]:
            ppn = derive_ppn(prog)
            g, _ = ppn_to_mapped_graph(ppn, mode="tokens")
            cons = _constraints(g.total_node_weight, k, bmax=bmax)
            _graph_instance_rows(name, g, k, cons, rows, keys)

        # synthetic process networks, cut-dominated and bandwidth-tight
        for n, m, k, bmax, gseed in [
            (96, 220, 4, float("inf"), 11),
            (120, 280, 4, 260.0, 12),
            (150, 360, 5, float("inf"), 13),
        ]:
            g = random_process_network(n, m, seed=gseed)
            cons = _constraints(g.total_node_weight, k, bmax=bmax)
            _graph_instance_rows(f"rand(n={n},k={k})", g, k, cons, rows, keys)

        # multicast synthetics under the (λ-1) connectivity objective
        for n, fanout, k in [(90, 6, 3), (120, 10, 4)]:
            hg = multicast_network(n, seed=fanout, fanout=fanout)
            cons = _constraints(hg.total_node_weight, k)
            _hyper_instance_rows(
                f"multicast(n={n},f={fanout})", hg, k, cons, rows, keys
            )

    benchmark.pedantic(sweep, rounds=1, iterations=1)
    table = format_table(
        ["instance", "n", "k",
         "GP cut", "portfolio cut", "evolve cut", "evolve quality",
         "GP s", "pf s", "EA s", "EA evals"],
        rows,
        title=(
            f"X12 memetic search vs restart-only at equal budget "
            f"(GP max_cycles = EA max_evals = {GP_CYCLES}, seed {SEED}; "
            f"cut = edge cut on graphs, (λ-1) connectivity on hypergraphs)"
        ),
    )
    table += (
        "\nNote: restart-only GP stops at its first feasible cycle by design"
        "\n(feasibility-driven search), so it may consume less wall-clock than"
        "\nthe budget it was offered; the EA spends the same budget improving"
        "\ncut past feasibility — that gap is exactly what this study measures."
        "\nMeasured per-run seconds are printed so the claim is auditable.\n"
    )
    emit("x12_evolve_quality.txt", table)

    # acceptance: never worse than restart-only GP under the goodness
    # order, strictly better on at least two instances
    worse = {n: (kg, ke) for n, (kg, _kp, ke) in keys.items() if ke > kg}
    assert not worse, f"evolve worse than GP on: {worse}"
    strict = [n for n, (kg, _kp, ke) in keys.items() if ke < kg]
    assert len(strict) >= 2, (
        f"evolve strictly better on only {strict} "
        f"(keys: { {n: v for n, v in keys.items()} })"
    )
    # and it never loses to its own seeding portfolio either
    pf_worse = {
        n: (kp, ke)
        for n, (_kg, kp, ke) in keys.items()
        if kp is not None and ke > kp
    }
    assert not pf_worse, f"evolve worse than portfolio on: {pf_worse}"
