"""Portfolio partitioning: race configurations, keep the goodness winner.

GP's quality depends on its knobs (matchings, restarts, V-cycles, seeds).
The cheapest robust strategy — and what practitioners actually run — is a
small portfolio: several configurations on the same instance, best result
by the goodness order wins.  The portfolio never returns anything worse
than its best member, so it safely wraps GP in pipelines that must not
regress (at the cost of portfolio-size × runtime).

Execution layer (see ``docs/parallel.md``):

* **Racing** — members are independent given their ``spawn_seeds``-derived
  seeds, so ``n_jobs>1`` races them across worker processes through
  :func:`repro.util.parallel.parallel_map` with results consumed in
  member order: the winner (assignment, metrics, goodness key, ``info``
  except measured runtime) is **bit-identical for every** ``n_jobs``.
* **Early cancel** — ``stop_on_feasible`` truncates at the first feasible
  member in portfolio order, serial and parallel alike.
* **Memoisation** — completed portfolio runs are cached in the shared
  :data:`~repro.util.parallel.memo_cache` keyed by ``("portfolio", graph
  digest, k, constraints, configs, stop_on_feasible, seed)``; repeated
  calls (parameter sweeps, notebook re-runs) are free.  Only reproducible
  seeds (``None`` or an integer) are cached — a live Generator is
  consumed by the call and cannot key anything
  (:func:`~repro.util.parallel.memoised`).

``race_models`` extends the idea across *traffic models*: the same PPN is
partitioned once through the 2-pin edge-cut flattening and once through
the multicast-preserving hypergraph model, both candidates are scored on
the hypergraph's connectivity metrics (the common currency — what the
multicasts actually cost on the wire), and the goodness order picks the
winner.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Sequence

from repro.graph.wgraph import WGraph
from repro.partition.base import PartitionResult
from repro.partition.goodness import goodness_key
from repro.partition.gp import GPConfig, gp_partition, run_gp
from repro.partition.metrics import ConstraintSpec
from repro.util.errors import InfeasibleError, PartitionError
import repro.obs as _obs
from repro.util.parallel import memoised, parallel_map
from repro.util.rng import spawn_seeds

__all__ = [
    "default_portfolio",
    "portfolio_partition",
    "race_models",
]


def default_portfolio() -> list[GPConfig]:
    """A spread of four complementary GP configurations."""
    return [
        GPConfig(),  # paper defaults
        GPConfig(restarts=20, level_candidates=4),  # wider initial search
        GPConfig(vcycles=2),  # deeper refinement
        GPConfig(matchings=("hem",), restarts=5, max_cycles=30),  # many cheap cycles
    ]


def _run_member(context, task) -> PartitionResult:
    """Run one portfolio member (a parallel_map worker).

    The instance travels in the shared *context* (shipped once per
    worker); only the member's config and seed are per-task.
    """
    g, k, constraints = context
    cfg, s = task
    return gp_partition(g, k, constraints, cfg, seed=s)


def portfolio_partition(
    g: WGraph,
    k: int,
    constraints: ConstraintSpec,
    configs: Sequence[GPConfig] | None = None,
    seed=None,
    on_infeasible: str = "return",
    stop_on_feasible: bool = False,
    n_jobs: int | None = 1,
    cache: bool = True,
) -> PartitionResult:
    """Run every configuration; return the goodness-best result.

    Parameters
    ----------
    g:
        Process-network graph (node weights = resources, edge weights =
        bandwidth).
    k:
        Number of partitions (FPGAs).
    constraints:
        ``Bmax`` / ``Rmax`` caps; either may be ``inf``.
    configs:
        The portfolio; :func:`default_portfolio` when omitted.
    seed:
        Reproducible member seeds are derived from this with
        :func:`~repro.util.rng.spawn_seeds` (member *i* always gets the
        same seed regardless of execution order or ``n_jobs``).
    on_infeasible:
        ``"return"`` or ``"raise"`` — applied to the portfolio outcome,
        regardless of member configs' own settings.
    stop_on_feasible:
        Return the best result among members up to and including the
        first feasible one in portfolio order, instead of racing the full
        portfolio (latency over quality).
    n_jobs:
        Worker processes racing the members (``1`` = serial in-process,
        ``-1`` = all CPUs).  The result is bit-identical for every value;
        see the module docstring.
    cache:
        Memoise the outcome in :data:`~repro.util.parallel.memo_cache`
        and reuse it for identical ``(graph, k, constraints, configs,
        stop_on_feasible, seed)`` calls.  Hits return a fresh copy
        flagged with ``info["cache_hit"]=True``; only ``None`` and
        integer seeds participate.

    Returns
    -------
    PartitionResult
        Algorithm ``"GP-portfolio"``, with per-member summaries in
        ``info["runs"]`` and the winner's own ``info`` under
        ``info["winner"]``.
    """
    if on_infeasible not in ("return", "raise"):
        raise PartitionError(
            f"on_infeasible must be return/raise, got {on_infeasible!r}"
        )
    configs = list(configs) if configs is not None else default_portfolio()
    if not configs:
        raise PartitionError("portfolio must contain at least one config")
    # members never raise; the portfolio applies its own policy at the end
    members = [
        cfg
        if cfg.on_infeasible == "return"
        else dataclasses.replace(cfg, on_infeasible="return")
        for cfg in configs
    ]

    result = memoised(
        ("portfolio", g.content_digest(), k, constraints, tuple(members),
         stop_on_feasible),
        seed,
        lambda: _race_members(g, k, constraints, members, seed,
                              stop_on_feasible, n_jobs),
        enabled=cache,
    )
    if not result.feasible and on_infeasible == "raise":
        raise InfeasibleError(
            f"no portfolio member found a feasible partitioning "
            f"({result.info['members']} configurations tried)",
            best=result,
        )
    return result


def _race_members(g, k, constraints, members, seed, stop_on_feasible,
                  n_jobs) -> PartitionResult:
    """Race the portfolio *members*; the goodness-best result wins."""
    seeds = spawn_seeds(seed, len(members))
    with _obs.timed_span("portfolio", members=len(members), k=k) as sw:
        results = parallel_map(
            _run_member,
            list(zip(members, seeds)),
            n_jobs=n_jobs,
            stop=(lambda r: r.feasible) if stop_on_feasible else None,
            context=(g, k, constraints),
        )

    best: PartitionResult | None = None
    best_key = None
    runs = []
    for cfg, res in zip(members, results):
        runs.append(
            {"config": cfg, "feasible": res.feasible, "cut": res.metrics.cut}
        )
        gkey = goodness_key(res.metrics, constraints)
        if best_key is None or gkey < best_key:
            best, best_key = res, gkey

    assert best is not None
    return PartitionResult(
        assign=best.assign,
        k=k,
        metrics=best.metrics,
        algorithm="GP-portfolio",
        runtime=sw.elapsed,
        constraints=constraints,
        info={"members": len(runs), "runs": runs, "winner": best.info},
    )


def _run_race_member(task) -> PartitionResult:
    """Run one traffic-model candidate (a parallel_map worker)."""
    structure, k, constraints, cfg, s = task
    return run_gp(structure, k, constraints, cfg, seed=s)


def race_models(
    program_or_ppn,
    k: int,
    constraints: ConstraintSpec,
    seed=None,
    gp_config: GPConfig | None = None,
    hyper_config: GPConfig | None = None,
    bandwidth_scale: float = 1.0,
    n_jobs: int | None = 1,
) -> PartitionResult:
    """Race the 2-pin edge-cut model against the hypergraph model on a PPN.

    Both partitions are evaluated on the **hypergraph connectivity
    metrics** — the (λ−1) traffic a multicast really generates — so the
    goodness order compares like with like; the edge-cut candidate's own
    (over-counted) metrics are kept in ``info["graph"]["edge_cut_metrics"]``
    for reference.  The winner is returned with ``algorithm
    "model-portfolio"`` and per-model summaries in ``info``.  Both models
    take a :class:`~repro.partition.gp.GPConfig`: *gp_config* defaults to
    the paper's, *hyper_config* to
    :data:`~repro.hypergraph.partition.HYPER_CONFIG`.

    ``n_jobs=2`` runs the two models in separate worker processes; each
    model's seed is derived up front, so the winner is identical to a
    serial race.  Imports of the polyhedral/KPN substrates are deferred
    so the partition package stays importable on its own.
    """
    from repro.kpn.traffic import ppn_to_mapped_graph
    from repro.polyhedral.ppn import PPN, derive_ppn

    ppn = (
        program_or_ppn
        if isinstance(program_or_ppn, PPN)
        else derive_ppn(program_or_ppn)
    )
    s_graph, s_hyper = spawn_seeds(seed, 2)
    hg, _names = ppn.to_hypergraph(bandwidth_scale=bandwidth_scale)

    with _obs.timed_span("race_models", k=k) as sw:
        g, _ = ppn_to_mapped_graph(ppn, mode="tokens", scale=bandwidth_scale)
        member_cfg = gp_config or GPConfig()
        if member_cfg.on_infeasible != "return":
            member_cfg = dataclasses.replace(member_cfg, on_infeasible="return")
        # members never raise: an infeasible model must still lose the race,
        # not abort it
        if hyper_config is not None and hyper_config.on_infeasible != "return":
            hyper_config = dataclasses.replace(
                hyper_config, on_infeasible="return"
            )
        res_graph, res_hyper = parallel_map(
            _run_race_member,
            [
                (g, k, constraints, member_cfg, s_graph),
                (hg, k, constraints, hyper_config, s_hyper),
            ],
            n_jobs=n_jobs,
        )

    from repro.hypergraph.metrics import evaluate_hyper_partition

    # common currency: both assignments priced on the hypergraph
    candidates = {
        "graph": (
            res_graph,
            evaluate_hyper_partition(hg, res_graph.assign, k, constraints),
        ),
        "hypergraph": (res_hyper, res_hyper.metrics),
    }
    winner_name, (winner, winner_metrics) = min(
        candidates.items(), key=lambda kv: goodness_key(kv[1][1], constraints)
    )
    info = {
        "winner": winner_name,
        "graph": {
            "connectivity": candidates["graph"][1].cut,
            "feasible": candidates["graph"][1].feasible,
            "edge_cut_metrics": res_graph.metrics,
        },
        "hypergraph": {
            "connectivity": candidates["hypergraph"][1].cut,
            "feasible": candidates["hypergraph"][1].feasible,
        },
    }
    return PartitionResult(
        assign=winner.assign,
        k=k,
        metrics=winner_metrics,
        algorithm="model-portfolio",
        runtime=sw.elapsed,
        constraints=constraints,
        info=info,
    )
