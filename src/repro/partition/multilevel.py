"""The multilevel pipeline of the paper's Section IV, written once.

One cycle worker and one driver run GP on every substrate through the
engine adapters of :mod:`repro.partition.engine` (and the METIS-like
baseline through :class:`~repro.partition.mlkp.MLKPEngine`):

1. **Coarsening** (IV.A) — ``engine.coarsen`` builds the hierarchy down to
   ``max(coarsen_to, 2k)`` nodes and returns one structure per level.
2. **Initial partitioning** (IV.B) — ``engine.initial`` seeds the coarsest
   level.  An engine whose seed comes from a proxy structure (the
   hypergraph's clique expansion) has its coarsest level refined too.
3. **Un-coarsening** (IV.C) — project level by level; per level
   ``level_candidates`` FM runs race and the goodness function keeps the
   one "nearest to meeting the constraints".  Optional restricted
   V-cycles (:func:`~repro.partition.vcycle.vcycle_refine`) follow, on
   every engine.
4. **Cyclic retry** — cycles race through
   :func:`~repro.util.parallel.parallel_map` until the first feasible one;
   the goodness winner gets the ``fm+flow`` polish, and an infeasible
   outcome is returned or raised as ``on_infeasible`` asks.

Every cycle draws four seeds (hierarchy, initial, un-coarsening, V-cycle)
up front, so cycles are independent of each other and the result is
bit-identical for every ``n_jobs``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

import repro.obs as _obs
from repro.partition.coarsen import MATCHING_METHODS
from repro.partition.conn_store import check_conn_format
from repro.partition.flow_refine import check_refine_mode, run_flow_refine
from repro.partition.goodness import goodness_key
from repro.partition.metrics import check_k
from repro.partition.vcycle import vcycle_refine
from repro.util.errors import InfeasibleError, PartitionError
from repro.util.parallel import parallel_map
from repro.util.rng import as_rng, spawn_seeds

__all__ = ["GPConfig", "multilevel_partition", "raise_if_infeasible"]


@dataclass(frozen=True)
class GPConfig:
    """Tuning knobs of the multilevel driver, with the paper's defaults.

    One config for every engine: :func:`~repro.partition.gp.gp_partition`,
    :func:`~repro.hypergraph.partition.hyper_partition`,
    :func:`~repro.partition.multires.mr_gp_partition` and
    :func:`~repro.partition.mlkp.mlkp_partition` all take it (the latter
    three with their own defaults when given ``None``).

    Attributes
    ----------
    coarsen_to:
        Coarsening stops at this many nodes ("default is 100").
    restarts:
        Initial-partitioning restarts ("10 is default").
    max_cycles:
        Maximum coarsen/partition/un-coarsen cycles before declaring the
        instance infeasible ("a predetermined number of iterations").
    level_candidates:
        Intermediate clusterings generated per un-coarsening level and
        compared with the goodness function.
    refine_passes:
        FM passes per refinement call.
    vcycles:
        Partition-preserving V-cycle refinement rounds applied to each
        cycle's finest-level result (see :mod:`repro.partition.vcycle`);
        0 disables (the default — the cyclic restarts already realise the
        paper's outer loop; benchmark X8 measures this knob).  Every
        engine runs them, with plain FM inside each round.
    matchings:
        Coarsening heuristics raced per level (Section IV.A's three).
        The hypergraph engine contracts by heavy pins and ignores them.
    refine:
        Refinement stage (see :mod:`repro.partition.flow_refine`):
        ``"fm"`` — the paper's constrained FM per level (default, exact
        historical behaviour); ``"fm+flow"`` — FM per level, then one
        guarded flow stage on the race winner, so the result is never
        worse than ``"fm"`` under the same seeds.
    conn_format:
        Connectivity-store layout of every refinement state this run
        builds (:mod:`repro.partition.conn_store`): ``"dense"`` — the
        historical ``(k, n)`` matrices; ``"sparse"`` — packed per-node
        slices sized by degree (the million-node setting); ``"auto"``
        (default) — sparse iff ``k·n`` crosses the module threshold.
        Dense and sparse are bit-identical under integer-valued weights.
        The hypergraph Φ engine has no store and accepts ``"auto"`` only.
    on_infeasible:
        ``"return"`` — give back the least-violating partition with
        ``feasible=False``; ``"raise"`` — raise :class:`InfeasibleError`.
    seed:
        Default random seed for the run; the ``seed`` argument of the
        wrappers overrides it when given, and ``None`` falls back to the
        library-default seed (runs are deterministic unless the caller
        passes a live Generator).

    This docstring is the canonical field-by-field reference for the
    multilevel knobs — ``docs/architecture.md`` and ``docs/parallel.md``
    link here rather than re-listing them.  Execution concerns
    (``n_jobs``) are deliberately *not* config fields: they change
    wall-clock, never results, and live on the call sites instead.
    """

    coarsen_to: int = 100
    restarts: int = 10
    max_cycles: int = 20
    level_candidates: int = 3
    refine_passes: int = 6
    vcycles: int = 0
    matchings: tuple[str, ...] = ("random", "hem", "kmeans")
    refine: str = "fm"
    conn_format: str = "auto"
    on_infeasible: str = "return"
    seed: int | None = None

    def __post_init__(self) -> None:
        # normalise matchings to a tuple so configs stay hashable (cache
        # keys) and equality-comparable however the caller spelled them
        object.__setattr__(self, "matchings", tuple(self.matchings))
        for name in ("coarsen_to", "restarts", "max_cycles",
                     "level_candidates", "refine_passes"):
            if getattr(self, name) < 1:
                raise PartitionError(f"{name} must be >= 1")
        if self.on_infeasible not in ("return", "raise"):
            raise PartitionError(
                f"on_infeasible must be 'return' or 'raise', "
                f"got {self.on_infeasible!r}"
            )
        if self.vcycles < 0:
            raise PartitionError("vcycles must be >= 0")
        check_refine_mode(self.refine)
        check_conn_format(self.conn_format)
        if not self.matchings:
            raise PartitionError("at least one matching method required")
        unknown = [m for m in self.matchings if m not in MATCHING_METHODS]
        if unknown:
            raise PartitionError(
                f"unknown matching method(s) {unknown}; "
                f"valid: {sorted(MATCHING_METHODS)}"
            )


def _refine_level(engine, structure, assign, constraints, config, rng,
                  level: int) -> np.ndarray:
    """Race ``level_candidates`` FM runs on one level; goodness picks."""
    cand_seeds = spawn_seeds(rng, config.level_candidates)
    with _obs.trace_span(
        f"{engine.span}.refine_level", level=level,
        **engine.sizes(structure),
    ) as sp:
        # one engine build per level; each candidate run works on a copy
        # (a lone candidate on the level's state itself) and its goodness
        # comes from the incrementally-tracked metrics
        base = engine.make_state(structure, assign)
        if _obs.tracing_on():
            sp.set(cut_before=base.metrics(constraints).cut)
        best, best_key, best_cut = None, None, None
        for s in cand_seeds:
            st = base if len(cand_seeds) == 1 else base.copy()
            cand = engine.level_fm(
                structure, assign, constraints, config.refine_passes, s, st,
            )
            m = st.metrics(constraints)
            key = goodness_key(m, constraints)
            if best_key is None or key < best_key:
                best, best_key, best_cut = cand, key, m.cut
        sp.set(cut_after=best_cut)
    return best


def _run_cycle(context, seeds):
    """One coarsen/partition/un-coarsen cycle (a parallel_map worker).

    Independent of every other cycle given its four pre-spawned seeds, so
    cycles race across processes without changing any result.  The engine
    travels in the shared *context* (shipped once per worker); only the
    seed quadruple is per-task.  Returns ``(assign, metrics, depth)``.
    """
    engine, constraints, config = context
    s_hier, s_init, s_unc, s_vc = seeds
    k = engine.k
    with _obs.trace_span(
        f"{engine.span}.cycle", nodes=engine.structure.n, k=k
    ) as sp:
        # Re-coarsening each cycle realises the paper's "go back to
        # coarsening phase ... (randomly), cyclically".  Never coarsen
        # below 2k nodes: a halving step from just above the threshold
        # must still leave enough nodes to seed k partitions.
        hier, levels = engine.coarsen(
            max(config.coarsen_to, 2 * k), config.matchings, constraints,
            s_hier,
        )
        with _obs.trace_span(f"{engine.span}.initial", nodes=levels[-1].n):
            assign = engine.initial(
                levels[-1], constraints, config.restarts, s_init
            )
        rng = as_rng(s_unc)
        with _obs.trace_span("uncoarsen", levels=hier.depth):
            assign = np.asarray(assign, dtype=np.int64)
            if engine.refines_coarsest or hier.depth == 1:
                assign = _refine_level(
                    engine, levels[-1], assign, constraints, config, rng,
                    hier.depth - 1,
                )
            for level in range(hier.depth - 1, 0, -1):
                assign = hier.project(assign, level)
                assign = _refine_level(
                    engine, levels[level - 1], assign, constraints, config,
                    rng, level - 1,
                )
        if config.vcycles:
            assign = vcycle_refine(
                engine, assign, constraints, rounds=config.vcycles,
                seed=s_vc, refine_passes=config.refine_passes,
            )
        metrics = engine.evaluate(assign, constraints)
        sp.set(levels=hier.depth, cut=metrics.cut, feasible=metrics.feasible)
    return assign, metrics, hier.depth


def raise_if_infeasible(result, config, audit_only: bool = False):
    """Raise :class:`InfeasibleError` (carrying *result*) when *result*
    missed the constraints and ``config.on_infeasible == "raise"``.

    *audit_only* says the search never tried to meet the constraints (MLKP
    runs under its own balance objective), so the message blames the
    audit rather than the cycle budget."""
    m = result.metrics
    if m.feasible or config.on_infeasible != "raise":
        return result
    c = result.constraints
    caps = f"Bmax={c.bmax}, Rmax={c.rmax}"
    violation = (f"bandwidth {m.bandwidth_violation:g}, "
                 f"resource {m.resource_violation:g}")
    if audit_only:
        msg = (f"the {result.algorithm} result failed the audit of {caps} "
               f"(violation: {violation}); {result.algorithm} does not try "
               f"to meet these caps")
    else:
        msg = (f"no partitioning met {caps} within {config.max_cycles} "
               f"cycles (best violation: {violation}); the instance is "
               f"either impossible or needs more iterations")
    raise InfeasibleError(msg, best=result)


def multilevel_partition(engine, constraints, config: GPConfig, seed=None,
                         n_jobs: int | None = 1):
    """Run GP's cycles on *engine* under *config* and return the engine's
    result.

    *seed* overrides ``config.seed`` when given.  The returned ``info``
    holds ``cycles`` (cycles consumed), ``levels`` (hierarchy depth of the
    last cycle) and ``max_cycles``.
    """
    k = engine.k
    n = engine.structure.n
    check_k(k, n)
    rng = as_rng(seed if seed is not None else config.seed)

    with _obs.timed_span(engine.span, nodes=n, k=k) as sw:
        # all cycle seeds up front (the same rng stream the serial loop drew
        # from, one quadruple per cycle) — what makes the cycles independent
        cycle_seeds = [spawn_seeds(rng, 4) for _ in range(config.max_cycles)]
        results = parallel_map(
            _run_cycle,
            cycle_seeds,
            n_jobs=n_jobs,
            stop=lambda r: r[1].feasible,
            context=(engine, constraints, config),
        )
        best_assign, best_key = None, None
        for assign, metrics, _depth in results:
            key = goodness_key(metrics, constraints)
            if best_key is None or key < best_key:
                best_key, best_assign = key, assign
        if config.refine == "fm+flow":
            # one guarded flow stage on the race winner.  Placed *after*
            # the race on purpose: the cycle loop stops at the first
            # feasible cycle, so refining inside a cycle could change
            # which cycle wins; refining the winner leaves the race
            # untouched and (with the pass's never-worse guard) makes
            # "fm+flow" ≤ "fm" in (violation, cut) under the same seeds.
            st = engine.make_state(engine.structure, best_assign)
            best_assign = run_flow_refine(st, constraints)

    result = engine.result(
        best_assign, engine.evaluate(best_assign, constraints), constraints,
        sw.elapsed,
        {
            "cycles": len(results),
            "levels": results[-1][2],
            "max_cycles": config.max_cycles,
        },
    )
    return raise_if_infeasible(result, config, audit_only=engine.audit_only)
