"""``evolve_partition`` — the memetic search loop over either engine.

Search shape (KaHyPar-E / evolutionary-acyclic-partitioning style, built
from this library's own primitives):

1. **Seeding** — the initial population is the GP portfolio: the
   :func:`default_portfolio` members (their hypergraph counterparts under
   the connectivity objective), each with a
   :func:`~repro.util.rng.spawn_seeds`-derived seed and a reduced cycle
   budget, raced through :func:`~repro.util.parallel.parallel_map`.  A
   zero-generation run (:data:`SEEDING_CONFIG`) is the portfolio itself:
   the goodness-best member wins.
2. **Generations** — per generation a batch of offspring recipes is drawn
   from the *main-process* RNG (operator choice, parents, child seed),
   the batch is evaluated through ``parallel_map``, and the children are
   inserted **in recipe order** under the population's replacement rules.
   Because every random decision happens before the batch and results are
   consumed in submission order, the whole run — history included — is
   **bit-identical for every** ``n_jobs``.
3. **Stagnation restarts** — after ``stagnation_limit`` generations
   without improving the best goodness key, one recipe of the next
   generation becomes an *immigrant*: a fresh portfolio-member run with a
   new seed, inserted under the same replacement rules.
4. **Budgets** — ``generations`` (hard cap), ``max_evals`` (total
   partitioner evaluations, seeding included; the last generation is
   truncated to fit) and ``time_budget`` (wall-clock seconds, checked at
   generation boundaries).  The first budget to bind stops the run; see
   ``docs/evolve.md`` for which budgets preserve reproducibility.

Completed runs are memoised in the shared
:data:`~repro.util.parallel.memo_cache` keyed by ``("evolve", engine
kind, structure digest, k, constraints, config, seed)`` under the shared
memo policy (:func:`~repro.util.parallel.memoised`).
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass

from repro.partition.flow_refine import check_refine_mode
from repro.evolve.operators import mutate_perturb, mutate_walk, recombine
from repro.evolve.population import Individual, Population
from repro.partition.base import PartitionResult
from repro.partition.engine import make_engine
from repro.partition.goodness import goodness_key
from repro.partition.gp import GPConfig, run_gp
from repro.partition.metrics import ConstraintSpec, check_k
from repro.partition.vector_state import VectorConstraints
from repro.util.errors import InfeasibleError, PartitionError
import repro.obs as _obs
from repro.util.parallel import memoised, parallel_map
from repro.util.rng import as_rng, spawn_seeds

__all__ = [
    "EvolveConfig",
    "SEEDING_CONFIG",
    "default_portfolio",
    "evolve_partition",
]


@dataclass(frozen=True)
class EvolveConfig:
    """Tuning knobs of the evolutionary partitioner.

    Attributes
    ----------
    pop_size:
        Number of individuals kept (and seeded — one portfolio-member run
        each).  Replacement is goodness-ranked with Hamming-distance
        diversity tie-breaking (:class:`~repro.evolve.population.Population`).
    generations:
        Hard cap on the number of generations after seeding.
    offspring_per_gen:
        Offspring recipes evaluated per generation; ``None`` (default)
        means ``max(2, pop_size // 2)``.
    max_evals:
        Total partitioner-evaluation budget — seeding members, offspring
        and immigrants all count one each; ``None`` disables.  The last
        generation is truncated to fit, so runs at equal ``max_evals``
        consume equal work regardless of the other knobs.
    time_budget:
        Wall-clock budget in seconds, checked at generation boundaries
        (a started generation always completes); ``None`` disables.
        Unlike the other budgets this one makes the *stopping point*
        machine-dependent — see the determinism contract in
        ``docs/evolve.md``.
    recombine_prob:
        Probability that an offspring recipe is a recombination (needs ≥2
        members; falls back to mutation below that).  The remainder splits
        evenly between the two mutation operators.
    perturb_frac:
        Node fraction reassigned by the perturb mutation.
    walk_steps:
        Steps of the boundary-random-walk mutation; ``None`` (default)
        means ``max(3, n // 16)``.
    refine_passes:
        Constrained-FM passes per refinement call inside every operator.
    coarsen_to:
        Recombination coarsens the overlay-restricted hierarchy down to
        this many nodes; ``None`` (default) means ``max(30, 4k)``.
    stagnation_limit:
        Generations without best-key improvement before an immigrant
        (fresh portfolio-member run) is injected.
    refine:
        Refinement stage used by every operator and seeding member —
        ``"fm"`` (default) or ``"fm+flow"`` (see
        :mod:`repro.partition.flow_refine`).  ``"fm+flow"`` applies the
        guarded corridor-flow polish on finest-level refinement states.
    seed_max_cycles:
        ``max_cycles`` cap applied to every seeding/immigrant member —
        seeding should populate the pool quickly, not exhaust the budget
        the evolutionary loop is meant to spend.
    on_infeasible:
        ``"return"`` — give back the least-violating individual with
        ``feasible=False``; ``"raise"`` — raise :class:`InfeasibleError`.
    seed:
        Default random seed for the run; the ``seed`` argument of
        :func:`evolve_partition` overrides it when given, and ``None``
        falls back to the library-default seed.

    This docstring is the canonical field-by-field reference for the
    evolve knobs, in the same spirit as
    :class:`~repro.partition.gp.GPConfig` — ``docs/evolve.md`` links here
    rather than re-listing them.  Execution concerns (``n_jobs``,
    ``cache``) are deliberately *not* config fields: they change
    wall-clock, never results, and live on the call site instead.
    """

    pop_size: int = 8
    generations: int = 12
    offspring_per_gen: int | None = None
    max_evals: int | None = None
    time_budget: float | None = None
    recombine_prob: float = 0.7
    perturb_frac: float = 0.15
    walk_steps: int | None = None
    refine_passes: int = 6
    refine: str = "fm"
    coarsen_to: int | None = None
    stagnation_limit: int = 4
    seed_max_cycles: int = 2
    on_infeasible: str = "return"
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.pop_size < 2:
            raise PartitionError("pop_size must be >= 2")
        if self.generations < 0:
            raise PartitionError("generations must be >= 0")
        if self.offspring_per_gen is not None and self.offspring_per_gen < 1:
            raise PartitionError("offspring_per_gen must be >= 1")
        if self.max_evals is not None and self.max_evals < 1:
            raise PartitionError("max_evals must be >= 1")
        if self.time_budget is not None and self.time_budget <= 0:
            raise PartitionError("time_budget must be > 0 seconds")
        if not 0.0 <= self.recombine_prob <= 1.0:
            raise PartitionError("recombine_prob must be in [0, 1]")
        if not 0.0 < self.perturb_frac <= 1.0:
            raise PartitionError("perturb_frac must be in (0, 1]")
        if self.walk_steps is not None and self.walk_steps < 0:
            raise PartitionError("walk_steps must be >= 0")
        if self.refine_passes < 1:
            raise PartitionError("refine_passes must be >= 1")
        check_refine_mode(self.refine)
        if self.coarsen_to is not None and self.coarsen_to < 1:
            raise PartitionError("coarsen_to must be >= 1")
        if self.stagnation_limit < 1:
            raise PartitionError("stagnation_limit must be >= 1")
        if self.seed_max_cycles < 1:
            raise PartitionError("seed_max_cycles must be >= 1")
        if self.on_infeasible not in ("return", "raise"):
            raise PartitionError(
                f"on_infeasible must be 'return' or 'raise', "
                f"got {self.on_infeasible!r}"
            )

    @property
    def offspring(self) -> int:
        """Resolved offspring-per-generation count."""
        if self.offspring_per_gen is not None:
            return self.offspring_per_gen
        return max(2, self.pop_size // 2)


#: Seeding only: the four :func:`default_portfolio` members raced once
#: each, the goodness-best kept.  The cycle cap of 30 leaves every
#: member's own ``max_cycles`` as it is.
SEEDING_CONFIG = EvolveConfig(pop_size=4, generations=0, seed_max_cycles=30)


def default_portfolio() -> list[GPConfig]:
    """A spread of four complementary GP configurations."""
    return [
        GPConfig(),  # paper defaults
        GPConfig(restarts=20, level_candidates=4),  # wider initial search
        GPConfig(vcycles=2),  # deeper refinement
        GPConfig(matchings=("hem",), restarts=5, max_cycles=30),  # many cheap cycles
    ]


def _seed_member_configs(kind: str, config: EvolveConfig) -> list:
    """Portfolio-member configs used for seeding and immigrants.

    Graph runs reuse :func:`default_portfolio` verbatim.  Vector and
    hypergraph runs use the same spread spelled as the configs those
    engines run: one FM candidate per level, no V-cycles and all three
    matchings for vector members, the hypergraph's 10-cycle budget for
    hypergraph members (whose engine ignores ``matchings``).  Every member inherits the run's ``refine`` mode, is
    neutralised to ``on_infeasible="return"`` (an infeasible seed still
    joins the pool — the EA's job is to repair it) and is capped at
    ``seed_max_cycles`` retry cycles.
    """
    if kind == "graph":
        members = default_portfolio()
    elif kind == "vector":
        members = [
            GPConfig(level_candidates=1),
            GPConfig(restarts=20, level_candidates=1),
            GPConfig(level_candidates=1),
            GPConfig(restarts=5, max_cycles=30, level_candidates=1),
        ]
    else:
        members = [
            GPConfig(max_cycles=10),
            GPConfig(max_cycles=10, restarts=20, level_candidates=4),
            GPConfig(max_cycles=10, coarsen_to=60),
            GPConfig(restarts=5, max_cycles=30),
        ]
    return [
        dataclasses.replace(
            cfg,
            on_infeasible="return",
            max_cycles=min(cfg.max_cycles, config.seed_max_cycles),
            refine=config.refine,
        )
        for cfg in members
    ]


def _run_seed_member(context, task):
    """Seeding worker (a parallel_map worker): ``task = (cfg, seed)``."""
    structure, k, constraints, _config = context
    cfg, s = task
    # cache=False: member runs are EA-internal work units — memoising
    # them would make the run's wall-clock depend on cache warmth while
    # the EA's own cache already memoises the whole run
    res = run_gp(structure, k, constraints, cfg, seed=s, cache=False)
    return res.assign, res.metrics


def _run_offspring(context, task):
    """Offspring worker (a parallel_map worker).

    ``task = (op, payload, seed)``; the structure and knobs travel in the
    shared *context* (shipped once per worker).  Returns
    ``(assign, metrics)`` with metrics read from the final refinement
    state (tracked == from-scratch, pinned by the invariant suites).
    """
    structure, k, constraints, config = context
    op, payload, s = task
    engine = make_engine(structure, k, refine=config.refine)
    if op == "recombine":
        best_a, other_a, best_metrics = payload
        return recombine(
            engine, best_a, other_a, constraints, seed=s,
            coarsen_to=config.coarsen_to,
            refine_passes=config.refine_passes,
            parent_metrics=best_metrics,
        )
    if op == "perturb":
        return mutate_perturb(
            engine, payload, constraints, seed=s,
            frac=config.perturb_frac,
            refine_passes=config.refine_passes,
        )
    if op == "walk":
        return mutate_walk(
            engine, payload, constraints, seed=s,
            steps=config.walk_steps,
            refine_passes=config.refine_passes,
        )
    if op == "immigrant":
        res = run_gp(structure, k, constraints, payload, seed=s, cache=False)
        return res.assign, res.metrics
    raise PartitionError(f"unknown offspring op {op!r}")


def _draw_recipes(
    pop: Population,
    n_off: int,
    config: EvolveConfig,
    rng,
    member_cfgs: list,
    immigrant_count: int,
) -> tuple[list, int]:
    """One generation's offspring recipes, drawn from the main-process RNG.

    Every random decision (operator, parents, child seed) happens here,
    before any evaluation — what makes serial and parallel runs identical.
    Returns ``(recipes, immigrants_injected)``.
    """
    recipes = []
    injected = 0
    for j in range(n_off):
        if j == 0 and pop.stagnation >= config.stagnation_limit:
            cfg = member_cfgs[immigrant_count % len(member_cfgs)]
            s = spawn_seeds(rng, 1)[0]
            recipes.append(("immigrant", cfg, s))
            injected += 1
            continue
        r = float(rng.random())
        if r < config.recombine_prob and len(pop) >= 2:
            idx = rng.choice(len(pop.members), size=2, replace=False)
            i1, i2 = int(idx[0]), int(idx[1])
            m1, m2 = pop.members[i1], pop.members[i2]
            if (m2.key, i2) < (m1.key, i1):
                m1, m2 = m2, m1
            # the better parent's metrics ride along so the operator's
            # never-worse guard needs no from-scratch re-evaluation
            payload = (m1.assign.copy(), m2.assign.copy(), m1.metrics)
            op = "recombine"
        else:
            i = int(rng.integers(len(pop.members)))
            payload = pop.members[i].assign.copy()
            op = "perturb" if float(rng.random()) < 0.5 else "walk"
        s = spawn_seeds(rng, 1)[0]
        recipes.append((op, payload, s))
    return recipes, injected


def evolve_partition(
    structure,
    k: int,
    constraints: ConstraintSpec,
    config: EvolveConfig | None = None,
    seed=None,
    n_jobs: int | None = 1,
    cache: bool = True,
) -> PartitionResult:
    """Memetic k-way partitioning of a graph or hypergraph.

    Parameters
    ----------
    structure:
        :class:`~repro.graph.wgraph.WGraph` (edge-cut objective),
        :class:`~repro.hypergraph.hgraph.HGraph` ((λ−1) connectivity
        objective) or :class:`~repro.partition.vector_state.VectorGraph`
        (edge-cut with componentwise multi-resource budgets) — the engine
        is picked by type and every operator runs through the shared
        constrained-FM driver.
    k:
        Number of partitions (FPGAs).
    constraints:
        ``Bmax`` / ``Rmax`` caps; either may be ``inf``.  With a
        :class:`~repro.partition.vector_state.VectorGraph` this must be a
        :class:`~repro.partition.vector_state.VectorConstraints` whose
        ``rmax`` vector matches the structure's resource count.
    config:
        :class:`EvolveConfig`; defaults when omitted.
    seed:
        Overrides ``config.seed`` when given.
    n_jobs:
        Worker processes racing the seeding members and each generation's
        offspring batch (``1`` = serial in-process, ``-1`` = all CPUs).
        Recipes are drawn before each batch and results consumed in recipe
        order, so the returned partition **and the run history** are
        bit-identical for every ``n_jobs``; only wall-clock changes.
    cache:
        Memoise the outcome in :data:`~repro.util.parallel.memo_cache`
        keyed by ``(structure digest, k, constraints, config, seed)``.
        Hits return a fresh copy flagged with ``info["cache_hit"]=True``;
        only ``None`` and integer seeds participate.

    Returns
    -------
    PartitionResult
        Algorithm ``"EA"`` (graph), ``"EA-hyper"`` (hypergraph) or
        ``"EA-vector"`` (vector resources, metrics a
        :class:`~repro.partition.vector_state.MultiResMetrics`), with
        ``info`` carrying ``generations``, ``evals``, ``restarts``,
        ``stop`` (which budget bound first) and the per-generation
        ``history``.

    Raises
    ------
    InfeasibleError
        If the final best individual is infeasible and
        ``config.on_infeasible == "raise"`` (least-violating result in
        ``.best``).
    """
    config = config or EvolveConfig()
    engine = make_engine(structure, k, refine=config.refine)
    if engine.kind == "vector":
        if not isinstance(constraints, VectorConstraints):
            raise PartitionError(
                "a VectorGraph instance needs VectorConstraints, got "
                f"{type(constraints).__name__}"
            )
        if constraints.n_resources != structure.n_resources:
            raise PartitionError(
                f"constraints cap {constraints.n_resources} resources, "
                f"structure carries {structure.n_resources}"
            )
    elif isinstance(constraints, VectorConstraints):
        raise PartitionError(
            "VectorConstraints need a VectorGraph structure; wrap the "
            "graph and its weight matrix in one (or pass a ConstraintSpec)"
        )
    check_k(k, structure.n)
    run_seed = seed if seed is not None else config.seed
    result = memoised(
        ("evolve", engine.kind, engine.digest(), k, constraints, config),
        run_seed,
        lambda: _evolve(engine, structure, k, constraints, config, run_seed,
                        n_jobs),
        enabled=cache,
    )
    m = result.metrics
    if not m.feasible and config.on_infeasible == "raise":
        raise InfeasibleError(
            f"evolutionary search found no feasible partitioning meeting "
            f"Bmax={constraints.bmax}, Rmax={constraints.rmax} within "
            f"{result.info['evals']} evaluations (best violation: bandwidth "
            f"{m.bandwidth_violation:g}, resource "
            f"{m.resource_violation:g})",
            best=result,
        )
    return result


def _evolve(engine, structure, k, constraints, config, run_seed,
            n_jobs) -> PartitionResult:
    """The memetic search itself (the memo wraps it)."""
    rng = as_rng(run_seed)
    with _obs.timed_span("evolve", nodes=structure.n, k=k,
                         model=engine.kind) as sw:
        t0 = time.perf_counter()
        member_cfgs = _seed_member_configs(engine.kind, config)
        context = (structure, k, constraints, config)

        # -- seeding: one portfolio-member run per slot, raced like a portfolio
        n_seed = config.pop_size
        if config.max_evals is not None:
            n_seed = max(1, min(n_seed, config.max_evals))
        seed_cfgs = [member_cfgs[i % len(member_cfgs)] for i in range(n_seed)]
        seed_seeds = spawn_seeds(rng, n_seed)
        with _obs.trace_span("evolve.seed", members=n_seed):
            seeded = parallel_map(
                _run_seed_member,
                list(zip(seed_cfgs, seed_seeds)),
                n_jobs=n_jobs,
                context=context,
            )
        pop = Population(config.pop_size)
        for assign, metrics in seeded:
            pop.add(
                Individual(
                    assign=assign,
                    metrics=metrics,
                    key=goodness_key(metrics, constraints),
                    origin="seed",
                )
            )
        evals = n_seed
        pop.note_generation()

        # -- generations
        history: list[dict] = []
        restarts = 0
        immigrant_count = 0
        gens_run = 0
        stop = "generations"
        for gen in range(config.generations):
            if (
                config.time_budget is not None
                and time.perf_counter() - t0 >= config.time_budget
            ):
                stop = "time"
                break
            n_off = config.offspring
            if config.max_evals is not None:
                n_off = min(n_off, config.max_evals - evals)
                if n_off <= 0:
                    stop = "evals"
                    break
            recipes, injected = _draw_recipes(
                pop, n_off, config, rng, member_cfgs, immigrant_count
            )
            if injected:
                immigrant_count += injected
                restarts += injected
                pop.reset_stagnation()
            with _obs.trace_span(
                "evolve.generation", generation=gen, offspring=len(recipes)
            ) as gsp:
                children = parallel_map(
                    _run_offspring, recipes, n_jobs=n_jobs, context=context
                )
                outcomes = []
                for (op, _payload, _s), (assign, metrics) in zip(
                    recipes, children
                ):
                    fate = pop.add(
                        Individual(
                            assign=assign,
                            metrics=metrics,
                            key=goodness_key(metrics, constraints),
                            origin=op,
                        )
                    )
                    outcomes.append((op, fate))
                evals += len(recipes)
                gens_run = gen + 1
                improved = pop.note_generation()
                best = pop.best
                gsp.set(best_cut=float(best.metrics.cut), improved=improved)
            history.append(
                {
                    "generation": gen,
                    "evals": evals,
                    "best_key": tuple(best.key),
                    "best_cut": float(best.metrics.cut),
                    "best_violation": float(best.metrics.total_violation),
                    "improved": improved,
                    "outcomes": tuple(outcomes),
                }
            )

    best = pop.best
    return PartitionResult(
        assign=best.assign.copy(),
        k=k,
        metrics=best.metrics,
        algorithm={
            "graph": "EA",
            "hypergraph": "EA-hyper",
            "vector": "EA-vector",
        }[engine.kind],
        runtime=sw.elapsed,
        constraints=constraints,
        info={
            "model": engine.kind,
            "pop_size": config.pop_size,
            "seed_members": n_seed,
            "generations": gens_run,
            "evals": evals,
            "restarts": restarts,
            "stop": stop,
            "best_origin": best.origin,
            "history": history,
        },
    )
