"""Evolutionary partitioning subsystem (memetic search over both engines).

The paper's GP search is restart-only: randomized coarsen/partition/refine
cycles that never share information.  Seeding races such runs across a
portfolio of configurations (a zero-generation run is that portfolio,
:data:`~repro.evolve.ea.SEEDING_CONFIG`) but never *combines* them.  This
subpackage closes the loop with a
memetic search in the style of Moreira/Popp/Schulz's evolutionary acyclic
partitioner and KaHyPar-E: a small population of high-quality partitions
is improved by **cut-preserving multilevel recombination** (coarsen with
matchings restricted to pairs both parents agree on, refine, project
back — the V-cycle machinery turned into a crossover operator) and by
perturb/walk mutations, with goodness-ranked, diversity-aware replacement.

* :mod:`repro.partition.engine` (re-exported here) — one adapter surface
  over the graph (edge-cut), hypergraph ((λ−1) connectivity) and
  vector-resource substrates, shared with the multilevel driver;
  everything else is engine-agnostic.
* :mod:`repro.evolve.population` — fixed-size pool, Hamming-distance
  diversity tie-breaking, stagnation detection.
* :mod:`repro.evolve.operators` — recombination (child never worse than
  the better parent) and the two mutation operators.
* :mod:`repro.evolve.ea` — :func:`evolve_partition` with generation /
  evaluation / wall-clock budgets, ``parallel_map`` execution
  (bit-identical for every ``n_jobs``) and :class:`~repro.util.parallel.
  KeyedCache` memoisation.

Entry points: ``partition_graph(method="evolve")``,
``partition_ppn(method="evolve")`` (either traffic model), the CLI's
``--method evolve`` with ``--generations`` / ``--time-budget`` /
``--pop-size`` / ``--no-cache``.  See ``docs/evolve.md``.
"""

from repro.evolve.ea import (
    SEEDING_CONFIG,
    EvolveConfig,
    default_portfolio,
    evolve_partition,
)
from repro.partition.engine import (
    GraphEngine,
    HyperEngine,
    VectorGraphEngine,
    make_engine,
)
from repro.evolve.operators import mutate_perturb, mutate_walk, recombine
from repro.evolve.population import Individual, Population, hamming

__all__ = [
    "EvolveConfig",
    "SEEDING_CONFIG",
    "default_portfolio",
    "evolve_partition",
    "GraphEngine",
    "HyperEngine",
    "VectorGraphEngine",
    "make_engine",
    "recombine",
    "mutate_perturb",
    "mutate_walk",
    "Individual",
    "Population",
    "hamming",
]
