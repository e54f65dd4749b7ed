"""Engine adapters: one facade over the graph, hypergraph and vector
substrates.

The multilevel driver (:mod:`repro.partition.multilevel`), the restricted
V-cycle (:mod:`repro.partition.vcycle`), the evolutionary loop
(:mod:`repro.evolve.ea`) and its operators (:mod:`repro.evolve.operators`)
are written once against the small surface defined here; :func:`make_engine` dispatches on the structure type.  All
adapters funnel refinement through the engine-agnostic
:func:`~repro.partition.kway_refine.run_constrained_fm` seam, so every
caller inherits the exact move ordering, tie-breaking and best-prefix
discipline of the GP refinement on any substrate:

* :class:`GraphEngine` — :class:`~repro.graph.wgraph.WGraph` under the
  edge-cut objective, refined on
  :class:`~repro.partition.refine_state.RefinementState`.
* :class:`HyperEngine` — :class:`~repro.hypergraph.hgraph.HGraph` under the
  (λ−1) connectivity objective, refined on
  :class:`~repro.hypergraph.refine_state.HyperRefinementState`.
* :class:`VectorGraphEngine` — :class:`~repro.partition.vector_state.
  VectorGraph` (a graph bundled with its ``(n, R)`` resource matrix)
  under the edge-cut objective with **componentwise** resource budgets
  (:class:`~repro.partition.vector_state.VectorConstraints`), refined on
  :class:`~repro.partition.vector_state.VectorRefinementState`.
  Contraction aggregates the weight matrix through the same node maps
  that merge the nodes, and ``digest()`` covers the matrix, so cached
  runs can never confuse two instances that differ only in resources.

Each adapter also owns the two substrate-specific steps of the multilevel
pipeline: ``coarsen`` (build the hierarchy, return it with one structure
per level) and ``initial`` (seed the coarsest level).  Everything else the
driver does — projection, candidate races, cycles — is shared.

An adapter is stateless apart from the structure/k it wraps: every method
takes the (possibly coarsened) structure it operates on, so one adapter
serves a whole hierarchy.
"""

from __future__ import annotations

import numpy as np

from repro.graph.wgraph import WGraph
from repro.hypergraph.coarsen import (
    build_hyper_hierarchy,
    contract_hyper,
    heavy_pin_matching,
)
from repro.hypergraph.hgraph import HGraph
from repro.hypergraph.metrics import evaluate_hyper_partition
from repro.hypergraph.refine import constrained_hyper_fm
from repro.hypergraph.refine_state import HyperRefinementState
from repro.partition.base import PartitionResult
from repro.partition.coarsen import build_hierarchy, contract
from repro.partition.conn_store import check_conn_format
from repro.partition.flow_refine import check_refine_mode, run_flow_refine
from repro.partition.initial import greedy_initial_partition
from repro.partition.kway_refine import (
    constrained_kway_fm,
    run_constrained_fm,
)
from repro.partition.metrics import ConstraintSpec, evaluate_partition
from repro.partition.multires import (
    MultiResResult,
    evaluate_multires,
    mr_constrained_fm,
    mr_greedy_initial,
)
from repro.partition.refine_state import RefinementState
from repro.partition.vcycle import intra_part_matching
from repro.partition.vector_state import (
    VectorConstraints,
    VectorGraph,
    VectorRefinementState,
)
from repro.util.errors import PartitionError

__all__ = [
    "GraphEngine",
    "HyperEngine",
    "VectorGraphEngine",
    "make_engine",
]


class _Engine:
    """What the three adapters share; subclasses fill in the substrate."""

    kind = ""
    #: prefix of the driver's span names (``<span>.cycle`` and so on)
    span = ""
    algorithm = ""
    #: the initial partition is computed on a proxy structure (not the
    #: coarsest level itself), so the driver refines the coarsest level too
    refines_coarsest = False
    #: the hooks run under an objective of their own; the caller's
    #: constraints only audit the result
    audit_only = False

    def __init__(self, structure, k: int, refine: str = "fm",
                 conn_format: str = "auto") -> None:
        self.structure = structure
        self.k = int(k)
        self.refine = check_refine_mode(refine)
        self.conn_format = check_conn_format(conn_format)

    def digest(self) -> str:
        return self.structure.content_digest()

    def neighbors(self, structure, u: int) -> np.ndarray:
        return self.neighbors_of(structure)(u)

    def sizes(self, structure) -> dict:
        """Size attributes of a level's span."""
        return {"nodes": structure.n, "edges": structure.m}

    def fm(self, structure, assign: np.ndarray, constraints, max_passes: int,
           seed):
        """One refinement call; returns ``(assign, tracked metrics)``.

        Never returns an assignment worse than its input under the FM key
        (best-prefix rollback) — the property the recombination invariant
        leans on.
        """
        return self.fm_state(
            structure, self.make_state(structure, assign), constraints,
            max_passes, seed,
        )

    def fm_state(self, structure, st, constraints, max_passes, seed):
        """:meth:`fm` on an already-built (possibly moved-on) engine state —
        callers that just mutated through ``st.move`` skip a rebuild.

        FM, followed on the finest level by the guarded corridor-flow
        pass (:mod:`repro.partition.flow_refine`) when the engine was built
        with ``refine="fm+flow"`` (coarse levels keep plain FM — the flow
        polish is a finest-level cut instrument, and the guard makes it
        free to skip)."""
        out = run_constrained_fm(
            st, structure.n, self.neighbors_of(structure), constraints,
            max_passes=max_passes, seed=seed,
        )
        if self.refine == "fm+flow" and structure.n == self.structure.n:
            out = run_flow_refine(st, constraints)
        return out, st.metrics(constraints)

    def result(self, assign, metrics, constraints, runtime: float,
               info: dict):
        return PartitionResult(
            assign=assign, k=self.k, metrics=metrics,
            algorithm=self.algorithm, runtime=runtime,
            constraints=constraints, info=info,
        )


class GraphEngine(_Engine):
    """The 2-pin edge-cut substrate behind the uniform engine surface."""

    kind = "graph"
    span = "gp"
    algorithm = "GP"

    def make_state(self, structure: WGraph, assign: np.ndarray):
        return RefinementState(
            structure, assign, self.k, conn_format=self.conn_format
        )

    def neighbors_of(self, structure: WGraph):
        return structure.neighbors

    def evaluate(self, assign: np.ndarray, constraints: ConstraintSpec):
        return evaluate_partition(self.structure, assign, self.k, constraints)

    def coarsen(self, coarsen_to: int, matchings, constraints, seed):
        hier = build_hierarchy(
            self.structure, coarsen_to=coarsen_to, seed=seed, methods=matchings
        )
        return hier, [lv.graph for lv in hier.levels]

    def initial(self, structure: WGraph, constraints, restarts: int, seed):
        return greedy_initial_partition(
            structure, self.k, constraints, restarts=restarts, seed=seed,
            conn_format=self.conn_format,
        )

    def level_fm(self, structure: WGraph, assign, constraints, max_passes,
                 seed, state):
        return constrained_kway_fm(
            structure, assign, self.k, constraints,
            max_passes=max_passes, seed=seed, state=state,
        )

    def restricted_matching(
        self, structure: WGraph, labels: np.ndarray, n_labels: int, seed
    ) -> np.ndarray:
        """A matching that never pairs nodes with different *labels* —
        :func:`~repro.partition.vcycle.intra_part_matching` generalized to
        arbitrary label vectors (the recombination overlay has up to ``k²``
        classes)."""
        return intra_part_matching(
            structure, labels, n_labels, method="hem", seed=seed
        )

    def contract(self, structure: WGraph, match: np.ndarray):
        return contract(structure, match)


class HyperEngine(_Engine):
    """The (λ−1) connectivity substrate behind the uniform engine surface."""

    kind = "hypergraph"
    span = "hyper"
    algorithm = "GP-hyper"
    refines_coarsest = True

    def __init__(self, hg: HGraph, k: int, refine: str = "fm",
                 conn_format: str = "auto") -> None:
        if conn_format != "auto":
            raise PartitionError(
                f"conn_format={conn_format!r}: the hypergraph Φ engine has "
                f"no connectivity store to lay out (use 'auto')"
            )
        super().__init__(hg, k, refine)

    def make_state(self, structure: HGraph, assign: np.ndarray):
        return HyperRefinementState(structure, assign, self.k)

    def neighbors_of(self, structure: HGraph):
        return structure.adjacent_nodes

    def sizes(self, structure: HGraph) -> dict:
        return {"nodes": structure.n, "nets": structure.n_nets}

    def evaluate(self, assign: np.ndarray, constraints: ConstraintSpec):
        return evaluate_hyper_partition(
            self.structure, assign, self.k, constraints
        )

    def coarsen(self, coarsen_to: int, matchings, constraints, seed):
        """Heavy-pin contraction (*matchings* is a graph-engine knob)."""
        hier = build_hyper_hierarchy(
            self.structure, coarsen_to=coarsen_to, seed=seed
        )
        return hier, [lv.hgraph for lv in hier.levels]

    def initial(self, structure: HGraph, constraints, restarts: int, seed):
        """The graph greedy growing on the clique expansion (exact for
        2-pin nets); the driver then refines it against Φ."""
        return greedy_initial_partition(
            structure.clique_expansion(), self.k, constraints,
            restarts=restarts, seed=seed,
        )

    def level_fm(self, structure: HGraph, assign, constraints, max_passes,
                 seed, state):
        return constrained_hyper_fm(
            structure, assign, self.k, constraints,
            max_passes=max_passes, seed=seed, state=state,
        )

    def result(self, assign, metrics, constraints, runtime: float,
               info: dict):
        return super().result(
            assign, metrics, constraints, runtime,
            {**info, "model": "hypergraph"},
        )

    def restricted_matching(
        self, structure: HGraph, labels: np.ndarray, n_labels: int, seed
    ) -> np.ndarray:
        """Heavy-pin matching with every label-crossing pair unmatched —
        the hypergraph analogue of the graph engine's restricted matching
        (contraction of the result preserves every label class exactly)."""
        labels = np.asarray(labels, dtype=np.int64)
        if labels.shape != (structure.n,):
            raise PartitionError(
                f"labels have shape {labels.shape}, expected ({structure.n},)"
            )
        match = heavy_pin_matching(structure, seed=seed).copy()
        crossing = labels != labels[match]
        match[crossing] = np.arange(structure.n, dtype=np.int64)[crossing]
        return match

    def contract(self, structure: HGraph, match: np.ndarray):
        return contract_hyper(structure, match)


class VectorGraphEngine(_Engine):
    """The vector-resource substrate behind the uniform engine surface.

    Identical topology machinery to :class:`GraphEngine` (edge-cut
    objective, HEM restricted matching, graph contraction) — the
    difference is what "resources" means: states are
    :class:`~repro.partition.vector_state.VectorRefinementState` tracking
    the ``(k, R)`` load matrix, constraints are
    :class:`~repro.partition.vector_state.VectorConstraints`, and
    contraction carries the weight matrix through the node map.
    """

    kind = "vector"
    span = "mr_gp"
    algorithm = "MR-GP"

    def make_state(self, structure: VectorGraph, assign: np.ndarray):
        return VectorRefinementState(
            structure.graph, structure.weights, assign, self.k,
            conn_format=self.conn_format,
        )

    def neighbors_of(self, structure: VectorGraph):
        return structure.graph.neighbors

    def evaluate(self, assign: np.ndarray, constraints: VectorConstraints):
        return evaluate_multires(
            self.structure.graph, self.structure.weights, assign, self.k,
            constraints,
        )

    def coarsen(self, coarsen_to: int, matchings, constraints, seed):
        """Coarsen a scalar projection (summed normalised utilisation, so
        the matchings see a sensible "mass") and aggregate the true weight
        matrix level by level through the contraction maps."""
        w = self.structure.weights
        rmax = np.asarray(constraints.rmax)
        with np.errstate(divide="ignore", invalid="ignore"):
            proxy = np.where(rmax > 0, w / rmax, 0.0).sum(axis=1)
        hier = build_hierarchy(
            self.structure.graph.with_node_weights(proxy + 1e-9),
            coarsen_to=coarsen_to, seed=seed, methods=matchings,
        )
        levels = [VectorGraph(hier.levels[0].graph, w)]
        for lv in hier.levels[1:]:
            agg = np.zeros((lv.graph.n, w.shape[1]))
            np.add.at(agg, lv.node_map, levels[-1].weights)
            levels.append(VectorGraph(lv.graph, agg))
        return hier, levels

    def initial(self, structure: VectorGraph, constraints, restarts: int,
                seed):
        return mr_greedy_initial(
            structure.graph, structure.weights, self.k, constraints,
            restarts=restarts, seed=seed, conn_format=self.conn_format,
        )

    def level_fm(self, structure: VectorGraph, assign, constraints,
                 max_passes, seed, state):
        return mr_constrained_fm(
            structure.graph, structure.weights, assign, self.k, constraints,
            max_passes=max_passes, seed=seed, state=state,
        )

    def result(self, assign, metrics, constraints, runtime: float,
               info: dict):
        return MultiResResult(
            assign=assign, k=self.k, metrics=metrics,
            constraints=constraints, runtime=runtime, info=info,
        )

    def restricted_matching(
        self, structure: VectorGraph, labels: np.ndarray, n_labels: int, seed
    ) -> np.ndarray:
        return intra_part_matching(
            structure.graph, labels, n_labels, method="hem", seed=seed
        )

    def contract(self, structure: VectorGraph, match: np.ndarray):
        """Contract the graph and aggregate the weight matrix through the
        node map — coarse node loads are exact sums of their fine nodes,
        so every coarse-level constraint check is exact too."""
        coarse, node_map = contract(structure.graph, match)
        agg = np.zeros(
            (coarse.n, structure.weights.shape[1]), dtype=np.float64
        )
        np.add.at(agg, node_map, structure.weights)
        return VectorGraph(coarse, agg, names=structure.names), node_map


def make_engine(structure, k: int, refine: str = "fm"):
    """Adapter for *structure*: :class:`WGraph` → :class:`GraphEngine`,
    :class:`HGraph` → :class:`HyperEngine`, :class:`VectorGraph` →
    :class:`VectorGraphEngine`.  *refine* is threaded to the adapter
    (see :mod:`repro.partition.flow_refine`)."""
    if isinstance(structure, WGraph):
        return GraphEngine(structure, k, refine=refine)
    if isinstance(structure, HGraph):
        return HyperEngine(structure, k, refine=refine)
    if isinstance(structure, VectorGraph):
        return VectorGraphEngine(structure, k, refine=refine)
    raise PartitionError(
        f"evolve needs a WGraph, HGraph or VectorGraph, "
        f"got {type(structure).__name__}"
    )
