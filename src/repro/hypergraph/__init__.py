"""Hypergraph partitioning subsystem (connectivity-metric multilevel k-way).

The paper's mapping graph flattens every PPN multicast/broadcast channel
into 2-pin edges, over-counting inter-FPGA traffic: a value sent once to
consumers spread over λ parts is charged per *consumer* instead of per
*extra part*.  This subpackage models such channels as hyperedges and
partitions under the **(λ−1) connectivity metric** (Schlag et al.), which
charges each net ``w_e · (λ(e) − 1)`` — the traffic a multicast actually
generates.

* :mod:`repro.hypergraph.hgraph` — CSR pins/incidence data structure with
  node/net weights and rooted nets (:class:`HGraph`).
* :mod:`repro.hypergraph.metrics` — Φ pin-count matrix, connectivity
  objective, root-attributed pairwise traffic, constraint evaluation.
* :mod:`repro.hypergraph.refine_state` — the incremental Φ engine
  (:class:`HyperRefinementState`), a generalization of the graph
  refinement engine; 2-pin-only hypergraphs reduce to it exactly.
* :mod:`repro.hypergraph.refine` — constrained FM on the shared driver.
* :mod:`repro.hypergraph.coarsen` — heavy-edge contraction with
  identical-net detection.
* :mod:`repro.hypergraph.partition` — GP's multilevel k-way driver on
  the hypergraph engine (:func:`hyper_partition`, configured by GP's own
  :class:`~repro.partition.multilevel.GPConfig`).

Entry points: ``PPN.to_hypergraph()``, ``partition_ppn(...,
model="hypergraph")``, ``partition_graph`` on an :class:`HGraph`, the
CLI's ``--model hypergraph``, and hMETIS ``.hgr`` I/O in
:mod:`repro.graph.metisio`.  See ``docs/hypergraph.md``.
"""

from repro.hypergraph.coarsen import (
    build_hyper_hierarchy,
    coarsen_hyper_once,
    contract_hyper,
    heavy_pin_matching,
)
from repro.hypergraph.hgraph import HGraph
from repro.hypergraph.metrics import (
    connectivity_objective,
    evaluate_hyper_partition,
    hyper_bandwidth_matrix,
    net_lambdas,
    pin_count_matrix,
)
from repro.hypergraph.partition import hyper_partition
from repro.hypergraph.refine import constrained_hyper_fm
from repro.hypergraph.refine_state import HyperRefinementState

__all__ = [
    "HGraph",
    "HyperRefinementState",
    "hyper_partition",
    "constrained_hyper_fm",
    "pin_count_matrix",
    "net_lambdas",
    "connectivity_objective",
    "hyper_bandwidth_matrix",
    "evaluate_hyper_partition",
    "heavy_pin_matching",
    "contract_hyper",
    "coarsen_hyper_once",
    "build_hyper_hierarchy",
]
