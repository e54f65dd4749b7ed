"""One-call entry points tying the substrates together.

``partition_graph``
    Graph + constraints → :class:`~repro.partition.base.PartitionResult`
    via any of the partitioners: the paper's constrained ``"gp"``, the
    METIS-like ``"mlkp"``, ``"spectral"``, ``"exact"``, ``"hyper"`` —
    the connectivity-metric multilevel partitioner run on the graph's
    2-pin hypergraph lift (equivalent objective, hypergraph machinery) —
    or ``"evolve"``, the memetic population search over the GP machinery
    (see ``docs/evolve.md``).

``partition_ppn``
    SANLP or derived PPN → mapping model → partition.  Two traffic models:

    * ``model="graph"`` (default) — the paper's 2-pin edge-cut model via
      :func:`~repro.kpn.traffic.ppn_to_mapped_graph` (token or sustained
      bandwidth weights).
    * ``model="hypergraph"`` — one hyperedge per producer token set via
      :meth:`~repro.polyhedral.ppn.PPN.to_hypergraph`, partitioned under
      the (λ−1) connectivity metric, which charges a multicast once per
      extra FPGA instead of once per consumer (see ``docs/hypergraph.md``).

``map_to_fpgas``
    Partition → :class:`~repro.fpga.mapping.Mapping` on a homogeneous
    multi-FPGA system, validated.

``enable_disk_cache`` / ``disable_disk_cache`` / ``configure_cache_backend``
    Inject a persistent :class:`~repro.util.diskcache.DiskCache` under
    the in-process portfolio/evolve/multires memo caches, so memoised
    runs survive the process (the seam ``repro serve`` stands on — see
    ``docs/serve.md``).
"""

from __future__ import annotations

import dataclasses

import numpy as np

from collections.abc import Mapping as MappingABC
from collections.abc import Sequence

import repro.obs as _obs
from repro.evolve.ea import EvolveConfig, evolve_partition
from repro.fpga.mapping import Mapping
from repro.fpga.resources import ResourceVector, resource_matrix
from repro.fpga.system import MultiFPGASystem
from repro.graph.wgraph import WGraph
from repro.hypergraph.hgraph import HGraph
from repro.hypergraph.partition import HyperConfig, hyper_partition
from repro.kpn.traffic import ppn_to_mapped_graph
from repro.partition.base import PartitionResult
from repro.partition.conn_store import check_conn_format
from repro.partition.exact import exact_partition
from repro.partition.flow_refine import check_refine_mode
from repro.partition.gp import GPConfig, gp_partition
from repro.partition.metrics import ConstraintSpec
from repro.partition.mlkp import mlkp_partition
from repro.partition.multires import MultiResResult, mr_gp_partition
from repro.partition.spectral import spectral_partition
from repro.partition.vector_state import (
    VectorConstraints,
    VectorGraph,
    check_weight_matrix,
)
from repro.polyhedral.ppn import PPN, derive_ppn
from repro.polyhedral.program import SANLP
from repro.util.errors import PartitionError

__all__ = [
    "partition_graph",
    "partition_ppn",
    "map_to_fpgas",
    "configure_cache_backend",
    "enable_disk_cache",
    "disable_disk_cache",
]


def _module_caches():
    """The three in-process memo caches, imported lazily (no cycles)."""
    from repro.evolve.ea import evolve_cache
    from repro.partition.multires import multires_cache
    from repro.partition.portfolio import portfolio_cache

    return {
        "portfolio": portfolio_cache,
        "evolve": evolve_cache,
        "multires": multires_cache,
    }


def configure_cache_backend(backend) -> None:
    """Attach *backend* under every module memo cache (``None`` detaches).

    *backend* is any object with the :class:`~repro.util.parallel.
    KeyedCache` backend protocol (``lookup``/``put``/``stats``) —
    canonically a :class:`~repro.util.diskcache.DiskCache`.  One shared
    store is safe: the memo keys are namespaced tuples
    (``"portfolio"``/``"evolve"``/``"mr_gp"``-prefixed).
    """
    for c in _module_caches().values():
        c.set_backend(backend)


def enable_disk_cache(path, max_bytes: int = 256 * 1024 * 1024):
    """Back the portfolio/evolve/multires memos with a persistent store.

    Returns the :class:`~repro.util.diskcache.DiskCache` so callers can
    inspect ``stats()`` or share it (the serve daemon layers its own
    request-level cache on the same store).
    """
    from repro.util.diskcache import DiskCache

    backend = DiskCache(path, max_bytes=max_bytes)
    configure_cache_backend(backend)
    return backend


def disable_disk_cache() -> None:
    """Detach any persistent backend from the module memo caches."""
    configure_cache_backend(None)

_METHODS = ("gp", "mlkp", "spectral", "exact", "hyper", "evolve")
_MODELS = ("graph", "hypergraph")
#: Methods with independent randomized work to race across processes.
_JOBS_METHODS = ("gp", "hyper", "evolve")
#: Methods that can partition under vector resource budgets.
_VECTOR_METHODS = ("gp", "evolve")
#: Methods with a pluggable refinement stage (refine="flow"/"fm+flow").
_REFINE_METHODS = ("gp", "mlkp", "evolve")
#: Methods whose engine honours an explicit conn_format override.
_CONN_METHODS = ("gp", "mlkp")


def _fold_refine(config, refine: str, ctor):
    """Fold the ``refine=`` argument into the method's config object.

    ``"fm"`` (the default) means "unspecified" — the config's own
    ``refine`` field stands; anything else overrides it (building a
    default config when none was given).
    """
    if refine == "fm":
        return config
    if config is None:
        return ctor(refine=refine)
    return dataclasses.replace(config, refine=refine)


def _fold_conn(config, conn_format: str, ctor):
    """Fold the ``conn_format=`` argument into the method's config object.

    Mirrors :func:`_fold_refine`: ``"auto"`` (the default) leaves the
    config's own ``conn_format`` field standing.
    """
    if conn_format == "auto":
        return config
    if config is None:
        return ctor(conn_format=conn_format)
    return dataclasses.replace(config, conn_format=conn_format)


def _rmax_is_vector(rmax) -> bool:
    return isinstance(rmax, (tuple, list)) or (
        isinstance(rmax, np.ndarray) and rmax.ndim == 1
    )


def _partition_graph_vector(
    g: WGraph,
    k: int,
    bmax,
    rmax,
    method: str,
    seed,
    config,
    n_jobs,
    cache,
    resources,
    refine,
) -> MultiResResult | PartitionResult:
    """The ``resources=W`` branch of :func:`partition_graph`."""
    if method not in _VECTOR_METHODS:
        raise PartitionError(
            f"resources (vector budgets) are supported by methods "
            f"{_VECTOR_METHODS}, got method={method!r}"
        )
    w = check_weight_matrix(g, resources)
    if not _rmax_is_vector(rmax):
        raise PartitionError(
            f"a resources matrix with {w.shape[1]} columns needs a "
            f"per-resource rmax vector, got {rmax!r}"
        )
    cons = VectorConstraints(bmax=bmax, rmax=tuple(float(r) for r in rmax))
    if cons.n_resources != w.shape[1]:
        raise PartitionError(
            f"rmax caps {cons.n_resources} resources, the matrix has "
            f"{w.shape[1]} columns"
        )
    if method == "evolve":
        if config is not None and not isinstance(config, EvolveConfig):
            raise PartitionError(
                f"method='evolve' takes an EvolveConfig, "
                f"got {type(config).__name__}"
            )
        return evolve_partition(
            VectorGraph(g, w), k, cons,
            config=_fold_refine(config, refine, EvolveConfig), seed=seed,
            n_jobs=n_jobs, cache=cache,
        )
    if config is not None and not isinstance(config, GPConfig):
        raise PartitionError(
            f"method='gp' takes a GPConfig, got {type(config).__name__}"
        )
    cfg = _fold_refine(config, refine, GPConfig) or GPConfig(max_cycles=10)
    return mr_gp_partition(
        g, w, k, cons,
        coarsen_to=cfg.coarsen_to, restarts=cfg.restarts,
        max_cycles=cfg.max_cycles, refine_passes=cfg.refine_passes,
        on_infeasible=cfg.on_infeasible,
        seed=seed if seed is not None else cfg.seed,
        n_jobs=n_jobs, cache=cache, refine=cfg.refine,
    )


def partition_graph(
    g: WGraph,
    k: int,
    bmax: float = float("inf"),
    rmax=float("inf"),
    method: str = "gp",
    seed=None,
    config: GPConfig | HyperConfig | EvolveConfig | None = None,
    n_jobs: int | None = 1,
    cache: bool = True,
    resources=None,
    profile: bool | str = False,
    refine: str = "fm",
    conn_format: str = "auto",
) -> PartitionResult | MultiResResult | _obs.ProfileReport:
    """Partition *g* into *k* parts under the paper's two constraints.

    *method*: ``"gp"`` (the paper's constrained partitioner, default),
    ``"mlkp"`` (METIS-like, constraints audited only), ``"spectral"``,
    ``"exact"`` (≤20 nodes, constraints enforced), ``"hyper"`` (the
    connectivity-metric multilevel partitioner on the 2-pin hypergraph
    lift; takes a :class:`~repro.hypergraph.partition.HyperConfig`), or
    ``"evolve"`` (the memetic population search; takes an
    :class:`~repro.evolve.ea.EvolveConfig`, see ``docs/evolve.md``).

    *resources* switches the resource model from scalar to vector
    (``docs/multires.md``): pass the ``(n, R)`` weight matrix and a
    per-resource *rmax* sequence, and the constraint becomes
    componentwise (``VectorConstraints``).  Supported by ``"gp"`` (the
    multi-resource multilevel partitioner, returning a
    :class:`~repro.partition.multires.MultiResResult`; a
    :class:`~repro.partition.gp.GPConfig`'s shared knobs are honoured)
    and ``"evolve"`` (the memetic search on the vector engine) — other
    methods reject it, as does a vector *rmax* without the matrix.

    *n_jobs* races the method's independent randomized work across worker
    processes (``-1`` = all CPUs): GP's retry cycles (scalar, vector or
    hypergraph), or evolve's seeding members and offspring batches;
    results are bit-identical for every value (see ``docs/parallel.md``).
    It is honoured by ``"gp"``, ``"hyper"`` and ``"evolve"`` — the other
    methods are
    deterministic single-pass algorithms with nothing independent to
    race — and rejected with any other method to keep the knob honest.
    *cache* belongs to the memoised methods — ``"evolve"``, and ``"gp"``
    with *resources* (the multires cache) — and is rejected elsewhere.

    *refine* selects the refinement stage of the multilevel methods
    (``docs/refinement.md``): ``"fm"`` — each method's native local
    search (default); ``"flow"`` — corridor max-flow passes replace it;
    ``"fm+flow"`` — native refinement plus a guarded flow polish that is
    never worse than ``"fm"`` at equal seeds.  Honoured by ``"gp"``
    (scalar and vector), ``"mlkp"`` and ``"evolve"``; rejected elsewhere
    (the single-pass methods have no refinement stage to swap).  A
    non-default *refine* overrides the config's own ``refine`` field.

    *conn_format* selects the refinement engine's connectivity
    representation (``docs/refinement.md``): ``"auto"`` — dense below
    the ``k·n`` threshold, sparse above (default); ``"dense"`` /
    ``"sparse"`` force a format.  The partition is bit-identical either
    way — only memory and speed change.  Honoured by ``"gp"`` and
    ``"mlkp"`` (scalar constraints); rejected elsewhere and on the
    *resources* path (those engines pick their format via ``"auto"``).
    A non-default value overrides a ``GPConfig``'s own ``conn_format``.

    *profile* runs the call under an observability capture
    (:func:`repro.obs.capture`) and returns a
    :class:`~repro.obs.ProfileReport` instead: the same result plus the
    span tree, the metrics delta, and the wall-clock — exportable as a
    Chrome trace (``report.write_trace(path)``) or a text summary
    (``report.summary()``).  ``profile="mem"`` additionally turns on
    memory instrumentation: every span carries ``peak_bytes`` /
    ``alloc_delta`` attrs (tracemalloc) and the big-array allocation
    gauges (``mem.alloc_bytes``) land in the metrics delta.  The
    partition itself is bit-identical to the unprofiled call (see
    ``docs/observability.md``).
    """
    if profile:
        with _obs.capture(memory=(profile == "mem")) as cap:
            result = partition_graph(
                g, k, bmax=bmax, rmax=rmax, method=method, seed=seed,
                config=config, n_jobs=n_jobs, cache=cache,
                resources=resources, refine=refine, conn_format=conn_format,
            )
        return _obs.ProfileReport(
            result=result,
            spans=[s.to_dict() for s in cap.spans],
            metrics=cap.metrics,
            wall_s=cap.wall_s,
        )
    check_refine_mode(refine)
    if refine != "fm" and method not in _REFINE_METHODS:
        raise PartitionError(
            f"refine={refine!r} is only supported by methods "
            f"{_REFINE_METHODS}, got method={method!r}"
        )
    check_conn_format(conn_format)
    if conn_format != "auto" and (
        method not in _CONN_METHODS or resources is not None
    ):
        raise PartitionError(
            f"conn_format={conn_format!r} is only supported by methods "
            f"{_CONN_METHODS} with scalar constraints, got "
            f"method={method!r}"
            + (" with resources" if resources is not None else "")
        )
    if n_jobs not in (None, 1) and method not in _JOBS_METHODS:
        raise PartitionError(
            f"n_jobs is only supported by methods {_JOBS_METHODS}, "
            f"got method={method!r}"
        )
    if cache is not True and method != "evolve" and not (
        resources is not None and method == "gp"
    ):
        raise PartitionError(
            f"cache is only supported by method='evolve' (and method='gp' "
            f"with resources), got method={method!r}"
        )
    if resources is not None:
        return _partition_graph_vector(
            g, k, bmax, rmax, method, seed, config, n_jobs, cache,
            resources, refine,
        )
    if _rmax_is_vector(rmax):
        raise PartitionError(
            "a vector rmax needs the per-node resources matrix "
            "(resources=W); pass a scalar rmax otherwise"
        )
    constraints = ConstraintSpec(bmax=bmax, rmax=rmax)
    if method == "evolve":
        if config is not None and not isinstance(config, EvolveConfig):
            raise PartitionError(
                f"method='evolve' takes an EvolveConfig, "
                f"got {type(config).__name__}"
            )
        return evolve_partition(
            g, k, constraints,
            config=_fold_refine(config, refine, EvolveConfig), seed=seed,
            n_jobs=n_jobs, cache=cache,
        )
    if method == "gp":
        if config is not None and not isinstance(config, GPConfig):
            raise PartitionError(
                f"method='gp' takes a GPConfig, got {type(config).__name__}"
            )
        return gp_partition(
            g, k, constraints,
            config=_fold_conn(
                _fold_refine(config, refine, GPConfig), conn_format, GPConfig
            ),
            seed=seed,
            n_jobs=n_jobs,
        )
    if method == "mlkp":
        return mlkp_partition(
            g, k, seed=seed, constraints=constraints, refine=refine,
            conn_format=conn_format,
        )
    if method == "spectral":
        return spectral_partition(g, k, constraints=constraints)
    if method == "exact":
        return exact_partition(g, k, constraints, enforce=not constraints.unconstrained)
    if method == "hyper":
        if config is not None and not isinstance(config, HyperConfig):
            raise PartitionError(
                "method='hyper' takes a HyperConfig, got "
                f"{type(config).__name__}"
            )
        return hyper_partition(
            HGraph.from_wgraph(g), k, constraints, config=config, seed=seed,
            n_jobs=n_jobs,
        )
    raise PartitionError(
        f"unknown method {method!r}; valid methods: {_METHODS}"
    )


def _ppn_resource_matrix(resources, names: list[str]) -> np.ndarray:
    """Per-process resources → ``(n, R)`` matrix in node order.

    Accepts the three natural spellings: a ready ``(n, R)`` array, a
    mapping from process name to :class:`~repro.fpga.resources.
    ResourceVector` (looked up through *names*), or a sequence of
    bundles already in node order.
    """
    if isinstance(resources, np.ndarray):
        return resources
    if isinstance(resources, MappingABC):
        w, _ = resource_matrix(resources, names=names)
        return w
    if isinstance(resources, Sequence):
        if all(isinstance(r, ResourceVector) for r in resources):
            w, _ = resource_matrix(resources)
            return w
        try:
            # plain nested rows — the same spelling partition_graph takes
            return np.asarray(resources, dtype=np.float64)
        except (TypeError, ValueError):
            pass
    raise PartitionError(
        "resources must be an (n, R) array (or nested rows), a "
        "{process name: ResourceVector} mapping, or a node-ordered "
        f"ResourceVector sequence, got {type(resources).__name__}"
    )


def partition_ppn(
    program_or_ppn: SANLP | PPN,
    k: int,
    bmax: float = float("inf"),
    rmax=float("inf"),
    method: str = "gp",
    model: str = "graph",
    bandwidth_mode: str = "tokens",
    bandwidth_scale: float = 1.0,
    seed=None,
    config: GPConfig | HyperConfig | EvolveConfig | None = None,
    n_jobs: int | None = 1,
    cache: bool = True,
    resources=None,
    refine: str = "fm",
) -> tuple[PartitionResult | MultiResResult, WGraph | HGraph, list[str]]:
    """Derive (if needed), weight, and partition a process network.

    With ``model="graph"`` the PPN is flattened to the paper's 2-pin
    mapping graph and *method* picks the graph partitioner.  With
    ``model="hypergraph"`` multicast channels stay hyperedges and a
    connectivity-metric partitioner runs (*method* must be ``"gp"``,
    ``"hyper"`` or ``"evolve"`` — the latter is the memetic search on the
    hypergraph engine; only ``bandwidth_mode="tokens"`` weights exist for
    nets).

    *resources* assigns every process a resource **vector** (LUTs, FFs,
    BRAMs, DSPs — :mod:`repro.fpga.resources`) and *rmax* the matching
    per-resource budget sequence; the partition is then computed under
    componentwise constraints by the vector path of
    :func:`partition_graph` (``model="graph"`` with method ``"gp"`` /
    ``"evolve"`` only).  Accepted spellings: a ``{process name:
    ResourceVector}`` mapping, a node-ordered ``ResourceVector``
    sequence, or a ready ``(n, R)`` matrix.

    *n_jobs* and *cache* are forwarded to the partitioner under
    :func:`partition_graph`'s rules — ``n_jobs`` needs a method with
    independent randomized work (``"gp"`` / ``"hyper"`` / ``"evolve"``),
    ``cache``
    belongs to the memoised methods; both are rejected elsewhere to keep
    the knobs honest.  *refine* follows the same discipline
    (``docs/refinement.md``): with ``model="graph"`` it is forwarded to
    :func:`partition_graph` (methods ``"gp"``/``"mlkp"``/``"evolve"``);
    with ``model="hypergraph"`` only ``method="evolve"`` has a
    refinement stage to swap, so anything but ``"fm"`` is rejected for
    ``"gp"``/``"hyper"``.

    Returns ``(result, mapping_structure, names)`` — the second element is
    the :class:`WGraph` or :class:`HGraph` that was partitioned, and
    *names[i]* is the process mapped to node *i*.
    """
    if model not in _MODELS:
        raise PartitionError(f"unknown model {model!r}; valid models: {_MODELS}")
    check_refine_mode(refine)
    if refine != "fm" and model == "hypergraph" and method != "evolve":
        raise PartitionError(
            f"refine={refine!r} with model='hypergraph' is supported by "
            f"method='evolve' only (gp/hyper have no pluggable refinement "
            f"stage there), got method={method!r}"
        )
    if resources is not None and model != "graph":
        raise PartitionError(
            "resources (vector budgets) are supported with model='graph' "
            f"only, got model={model!r}"
        )
    ppn = (
        program_or_ppn
        if isinstance(program_or_ppn, PPN)
        else derive_ppn(program_or_ppn)
    )
    if model == "hypergraph":
        if method not in ("gp", "hyper", "evolve"):
            raise PartitionError(
                f"model='hypergraph' supports methods 'gp'/'hyper'/'evolve', "
                f"got {method!r}"
            )
        if bandwidth_mode != "tokens":
            raise PartitionError(
                "model='hypergraph' supports only bandwidth_mode='tokens' "
                f"(net weights are token-set sizes), got {bandwidth_mode!r}"
            )
        constraints = ConstraintSpec(bmax=bmax, rmax=rmax)
        # argument validation strictly before the PPN → hypergraph
        # conversion: a bad knob must not cost the conversion first
        if method == "evolve":
            if config is not None and not isinstance(config, EvolveConfig):
                raise PartitionError(
                    "method='evolve' takes an EvolveConfig, got "
                    f"{type(config).__name__}"
                )
            hg, names = ppn.to_hypergraph(bandwidth_scale=bandwidth_scale)
            result = evolve_partition(
                hg, k, constraints,
                config=_fold_refine(config, refine, EvolveConfig),
                seed=seed, n_jobs=n_jobs, cache=cache,
            )
            return result, hg, names
        if config is not None and not isinstance(config, HyperConfig):
            raise PartitionError(
                "model='hypergraph' takes a HyperConfig, got "
                f"{type(config).__name__}"
            )
        if cache is not True:
            raise PartitionError(
                "cache is only supported by method='evolve', "
                f"got method={method!r}"
            )
        hg, names = ppn.to_hypergraph(bandwidth_scale=bandwidth_scale)
        result = hyper_partition(
            hg, k, constraints, config=config, seed=seed, n_jobs=n_jobs
        )
        return result, hg, names
    g, names = ppn_to_mapped_graph(
        ppn, mode=bandwidth_mode, scale=bandwidth_scale
    )
    result = partition_graph(
        g, k, bmax=bmax, rmax=rmax, method=method, seed=seed, config=config,
        n_jobs=n_jobs, cache=cache,
        resources=(
            None if resources is None
            else _ppn_resource_matrix(resources, names)
        ),
        refine=refine,
    )
    return result, g, names


def map_to_fpgas(
    g: WGraph,
    result: PartitionResult,
    bmax: float,
    rmax: float,
    names: list[str] | None = None,
    system: MultiFPGASystem | None = None,
) -> Mapping:
    """Bind a partition to a (default: homogeneous all-to-all) platform."""
    if system is None:
        system = MultiFPGASystem.homogeneous(result.k, rmax=rmax, bmax=bmax)
    if system.k != result.k:
        raise PartitionError(
            f"system has {system.k} devices but partition has k={result.k}"
        )
    return Mapping(g, np.asarray(result.assign), system, names=names)
