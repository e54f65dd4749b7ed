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
    the in-process memo cache (portfolio, evolve, vector GP), so memoised
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
from repro.hypergraph.partition import HYPER_CONFIG, hyper_partition
from repro.kpn.traffic import ppn_to_mapped_graph
from repro.partition.base import PartitionResult
from repro.partition.exact import exact_partition
from repro.partition.gp import GPConfig, gp_partition
from repro.partition.metrics import ConstraintSpec
from repro.partition.mlkp import mlkp_partition
from repro.partition.multires import (
    MR_GP_CONFIG,
    MultiResResult,
    mr_gp_partition,
)
from repro.partition.spectral import spectral_partition
from repro.partition.vector_state import (
    VectorConstraints,
    VectorGraph,
    check_weight_matrix,
)
from repro.polyhedral.ppn import PPN, derive_ppn
from repro.polyhedral.program import SANLP
from repro.util.errors import PartitionError
from repro.util.parallel import memo_cache

__all__ = [
    "partition_graph",
    "partition_ppn",
    "map_to_fpgas",
    "configure_cache_backend",
    "enable_disk_cache",
    "disable_disk_cache",
]


def configure_cache_backend(backend) -> None:
    """Attach *backend* under the memo cache (``None`` detaches).

    *backend* is any object with the :class:`~repro.util.parallel.
    KeyedCache` backend protocol (``lookup``/``put``/``stats``) —
    canonically a :class:`~repro.util.diskcache.DiskCache`.  One shared
    store is safe: the memo keys are namespaced tuples
    (``"portfolio"``/``"evolve"``/``"mr_gp"``-prefixed).
    """
    memo_cache.set_backend(backend)


def enable_disk_cache(path, max_bytes: int = 256 * 1024 * 1024):
    """Back the memo cache (portfolio, evolve, vector GP) with a
    persistent store.

    Returns the :class:`~repro.util.diskcache.DiskCache` so callers can
    inspect ``stats()`` or share it (the serve daemon layers its own
    request-level cache on the same store).
    """
    from repro.util.diskcache import DiskCache

    backend = DiskCache(path, max_bytes=max_bytes)
    configure_cache_backend(backend)
    return backend


def disable_disk_cache() -> None:
    """Detach any persistent backend from the memo cache."""
    configure_cache_backend(None)

_METHODS = ("gp", "mlkp", "spectral", "exact", "hyper", "evolve")
_MODELS = ("graph", "hypergraph")
#: Methods with independent randomized work to race across processes.
_JOBS_METHODS = ("gp", "hyper", "evolve")
#: Methods that can partition under vector resource budgets.
_VECTOR_METHODS = ("gp", "evolve")
#: Methods that can partition a hypergraph (the connectivity model).
_HYPER_METHODS = ("gp", "hyper", "evolve")


def _configure(method: str, config, default, knobs: dict):
    """The config *method* runs: *config* (``None`` → *default*) with the
    given ``refine=``/``conn_format=`` *knobs* set on it.

    The one place those arguments meet a config.  With no knobs *config*
    comes back as given (``None`` lets the callee apply its own default);
    a knob the config class has no field for is rejected here, and a knob
    value the config or engine cannot honour is rejected by them.
    """
    cls = type(default)
    if config is not None and not isinstance(config, cls):
        raise PartitionError(
            f"method={method!r} needs a config of type {cls.__name__}, "
            f"got {type(config).__name__}"
        )
    if not knobs:
        return config
    fields = {f.name for f in dataclasses.fields(cls)}
    for name, value in knobs.items():
        if name not in fields:
            raise PartitionError(
                f"{name}={value!r} is not supported by method={method!r} "
                f"({cls.__name__} has no {name} knob)"
            )
    return dataclasses.replace(config or default, **knobs)


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
    knobs: dict,
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
        return evolve_partition(
            VectorGraph(g, w), k, cons,
            config=_configure(method, config, EvolveConfig(), knobs),
            seed=seed, n_jobs=n_jobs, cache=cache,
        )
    return mr_gp_partition(
        g, w, k, cons, _configure(method, config, MR_GP_CONFIG, knobs),
        seed=seed, n_jobs=n_jobs, cache=cache,
    )


def partition_graph(
    g: WGraph | HGraph,
    k: int,
    bmax: float = float("inf"),
    rmax=float("inf"),
    method: str = "gp",
    seed=None,
    config: GPConfig | EvolveConfig | None = None,
    n_jobs: int | None = 1,
    cache: bool = True,
    resources=None,
    profile: bool | str = False,
    refine: str | None = None,
    conn_format: str | None = None,
) -> PartitionResult | MultiResResult | _obs.ProfileReport:
    """Partition *g* into *k* parts under the paper's two constraints.

    *method*: ``"gp"`` (the paper's constrained partitioner, default),
    ``"mlkp"`` (METIS-like, constraints audited only), ``"spectral"``,
    ``"exact"`` (≤20 nodes, constraints enforced), ``"hyper"`` (the
    connectivity-metric multilevel partitioner on the 2-pin hypergraph
    lift), or ``"evolve"`` (the memetic population search; takes an
    :class:`~repro.evolve.ea.EvolveConfig`, see ``docs/evolve.md``).
    ``"gp"`` and ``"hyper"`` take a :class:`~repro.partition.gp.GPConfig`
    (``"hyper"`` defaults to
    :data:`~repro.hypergraph.partition.HYPER_CONFIG`); every field,
    ``vcycles`` included, means the same on the graph, hypergraph and
    vector engines.

    *g* may also be an :class:`~repro.hypergraph.hgraph.HGraph` (the
    connectivity model, ``docs/hypergraph.md``): ``"gp"`` and ``"hyper"``
    then both run :func:`~repro.hypergraph.partition.hyper_partition` on
    it and ``"evolve"`` runs on the hypergraph engine; the other methods
    and *resources* are rejected.

    *resources* switches the resource model from scalar to vector
    (``docs/multires.md``): pass the ``(n, R)`` weight matrix and a
    per-resource *rmax* sequence, and the constraint becomes
    componentwise (``VectorConstraints``).  Supported by ``"gp"`` (the
    multi-resource multilevel partitioner, returning a
    :class:`~repro.partition.multires.MultiResResult`; a
    :class:`~repro.partition.gp.GPConfig` is honoured as given, and
    ``None`` means :data:`~repro.partition.multires.MR_GP_CONFIG`) and
    ``"evolve"`` (the memetic search on the vector engine) — other
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

    *refine* and *conn_format* override the config's own fields of the
    same name; ``None`` (default) keeps the config's value.  *refine*
    selects the refinement stage (``docs/refinement.md``): ``"fm"`` —
    each method's native local search; ``"fm+flow"`` — native refinement
    plus a guarded corridor max-flow polish that is never worse than
    ``"fm"`` at equal seeds.
    *conn_format* selects the refinement engine's connectivity store:
    ``"auto"`` — dense below the ``k·n`` threshold, sparse above;
    ``"dense"`` / ``"sparse"`` force a format, and the partition is
    bit-identical either way.  Every method with a refinement engine
    takes *refine* (``"gp"`` scalar and vector, ``"hyper"``, ``"mlkp"``,
    ``"evolve"``); ``"spectral"`` and ``"exact"`` have none and reject
    both knobs.  A *conn_format* other than ``"auto"`` is rejected by the
    engines without a store — the hypergraph Φ engine (``"hyper"``) and
    ``"evolve"``, whose config has no such field.

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
    knobs = {
        name: value
        for name, value in (("refine", refine), ("conn_format", conn_format))
        if value is not None
    }
    if knobs and method in ("spectral", "exact"):
        raise PartitionError(
            f"{' and '.join(f'{n}=' for n in knobs)} needs a refinement "
            f"engine; method={method!r} has none"
        )
    hypergraph = isinstance(g, HGraph)
    if hypergraph and (method not in _HYPER_METHODS or resources is not None):
        raise PartitionError(
            f"a hypergraph is partitioned by methods "
            f"{'/'.join(_HYPER_METHODS)} with scalar budgets, "
            f"got method={method!r}"
            + (" with resources" if resources is not None else "")
        )
    if resources is not None:
        return _partition_graph_vector(
            g, k, bmax, rmax, method, seed, config, n_jobs, cache,
            resources, knobs,
        )
    if _rmax_is_vector(rmax):
        raise PartitionError(
            "a vector rmax needs the per-node resources matrix "
            "(resources=W); pass a scalar rmax otherwise"
        )
    constraints = ConstraintSpec(bmax=bmax, rmax=rmax)
    if method == "evolve":
        return evolve_partition(
            g, k, constraints,
            config=_configure(method, config, EvolveConfig(), knobs),
            seed=seed, n_jobs=n_jobs, cache=cache,
        )
    if method == "hyper" or (method == "gp" and hypergraph):
        return hyper_partition(
            g if hypergraph else HGraph.from_wgraph(g), k, constraints,
            config=_configure(method, config, HYPER_CONFIG, knobs),
            seed=seed, n_jobs=n_jobs,
        )
    if method == "gp":
        return gp_partition(
            g, k, constraints,
            config=_configure(method, config, GPConfig(), knobs),
            seed=seed, n_jobs=n_jobs,
        )
    if method == "mlkp":
        return mlkp_partition(
            g, k, seed=seed, constraints=constraints, **knobs
        )
    if method == "spectral":
        return spectral_partition(g, k, constraints=constraints)
    if method == "exact":
        return exact_partition(g, k, constraints, enforce=not constraints.unconstrained)
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
    config: GPConfig | EvolveConfig | None = None,
    n_jobs: int | None = 1,
    cache: bool = True,
    resources=None,
    refine: str | None = None,
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

    Either model's structure is partitioned by :func:`partition_graph`,
    so *config*, *n_jobs*, *cache* and *refine* follow its rules on both
    (``refine`` overrides the config's own field; ``None`` keeps it).

    Returns ``(result, mapping_structure, names)`` — the second element is
    the :class:`WGraph` or :class:`HGraph` that was partitioned, and
    *names[i]* is the process mapped to node *i*.
    """
    if model not in _MODELS:
        raise PartitionError(f"unknown model {model!r}; valid models: {_MODELS}")
    ppn = (
        program_or_ppn
        if isinstance(program_or_ppn, PPN)
        else derive_ppn(program_or_ppn)
    )
    if model == "hypergraph":
        if bandwidth_mode != "tokens":
            raise PartitionError(
                "model='hypergraph' supports only bandwidth_mode='tokens' "
                f"(net weights are token-set sizes), got {bandwidth_mode!r}"
            )
        structure, names = ppn.to_hypergraph(bandwidth_scale=bandwidth_scale)
    else:
        structure, names = ppn_to_mapped_graph(
            ppn, mode=bandwidth_mode, scale=bandwidth_scale
        )
    result = partition_graph(
        structure, k, bmax=bmax, rmax=rmax, method=method, seed=seed,
        config=config, n_jobs=n_jobs, cache=cache,
        resources=(
            None if resources is None
            else _ppn_resource_matrix(resources, names)
        ),
        refine=refine,
    )
    return result, structure, names


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
