"""One-call entry points tying the substrates together.

``partition_graph``
    Graph + constraints → :class:`~repro.partition.base.PartitionResult`
    via any of the partitioners in ``METHODS``: the paper's constrained
    ``"gp"``, the METIS-like ``"mlkp"``, ``"spectral"``, ``"exact"``, or
    ``"evolve"``, the memetic population search over the GP machinery
    (see ``docs/evolve.md``).  Its docstring states which method runs on
    which structure (graph, vector budgets, hypergraph) and takes which
    config.

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
    the in-process memo cache (evolve, vector GP), so memoised
    runs survive the process (the seam ``repro serve`` stands on — see
    ``docs/serve.md``).
"""

from __future__ import annotations

import dataclasses
from collections.abc import Callable
from collections.abc import Mapping as MappingABC
from collections.abc import Sequence
from typing import NamedTuple

import numpy as np

import repro.obs as _obs
from repro.evolve.ea import EvolveConfig, evolve_partition
from repro.fpga.mapping import Mapping
from repro.fpga.resources import ResourceVector, resource_matrix
from repro.fpga.system import MultiFPGASystem
from repro.graph.wgraph import WGraph
from repro.hypergraph.hgraph import HGraph
from repro.hypergraph.partition import HYPER_CONFIG
from repro.kpn.traffic import ppn_to_mapped_graph
from repro.partition.base import PartitionResult
from repro.partition.exact import exact_partition
from repro.partition.gp import GPConfig, run_gp
from repro.partition.metrics import ConstraintSpec
from repro.partition.mlkp import MLKP_CONFIG, mlkp_partition
from repro.partition.multires import MR_GP_CONFIG, MultiResResult
from repro.partition.spectral import spectral_partition
from repro.partition.vector_state import VectorConstraints, VectorGraph
from repro.polyhedral.ppn import PPN, derive_ppn
from repro.polyhedral.program import SANLP
from repro.util.errors import PartitionError
from repro.util.parallel import memo_cache, resolve_jobs

__all__ = [
    "METHODS",
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
    (``"evolve"``/``"mr_gp"``-prefixed).
    """
    memo_cache.set_backend(backend)


def enable_disk_cache(path, max_bytes: int = 256 * 1024 * 1024):
    """Back the memo cache (evolve, vector GP) with a
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


_MODELS = ("graph", "hypergraph")


class _Method(NamedTuple):
    """One row of the method table: what a method runs on, and how."""

    #: ``run(structure, k, constraints, config, seed, n_jobs, cache)``
    run: Callable
    #: structure type it runs on -> its default config (``None``: the
    #: method takes no config and no knob)
    configs: dict


#: The whole method contract of :func:`partition_graph`.
_METHOD_TABLE = {
    "gp": _Method(
        run_gp,
        {WGraph: GPConfig(), VectorGraph: MR_GP_CONFIG, HGraph: HYPER_CONFIG},
    ),
    "mlkp": _Method(
        lambda g, k, cons, config, seed, n_jobs, **_: mlkp_partition(
            g, k, cons, config, seed=seed, n_jobs=n_jobs
        ),
        {WGraph: MLKP_CONFIG},
    ),
    "spectral": _Method(
        lambda g, k, cons, config, **_: spectral_partition(
            g, k, constraints=cons
        ),
        {WGraph: None},
    ),
    "exact": _Method(
        lambda g, k, cons, config, **_: exact_partition(
            g, k, cons, enforce=not cons.unconstrained
        ),
        {WGraph: None},
    ),
    "evolve": _Method(
        evolve_partition,
        dict.fromkeys((WGraph, VectorGraph, HGraph), EvolveConfig()),
    ),
}
#: Every method name, in the order the CLI and ``repro serve`` list them.
METHODS = tuple(_METHOD_TABLE)
_STRUCTURE_NAMES = {
    WGraph: "a graph",
    VectorGraph: "vector budgets (resources=)",
    HGraph: "a hypergraph (HGraph)",
}


def _configure(method: str, row: _Method, stype: type, config, knobs: dict):
    """The config *method* runs on a *stype* structure: *config*
    (``None`` → the row's default) with the given ``refine=`` /
    ``conn_format=`` *knobs* set on it.

    The one place those arguments meet a config.  With no knobs *config*
    comes back as given (``None`` lets the callee apply its own default);
    a config of another class, or a knob the method has no field for, is
    rejected here, and a knob value the config or engine cannot honour is
    rejected by them.
    """
    default = row.configs[stype]
    if default is None:
        if config is not None:
            raise PartitionError(
                f"method={method!r} takes no config, "
                f"got {type(config).__name__}"
            )
        if knobs:
            raise PartitionError(
                f"{' and '.join(f'{n}=' for n in knobs)} needs a "
                f"refinement engine; method={method!r} has none"
            )
        return None
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


def _resolve(g, bmax, rmax, resources):
    """The structure a call partitions and its constraints: *g* itself
    under a :class:`ConstraintSpec`, or — with *resources* — *g* and its
    weight matrix as a :class:`VectorGraph` under
    :class:`VectorConstraints`."""
    if resources is None:
        if _rmax_is_vector(rmax):
            raise PartitionError(
                "a vector rmax needs the per-node resources matrix "
                "(resources=W); pass a scalar rmax otherwise"
            )
        return g, ConstraintSpec(bmax=bmax, rmax=rmax)
    if isinstance(g, HGraph):
        raise PartitionError(
            "resources= (vector budgets) needs a graph, got a hypergraph"
        )
    vg = VectorGraph(g, resources)
    if not _rmax_is_vector(rmax):
        raise PartitionError(
            f"a resources matrix with {vg.n_resources} columns needs a "
            f"per-resource rmax vector, got {rmax!r}"
        )
    cons = VectorConstraints(bmax=bmax, rmax=tuple(float(r) for r in rmax))
    if cons.n_resources != vg.n_resources:
        raise PartitionError(
            f"rmax caps {cons.n_resources} resources, the matrix has "
            f"{vg.n_resources} columns"
        )
    return vg, cons


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

    One table (``METHODS`` names its rows) is the whole contract: the
    structures each *method* runs on and the config class it takes.

    * ``"gp"`` — graph, vector budgets or hypergraph;
      :class:`~repro.partition.gp.GPConfig`.
    * ``"mlkp"`` — graph only; :class:`~repro.partition.gp.GPConfig`.
    * ``"spectral"``, ``"exact"`` (≤20 nodes) — graph only; no config.
    * ``"evolve"`` — graph, vector budgets or hypergraph;
      :class:`~repro.evolve.ea.EvolveConfig`.

    ``"gp"`` is the paper's constrained partitioner; on a hypergraph it
    runs :func:`~repro.hypergraph.partition.hyper_partition` under the
    (λ−1) connectivity metric (``docs/hypergraph.md``), and on vector
    budgets :func:`~repro.partition.multires.mr_gp_partition`
    (``docs/multires.md``).  ``config=None`` means the engine's own
    default (:class:`~repro.partition.gp.GPConfig`,
    :data:`~repro.hypergraph.partition.HYPER_CONFIG`,
    :data:`~repro.partition.multires.MR_GP_CONFIG`).  ``"mlkp"`` is
    METIS-like: GP's driver on kmetis's steps under a balance objective
    (:data:`~repro.partition.mlkp.MLKP_CONFIG` by default).  It and
    ``"spectral"`` (recursive spectral bisection) only audit the
    constraints — ``on_infeasible="raise"`` makes a failed audit raise —
    while ``"exact"`` enforces them.  ``"evolve"`` is the memetic
    population search over the GP machinery (``docs/evolve.md``).  A method without a config rejects any
    *config*, and every method rejects a config of another class.

    The structure is *g* — a :class:`~repro.graph.wgraph.WGraph` or an
    :class:`~repro.hypergraph.hgraph.HGraph` — unless *resources* is
    given: the ``(n, R)`` weight matrix of a graph, with a per-resource
    *rmax* sequence, makes the constraint componentwise
    (``VectorConstraints``).  A vector *rmax* without the matrix is
    rejected, and so is a method on a structure it does not run on.

    *n_jobs* caps the worker processes (``-1`` = all CPUs) and
    ``cache=False`` forbids memo reads and writes.  Every method takes
    both and returns bit-identical results for every value: GP races its
    retry cycles and evolve its members and offspring batches
    (``docs/parallel.md``), and so does MLKP when its config allows more
    than one cycle; vector GP and evolve are memoised; a method with
    nothing to race or memoise honours them by doing nothing.

    *refine* and *conn_format* override the config's own fields of the
    same name; ``None`` (default) keeps the config's value.  *refine*
    selects the refinement stage (``docs/refinement.md``): ``"fm"`` —
    each method's native local search; ``"fm+flow"`` — native refinement
    plus a guarded corridor max-flow polish that is never worse than
    ``"fm"`` at equal seeds.  *conn_format* selects the refinement
    engine's connectivity store: ``"auto"`` — dense below the ``k·n``
    threshold, sparse above; ``"dense"`` / ``"sparse"`` force a format,
    and the partition is bit-identical either way.  ``"spectral"`` and
    ``"exact"`` have no refinement engine and reject both.  A
    *conn_format* other than ``"auto"`` is rejected by the engines
    without a store — the hypergraph Φ engine and ``"evolve"``, whose
    config has no such field.

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
    row = _METHOD_TABLE.get(method)
    if row is None:
        raise PartitionError(
            f"unknown method {method!r}; valid methods: {METHODS}"
        )
    resolve_jobs(n_jobs)
    structure, constraints = _resolve(g, bmax, rmax, resources)
    stype = type(structure)
    if stype not in row.configs:
        runs_on = tuple(
            name for name, r in _METHOD_TABLE.items() if stype in r.configs
        )
        raise PartitionError(
            f"method={method!r} does not run on "
            f"{_STRUCTURE_NAMES.get(stype, stype.__name__)}; "
            f"methods that do: {runs_on}"
        )
    knobs = {
        name: value
        for name, value in (("refine", refine), ("conn_format", conn_format))
        if value is not None
    }
    return row.run(
        structure, k, constraints,
        _configure(method, row, stype, config, knobs),
        seed=seed, n_jobs=n_jobs, cache=cache,
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
    mapping graph; with ``model="hypergraph"`` multicast channels stay
    hyperedges, partitioned under the connectivity metric (only
    ``bandwidth_mode="tokens"`` weights exist for nets).

    *resources* assigns every process a resource **vector** (LUTs, FFs,
    BRAMs, DSPs — :mod:`repro.fpga.resources`) and *rmax* the matching
    per-resource budget sequence; the partition is then computed under
    componentwise constraints.  Accepted spellings: a ``{process name:
    ResourceVector}`` mapping, a node-ordered ``ResourceVector``
    sequence, or a ready ``(n, R)`` matrix.

    The structure is partitioned by :func:`partition_graph`, so *method*,
    *config*, *n_jobs*, *cache*, *resources* and *refine* follow its
    rules.

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
