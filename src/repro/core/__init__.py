"""High-level one-call API (system S11 in DESIGN.md).

>>> from repro.core import partition_graph
>>> result = partition_graph(g, k=4, bmax=16, rmax=165)
>>> result.feasible
True
"""

from repro.core.api import (
    configure_cache_backend,
    disable_disk_cache,
    enable_disk_cache,
    map_to_fpgas,
    partition_graph,
    partition_ppn,
)
from repro.core.report import comparison_report, result_table
from repro.evolve.ea import EvolveConfig, evolve_partition
from repro.partition.gp import GPConfig
from repro.partition.metrics import ConstraintSpec

__all__ = [
    "partition_graph",
    "partition_ppn",
    "map_to_fpgas",
    "result_table",
    "comparison_report",
    "GPConfig",
    "EvolveConfig",
    "ConstraintSpec",
    "evolve_partition",
    "configure_cache_backend",
    "enable_disk_cache",
    "disable_disk_cache",
]
