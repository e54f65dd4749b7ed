"""What an import loads.

A GP or hypergraph call never touches scipy or networkx, and importing
either costs more than a small partitioning call (~0.3 s and ~0.2 s).
Only :mod:`repro.partition.spectral` needs scipy and only the two
networkx converters in :mod:`repro.graph.builders` need networkx, so
they import them when called.  Each check runs in a fresh interpreter,
because this test process has long since loaded both.  The checks are
on module sets, not on times.
"""

import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")

HEAVY = ("scipy", "networkx")


def loaded_after(code: str) -> set[str]:
    """Which of :data:`HEAVY` a fresh interpreter holds after *code*."""
    probe = (
        f"{code}\nimport sys\n"
        f"print(' '.join(m for m in {HEAVY!r} if m in sys.modules))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True, text=True, env={"PYTHONPATH": SRC, "PATH": ""},
    )
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


@pytest.mark.parametrize(
    "module",
    [
        "repro",
        "repro.partition.gp",
        "repro.hypergraph.partition",
        "repro.bench.suites",
        "repro.core.api",
        "repro.serve.server",
        "repro.cli",
    ],
)
def test_import_loads_neither_scipy_nor_networkx(module):
    assert loaded_after(f"import {module}") == set()


def test_gp_and_hypergraph_calls_load_neither():
    code = (
        "from repro.graph.generators import random_process_network\n"
        "from repro.hypergraph.hgraph import HGraph\n"
        "from repro.hypergraph.partition import hyper_partition\n"
        "from repro.partition.gp import gp_partition\n"
        "from repro.partition.metrics import ConstraintSpec\n"
        "g = random_process_network(60, 150, seed=0)\n"
        "gp_partition(g, 4, ConstraintSpec(), seed=0)\n"
        "hyper_partition(HGraph.from_wgraph(g), 4, seed=0)"
    )
    assert loaded_after(code) == set()


def test_spectral_partition_loads_scipy_when_called():
    code = (
        "from repro.graph.generators import random_process_network\n"
        "from repro.partition.spectral import spectral_partition\n"
        "import sys\n"
        "assert 'scipy' not in sys.modules\n"
        "for n in (40, 100):  # dense and sparse eigensolver\n"
        "    g = random_process_network(n, 2 * n, seed=0)\n"
        "    r = spectral_partition(g, 4)\n"
        "    assert sorted(set(r.assign.tolist())) == [0, 1, 2, 3]"
    )
    assert loaded_after(code) == {"scipy"}


def test_networkx_converters_load_networkx_when_called():
    code = (
        "from repro.graph import from_networkx, to_networkx\n"
        "from repro.graph.generators import random_process_network\n"
        "import sys\n"
        "assert 'networkx' not in sys.modules\n"
        "g = random_process_network(30, 60, seed=0)\n"
        "g2, labels = from_networkx(to_networkx(g))\n"
        "assert g2 == g and labels == list(range(30))"
    )
    assert loaded_after(code) == {"networkx"}
