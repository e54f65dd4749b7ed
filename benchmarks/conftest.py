"""Shared helpers for the benchmark drivers.

Every driver regenerates one paper table or figure (or one extended study)
and prints the measured-vs-paper comparison; artefacts land in
``benchmarks/artifacts/``, or in the directory ``--artifacts-dir`` names
(``scripts/ci.sh`` passes a scratch directory, so a CI run leaves the
tracked artefacts as they are).
"""

from __future__ import annotations

from pathlib import Path

import pytest

ARTIFACTS = Path(__file__).parent / "artifacts"


def pytest_addoption(parser):
    parser.addoption(
        "--artifacts-dir", default=None, metavar="DIR",
        help="write the drivers' artefacts here instead of "
             "benchmarks/artifacts/",
    )


def pytest_configure(config):
    global ARTIFACTS
    out = config.getoption("--artifacts-dir")
    if out:
        ARTIFACTS = Path(out)


@pytest.fixture(scope="session")
def artifacts_dir() -> Path:
    ARTIFACTS.mkdir(parents=True, exist_ok=True)
    return ARTIFACTS


def emit(name: str, text: str) -> None:
    """Print a study's table and persist it under artifacts/."""
    ARTIFACTS.mkdir(parents=True, exist_ok=True)
    (ARTIFACTS / name).write_text(text)
    print(f"\n{text}")


def emit_bench(suite: str, metrics, seed: int = 0) -> None:
    """Persist a driver's structured metrics as a BENCH JSON artifact.

    The machine-readable companion of :func:`emit`: the same study run
    lands as ``artifacts/BENCH_<suite>.json`` in the schema
    ``repro bench --compare`` gates on (see ``docs/observability.md``),
    so driver runs accumulate a revision-to-revision trajectory instead
    of only a text table.
    """
    from repro.obs.benchdb import BenchResult, write_bench

    path = ARTIFACTS / f"BENCH_{suite}.json"
    write_bench(path, BenchResult(suite=suite, metrics=list(metrics),
                                  seed=seed))
    print(f"wrote {path}")
