"""Hypergraph performance smoke tests (marked ``slow``; run via
``scripts/ci.sh`` stage 2).

Budget tests, not benchmarks: each asserts a representative Φ-engine
workload finishes within a wall-clock budget an order of magnitude above
what it needs today (~0.75 s for the 2k-node constrained FM, ~0.9 s for
the 400-node multilevel pipeline on a shared 2-CPU x86-64 host, where the
k-wide move evaluator took ~2.2 s and ~2.4 s).  They trip only when a
change reintroduces super-linear Python work in the incremental move or
move-evaluation path; model-quality numbers live in
``benchmarks/bench_hypergraph.py``.
"""

import time

import numpy as np
import pytest

from repro.graph import multicast_network
from repro.hypergraph import (
    constrained_hyper_fm,
    evaluate_hyper_partition,
    hyper_partition,
)
from repro.partition.metrics import ConstraintSpec


@pytest.mark.slow
def test_hyper_fm_2k_under_budget():
    n, k = 2000, 8
    hg = multicast_network(n, seed=0, fanout=8, n_broadcasts=n // 5)
    a = np.random.default_rng(0).integers(0, k, size=n)
    cons = ConstraintSpec(rmax=float(round(1.1 * hg.total_node_weight / k)))
    before = evaluate_hyper_partition(hg, a, k, cons)
    start = time.perf_counter()
    out = constrained_hyper_fm(hg, a, k, cons, max_passes=2, seed=0)
    elapsed = time.perf_counter() - start
    after = evaluate_hyper_partition(hg, out, k, cons)
    assert after.total_violation <= before.total_violation + 1e-9
    assert after.cut <= before.cut + 1e-9
    assert elapsed < 15.0, f"2k-node hyper FM took {elapsed:.1f}s"


@pytest.mark.slow
def test_hyper_multilevel_400_under_budget():
    hg = multicast_network(400, seed=1, fanout=6)
    cons = ConstraintSpec(rmax=float(round(1.15 * hg.total_node_weight / 4)))
    start = time.perf_counter()
    res = hyper_partition(hg, 4, cons, seed=0)
    elapsed = time.perf_counter() - start
    assert res.assign.shape == (400,)
    assert res.feasible
    assert elapsed < 20.0, f"400-node multilevel hyper run took {elapsed:.1f}s"
