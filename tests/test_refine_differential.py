"""Differential tests: vectorized engine vs. the pre-refactor reference.

The expected values below were produced by the *pre-refactor* refinement
implementations (per-node Python loops over ``PartitionState``; snapshot
preserved in ``benchmarks/_legacy_refine.py``) on a pinned corpus of
``(graph, k, constraints, seed)`` cases.  Each case pins the full metric
tuple ``(total_violation, bandwidth_violation, resource_violation, cut)``:

* the **exact-equality** assertions catch any silent change in move
  ordering or tie-breaking (the engine was built move-for-move compatible
  with the reference, not merely "about as good"), and
* the **never-worse** assertions are the acceptance bar — a future change
  may legitimately alter move order, but only Goodness-improving or
  Goodness-neutral changes may land, in which case the pinned values should
  be regenerated from the new engine and this docstring updated.

All corpus graphs have integer-valued weights *and* integer-valued
constraint caps, so the pinned floats are exact (no tolerance games).
That integrality is what makes move-for-move parity with the reference
well-defined at all: fractional caps can flip near-tie move ordering by
~1 ulp of summation-order drift (see docs/refinement.md, "Scope of the
exactness claims") — do not add fractional-cap cases here expecting
exact equality.
"""

import numpy as np
import pytest

from repro.graph import (
    paper_graph,
    planted_partition_network,
    random_process_network,
)
from repro.partition.fm import default_side_caps, fm_refine_bisection
from repro.partition.kway_refine import (
    constrained_kway_fm,
    greedy_kway_refine,
    rebalance_pass,
)
from repro.partition.metrics import (
    ConstraintSpec,
    cut_value,
    evaluate_partition,
    part_weights,
)

# (case id, total_violation, bandwidth_violation, resource_violation, cut)
# — produced by the pre-refactor implementations; see module docstring.
REFERENCE = {
    "ckfm/rpn30/s0": (12.0, 12.0, 0.0, 93.0),
    "ckfm/rpn30/s1": (19.0, 19.0, 0.0, 102.0),
    "ckfm/rpn30/s2": (1.0, 1.0, 0.0, 69.0),
    "ckfm/rpn30/s3": (12.0, 12.0, 0.0, 81.0),
    "ckfm/paper1": (17.0, 2.0, 15.0, 80.0),
    "ckfm/paper2": (0.0, 0.0, 0.0, 91.0),
    "ckfm/paper3": (7.0, 7.0, 0.0, 90.0),
    "ckfm/planted16": (0.0, 0.0, 0.0, 21.0),
    "greedy/rpn40/s0": (0.0, 0.0, 0.0, 145.0),
    "greedy/rpn40/s1": (0.0, 0.0, 0.0, 149.0),
    "greedy/rpn40/s2": (0.0, 0.0, 0.0, 120.0),
    "rebal/rpn30/s0": (0.0, 0.0, 0.0, 88.0),
    "rebal/rpn30/s1": (0.0, 0.0, 0.0, 59.0),
    "rebal/rpn30/s2": (0.0, 0.0, 0.0, 55.0),
    "fm2/rpn24/s0": (0.0, 0.0, 0.0, 35.0),
    "fm2/rpn24/s1": (0.0, 0.0, 0.0, 43.0),
    "fm2/rpn24/s2": (0.0, 0.0, 0.0, 37.0),
}


def _metric_tuple(g, out, k, cons):
    m = evaluate_partition(g, out, k, cons)
    return (
        m.total_violation,
        m.bandwidth_violation,
        m.resource_violation,
        m.cut,
    )


def _check(case, g, out, k, cons):
    got = _metric_tuple(g, out, k, cons)
    ref = REFERENCE[case]
    # acceptance bar: goodness never worse than the pre-refactor reference
    assert got <= ref, f"{case}: goodness regressed — {got} vs reference {ref}"
    # regression tripwire: move ordering is reference-compatible today
    assert got == ref, (
        f"{case}: result differs from the pinned reference ({got} vs {ref}). "
        "If the new value is deliberately better, regenerate REFERENCE."
    )


class TestConstrainedFMDifferential:
    @pytest.mark.parametrize("s", range(4))
    def test_process_networks(self, s):
        g = random_process_network(30, 60, seed=s)
        a = np.random.default_rng(s).integers(0, 4, size=30)
        cons = ConstraintSpec(bmax=15.0, rmax=1.15 * g.total_node_weight / 4)
        out = constrained_kway_fm(g, a, 4, cons, seed=s)
        _check(f"ckfm/rpn30/s{s}", g, out, 4, cons)

    @pytest.mark.parametrize("exp", (1, 2, 3))
    def test_paper_graphs(self, exp):
        g, spec = paper_graph(exp)
        cons = ConstraintSpec(bmax=spec.bmax, rmax=spec.rmax)
        a = np.random.default_rng(exp).integers(0, spec.k, size=g.n)
        out = constrained_kway_fm(g, a, spec.k, cons, max_passes=8, seed=0)
        _check(f"ckfm/paper{exp}", g, out, spec.k, cons)

    def test_planted_feasible_start(self):
        g, planted = planted_partition_network(16, 4, rmax=100, bmax=14, seed=2)
        cons = ConstraintSpec(bmax=14, rmax=100)
        out = constrained_kway_fm(g, planted, 4, cons, seed=0)
        _check("ckfm/planted16", g, out, 4, cons)


class TestGreedyRefineDifferential:
    @pytest.mark.parametrize("s", range(3))
    def test_process_networks(self, s):
        g = random_process_network(40, 90, seed=s)
        a = np.arange(40) % 4
        cap = 1.1 * g.total_node_weight / 4
        out = greedy_kway_refine(g, a, 4, max_part_weight=cap, seed=s)
        _check(f"greedy/rpn40/s{s}", g, out, 4, ConstraintSpec(rmax=cap))


class TestRebalanceDifferential:
    @pytest.mark.parametrize("s", range(3))
    def test_pile_up_start(self, s):
        g = random_process_network(30, 60, seed=s, node_weight_range=(1, 4))
        a = np.zeros(30, dtype=np.int64)
        cap = 1.15 * g.total_node_weight / 3
        out = rebalance_pass(g, a, 3, cap)
        _check(f"rebal/rpn30/s{s}", g, out, 3, ConstraintSpec(rmax=cap))


class TestFMBisectionDifferential:
    @pytest.mark.parametrize("s", range(3))
    def test_random_starts(self, s):
        g = random_process_network(24, 50, seed=s)
        a = np.random.default_rng(s).integers(0, 2, size=24)
        out = fm_refine_bisection(g, a)
        caps = default_side_caps(g)
        w = part_weights(g, out, 2)
        viol = max(0.0, w[0] - caps[0]) + max(0.0, w[1] - caps[1])
        got = (viol, viol, 0.0, cut_value(g, out))
        ref_v, _, _, ref_cut = REFERENCE[f"fm2/rpn24/s{s}"]
        assert (viol, cut_value(g, out)) <= (ref_v, ref_cut)
        assert got == (ref_v, ref_v, 0.0, ref_cut)


class TestDeterminism:
    """Same (graph, k, constraints, seed) twice → byte-identical output —
    the property the pinned corpus rests on."""

    def test_all_entry_points_deterministic(self):
        g = random_process_network(24, 48, seed=7, node_weight_range=(1, 3))
        cons = ConstraintSpec(bmax=11.0, rmax=1.2 * g.total_node_weight / 3)
        a = np.random.default_rng(7).integers(0, 3, size=24)
        for fn in (
            lambda: constrained_kway_fm(g, a, 3, cons, seed=5),
            lambda: greedy_kway_refine(g, a, 3, seed=5),
            lambda: rebalance_pass(g, a, 3, 1.1 * g.total_node_weight / 3),
            lambda: fm_refine_bisection(g, np.asarray(a > 1, dtype=np.int64)),
        ):
            np.testing.assert_array_equal(fn(), fn())
