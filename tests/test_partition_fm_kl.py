"""Tests for FM two-way refinement."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import WGraph, random_process_network
from repro.partition.fm import fm_pass_bisection, fm_refine_bisection
from repro.partition.metrics import cut_value, part_weights
from repro.util.errors import PartitionError


def two_cliques():
    """Two K4 cliques joined by one light bridge — obvious optimal bisection."""
    edges = []
    for base in (0, 4):
        nodes = range(base, base + 4)
        edges += [(u, v, 10.0) for u in nodes for v in nodes if u < v]
    edges.append((3, 4, 1.0))
    return WGraph(8, edges)


class TestFMPass:
    def test_improves_bad_bisection(self):
        g = two_cliques()
        bad = np.array([0, 1, 0, 1, 0, 1, 0, 1])
        out, cut = fm_pass_bisection(g, bad)
        assert cut < cut_value(g, bad)

    def test_never_worse_than_input(self):
        for seed in range(5):
            g = random_process_network(15, 30, seed=seed)
            rng = np.random.default_rng(seed)
            a = rng.integers(0, 2, size=15)
            _, cut = fm_pass_bisection(g, a)
            assert cut <= cut_value(g, a) + 1e-9

    def test_weight_limits_respected(self):
        g = two_cliques()
        a = np.array([0, 0, 0, 0, 1, 1, 1, 1])
        cap = (5.0, 5.0)  # already at 4.0 vs 4.0; no move may exceed 5
        out, _ = fm_pass_bisection(g, a, max_weight=cap)
        w = part_weights(g, out, 2)
        assert w[0] <= 5.0 and w[1] <= 5.0

    def test_overweight_side_can_shed(self):
        """When a side starts above its cap, weight-reducing moves are allowed."""
        g = WGraph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)], node_weights=[1] * 4)
        a = np.array([0, 0, 0, 0])
        out, _ = fm_pass_bisection(g, a, max_weight=(2.0, 4.0))
        w = part_weights(g, out, 2)
        assert w[0] <= 3.0  # shed at least one unit (caps guide, FM keeps best cut prefix)

    def test_negative_limits_rejected(self):
        g = two_cliques()
        with pytest.raises(PartitionError):
            fm_pass_bisection(g, np.zeros(8, dtype=int), max_weight=(-1, 1))


class TestFMRefine:
    def test_finds_clique_split(self):
        g = two_cliques()
        bad = np.array([0, 1, 0, 1, 0, 1, 0, 1])
        out = fm_refine_bisection(g, bad)
        assert cut_value(g, out) == 1.0  # the bridge

    def test_optimal_input_unchanged_cut(self):
        g = two_cliques()
        opt = np.array([0, 0, 0, 0, 1, 1, 1, 1])
        out = fm_refine_bisection(g, opt)
        assert cut_value(g, out) == 1.0

    def test_bad_passes_rejected(self):
        g = two_cliques()
        with pytest.raises(PartitionError):
            fm_refine_bisection(g, np.zeros(8, dtype=int), max_passes=0)

    @given(seed=st.integers(0, 3000))
    @settings(max_examples=25, deadline=None)
    def test_property_never_worse_lexicographically(self, seed):
        """FM optimises (cap violation, cut): the pair never worsens; the cut
        alone never worsens once the input already satisfies the caps."""
        from repro.partition.fm import default_side_caps

        g = random_process_network(12, 24, seed=seed)
        rng = np.random.default_rng(seed)
        a = rng.integers(0, 2, size=12)
        caps = default_side_caps(g)

        def key(assign):
            w = part_weights(g, assign, 2)
            viol = max(0.0, w[0] - caps[0]) + max(0.0, w[1] - caps[1])
            return (viol, cut_value(g, assign))

        out = fm_refine_bisection(g, a)
        assert key(out) <= key(a)
        if key(a)[0] == 0.0:
            assert cut_value(g, out) <= cut_value(g, a) + 1e-9
        assert set(np.unique(out)).issubset({0, 1})

