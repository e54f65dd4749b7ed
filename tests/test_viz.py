"""Tests for layout, DOT, SVG and ASCII rendering."""

import warnings

import numpy as np
import pytest

from repro.graph import WGraph, paper_graph, random_process_network
from repro.partition.metrics import ConstraintSpec
from repro.util.errors import ReproError
from repro.viz import force_layout, render_ascii, render_svg, to_dot


def small():
    return WGraph(
        4, [(0, 1, 2.0), (1, 2, 3.0), (2, 3, 1.0)], node_weights=[5, 10, 15, 20]
    )


class TestLayout:
    def test_shape_and_range(self):
        g = random_process_network(15, 30, seed=0)
        pos = force_layout(g, seed=1)
        assert pos.shape == (15, 2)
        assert pos.min() >= 0.0 and pos.max() <= 1.0

    def test_deterministic(self):
        g = random_process_network(10, 18, seed=0)
        assert np.allclose(force_layout(g, seed=5), force_layout(g, seed=5))

    def test_seed_changes_layout(self):
        g = random_process_network(10, 18, seed=0)
        assert not np.allclose(force_layout(g, seed=1), force_layout(g, seed=2))

    def test_degenerate_sizes(self):
        assert force_layout(WGraph(0)).shape == (0, 2)
        assert np.allclose(force_layout(WGraph(1)), [[0.5, 0.5]])

    def test_all_zero_edge_weights_attract_uniformly(self):
        g = WGraph(3, [(0, 1, 0.0), (1, 2, 0.0)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pos = force_layout(g, seed=0)
        assert np.all(np.isfinite(pos))
        np.testing.assert_array_equal(
            pos, force_layout(g, seed=0, weight_attraction=False)
        )

    def test_connected_nodes_closer_than_random(self):
        """Heavy-edge endpoints should sit nearer than the global mean."""
        g = WGraph(6, [(0, 1, 10.0)])
        pos = force_layout(g, seed=0)
        d01 = np.linalg.norm(pos[0] - pos[1])
        dists = [
            np.linalg.norm(pos[i] - pos[j])
            for i in range(6)
            for j in range(i + 1, 6)
        ]
        assert d01 <= np.mean(dists)


class TestDot:
    def test_plain_graph(self):
        out = to_dot(small())
        assert out.startswith("graph ppn {")
        assert out.count("n0 --") + out.count("n1 --") + out.count("n2 --") == 3
        assert "style=dashed" not in out

    def test_partitioned_colours_and_dashes(self):
        out = to_dot(small(), assign=[0, 0, 1, 1], k=2)
        assert "style=dashed" in out  # edge 1-2 crosses
        assert out.count("fillcolor") == 4

    def test_names_and_title(self):
        out = to_dot(small(), names=["a", "b", "c", "d"], title="T")
        assert 'label="a\\n(5)"' in out
        assert 'label="T";' in out

    def test_hide_weights(self):
        out = to_dot(small(), show_weights=False)
        assert 'label="p0"' in out

    def test_name_length_checked(self):
        with pytest.raises(ReproError):
            to_dot(small(), names=["x"])

    def test_radius_scales_with_weight(self):
        out = to_dot(small())
        # heaviest node (20) has the max radius 0.80
        assert "width=0.80" in out

    def test_deterministic(self):
        g, spec = paper_graph(1)
        assert to_dot(g) == to_dot(g)


class TestSvg:
    def test_well_formed(self):
        out = render_svg(small(), seed=0)
        assert out.startswith("<svg ")
        assert out.rstrip().endswith("</svg>")
        assert out.count("<circle") == 4
        assert out.count("<line") == 3

    def test_partition_dashes(self):
        out = render_svg(small(), assign=[0, 0, 1, 1], k=2, seed=0)
        assert "stroke-dasharray" in out

    def test_title(self):
        out = render_svg(small(), title="Fig X", seed=0)
        assert "Fig X" in out

    def test_custom_positions(self):
        pos = np.array([[0, 0], [1, 0], [0, 1], [1, 1]], dtype=float)
        out = render_svg(small(), pos=pos)
        assert "<svg " in out

    def test_bad_positions_rejected(self):
        with pytest.raises(ReproError):
            render_svg(small(), pos=np.zeros((2, 2)))

    def test_bad_names_rejected(self):
        with pytest.raises(ReproError):
            render_svg(small(), names=["x"])

    def test_deterministic(self):
        assert render_svg(small(), seed=3) == render_svg(small(), seed=3)


class TestAscii:
    def test_plain_listing(self):
        out = render_ascii(small())
        assert "4 nodes, 3 edges" in out
        assert "p0" in out and "channels" in out

    def test_partition_breakdown(self):
        cons = ConstraintSpec(bmax=2.0, rmax=100.0)
        out = render_ascii(small(), assign=[0, 0, 1, 1], k=2, constraints=cons)
        assert "P0" in out and "P1" in out
        assert "crossing edges (1)" in out
        # pair bw = 3 > bmax=2 -> flagged
        assert "3!" in out
        assert "Bmax=2 VIOLATED" in out

    def test_feasible_verdict(self):
        cons = ConstraintSpec(bmax=5.0, rmax=100.0)
        out = render_ascii(small(), assign=[0, 0, 1, 1], k=2, constraints=cons)
        assert "Rmax=100 met" in out and "Bmax=5 met" in out

    def test_names_used(self):
        out = render_ascii(small(), names=["w", "x", "y", "z"])
        assert "w" in out

    def test_title(self):
        out = render_ascii(small(), title="HEAD")
        assert out.startswith("HEAD\n====")
