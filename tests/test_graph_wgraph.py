"""Unit tests for repro.graph.wgraph.WGraph."""

import numpy as np
import pytest

from repro.graph import WGraph, check_graph
from repro.util.errors import GraphError


def triangle():
    return WGraph(3, [(0, 1, 2.0), (1, 2, 3.0), (0, 2, 4.0)], node_weights=[5, 6, 7])


class TestConstruction:
    def test_empty_graph(self):
        g = WGraph(0)
        assert g.n == 0 and g.m == 0
        assert g.total_node_weight == 0.0
        assert g.is_connected()

    def test_nodes_only(self):
        g = WGraph(4)
        assert g.n == 4 and g.m == 0
        assert np.array_equal(g.node_weights, np.ones(4))

    def test_triangle_counts(self):
        g = triangle()
        assert g.n == 3 and g.m == 3
        assert g.total_node_weight == 18.0
        assert g.total_edge_weight == 9.0

    def test_duplicate_edges_merge_by_sum(self):
        g = WGraph(2, [(0, 1, 2.0), (1, 0, 3.0), (0, 1, 1.0)])
        assert g.m == 1
        assert g.edge_weight(0, 1) == 6.0

    def test_negative_node_count_rejected(self):
        with pytest.raises(GraphError):
            WGraph(-1)

    def test_self_loop_rejected(self):
        with pytest.raises(GraphError):
            WGraph(2, [(0, 0, 1.0)])

    def test_out_of_range_edge_rejected(self):
        with pytest.raises(GraphError):
            WGraph(2, [(0, 2, 1.0)])
        with pytest.raises(GraphError):
            WGraph(2, [(-1, 0, 1.0)])

    def test_negative_edge_weight_rejected(self):
        with pytest.raises(GraphError):
            WGraph(2, [(0, 1, -1.0)])

    def test_nonfinite_edge_weight_rejected(self):
        with pytest.raises(GraphError):
            WGraph(2, [(0, 1, float("nan"))])
        with pytest.raises(GraphError):
            WGraph(2, [(0, 1, float("inf"))])

    def test_bad_node_weight_shape_rejected(self):
        with pytest.raises(GraphError):
            WGraph(3, [], node_weights=[1, 2])

    def test_negative_node_weight_rejected(self):
        with pytest.raises(GraphError):
            WGraph(1, [], node_weights=[-1])

    def test_nonfinite_node_weight_rejected(self):
        with pytest.raises(GraphError):
            WGraph(1, [], node_weights=[float("nan")])

    def test_malformed_edge_tuple_rejected(self):
        with pytest.raises(GraphError):
            WGraph(2, [(0, 1)])  # type: ignore[list-item]

    def test_zero_weight_edge_kept(self):
        g = WGraph(2, [(0, 1, 0.0)])
        assert g.m == 1
        assert g.edge_weight(0, 1) == 0.0


class TestAccessors:
    def test_degree_and_weighted_degree(self):
        g = triangle()
        assert g.degree(0) == 2
        assert g.weighted_degree(0) == 6.0  # 2 + 4

    def test_neighbors_sorted_content(self):
        g = triangle()
        assert set(g.neighbors(1).tolist()) == {0, 2}

    def test_neighbor_weights_match(self):
        g = triangle()
        nbrs, ws = g.neighbor_weights(2)
        pairs = dict(zip(nbrs.tolist(), ws.tolist()))
        assert pairs == {1: 3.0, 0: 4.0}

    def test_has_edge(self):
        g = WGraph(3, [(0, 1, 1.0)])
        assert g.has_edge(0, 1) and g.has_edge(1, 0)
        assert not g.has_edge(0, 2)
        assert not g.has_edge(1, 1)

    def test_edge_weight_absent_is_zero(self):
        g = WGraph(3, [(0, 1, 1.0)])
        assert g.edge_weight(0, 2) == 0.0

    def test_edges_canonical_order(self):
        g = WGraph(4, [(3, 2, 1.0), (1, 0, 2.0), (2, 0, 3.0)])
        es = list(g.edges())
        assert es == [(0, 1, 2.0), (0, 2, 3.0), (2, 3, 1.0)]

    def test_node_range_checked(self):
        g = triangle()
        with pytest.raises(GraphError):
            g.degree(3)
        with pytest.raises(GraphError):
            g.neighbors(-1)

    def test_arrays_read_only(self):
        g = triangle()
        with pytest.raises(ValueError):
            g.node_weights[0] = 99.0
        eu, ev, ew = g.edge_array
        with pytest.raises(ValueError):
            ew[0] = 99.0

    def test_repr_mentions_sizes(self):
        assert "n=3" in repr(triangle())


class TestStructure:
    def test_connected_true(self):
        assert triangle().is_connected()

    def test_connected_false(self):
        g = WGraph(4, [(0, 1, 1.0), (2, 3, 1.0)])
        assert not g.is_connected()

    def test_components(self):
        g = WGraph(5, [(0, 1, 1.0), (2, 3, 1.0)])
        comps = g.connected_components()
        assert sorted(map(sorted, comps)) == [[0, 1], [2, 3], [4]]

    def test_adjacency_matrix_symmetric(self):
        g = triangle()
        a = g.adjacency_matrix()
        assert np.allclose(a, a.T)
        assert a[0, 1] == 2.0 and a[1, 2] == 3.0 and a[0, 2] == 4.0
        assert np.all(np.diag(a) == 0)

    def test_subgraph_induced(self):
        g = WGraph(
            4,
            [(0, 1, 1.0), (1, 2, 2.0), (2, 3, 3.0), (0, 3, 4.0)],
            node_weights=[1, 2, 3, 4],
        )
        sub, idx = g.subgraph([1, 2, 3])
        assert sub.n == 3 and sub.m == 2
        assert idx.tolist() == [1, 2, 3]
        assert sub.edge_weight(0, 1) == 2.0  # old (1,2)
        assert sub.edge_weight(1, 2) == 3.0  # old (2,3)
        assert sub.node_weights.tolist() == [2, 3, 4]

    def test_subgraph_duplicate_nodes_rejected(self):
        with pytest.raises(GraphError):
            triangle().subgraph([0, 0])

    def test_equality(self):
        assert triangle() == triangle()
        assert triangle() != WGraph(3, [(0, 1, 2.0)])

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(triangle())

    def test_with_node_weights(self):
        g = triangle().with_node_weights([1, 1, 1])
        assert g.total_node_weight == 3.0
        assert g.m == 3

    def test_with_node_weights_matches_edge_list_construction(self):
        # duplicate and reversed edges merge on construction; the copy
        # must equal the graph rebuilt from its merged edge list
        g = WGraph(5, [(3, 1, 2.0), (1, 3, 1.5), (0, 4, 1.0), (4, 0, 0.5),
                       (2, 1, 3.0), (0, 2, 1.0), (2, 0, 1.0)],
                   node_weights=[1, 2, 3, 4, 5])
        w = np.array([0.5, 0.0, 7.25, 1.0, 2.0])
        out = g.with_node_weights(w)
        ref = WGraph(g.n, list(g.edges()), node_weights=w)
        assert out == ref
        assert out.content_digest() == ref.content_digest()
        for u in range(g.n):
            np.testing.assert_array_equal(out.neighbors(u), ref.neighbors(u))
            np.testing.assert_array_equal(
                out.neighbor_weights(u), ref.neighbor_weights(u)
            )
        assert g.node_weights.tolist() == [1, 2, 3, 4, 5]  # g untouched
        assert w.flags.writeable  # the copy owns its weights

    @pytest.mark.parametrize("bad", [
        [1.0, 1.0], [1.0, float("nan"), 1.0], [1.0, float("inf"), 1.0],
        [1.0, -1.0, 1.0],
    ])
    def test_with_node_weights_rejects_bad_weights(self, bad):
        with pytest.raises(GraphError):
            triangle().with_node_weights(bad)


class TestValidation:
    def test_check_graph_passes(self):
        check_graph(triangle())
        check_graph(WGraph(0))
        check_graph(WGraph(5))
