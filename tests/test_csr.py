"""CSRGraph: storage invariants and accessors."""

import numpy as np
import pytest

from repro.api.types import NULL_VERTEX
from repro.graph.csr import CSRGraph
from repro.graph.generators import rmat_graph
from repro.graph.relabel import relabel_graph


class TestConstruction:
    def test_from_edges_basic(self):
        g = CSRGraph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
        assert g.num_vertices == 3
        assert g.num_edges == 3
        assert list(g.neighbors(0)) == [1, 2]
        assert list(g.neighbors(1)) == [2]
        assert list(g.neighbors(2)) == []

    def test_from_edges_undirected_doubles(self):
        g = CSRGraph.from_edges(3, [(0, 1)], undirected=True)
        assert g.num_edges == 2
        assert g.has_edge(0, 1) and g.has_edge(1, 0)

    def test_from_edges_empty(self):
        g = CSRGraph.from_edges(4, [])
        assert g.num_vertices == 4
        assert g.num_edges == 0
        assert g.degree(2) == 0

    def test_rows_are_sorted(self):
        g = CSRGraph.from_edges(4, [(0, 3), (0, 1), (0, 2)])
        assert list(g.neighbors(0)) == [1, 2, 3]

    def test_weights_follow_row_sort(self):
        g = CSRGraph.from_edges(4, [(0, 3), (0, 1), (0, 2)],
                                weights=[3.0, 1.0, 2.0])
        assert list(g.neighbors(0)) == [1, 2, 3]
        assert list(g.edge_weights(0)) == [1.0, 2.0, 3.0]

    def test_indptr_must_start_at_zero(self):
        with pytest.raises(ValueError):
            CSRGraph(np.array([1, 2]), np.array([0, 1]))

    def test_indptr_must_end_at_num_edges(self):
        with pytest.raises(ValueError):
            CSRGraph(np.array([0, 3]), np.array([0]))

    def test_indptr_must_be_monotone(self):
        with pytest.raises(ValueError):
            CSRGraph(np.array([0, 2, 1, 3]), np.array([0, 1, 2]))

    def test_indices_in_range(self):
        with pytest.raises(ValueError):
            CSRGraph(np.array([0, 1]), np.array([5]))

    def test_negative_weights_rejected(self):
        with pytest.raises(ValueError):
            CSRGraph.from_edges(2, [(0, 1)], weights=[-1.0])

    def test_misaligned_weights_rejected(self):
        with pytest.raises(ValueError):
            CSRGraph.from_edges(2, [(0, 1)], weights=[1.0, 2.0])

    def test_out_of_range_edges_rejected(self):
        with pytest.raises(ValueError):
            CSRGraph.from_edges(2, [(0, 5)])

    def test_malformed_edges_rejected(self):
        with pytest.raises(ValueError):
            CSRGraph.from_edges(2, np.array([[0, 1, 2]]))


class TestAccessors:
    def test_degrees_vector(self, tiny_graph):
        degs = tiny_graph.degrees()
        assert degs.shape == (7,)
        assert degs.sum() == tiny_graph.num_edges
        for v in range(7):
            assert degs[v] == tiny_graph.degree(v)

    def test_avg_degree(self, tiny_graph):
        assert tiny_graph.avg_degree == pytest.approx(
            tiny_graph.num_edges / 7)

    def test_avg_degree_empty(self):
        g = CSRGraph(np.array([0]), np.array([], dtype=np.int64))
        assert g.avg_degree == 0.0

    def test_has_edge_positive_and_negative(self, tiny_graph):
        assert tiny_graph.has_edge(0, 1)
        assert not tiny_graph.has_edge(0, 6)

    def test_has_edges_matches_scalar(self, medium_graph, rng):
        u = rng.integers(0, medium_graph.num_vertices, size=200)
        v = rng.integers(0, medium_graph.num_vertices, size=200)
        vectorised = medium_graph.has_edges(u, v)
        for i in range(200):
            assert vectorised[i] == medium_graph.has_edge(int(u[i]),
                                                          int(v[i]))

    def test_has_edges_empty(self, tiny_graph):
        out = tiny_graph.has_edges(np.array([], dtype=np.int64),
                                   np.array([], dtype=np.int64))
        assert out.shape == (0,)

    def test_has_edges_shape_mismatch(self, tiny_graph):
        with pytest.raises(ValueError):
            tiny_graph.has_edges(np.array([0]), np.array([0, 1]))

    def test_non_isolated_vertices(self):
        g = CSRGraph.from_edges(5, [(0, 1), (1, 2)])
        assert list(g.non_isolated_vertices()) == [0, 1]

    def test_memory_bytes_counts_arrays(self, tiny_graph, tiny_weighted):
        base = tiny_graph.memory_bytes()
        assert base == (tiny_graph.indptr.nbytes
                        + tiny_graph.indices.nbytes)
        assert tiny_weighted.memory_bytes() == base + tiny_weighted.weights.nbytes

    def test_repr(self, tiny_graph):
        assert "tiny" in repr(tiny_graph)
        assert "unweighted" in repr(tiny_graph)


class TestWeights:
    def test_with_random_weights_range(self, tiny_graph):
        g = tiny_graph.with_random_weights(seed=0)
        assert g.is_weighted
        assert (g.weights >= 1.0).all() and (g.weights < 5.0).all()

    def test_with_random_weights_deterministic(self, tiny_graph):
        a = tiny_graph.with_random_weights(seed=3)
        b = tiny_graph.with_random_weights(seed=3)
        assert np.array_equal(a.weights, b.weights)

    def test_max_edge_weight(self, tiny_weighted):
        for v in range(tiny_weighted.num_vertices):
            w = tiny_weighted.edge_weights(v)
            expected = w.max() if w.size else 0.0
            assert tiny_weighted.max_edge_weight(v) == pytest.approx(expected)

    def test_weight_prefix_per_row(self, tiny_weighted):
        prefix = tiny_weighted.weight_prefix()
        for v in range(tiny_weighted.num_vertices):
            lo, hi = tiny_weighted.indptr[v], tiny_weighted.indptr[v + 1]
            row = prefix[lo:hi]
            expected = np.cumsum(tiny_weighted.weights[lo:hi])
            assert np.allclose(row, expected)

    def test_global_weight_cumsum_monotone(self, tiny_weighted):
        cumsum = tiny_weighted.global_weight_cumsum()
        assert (np.diff(cumsum) >= 0).all()
        assert cumsum[-1] == pytest.approx(tiny_weighted.weights.sum())

    def test_row_total_weight(self, tiny_weighted):
        totals = tiny_weighted.row_total_weight()
        for v in range(tiny_weighted.num_vertices):
            assert totals[v] == pytest.approx(
                tiny_weighted.edge_weights(v).sum())

    def test_unweighted_raises(self, tiny_graph):
        with pytest.raises(ValueError):
            tiny_graph.edge_weights(0)
        with pytest.raises(ValueError):
            tiny_graph.weight_prefix()
        with pytest.raises(ValueError):
            tiny_graph.global_weight_cumsum()


class TestTransforms:
    def test_subgraph_relabels(self, tiny_graph):
        sub = tiny_graph.subgraph(np.array([0, 1, 2]))
        assert sub.num_vertices == 3
        # Edges among {0,1,2} survive with the same ids here.
        assert sub.has_edge(0, 1) and sub.has_edge(1, 2)
        assert not sub.has_edge(0, 0)

    def test_subgraph_drops_external_edges(self, tiny_graph):
        sub = tiny_graph.subgraph(np.array([4, 5]))
        # Only (4,5) survives from {4,5}'s neighborhoods.
        assert sub.num_edges == 2  # both directions

    def test_subgraph_keeps_weights(self, tiny_weighted):
        sub = tiny_weighted.subgraph(np.array([0, 1, 2]))
        assert sub.is_weighted
        assert sub.weights.size == sub.num_edges

    def test_equality(self, tiny_graph):
        other = CSRGraph(tiny_graph.indptr.copy(),
                         tiny_graph.indices.copy())
        assert tiny_graph == other
        assert not (tiny_graph == tiny_graph.with_random_weights(seed=1))

    def test_equality_non_graph(self, tiny_graph):
        assert tiny_graph.__eq__(42) is NotImplemented


def _null_alias_graph():
    """8 vertices, so ``n * n % 8 == 0``: the only edges leave the last
    vertex, whose bitmap row a wrapped ``-1`` source would alias."""
    return CSRGraph(np.array([0, 1, 1, 1, 1, 1, 1, 1, 3]),
                    np.array([1, 0, 3]))


def _block_inputs(rng, n, s=9, t=4, v=7):
    """(S, T) sources and (S, V) destinations with NULL padding, an
    all-NULL row on each side, and duplicate ids within rows."""
    u = rng.integers(0, n, size=(s, t))
    w = rng.integers(0, n, size=(s, v))
    u[rng.random(size=u.shape) < 0.2] = NULL_VERTEX
    w[rng.random(size=w.shape) < 0.2] = NULL_VERTEX
    u[0] = NULL_VERTEX
    w[1] = NULL_VERTEX
    u[2, 1] = u[2, 0]
    w[3, 1:3] = w[3, 0]
    return u, w


def _flat_cross_product(graph, u, w):
    s, t = u.shape
    v = w.shape[1]
    flat = graph.has_edges(np.repeat(u, v, axis=1).ravel(),
                           np.tile(w, (1, t)).ravel())
    return flat.reshape(s, t, v)


class TestEdgeProbes:
    """``has_edges`` / ``has_edges_block`` on both probe paths: the
    row-strided bitmap and the sorted-key fallback."""

    @pytest.fixture(params=["bitmap", "sorted_keys"])
    def use_bitmap(self, request, monkeypatch):
        if request.param == "sorted_keys":
            monkeypatch.setattr(CSRGraph, "_BITMAP_MAX_BYTES", 0)
        return request.param == "bitmap"

    def test_null_source_does_not_alias_last_row(self, use_bitmap):
        g = _null_alias_graph()
        assert (g._edge_bitmap() is not None) == use_bitmap
        assert g.has_edges([7, 7, 7], [0, 3, 1]).tolist() == \
            [True, True, False]
        assert g.has_edges([-1, -1, -1], [0, 3, 1]).tolist() == \
            [False, False, False]
        assert not g.has_edge(-1, 0)

    def test_out_of_range_ids_are_false(self, use_bitmap):
        g = _null_alias_graph()
        u = np.array([7, 7, 8, 99, -5, 7])
        v = np.array([-1, 8, 0, 3, 3, 99])
        assert not g.has_edges(u, v).any()
        assert not g.has_edges_block([[8, 99, -5]], [[0, 3, 1]]).any()
        assert g.has_edges_block([[7]], [[-1, 8, 99, 0]]).tolist() == \
            [[[False, False, False, True]]]
        assert not g.has_edge(7, 8) and not g.has_edge(8, 0)

    @pytest.mark.parametrize("relabeled", [False, True])
    def test_block_matches_flat_cross_product(self, use_bitmap, relabeled,
                                              rng):
        g = rmat_graph(300, 2400, seed=2, name="probe")
        if relabeled:
            g = relabel_graph(g, "degree")
        assert (g._edge_bitmap() is not None) == use_bitmap
        u, w = _block_inputs(rng, g.num_vertices)
        block = g.has_edges_block(u, w)
        assert block.shape == (9, 4, 7) and block.dtype == bool
        assert np.array_equal(block, _flat_cross_product(g, u, w))
        assert not block[0].any() and not block[1].any()
        assert block.any()

    def test_relabeled_block_matches_plain(self, use_bitmap, rng):
        plain = rmat_graph(300, 2400, seed=2, name="probe")
        rel = relabel_graph(plain, "degree")
        u = rng.integers(0, 300, size=(6, 5))
        w = rng.integers(0, 300, size=(6, 3))
        assert np.array_equal(
            rel.has_edges_block(rel.perm[u], rel.perm[w]),
            plain.has_edges_block(u, w))

    def test_block_empty_and_shape_checks(self, use_bitmap, tiny_graph):
        out = tiny_graph.has_edges_block(np.zeros((3, 0), dtype=np.int64),
                                         np.zeros((3, 5), dtype=np.int64))
        assert out.shape == (3, 0, 5)
        with pytest.raises(ValueError):
            tiny_graph.has_edges_block(np.zeros((3, 2)), np.zeros((4, 2)))
        with pytest.raises(ValueError):
            tiny_graph.has_edges_block(np.zeros(3), np.zeros(3))


class TestEdgeBitmap:
    def test_row_strided_layout(self):
        g = _null_alias_graph()
        bitmap = g._edge_bitmap()
        assert g._bitmap_stride() == 1
        assert bitmap.size == (8 + 1) * 1  # plus the all-zero NULL row
        assert bitmap[0] == 1 << 1
        assert bitmap[7] == (1 << 0) | (1 << 3)
        assert bitmap[8] == 0

    @pytest.mark.parametrize("n", [300, 301])
    def test_reduceat_build_matches_ufunc_at(self, n):
        g = rmat_graph(n, 5 * n, seed=n, name="bitmap")
        stride = (n + 7) // 8
        src = np.repeat(np.arange(n), g.degrees_array)
        ref = np.zeros((n + 1) * stride, dtype=np.uint8)
        np.bitwise_or.at(ref, src * stride + (g.indices >> 3),
                         np.left_shift(1, g.indices & 7).astype(np.uint8))
        assert np.array_equal(g._edge_bitmap(), ref)
        # A relabeled graph keys its bitmap in canonical ids: the same
        # bytes as the original graph's.
        assert np.array_equal(relabel_graph(g, "degree")._edge_bitmap(), ref)
