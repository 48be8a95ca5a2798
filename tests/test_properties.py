"""Property-based tests (hypothesis) on core data structures.

These pin the invariants the whole system rests on: CSR structure,
transit-map grouping, dedup, and the sampling primitives' validity for
arbitrary inputs.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.apps._kernels import (
    build_combined_neighborhood,
    segment_uniform_choice,
    uniform_neighbors,
    weighted_neighbors,
)
from repro.api.types import NULL_VERTEX
from repro.core.scheduling import classify_transits
from repro.core.transit_map import build_transit_map
from repro.core.unique import dedupe_rows
from repro.graph.csr import CSRGraph


@st.composite
def edge_lists(draw, max_vertices=24, max_edges=60):
    n = draw(st.integers(min_value=2, max_value=max_vertices))
    edges = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
        max_size=max_edges))
    return n, edges


@st.composite
def graphs(draw):
    n, edges = draw(edge_lists())
    return CSRGraph.from_edges(n, edges)


@st.composite
def weighted_graphs(draw):
    n, edges = draw(edge_lists())
    weights = [draw(st.floats(0.1, 10.0)) for _ in edges]
    return CSRGraph.from_edges(n, edges, weights=weights)


class TestCSRProperties:
    @given(edge_lists())
    @settings(max_examples=60, deadline=None)
    def test_structure_invariants(self, data):
        n, edges = data
        g = CSRGraph.from_edges(n, edges)
        assert g.indptr[0] == 0
        assert g.indptr[-1] == g.num_edges
        assert (np.diff(g.indptr) >= 0).all()
        assert g.degrees().sum() == g.num_edges
        for v in range(n):
            row = g.neighbors(v)
            assert (np.diff(row) >= 0).all()

    @given(edge_lists())
    @settings(max_examples=60, deadline=None)
    def test_every_input_edge_present(self, data):
        n, edges = data
        g = CSRGraph.from_edges(n, edges)
        for u, v in edges:
            assert g.has_edge(u, v)

    @given(graphs(), st.integers(0, 2 ** 31))
    @settings(max_examples=40, deadline=None)
    def test_has_edges_matches_naive(self, g, seed):
        rng = np.random.default_rng(seed)
        u = rng.integers(0, g.num_vertices, size=30)
        v = rng.integers(0, g.num_vertices, size=30)
        fast = g.has_edges(u, v)
        naive = np.array([int(vv) in g.neighbors(int(uu)).tolist()
                          for uu, vv in zip(u, v)])
        assert np.array_equal(fast, naive)

    @given(graphs(), st.integers(0, 2 ** 31), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_has_edges_block_matches_naive(self, g, seed, use_bitmap):
        if not use_bitmap:
            g._BITMAP_MAX_BYTES = 0  # sorted-key fallback
        rng = np.random.default_rng(seed)
        s = int(rng.integers(1, 5))
        t, v = (int(x) for x in rng.integers(0, 6, size=2))
        # -1 is NULL_VERTEX: padding slots never have edges.
        u = rng.integers(-1, g.num_vertices, size=(s, t))
        w = rng.integers(-1, g.num_vertices, size=(s, v))
        block = g.has_edges_block(u, w)
        naive = np.array([[[uu >= 0 and int(ww) in g.neighbors(int(uu))
                            for ww in w[r]] for uu in u[r]]
                          for r in range(s)], dtype=bool).reshape(s, t, v)
        assert np.array_equal(block, naive)

    @given(weighted_graphs())
    @settings(max_examples=40, deadline=None)
    def test_weight_prefix_monotone_per_row(self, g):
        prefix = g.weight_prefix()
        for v in range(g.num_vertices):
            row = prefix[g.indptr[v]:g.indptr[v + 1]]
            assert (np.diff(row) >= -1e-12).all()

    @given(graphs())
    @settings(max_examples=40, deadline=None)
    def test_subgraph_edges_subset(self, g):
        keep = np.arange(0, g.num_vertices, 2)
        sub = g.subgraph(keep)
        degrees = np.diff(sub.indptr)
        src = np.repeat(np.arange(sub.num_vertices), degrees)
        for u, v in zip(src, sub.indices):
            assert g.has_edge(int(keep[u]), int(keep[v]))


class TestSamplingPrimitiveProperties:
    @given(graphs(), st.integers(0, 2 ** 31), st.integers(1, 5))
    @settings(max_examples=40, deadline=None)
    def test_uniform_neighbors_validity(self, g, seed, m):
        rng = np.random.default_rng(seed)
        transits = rng.integers(-1, g.num_vertices, size=20)
        out = uniform_neighbors(g, transits, m, rng)
        assert out.shape == (20, m)
        for k, t in enumerate(transits):
            for v in out[k]:
                if t == NULL_VERTEX or g.degree(int(t)) == 0:
                    assert v == NULL_VERTEX
                else:
                    assert v != NULL_VERTEX
                    assert g.has_edge(int(t), int(v))

    @given(weighted_graphs(), st.integers(0, 2 ** 31))
    @settings(max_examples=40, deadline=None)
    def test_weighted_neighbors_validity(self, g, seed):
        rng = np.random.default_rng(seed)
        transits = rng.integers(0, g.num_vertices, size=20)
        out = weighted_neighbors(g, transits, 1, rng)
        for k, t in enumerate(transits):
            v = out[k, 0]
            if g.degree(int(t)) > 0:
                assert g.has_edge(int(t), int(v))

    @given(st.integers(0, 2 ** 31), st.integers(1, 6))
    @settings(max_examples=40, deadline=None)
    def test_segment_choice_stays_in_segment(self, seed, m):
        rng = np.random.default_rng(seed)
        sizes = rng.integers(0, 8, size=10)
        offsets = np.zeros(11, dtype=np.int64)
        np.cumsum(sizes, out=offsets[1:])
        values = rng.integers(100, 200, size=int(offsets[-1]))
        out = segment_uniform_choice(values, offsets, m, rng)
        for s in range(10):
            segment = set(values[offsets[s]:offsets[s + 1]].tolist())
            for v in out[s]:
                if sizes[s] == 0:
                    assert v == NULL_VERTEX
                else:
                    assert int(v) in segment

    @given(graphs(), st.integers(0, 2 ** 31))
    @settings(max_examples=30, deadline=None)
    def test_combined_neighborhood_is_exact_multiset(self, g, seed):
        rng = np.random.default_rng(seed)
        transits = rng.integers(-1, g.num_vertices, size=(4, 3))
        values, offsets = build_combined_neighborhood(g, transits)
        for s in range(4):
            expected = []
            for t in transits[s]:
                if t != NULL_VERTEX:
                    expected.extend(g.neighbors(int(t)).tolist())
            got = values[offsets[s]:offsets[s + 1]].tolist()
            assert sorted(got) == sorted(expected)


class TestTransitMapProperties:
    @given(st.integers(0, 2 ** 31), st.integers(1, 50), st.integers(1, 4))
    @settings(max_examples=50, deadline=None)
    def test_grouping_partition(self, seed, num_samples, width):
        rng = np.random.default_rng(seed)
        transits = rng.integers(-1, 20, size=(num_samples, width))
        tmap = build_transit_map(transits)
        # Counts sum to live pairs; every live pair appears once.
        live = (transits != NULL_VERTEX).sum()
        assert tmap.num_pairs == live
        assert tmap.counts.sum() == live
        # Scatter back reproduces the input exactly.
        rebuilt = np.full_like(transits, NULL_VERTEX)
        rebuilt[tmap.sample_ids, tmap.cols] = tmap.transit_vals
        assert np.array_equal(rebuilt, transits)

    @given(st.integers(0, 2 ** 31), st.integers(1, 32))
    @settings(max_examples=50, deadline=None)
    def test_classes_partition_transits(self, seed, m):
        rng = np.random.default_rng(seed)
        counts = rng.integers(1, 5000, size=30)
        classes = classify_transits(counts, m)
        combined = sorted(np.concatenate(list(classes.values())).tolist())
        assert combined == list(range(30))


class TestDedupProperties:
    @given(st.integers(0, 2 ** 31), st.integers(1, 20), st.integers(1, 12))
    @settings(max_examples=60, deadline=None)
    def test_dedupe_invariants(self, seed, rows, width):
        rng = np.random.default_rng(seed)
        arr = rng.integers(-1, 6, size=(rows, width))
        out, dups = dedupe_rows(arr)
        for r in range(rows):
            live = out[r][out[r] != NULL_VERTEX]
            # No duplicates remain.
            assert np.unique(live).size == live.size
            # Every surviving value was present in the input row.
            assert set(live.tolist()) <= set(arr[r].tolist())
            # Every distinct input value survives somewhere.
            distinct_in = set(arr[r][arr[r] != NULL_VERTEX].tolist())
            assert distinct_in == set(live.tolist())

    @given(st.integers(0, 2 ** 31))
    @settings(max_examples=30, deadline=None)
    def test_dedupe_idempotent(self, seed):
        rng = np.random.default_rng(seed)
        arr = rng.integers(-1, 5, size=(6, 8))
        once, _ = dedupe_rows(arr)
        twice, dups = dedupe_rows(once)
        assert dups == 0
        assert np.array_equal(once, twice)
