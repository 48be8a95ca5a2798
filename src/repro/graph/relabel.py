"""Locality-aware CSR relabeling as a pure vertex permutation.

The autotuner's layout knob (GNNSampler's hardware-aware locality idea):
renumber vertices so that hot vertices — the high-degree transits most
steps gather from — occupy a dense prefix of every vertex-indexed array
(degrees, weight spans, row maxima).  Gathers during sampling then hit a
small, cache-resident region instead of striding the full vertex range.

The relabeling is a **pure permutation** with a bitwise round-trip
guarantee: sampling the relabeled graph and mapping the output back
through the inverse permutation reproduces, bit for bit, the samples of
the unpermuted run at the same seed.  That guarantee is what keeps the
verify suites' differential oracle usable with relabeling enabled, and
it rests on the *canonical edge layout*:

* The edge arrays stay in the **original physical order** — only the
  neighbor *values* are mapped (``indices = perm[orig.indices]``) and
  the weights are untouched.  ``np.cumsum(weights)`` is therefore
  byte-identical to the original graph's, so every weighted draw
  (global-cumsum binary search) and LADIES' edge-importance CDF produce
  the exact same floats.
* ``indptr[t]`` points at the original row of ``t``'s pre-image
  (``canonical_of[t]``), so the array is *not* monotone — row ``t``
  spans ``[indptr[t], indptr[t] + degree(t))``.  All samplers address
  rows positionally (``indptr[t] + pick``), never via ``indptr[t+1]``.
* Vertex-indexed arrays (degrees, weight row spans, row maxima,
  non-isolated list) are materialised in permuted order — these are the
  arrays whose gather locality the relabeling actually improves.
* Grouping happens in *canonical* (original-id) key space — see
  :func:`repro.core.transit_map.build_transit_map` — so the scheduling
  index assigns RNG draws to pairs in exactly the original order.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.api.types import NULL_VERTEX
from repro.graph.csr import CSRGraph

__all__ = ["RELABEL_ORDERS", "RelabeledCSRGraph", "degree_order_permutation",
           "relabel_graph", "canonicalize_array", "canonicalize_batch"]

#: Supported relabeling orders (``None`` / ``"none"`` means identity).
RELABEL_ORDERS = ("degree",)


def degree_order_permutation(graph: CSRGraph) -> np.ndarray:
    """``perm[orig_id] -> new_id`` for degree-descending relabeling.

    Vertices are ranked by out-degree, descending, ties broken by
    original id (stable) so the permutation is deterministic for a
    given graph.
    """
    degrees = graph.degrees()
    order = np.argsort(-degrees, kind="stable")  # new_id -> orig_id
    perm = np.empty(graph.num_vertices, dtype=np.int64)
    perm[order] = np.arange(graph.num_vertices, dtype=np.int64)
    return perm


class RelabeledCSRGraph(CSRGraph):
    """A :class:`CSRGraph` under a pure vertex permutation.

    Constructed by :func:`relabel_graph`; never call ``__init__``.
    ``perm`` maps original ids to new ids, ``canonical_of`` is its
    inverse.  ``indptr`` holds per-row *start* offsets into the
    original-order edge arrays and is not monotone; ``indptr[v + 1]``
    is meaningless, which is why every accessor that the base class
    implements via ``indptr[v + 1]`` is overridden here.
    """

    #: ``None`` on plain graphs — cheap "is this graph relabeled?" probe
    #: (``getattr(graph, "relabel_perm", None)``).
    relabel_perm: Optional[np.ndarray] = None

    @classmethod
    def _build(cls, orig: CSRGraph, perm: np.ndarray,
               order_name: str) -> "RelabeledCSRGraph":
        perm = np.ascontiguousarray(perm, dtype=np.int64)
        n = orig.num_vertices
        if perm.shape != (n,):
            raise ValueError("perm must have one entry per vertex")
        canonical_of = np.empty(n, dtype=np.int64)
        canonical_of[perm] = np.arange(n, dtype=np.int64)
        g = cls.__new__(cls)
        g.indices = perm[orig.indices] if orig.indices.size else \
            orig.indices.copy()
        g.indptr = np.empty(n + 1, dtype=np.int64)
        g.indptr[:n] = orig.indptr[:-1][canonical_of]
        g.indptr[n] = orig.num_edges  # sentinel; rows are (start, degree)
        g.weights = orig.weights  # shared: layout identical by design
        g.name = f"{orig.name}+{order_name}"
        g.perm = perm
        g.canonical_of = canonical_of
        g.relabel_perm = perm
        g.relabel_order = order_name
        degrees = orig.degrees()[canonical_of].copy()
        degrees.setflags(write=False)
        g._degrees_cache = degrees
        g._weight_prefix = None
        return g

    # ------------------------------------------------------------------
    # Row addressing (indptr[v + 1] is meaningless here)
    # ------------------------------------------------------------------

    def degree(self, v: int) -> int:
        return int(self.degrees_array[v])

    def neighbors(self, v: int) -> np.ndarray:
        """Neighbors of ``v`` as new ids, in the original row order
        (sorted by *canonical* id, not by new id)."""
        start = self.indptr[v]
        return self.indices[start:start + self.degrees_array[v]]

    def edge_weights(self, v: int) -> np.ndarray:
        if self.weights is None:
            raise ValueError("graph is unweighted")
        start = self.indptr[v]
        return self.weights[start:start + self.degrees_array[v]]

    def non_isolated_vertices(self) -> np.ndarray:
        """Non-isolated vertices in *canonical* order (the original
        graph's ascending-id order mapped through ``perm``), so
        positional root draws pick the same canonical vertices."""
        if getattr(self, "_non_isolated_cache", None) is None:
            orig_deg = self._orig_degrees()
            self._non_isolated_cache = self.perm[np.nonzero(orig_deg > 0)[0]]
        return self._non_isolated_cache

    # ------------------------------------------------------------------
    # Original-layout reconstruction (lazy; used by the weighted caches
    # that need monotone offsets)
    # ------------------------------------------------------------------

    def _orig_degrees(self) -> np.ndarray:
        if getattr(self, "_orig_degrees_cache", None) is None:
            self._orig_degrees_cache = self.degrees_array[self.perm]
        return self._orig_degrees_cache

    def _orig_indptr(self) -> np.ndarray:
        if getattr(self, "_orig_indptr_cache", None) is None:
            out = np.zeros(self.num_vertices + 1, dtype=np.int64)
            np.cumsum(self._orig_degrees(), out=out[1:])
            self._orig_indptr_cache = out
        return self._orig_indptr_cache

    def to_original(self) -> CSRGraph:
        """Reconstruct the unpermuted graph (for tests / round trips)."""
        return CSRGraph(self._orig_indptr(), self.canonical_of[self.indices],
                        weights=None if self.weights is None
                        else self.weights.copy(),
                        name=self.name.rsplit("+", 1)[0])

    # ------------------------------------------------------------------
    # Edge membership — canonical key space
    # ------------------------------------------------------------------

    def _canonical_ids(self, ids):
        """New ids -> original ids: the base class's edge keys, bitmap
        and probes then run in canonical key space, identical to the
        original graph's (the edge storage order is the original one)."""
        return self.canonical_of[ids]

    # ------------------------------------------------------------------
    # Weighted-sampling caches.  The edge layout is the original one, so
    # every cumsum / prefix is reproduced with the exact original float
    # operations; vertex-indexed results are then gathered into the
    # permuted order — bit-identical to permuting the original arrays.
    # ------------------------------------------------------------------

    def weight_prefix(self) -> np.ndarray:
        if self.weights is None:
            raise ValueError("graph is unweighted")
        if self._weight_prefix is None:
            if self.weights.size == 0:
                self._weight_prefix = np.zeros(0, dtype=np.float64)
                return self._weight_prefix
            indptr = self._orig_indptr()
            prefix = np.cumsum(self.weights)
            row_base = np.zeros_like(prefix)
            starts = indptr[:-1]
            valid = starts < indptr[1:]
            base_per_row = np.where(starts > 0, prefix[starts - 1], 0.0)
            row_base[:] = np.repeat(base_per_row[valid],
                                    np.diff(indptr)[valid])
            self._weight_prefix = prefix - row_base
        return self._weight_prefix

    def weight_row_spans(self):
        if self.weights is None:
            raise ValueError("graph is unweighted")
        if getattr(self, "_weight_row_spans_cache", None) is None:
            cumsum = self.global_weight_cumsum()
            starts = self.indptr[:-1]
            degrees = self.degrees_array
            ends = starts + degrees
            base = np.where(starts > 0, cumsum[starts - 1], 0.0)
            total = np.where(degrees > 0, cumsum[ends - 1] - base, 0.0)
            self._weight_row_spans_cache = (base, total)
        return self._weight_row_spans_cache

    def row_max_weight(self) -> np.ndarray:
        if self.weights is None:
            raise ValueError("graph is unweighted")
        if getattr(self, "_row_max_cache", None) is None:
            indptr = self._orig_indptr()
            out = np.zeros(self.num_vertices, dtype=np.float64)
            starts = indptr[:-1]
            nonempty = np.nonzero(starts < indptr[1:])[0]
            if nonempty.size:
                out[nonempty] = np.maximum.reduceat(
                    self.weights, starts[nonempty])
            self._row_max_cache = out[self.canonical_of]
        return self._row_max_cache

    def row_total_weight(self) -> np.ndarray:
        prefix = self.weight_prefix()
        totals = np.zeros(self.num_vertices, dtype=np.float64)
        degrees = self.degrees_array
        nonempty = degrees > 0
        ends = self.indptr[:-1] + degrees
        totals[nonempty] = prefix[ends[nonempty] - 1]
        return totals

    # ------------------------------------------------------------------

    def with_random_weights(self, low: float = 1.0, high: float = 5.0,
                            seed: int = 0) -> CSRGraph:
        raise ValueError(
            "cannot attach weights to a relabeled graph; weight the "
            "original graph first, then relabel")

    def memory_bytes(self) -> int:
        return (super().memory_bytes() + self.perm.nbytes
                + self.canonical_of.nbytes)

    def _sort_rows(self) -> None:  # rows stay in canonical order
        raise RuntimeError("relabeled graphs are never row-sorted in place")

    def __repr__(self) -> str:
        kind = "weighted" if self.is_weighted else "unweighted"
        return (f"RelabeledCSRGraph(name={self.name!r}, "
                f"vertices={self.num_vertices}, edges={self.num_edges}, "
                f"order={self.relabel_order!r}, {kind})")


def relabel_graph(graph: CSRGraph, order: Optional[str] = "degree",
                  perm: Optional[np.ndarray] = None) -> CSRGraph:
    """Relabel ``graph`` under ``order`` (or an explicit ``perm``).

    ``order`` of ``None`` / ``"none"`` returns the graph unchanged.
    Relabeling an already-relabeled graph is rejected: permutations must
    stay single-level so ``canonical_of`` maps straight back to the
    original id space.
    """
    if perm is None and (order is None or order == "none"):
        return graph
    if getattr(graph, "relabel_perm", None) is not None:
        raise ValueError(f"graph {graph.name!r} is already relabeled")
    if perm is not None:
        return RelabeledCSRGraph._build(graph, perm, order or "custom")
    if order not in RELABEL_ORDERS:
        raise ValueError(f"unknown relabel order {order!r}; "
                         f"choose from {RELABEL_ORDERS}")
    return RelabeledCSRGraph._build(graph, degree_order_permutation(graph),
                                    order)


def canonicalize_array(arr: np.ndarray,
                       canonical_of: np.ndarray) -> np.ndarray:
    """Map an array of new-space vertex ids back to original ids,
    preserving ``NULL_VERTEX`` entries."""
    arr = np.asarray(arr)
    if arr.size == 0:
        return arr.astype(np.int64, copy=True)
    out = np.where(arr == NULL_VERTEX, np.int64(NULL_VERTEX),
                   canonical_of[np.maximum(arr, 0)])
    return out.astype(np.int64, copy=False)


def canonicalize_batch(batch) -> None:
    """Invert a relabeled graph's permutation on a finished batch,
    in place: roots, every step's vertices, and recorded edge
    endpoints all return to original ids.  Idempotent per batch."""
    graph = batch.graph
    canonical_of = getattr(graph, "canonical_of", None)
    if canonical_of is None or getattr(batch, "_relabel_canonicalized",
                                       False):
        return
    batch.roots = canonicalize_array(batch.roots, canonical_of)
    batch.step_vertices = [canonicalize_array(sv, canonical_of)
                           for sv in batch.step_vertices]
    canon_edges = []
    for edges in batch.edges:
        if edges.size:
            mapped = edges.copy()
            mapped[:, 1] = canonicalize_array(edges[:, 1], canonical_of)
            mapped[:, 2] = canonicalize_array(edges[:, 2], canonical_of)
            canon_edges.append(mapped)
        else:
            canon_edges.append(edges)
    batch.edges = canon_edges
    batch._relabel_canonicalized = True
