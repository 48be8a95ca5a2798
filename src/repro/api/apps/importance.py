"""Importance sampling: FastGCN and LADIES.

"In FastGCN and LADIES every sample includes an adjacency matrix that
records the edges between vertices added in the previous step (the
transit vertices) and the current step.  At each step i, m_i vertices
are sampled from the graph according to a probability distribution and
these vertices are added to the sample." (Section 4.2)

- **FastGCN** samples layer-independently from the whole graph with
  importance ``q(v) ∝ deg(v) + 1`` (a degree-squared norm in the
  original; degree-proportional here — the distribution's exact shape
  doesn't change the systems behaviour being reproduced).
- **LADIES** is layer-*dependent*: candidates are restricted to the
  combined neighborhood of the sample's transits, again weighted by
  degree.

Both are collective transit sampling; the paper sets batch size and
step size to 64.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.api.app import SamplingApp
from repro.api.apps._kernels import rowwise_searchsorted
from repro.api.sample import Sample, SampleBatch
from repro.api.types import NULL_VERTEX, SamplingType, StepInfo
from repro.graph.csr import CSRGraph

__all__ = ["FastGCN", "LADIES"]


class FastGCN(SamplingApp):
    """Layer-independent importance sampling."""

    name = "FastGCN"
    #: Samples from the whole graph: the combined neighborhood's values
    #: are never read (only edges back to transits are recorded).
    needs_combined_values = False

    def __init__(self, step_size: int = 64, num_steps: int = 2,
                 batch_size: int = 64) -> None:
        if min(step_size, num_steps, batch_size) < 1:
            raise ValueError("parameters must be >= 1")
        self.step_size = step_size
        self.num_steps = num_steps
        self.batch_size = batch_size
        self._probs_cache: Optional[np.ndarray] = None

    # Paper UDFs ------------------------------------------------------

    def steps(self) -> int:
        return self.num_steps

    def sample_size(self, step: int) -> int:
        return self.step_size

    def sampling_type(self) -> SamplingType:
        return SamplingType.COLLECTIVE

    def initial_roots(self, graph: CSRGraph, num_samples: int,
                      rng: np.random.Generator) -> np.ndarray:
        return self.random_roots(graph, (num_samples, self.batch_size), rng)

    def __getstate__(self):
        """Drop the per-graph importance cache when pickling (pool
        workers recompute it lazily from the shared graph — cheaper
        than shipping a ``num_vertices`` float array per run)."""
        state = self.__dict__.copy()
        state["_probs_cache"] = None
        return state

    def _importance(self, graph: CSRGraph) -> np.ndarray:
        """Importance distribution in *canonical* vertex order.

        On a relabeled graph the degree vector is re-gathered into
        original-id order first, so the CDF — and therefore every draw
        position — is bit-identical to the unpermuted graph's; draws
        are mapped back to new-space ids by the callers.  (On a plain
        graph canonical order is the identity.)
        """
        if self._probs_cache is None or self._probs_cache.size != graph.num_vertices:
            weights = graph.degrees().astype(np.float64) + 1.0
            perm = getattr(graph, "relabel_perm", None)
            if perm is not None:
                weights = weights[perm]
            self._probs_cache = weights / weights.sum()
        return self._probs_cache

    def next(self, sample: Sample, transits: np.ndarray,
             src_edges: np.ndarray, step: int,
             rng: np.random.Generator) -> int:
        graph = sample.graph
        probs = self._importance(graph)
        v = int(rng.choice(graph.num_vertices, p=probs))
        perm = getattr(graph, "relabel_perm", None)
        return int(perm[v]) if perm is not None else v

    # Vectorised path -------------------------------------------------

    def sample_from_neighborhood(
        self,
        graph: CSRGraph,
        batch: SampleBatch,
        neigh_values: np.ndarray,
        sample_offsets: np.ndarray,
        transits: np.ndarray,
        step: int,
        rng: np.random.Generator,
    ) -> Tuple[np.ndarray, StepInfo]:
        probs = self._importance(graph)
        # Inverse-transform over the global importance CDF (canonical
        # vertex order; see _importance).
        cdf = np.cumsum(probs)
        draws = rng.random(size=(batch.num_samples, self.step_size))
        out = np.searchsorted(cdf, draws).astype(np.int64)
        out = np.minimum(out, graph.num_vertices - 1)
        perm = getattr(graph, "relabel_perm", None)
        if perm is not None:
            out = perm[out]
        return out, StepInfo(avg_compute_cycles=12.0)

    def record_step_edges(
        self,
        graph: CSRGraph,
        batch: SampleBatch,
        transits: np.ndarray,
        new_vertices: np.ndarray,
        step: int,
    ) -> Optional[np.ndarray]:
        """Record edges between each transit and each new vertex when
        they exist in the graph (the sample's layer adjacency).

        One :meth:`~repro.graph.csr.CSRGraph.has_edges_block` probe
        tests every sample's transits against its own new vertices (a
        broadcast bitmap gather on graphs small enough to cache one;
        NULL slots test False).  Edge rows are emitted in (sample,
        transit-column, new-column) C-order, duplicates included.
        """
        block = graph.has_edges_block(transits, new_vertices)
        per_transit = np.count_nonzero(block, axis=2)
        edges = np.empty((int(per_transit.sum()), 3), dtype=np.int64)
        edges[:, 0] = np.repeat(np.arange(transits.shape[0]),
                                per_transit.sum(axis=1))
        edges[:, 1] = np.repeat(transits.ravel(), per_transit.ravel())
        edges[:, 2] = np.broadcast_to(new_vertices[:, None, :],
                                      block.shape)[block]
        return edges


class LADIES(FastGCN):
    """Layer-dependent importance sampling: candidates restricted to
    the combined neighborhood of the sample's transits."""

    name = "LADIES"
    #: LADIES' candidates *are* the combined neighborhood, but the
    #: two-level draw below samples it through the CSR structure
    #: directly — the concatenated candidate array (which hub-heavy
    #: transit sets blow up to tens of millions of entries) is never
    #: materialised.
    needs_combined_values = False

    def next(self, sample: Sample, transits: np.ndarray,
             src_edges: np.ndarray, step: int,
             rng: np.random.Generator) -> int:
        if src_edges.size == 0:
            return NULL_VERTEX
        graph = sample.graph
        weights = graph.degrees()[src_edges].astype(np.float64) + 1.0
        weights /= weights.sum()
        return int(rng.choice(src_edges, p=weights))

    def sample_from_neighborhood(
        self,
        graph: CSRGraph,
        batch: SampleBatch,
        neigh_values: np.ndarray,
        sample_offsets: np.ndarray,
        transits: np.ndarray,
        step: int,
        rng: np.random.Generator,
    ) -> Tuple[np.ndarray, StepInfo]:
        out = np.full((batch.num_samples, self.step_size), NULL_VERTEX,
                      dtype=np.int64)
        t = np.asarray(transits, dtype=np.int64)
        flat = t.ravel()
        live_pair = flat != NULL_VERTEX
        ecs, vertex_mass = self._edge_importance(graph)
        mass = np.zeros(flat.size, dtype=np.float64)
        mass[live_pair] = vertex_mass[flat[live_pair]]
        # Zero-mass transits (degree 0) contribute no candidates; with
        # them dropped, every per-sample transit-mass prefix is
        # strictly increasing, which the boundary argument below needs.
        pair_idx = np.nonzero(mass > 0)[0]
        if pair_idx.size == 0:
            return out, StepInfo(avg_compute_cycles=14.0)
        pair_t = flat[pair_idx]
        pair_s = pair_idx // t.shape[1]
        # Per-sample cumulative transit mass via global cumsum minus
        # segment base.  All masses are integer-valued (sums of
        # deg + 1), so every value is exact in float64 and bit-equal to
        # the prefix of the materialised candidate CDF at each
        # transit's last candidate.
        gmass = np.cumsum(mass[pair_idx])
        counts = np.bincount(pair_s, minlength=t.shape[0])
        offs = np.zeros(counts.size + 1, dtype=np.int64)
        np.cumsum(counts, out=offs[1:])
        base = np.where(offs[:-1] > 0, gmass[offs[:-1] - 1], 0.0)
        local_mass = gmass - np.repeat(base, counts)
        live = np.nonzero(counts > 0)[0]
        lo = offs[:-1][live]
        hi = offs[1:][live]
        totals = local_mass[hi - 1]
        # One rng block: row k is the k-th live sample's sequential
        # rng.random(step_size) call, so the stream matches the
        # per-sample loop this replaces.
        draws = rng.random((live.size, self.step_size)) * totals[:, None]
        # Level 1: which transit's neighborhood the draw lands in.  A
        # draw picks transit c iff it falls past every earlier
        # transit's mass — the same index the flat searchsorted over
        # the materialised CDF resolves to, because the transit prefix
        # is that CDF evaluated at segment boundaries.
        pc = rowwise_searchsorted(local_mass, draws, lo[:, None],
                                  hi[:, None])
        pc = np.minimum(pc, (hi - 1)[:, None])
        rem = draws - np.where(pc > lo[:, None],
                               local_mass[np.maximum(pc - 1, 0)], 0.0)
        # Level 2: which neighbor within the chosen transit's CSR row.
        # The row-local edge CDF is ``ecs`` minus the row base — exact
        # (integer values) — so the bisection compares the identical
        # numbers the flat search compared, shifted by an exact
        # constant.  ``rem`` is exact too: subtracting an integer-
        # valued float from a float of larger magnitude is lossless.
        tv = pair_t[pc]
        elo = graph.indptr[tv]
        ehi = elo + graph.degrees_array[tv]
        ebase = np.where(elo > 0, ecs[np.maximum(elo - 1, 0)], 0.0)
        level, ceil = elo.copy(), ehi.copy()
        last = ecs.size - 1
        for _ in range(max(int(graph.degrees_array.max(initial=1)),
                           1).bit_length()):
            active = level < ceil
            mid = (level + ceil) >> 1
            probe = ecs[np.minimum(mid, last)] - ebase
            descend = active & (probe < rem)
            level = np.where(descend, mid + 1, level)
            ceil = np.where(active & ~descend, mid, ceil)
        pos = np.minimum(level, ehi - 1)
        out[live] = graph.indices[pos]
        return out, StepInfo(avg_compute_cycles=14.0)

    def _edge_importance(self, graph: CSRGraph):
        """Cached (per graph) global cumsum of per-candidate importance
        ``deg(dst) + 1`` in CSR edge order, plus each vertex's total
        neighborhood mass (its row's share of that cumsum)."""
        cache = getattr(graph, "_ladies_edge_importance", None)
        if cache is None:
            w = graph.degrees_array[graph.indices].astype(np.float64) + 1.0
            ecs = np.cumsum(w)
            mass = np.zeros(graph.num_vertices, dtype=np.float64)
            # Row spans as (start, start + degree): on plain graphs this
            # equals indptr[1:], and it stays correct on relabeled
            # graphs whose indptr holds per-row starts only.
            starts = graph.indptr[:-1]
            ends = starts + graph.degrees_array
            ne = np.nonzero(ends > starts)[0]
            if ne.size:
                base = np.where(starts[ne] > 0, ecs[starts[ne] - 1], 0.0)
                mass[ne] = ecs[ends[ne] - 1] - base
            cache = (ecs, mass)
            graph._ladies_edge_importance = cache
        return cache
