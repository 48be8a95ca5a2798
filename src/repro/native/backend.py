"""Kernel backend interface, selection, and the compiled C backend.

The per-step hot kernels — individual-step neighbor draws (uniform,
weighted, node2vec rejection), the counting-sort scheduling index,
collective gather, and row dedupe — run behind a
:class:`KernelBackend`.  Two implementations exist:

``numpy``
    the default: every hook returns ``None`` and the caller falls
    through to the existing vectorised numpy code, untouched;
``cnative``
    the same kernels as C, compiled once with the host toolchain and
    loaded via ctypes (:mod:`repro.native.cnative`).

Selection: explicit name > ``$REPRO_BACKEND`` > ``numpy``; ``auto``
resolves to cnative when its library builds and otherwise falls back
to numpy with a single warning.  An explicit ``cnative`` that cannot
build (no compiler, failed compile, missing symbol) raises
``RuntimeError`` from :func:`set_backend`, before any draw.  The
resolved choice is exported as the ``runtime.backend_active`` gauge
(:data:`BACKEND_IDS`).

Parity contract (the reason hooks may return ``None``): every hook
either produces *exactly* what the numpy code would have produced —
same values, same dtypes, same RNG draws in the same order — or
declines (``None``) **before touching the generator**, so the numpy
path replays from an identical stream position.  Declines are chosen
from the input alone (dtype/layout, a relabeled graph for node2vec, a
non-PCG64 generator, a huge grouping span).
"""

from __future__ import annotations

import contextlib
import os
import warnings
from typing import Dict, Iterator, Optional, Tuple

import numpy as np

from repro.api.types import NULL_VERTEX
from repro.native import rngshim
from repro.obs import get_metrics

__all__ = [
    "BACKEND_ENV",
    "BACKEND_NAMES",
    "BACKEND_IDS",
    "DEFAULT_BACKEND",
    "KernelBackend",
    "NumpyBackend",
    "CNativeBackend",
    "resolve_backend_name",
    "set_backend",
    "active_backend",
    "active_backend_name",
    "backend_scope",
    "available_backends",
]

#: Environment variable consulted when no explicit backend is given.
BACKEND_ENV = "REPRO_BACKEND"

#: Accepted ``--backend`` / ``$REPRO_BACKEND`` values.
BACKEND_NAMES = ("auto", "numpy", "cnative")

#: Resolved backend -> ``runtime.backend_active`` gauge value.  Id 1
#: belonged to a retired backend; ids are never reused, so older stats
#: files keep their meaning.
BACKEND_IDS = {"numpy": 0, "cnative": 2}

DEFAULT_BACKEND = "numpy"


class KernelBackend:
    """Hot-kernel dispatch points.

    Every hook may return ``None``, meaning "use the numpy code"; the
    base class always does.  Implementations must honor the parity
    contract in the module docstring.
    """

    #: Resolved implementation name (a key of :data:`BACKEND_IDS`).
    name = "numpy"

    def available(self) -> bool:
        """Whether this backend can run at all on this host."""
        return True

    def warm_up(self) -> None:
        """Prepare every kernel before the first real chunk, so
        per-chunk timings are honest.  Idempotent."""

    # -- hooks (None => numpy fallback) --------------------------------

    def uniform_neighbors(self, graph, transits, m, rng):
        return None

    def weighted_neighbors(self, graph, transits, m, rng):
        return None

    def segment_choice(self, values, offsets, m, rng):
        return None

    def node2vec_neighbors(self, graph, transits, prev_transits,
                           p, q, max_rounds, rng):
        return None

    def grouping(self, vals):
        return None

    def ragged_gather(self, values, starts, counts, offsets, total):
        return None

    def dedupe_rows(self, rows):
        return None

    def scatter_rows(self, out, sampled, sample_ids, cols, m):
        return None


class NumpyBackend(KernelBackend):
    """The current vectorised numpy code, selected explicitly."""


#: Guard on the counting-sort histogram span (the numpy path bincounts
#: the same span, but a compiled backend should not be the one to turn
#: a pathological id range into a giant allocation).
_MAX_GROUP_SPAN = 1 << 27


class CNativeBackend(KernelBackend):
    """Kernels compiled from embedded C via the host toolchain.

    :meth:`warm_up` (called by :func:`set_backend`) builds the library
    and binds every kernel; the hooks assume it has run.  The hooks do
    the eligibility counting, RNG pre-draw blocks, and the node2vec
    shim handshake around the C calls.
    """

    name = "cnative"

    def __init__(self) -> None:
        self._kernels: Optional[Dict[str, object]] = None

    def available(self) -> bool:
        from repro.native import cnative
        return cnative.toolchain_available()

    def warm_up(self) -> None:
        """Build (or reuse) the shared library and bind every kernel.

        Raises ``RuntimeError`` when there is no compiler, the compile
        fails, or a symbol is missing.
        """
        if self._kernels is None:
            from repro.native import cnative
            self._kernels = cnative.load_kernels()

    # -- individual-step draws -----------------------------------------

    def uniform_neighbors(self, graph, transits, m, rng):
        k = self._kernels
        transits = np.ascontiguousarray(transits, dtype=np.int64)
        out = np.full((transits.size, m), NULL_VERTEX, dtype=np.int64)
        if m == 0:
            return out
        degrees = graph.degrees_array
        count = int(k["uniform_count"](transits, degrees, NULL_VERTEX))
        if count == 0:
            return out
        r = rng.random(size=count * m)
        k["uniform_fill"](graph.indptr, graph.indices, degrees, transits,
                          m, r, out, NULL_VERTEX)
        return out

    def weighted_neighbors(self, graph, transits, m, rng):
        if not graph.is_weighted:
            return self.uniform_neighbors(graph, transits, m, rng)
        k = self._kernels
        transits = np.ascontiguousarray(transits, dtype=np.int64)
        out = np.full((transits.size, m), NULL_VERTEX, dtype=np.int64)
        if m == 0:
            return out
        degrees = graph.degrees_array
        count = int(k["uniform_count"](transits, degrees, NULL_VERTEX))
        if count == 0:
            return out
        cumsum = graph.global_weight_cumsum()
        row_base, row_total = graph.weight_row_spans()
        r = rng.random(size=m * count)
        k["weighted_fill"](graph.indptr, graph.indices, degrees, cumsum,
                           row_base, row_total, transits, m, count, r,
                           out, NULL_VERTEX)
        return out

    # -- collective selection ------------------------------------------

    def segment_choice(self, values, offsets, m, rng):
        values = np.asarray(values)
        if values.dtype != np.int64 or not values.flags.c_contiguous:
            return None
        k = self._kernels
        offsets = np.ascontiguousarray(offsets, dtype=np.int64)
        out = np.full((offsets.size - 1, m), NULL_VERTEX, dtype=np.int64)
        if m == 0:
            return out
        count = int(k["segment_count"](offsets))
        if count == 0:
            return out
        r = rng.random(size=count * m)
        k["segment_fill"](values, offsets, m, r, out)
        return out

    # -- node2vec rejection sampling -----------------------------------

    def node2vec_neighbors(self, graph, transits, prev_transits,
                           p, q, max_rounds, rng):
        """Returns ``(out, eligible, proposals, probes)`` or ``None``.

        Draws through the PCG64 shim; the generator is advanced after
        the kernel returns, by the number of doubles it consumed.
        """
        if getattr(graph, "relabel_perm", None) is not None:
            # The compiled kernel binary-searches rows via indptr[v + 1]
            # and sorted-by-new-id neighbor lists — neither holds on a
            # relabeled graph.  Decline; the numpy path is bit-identical.
            return None
        s = rngshim.state_words(rng)
        if s is None:
            return None
        transits = np.ascontiguousarray(transits, dtype=np.int64)
        n = transits.size
        if prev_transits is None:
            prev = np.full(n, NULL_VERTEX, dtype=np.int64)
        else:
            prev = np.ascontiguousarray(prev_transits, dtype=np.int64)
        if graph.is_weighted:
            weights = graph.weights
            row_max = graph.row_max_weight()
            is_weighted = 1
        else:
            weights = np.zeros(1, dtype=np.float64)
            row_max = np.zeros(1, dtype=np.float64)
            is_weighted = 0
        bias_env = max(p, 1.0 / q, 1.0)
        out = np.full(n, NULL_VERTEX, dtype=np.int64)
        pending = np.empty(n, dtype=np.int64)
        proposal = np.empty(n, dtype=np.int64)
        bias = np.empty(n, dtype=np.float64)
        envs = np.empty(n, dtype=np.float64)
        rbuf = np.empty(n, dtype=np.float64)
        counters = np.zeros(4, dtype=np.int64)
        self._kernels["node2vec_fill"](
            graph.indptr, graph.indices, weights, is_weighted,
            graph.degrees_array, transits, prev, 1, row_max, bias_env, p,
            1.0 / q, max_rounds, NULL_VERTEX, s, out, pending, proposal,
            bias, envs, rbuf, counters)
        rngshim.consume(rng, int(counters[3]))
        return (out.reshape(n, 1), int(counters[0]), int(counters[1]),
                int(counters[2]))

    # -- scheduling index ----------------------------------------------

    def grouping(self, vals):
        """Returns ``(order, unique, counts, offsets)`` or ``None``."""
        vals = np.ascontiguousarray(vals, dtype=np.int64)
        if vals.size == 0:
            return None
        vmin = int(vals.min())
        span = int(vals.max()) - vmin + 1
        if span > _MAX_GROUP_SPAN:
            return None
        hist = np.zeros(span, dtype=np.int64)
        cursor = np.empty(span, dtype=np.int64)
        order = np.empty(vals.size, dtype=np.int64)
        self._kernels["grouping"](vals, vmin, hist, cursor, order)
        nz = np.nonzero(hist)[0]
        unique = nz + vmin
        counts = hist[nz]
        offsets = np.zeros(counts.size + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        return order, unique, counts, offsets

    # -- collective gather + dedupe ------------------------------------

    def ragged_gather(self, values, starts, counts, offsets, total):
        values = np.asarray(values)
        if (values.dtype not in (np.int64, np.float64)
                or not values.flags.c_contiguous):
            return None
        starts = np.ascontiguousarray(starts, dtype=np.int64)
        counts = np.ascontiguousarray(counts, dtype=np.int64)
        offsets = np.ascontiguousarray(offsets, dtype=np.int64)
        out = np.empty(int(total), dtype=values.dtype)
        self._kernels["ragged_gather"](values, starts, counts, offsets,
                                       out)
        return out

    def dedupe_rows(self, rows):
        """Returns ``(deduped_copy, dup_count)`` or ``None``."""
        rows = np.asarray(rows)
        if rows.dtype != np.int64 or rows.ndim != 2:
            return None
        out = rows.copy()
        dups = int(self._kernels["dedupe_rows"](out, NULL_VERTEX))
        return out, dups

    def scatter_rows(self, out, sampled, sample_ids, cols, m):
        """Writes in place; returns ``True`` or ``None`` (fallback)."""
        if (out.dtype != np.int64 or sampled.dtype != np.int64
                or sample_ids.dtype != np.int64
                or cols.dtype != np.int64
                or sampled.ndim != 2 or out.ndim != 2
                or sampled.shape != (sample_ids.shape[0], m)
                or cols.shape != sample_ids.shape
                or not (out.flags.c_contiguous
                        and sampled.flags.c_contiguous
                        and sample_ids.flags.c_contiguous
                        and cols.flags.c_contiguous)):
            return None
        self._kernels["scatter_rows"](sampled, sample_ids, cols, int(m),
                                      out)
        return True


# -- selection ----------------------------------------------------------

_ACTIVE: Optional[KernelBackend] = None
_AUTO_WARNED = False


def resolve_backend_name(explicit: Optional[str] = None) -> str:
    """Explicit name > ``$REPRO_BACKEND`` > ``numpy`` (documented CLI
    precedence, see docs/CLI.md)."""
    name = explicit
    if name is None:
        name = os.environ.get(BACKEND_ENV, "").strip() or DEFAULT_BACKEND
    name = name.lower()
    if name not in BACKEND_NAMES:
        raise ValueError(
            f"unknown backend {name!r}; choose from "
            f"{', '.join(BACKEND_NAMES)}")
    return name


def _resolve_auto() -> KernelBackend:
    """cnative when its library builds, else numpy (warned once)."""
    global _AUTO_WARNED
    backend = CNativeBackend()
    try:
        backend.warm_up()
        return backend
    except RuntimeError as exc:
        if not _AUTO_WARNED:
            _AUTO_WARNED = True
            warnings.warn(
                f"backend 'auto': the cnative library is unavailable "
                f"({exc}); falling back to the numpy backend",
                RuntimeWarning, stacklevel=4)
        return NumpyBackend()


def _make(name: str) -> KernelBackend:
    if name == "auto":
        return _resolve_auto()
    if name == "numpy":
        return NumpyBackend()
    return CNativeBackend()


def set_backend(name: Optional[str] = None) -> KernelBackend:
    """Resolve, warm up, and activate a backend process-wide.

    Raises ``RuntimeError`` when an explicitly chosen compiled backend
    cannot be built; the active backend and gauge are then unchanged.
    """
    global _ACTIVE
    backend = _make(resolve_backend_name(name))
    backend.warm_up()
    _ACTIVE = backend
    get_metrics().gauge("runtime.backend_active").set(
        float(BACKEND_IDS[backend.name]))
    return backend


def active_backend() -> KernelBackend:
    """The process-wide backend, resolving env/default on first use."""
    global _ACTIVE
    if _ACTIVE is None:
        set_backend(None)
    return _ACTIVE


def active_backend_name() -> str:
    return active_backend().name


@contextlib.contextmanager
def backend_scope(name: Optional[str]) -> Iterator[KernelBackend]:
    """Activate a backend for a ``with`` block, then restore."""
    global _ACTIVE
    prev = _ACTIVE
    backend = set_backend(name)
    try:
        yield backend
    finally:
        _ACTIVE = prev
        if prev is not None:
            get_metrics().gauge("runtime.backend_active").set(
                float(BACKEND_IDS[prev.name]))


def available_backends() -> Tuple[str, ...]:
    """Concrete backends that can run on this host."""
    names = ["numpy"]
    if CNativeBackend().available():
        names.append("cnative")
    return tuple(names)
