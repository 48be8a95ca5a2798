"""Per-layer self-time ledger, installed from outside the program.

The traced run wraps public entry points of ``repro`` with timing
shims.  Every shim keeps a per-thread stack of open frames; when a
frame closes, its duration minus the time its child frames covered is
added to its layer's *self* time, and its full duration is charged to
the enclosing frame as child time.  Layers are therefore disjoint, and
the run's residual is the run's wall time minus the sum of self times.

The wrappers are installed only in the process that runs the traced
workload (``install`` is never called in an untraced run).
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

import numpy as np

#: Layers in report order.  ``run`` is the root frame (one engine run).
LAYERS = ("index", "draw", "scatter", "edge_record", "charge",
          "step_glue", "dispatch", "telemetry")

#: A batch workload's layers must cover at least this share of its runs.
MIN_COVERAGE = 0.95


class LayerError(RuntimeError):
    """An entry point is missing, or the layers do not explain the run."""


class Ledger:
    """Self time and work counts per layer, summed over all threads."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, int] = defaultdict(int)
        self.run_s = 0.0
        self.runs = 0
        self._tls = threading.local()
        self._lock = threading.Lock()
        self._undo: List[Callable[[], None]] = []

    def _stack(self) -> list:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def wrap(self, layer: str, fn: Callable,
             count: Optional[Callable] = None) -> Callable:
        """``fn`` timed as one frame of ``layer``; ``count(args, out)``
        returns ``{counter: n}`` work done by the call."""

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            stack = self._stack()
            if not stack and layer != "run":
                # Outside an engine run (e.g. the daemon's HTTP
                # threads): not part of any run's breakdown.
                return fn(*args, **kwargs)
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                with self._lock:
                    if layer == "run":
                        self.run_s += dt
                        self.runs += 1
                    else:
                        self.self_s[layer] += dt - child
            if count is not None:
                extra = count(args, out)
                with self._lock:
                    for key, n in extra.items():
                        self.counts[key] += int(n)
            return out

        shim.__wrapped_layer__ = layer
        return shim

    def patch(self, owner, attr: str, layer: str,
              count: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` with its shim (undone by ``uninstall``)."""
        original = owner.__dict__.get(attr) if isinstance(owner, type) \
            else getattr(owner, attr, None)
        if original is None or not callable(original):
            raise LayerError(
                f"entry point {getattr(owner, '__name__', owner)}.{attr} "
                f"is missing; the {layer!r} layer cannot be measured")
        setattr(owner, attr, self.wrap(layer, original, count))
        self._undo.append(lambda: setattr(owner, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    # -- report ---------------------------------------------------------

    def snapshot(self) -> Dict:
        with self._lock:
            return {"self_s": dict(self.self_s),
                    "counts": dict(self.counts),
                    "run_s": self.run_s, "runs": self.runs}


def _calls(name: str) -> Callable:
    return lambda args, out: {name: 1}


def _individual_pairs(args, out) -> Dict[str, int]:
    # exec_individual_chunk(app, graph, transit_vals, step, rng, ...)
    return {"draw.chunks": 1, "draw.pairs": np.asarray(args[2]).size}


def _collective_pairs(args, out) -> Dict[str, int]:
    # exec_collective_chunk(app, graph, batch, values, offsets,
    #                       transits, step, rng, ...)
    return {"draw.chunks": 1, "draw.pairs": np.asarray(args[5]).size}


def _index_pairs(args, out) -> Dict[str, int]:
    return {"index.pairs": int(out.num_pairs)}


def _edges(args, out) -> Dict[str, int]:
    return {"edge_record.edges": 0 if out is None
            else int(np.asarray(out).shape[0])}


def install(app_classes) -> Ledger:
    """Wrap every layer's entry points; raises :class:`LayerError` when
    one is missing.  ``app_classes`` are the workload's app types (their
    step hooks are the ``step_glue`` and ``edge_record`` layers)."""
    from repro.api.sample import SampleBatch
    from repro.core import engine
    from repro.obs import metrics
    from repro.runtime import context

    ledger = Ledger()
    try:
        ledger.patch(engine.NextDoorEngine, "run", "run")
        ledger.patch(engine, "build_transit_map", "index", _index_pairs)
        ledger.patch(context, "exec_individual_chunk", "draw",
                     _individual_pairs)
        ledger.patch(context, "exec_collective_chunk", "draw",
                     _collective_pairs)
        ledger.patch(context.ExecutionContext, "individual_step",
                     "scatter")
        ledger.patch(context.ExecutionContext, "begin_run", "dispatch")
        charges = sorted(name for name in vars(engine)
                         if name.startswith("charge_"))
        if not charges:
            raise LayerError("repro.core.engine imports no charge_* "
                             "functions; the 'charge' layer cannot be "
                             "measured")
        for name in charges:
            ledger.patch(engine, name, "charge", _calls("charge.calls"))
        ledger.patch(SampleBatch, "append_step", "step_glue")
        ledger.patch(metrics.Histogram, "observe", "telemetry")
        ledger.patch(metrics.Counter, "inc", "telemetry")
        for cls in app_classes:
            for attr, layer, count in (
                    ("transits_for_step", "step_glue", None),
                    ("post_step", "step_glue", None),
                    ("record_step_edges", "edge_record", _edges)):
                owner = next(k for k in cls.__mro__ if attr in k.__dict__)
                if getattr(owner.__dict__[attr], "__wrapped_layer__",
                           None) is None:
                    ledger.patch(owner, attr, layer, count)
    except BaseException:
        ledger.uninstall()
        raise
    return ledger


def breakdown(snap: Dict, ops: int, wall_s: float) -> Dict[str, float]:
    """Per-operation layer metrics from a ledger snapshot.

    ``ops`` engine runs took ``wall_s`` seconds of measured wall time
    (the benchmark's own timer around each run).  Returns every
    ``<layer>.self_ms`` and work count per run, ``engine.residual_ms``
    and ``layer_coverage`` (layer self time / wall time)."""
    ops = max(int(ops), 1)
    out: Dict[str, float] = {}
    layer_sum = 0.0
    for layer in LAYERS:
        secs = snap["self_s"].get(layer, 0.0)
        layer_sum += secs
        out[f"{layer}.self_ms"] = secs * 1000.0 / ops
    for key in ("index.pairs", "draw.chunks", "draw.pairs",
                "edge_record.edges", "charge.calls"):
        out[key] = snap["counts"].get(key, 0) / ops
    out["engine.residual_ms"] = (wall_s - layer_sum) * 1000.0 / ops
    out["layer_coverage"] = layer_sum / wall_s if wall_s > 0 else 0.0
    return out


def check_coverage(metrics: Dict[str, float], workload: str) -> None:
    """Fail loudly instead of reporting a partial breakdown."""
    cov = metrics["layer_coverage"]
    if not cov >= MIN_COVERAGE:
        raise LayerError(
            f"{workload}: layers cover {cov:.3f} of the run "
            f"(< {MIN_COVERAGE}); the breakdown is partial — an entry "
            "point moved or new work runs outside every layer")
