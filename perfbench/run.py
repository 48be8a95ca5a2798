"""The repository benchmark (described by ``BENCHMARK.json``).

Run from the repository root:

    python3 perfbench/run.py --workload walk --seed 3 --seconds 20 --trace 0

Workloads: ``walk``, ``khop``, ``ladies`` (batch sampling on the
``livej`` stand-in) and ``serve`` (a ``repro serve`` daemon under an
open and a closed loop).  Every measurement runs in a fresh child
process (``child.py``) at the program's defaults, and every output is
checked against ``reference.json``.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
workload untraced and then traced, each in its own process, and prints
the per-layer metrics (``layers.py``) plus the tracing overhead.  The
last line of standard output is the result object; the line before it
holds the host, the resolved defaults and sample counts.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

from child import HostSpeed, pct  # noqa: E402
from layers import LayerError, check_coverage  # noqa: E402
from workloads import BATCH, SERVE, WORKLOADS  # noqa: E402

#: Extra set-up-only processes per ``--trace 0`` run; ``setup_s`` is
#: the median over these and the timed process.
SETUP_PROBES = 4
#: Share of ``--seconds`` the ``--trace 1`` run spends untraced (for
#: the overhead baseline); the rest is traced.
UNTRACED_SHARE = 0.4
#: Every child must have finished this long after the benchmark started.
DEADLINE_S = 170
#: Host-speed probes taken before and after every child.
PROBES_PER_CHILD = 8


class ChildFailed(RuntimeError):
    pass


class Spawner:
    """Starts the measurement processes of one benchmark run.

    ``speed`` is probed here before and after every child, while no
    measured process runs; it scales ``setup_s``.  Batch runs are scaled
    by the probes their own process interleaves with its runs.  Served
    requests are not scaled: their run-to-run drift does not follow the
    CPU speed the probe measures (scaling by it widened their spread
    over ten runs, 0.05 -> 0.10)."""

    def __init__(self) -> None:
        self.deadline = time.monotonic() + DEADLINE_S
        self.speed = HostSpeed()

    def __call__(self, workload: str, seed: int, seconds: float,
                 mode: str) -> Dict:
        """Run one measurement process; returns its JSON result."""
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                                   if env.get("PYTHONPATH") else "")
        self.speed.probe(PROBES_PER_CHILD)
        t0 = time.monotonic()
        # A session of its own, so that a timeout also stops the serve
        # daemon the child started.
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "child.py"),
             "--workload", workload, "--seed", str(seed),
             "--seconds", repr(seconds), "--mode", mode, "--t0", repr(t0)],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
            start_new_session=True)
        try:
            stdout, _ = proc.communicate(
                timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise ChildFailed(f"{workload} {mode} process did not finish "
                              f"within {DEADLINE_S} s") from None
        self.speed.probe(PROBES_PER_CHILD)
        lines = stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise ChildFailed(f"{workload} {mode} process exited with "
                              f"{proc.returncode}")
        return json.loads(lines[-1])


def end_to_end(workload: str, main: Dict, setups: List[float],
               host: float) -> Dict[str, float]:
    """The ``--trace 0`` metrics of one workload; ``host`` scales the
    set-up times.  A batch workload's latency is its per-run time."""
    run_ms = main["run_ms"]
    if workload == SERVE.name:
        latency = main["latency_ms"]
        throughput = main["throughput_rps"]
    else:
        latency = run_ms
        throughput = len(run_ms) * 1000.0 / sum(run_ms)
    return {
        "samples_per_s": main["samples_per_s"],
        "run_ms_p50": pct(run_ms, 50),
        "run_ms_p90": pct(run_ms, 90),
        "modeled_ms": main["modeled_ms"],
        "latency_ms_p50": pct(latency, 50),
        "latency_ms_p90": pct(latency, 90),
        "throughput_rps": throughput,
        "setup_s": statistics.median(setups) * host,
        "peak_rss_mb": main["peak_rss_mb"],
        "success_rate": 1.0 - main["failed"] / main["attempted"],
    }


def per_layer(workload: str, untraced: Dict,
              traced: Dict) -> Dict[str, float]:
    """The ``--trace 1`` metrics of one workload."""
    out = dict(traced["layers"])
    serve = workload == SERVE.name
    for name, key, q in (
            ("serve.queue_wait_ms_p50", "queue_wait_ms", 50),
            ("serve.queue_wait_ms_p99", "queue_wait_ms", 99),
            ("serve.execute_ms_p50", "execute_ms", 50),
            ("serve.transport_ms_p50", "transport_ms", 50),
            ("serve.transport_ms_p99", "transport_ms", 99),
            ("serve.response_bytes", "response_bytes", 50),
            ("loadgen.lag_ms_p99", "lag_ms", 99)):
        out[name] = pct(traced[key], q) if serve else 0.0
    base = pct(untraced["run_ms"], 50)
    out["trace.overhead_frac"] = pct(traced["run_ms"], 50) / base - 1.0
    return out


def host_info(config: Dict) -> Dict:
    import numpy as np
    info = {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "platform": platform.platform(),
            "numba": _importable("numba"), **config}
    info["cnative_available"] = "cnative" in config.get(
        "available_backends", [])
    info["git_sha"] = _git_sha()
    info["src_sha256"] = _tree_hash(SRC)
    return info


def _importable(name: str) -> bool:
    import importlib.util
    return importlib.util.find_spec(name) is not None


def _git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True,
                              timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        return None


def _tree_hash(top: str) -> str:
    """Content hash of the program's sources (identifies the commit
    when the checkout is not a git repository)."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(top):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py") or name.endswith(".json"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, top).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def measure(workload: str, seed: int, seconds: float,
            traced: bool) -> Dict:
    spawn = Spawner()
    probes: List[Dict] = []
    if not traced:
        main = spawn(workload, seed, seconds, "timed")
        probes = [spawn(workload, seed, seconds, "setup")
                  for _ in range(SETUP_PROBES)]
        setups = [main["setup_s"]] + [p["setup_s"] for p in probes]
        host = spawn.speed.factor
        metrics = end_to_end(workload, main, setups, host)
        details = {"setup_raw_s_samples": setups,
                   "run_raw_ms_p50": pct(main.get("run_raw_ms",
                                                  main["run_ms"]), 50),
                   "host_speed_factor": host}
        if "speed_factor" in main:
            details["run_speed_factor"] = main["speed_factor"]
        runs = [main]
    else:
        base = spawn(workload, seed, seconds * UNTRACED_SHARE, "timed")
        main = spawn(workload, seed, seconds * (1 - UNTRACED_SHARE),
                     "traced")
        metrics = per_layer(workload, base, main)
        if workload in BATCH:
            check_coverage(metrics, workload)
        details = {}
        runs = [base, main]
    details.update({
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": int(traced),
        "runs_timed": len(main["run_ms"]),
        "mismatches": [m for r in runs + probes for m in r["mismatches"]],
        "host": host_info(main.get("config", {})),
    })
    if workload == SERVE.name:
        details.update({
            "open_loop_rate_rps": SERVE.open_rate_rps,
            "open_loop_requests": main["open_requests"],
            "open_loop_failed": main["open_failed"],
            "closed_loop_requests": main["closed_requests"],
            "closed_loop_failed": main["closed_failed"],
            "connections": main["nconns"],
            "latency_limit_ms": SERVE.latency_limit_ms,
            "latency_ms_p99": pct(main["latency_ms"], 99),
            "meets_latency_limit": pct(main["latency_ms"], 99)
            <= SERVE.latency_limit_ms})
    return {
        "details": details,
        "result": {
            "correct": not details["mismatches"],
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "metrics": metrics,
        },
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no program sources at {SRC}; run from the root of "
              "a repository checkout", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    try:
        out = measure(args.workload, args.seed, args.seconds,
                      bool(args.trace))
    except (ChildFailed, LayerError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    metrics = out["result"]["metrics"]
    units = spec_units("per_layer" if args.trace else "end_to_end")
    if set(metrics) != set(units):
        print(f"error: measured {sorted(metrics)}, but BENCHMARK.json "
              f"lists {sorted(units)}", file=sys.stderr)
        return 1
    out["result"]["metrics"] = {
        k: {"value": metrics[k], "unit": unit} for k, unit in units.items()}
    print(json.dumps(out["details"]))
    print(json.dumps(out["result"]), flush=True)
    return 0


def spec_units(section: str) -> Dict[str, str]:
    """Unit of every metric in one section of ``BENCHMARK.json``."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[section]}


if __name__ == "__main__":
    sys.exit(main())
