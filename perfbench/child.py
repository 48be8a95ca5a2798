"""One measurement process: a workload's set-up, then a timed or traced
run.  Started by ``run.py`` (never by hand); prints one JSON object as
its last line.

``--t0`` is the parent's ``time.monotonic()`` just before it started
this process, so ``setup_s`` runs from process start to the first
verified result: interpreter start, imports, graph load, lazy caches
and one checked run (for ``serve``: daemon start and one checked reply).
"""

from __future__ import annotations

import argparse
import hashlib
import http.client
import json
import os
import re
import resource
import signal
import subprocess
import sys
import time
from typing import Dict, List

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import numpy as np  # noqa: E402

import layers  # noqa: E402
import loadgen  # noqa: E402
from workloads import (BATCH, SERVE, Gate, batch_inputs,  # noqa: E402
                       batch_key, load_reference, reply_digest,
                       serve_key, serve_request, serve_request_seeds)

HERE = os.path.dirname(os.path.abspath(__file__))


def pct(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q)) \
        if len(values) else 0.0


def peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


#: Median time of :meth:`HostSpeed.probe` on the host the benchmark was
#: defined on (2-core x86-64, Python 3.11, numpy 2.4).
PROBE_REF_MS = 27.0


class HostSpeed:
    """Tracks how fast this shared host runs right now.

    Noisy neighbours slow the whole CPU by 10-30% for tens of seconds,
    in CPU time as much as in wall time, so raw medians of separate
    processes disagree far beyond any useful bound.  A probe times a
    fixed numpy + interpreter loop and a gather and copy over 8 MB (so
    that it also feels contention for memory bandwidth), never while a
    measured operation runs, and times are scaled by
    ``PROBE_REF_MS / median probe time``:
    milliseconds of the reference host.  Raw times go to the details
    line."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._keys = rng.integers(0, 1 << 40, size=100_000)
        self._idx = rng.integers(0, 100_000, size=100_000)
        self._big = rng.integers(0, 1 << 40, size=1_000_000)
        self._big_idx = rng.integers(0, 1_000_000, size=500_000)
        self.samples: List[float] = []

    def probe(self, times: int = 1) -> None:
        for _ in range(times):
            t = time.perf_counter()
            np.argsort(self._keys, kind="stable")
            self._keys[self._idx].sum()
            np.cumsum(self._keys)
            acc = 0
            for i in range(20_000):
                acc += i * i
            self._big[self._big_idx].sum()
            self._big.copy()
            self.samples.append(time.perf_counter() - t)

    @property
    def factor(self) -> float:
        """Multiply a raw duration by this to get reference-host time."""
        return PROBE_REF_MS / (1000.0 * float(np.median(self.samples)))


def resolved_config() -> Dict:
    """The program defaults this run resolved to."""
    from repro.native.backend import active_backend_name, \
        available_backends
    from repro.runtime.context import resolve_workers
    from repro.runtime.rngplan import DEFAULT_CHUNK_PAIRS
    return {"backend": active_backend_name(),
            "available_backends": list(available_backends()),
            "workers": resolve_workers(None),
            "chunk_pairs": DEFAULT_CHUNK_PAIRS}


# ----------------------------------------------------------------------
# batch workloads
# ----------------------------------------------------------------------

def run_batch(args) -> Dict:
    from repro.core.engine import NextDoorEngine
    from repro.serve.protocol import batch_digest

    wl = BATCH[args.workload]
    gate = Gate(load_reference())
    key = batch_key(wl.name, args.seed)
    app, graph, roots, engine_seed = batch_inputs(wl, args.seed)
    engine = NextDoorEngine()

    def run_once():
        return engine.run(app, graph, roots=roots, seed=engine_seed)

    def verify(result) -> bool:
        return gate.check(key, batch_digest(result.batch),
                          result.seconds * 1000.0)

    verify(run_once())  # a wrong output is reported, not fatal
    out = {"setup_s": time.monotonic() - args.t0,
           "config": resolved_config(), "mismatches": gate.mismatches}
    if args.mode == "setup":
        return out
    speed = HostSpeed()  # probed after every run
    ledger = layers.install([type(app)]) if args.mode == "traced" \
        else None
    walls: List[float] = []
    exceptions = wrong = 0
    modeled = 0.0
    stop = time.monotonic() + args.seconds
    while time.monotonic() < stop:
        t = time.perf_counter()
        try:
            result = run_once()
        except Exception as exc:  # counted, reported, never fatal
            exceptions += 1
            print(f"run failed: {exc!r}", file=sys.stderr)
            continue
        walls.append(time.perf_counter() - t)
        modeled = result.seconds * 1000.0
        if not verify(result):
            wrong += 1
        speed.probe()
    if ledger is not None:
        ledger.uninstall()
    f = speed.factor if walls else 1.0
    out.update({
        "speed_factor": f,
        "attempted": len(walls) + exceptions,
        "failed": exceptions + wrong,
        "mismatches": gate.mismatches[:5],
        "run_raw_ms": [w * 1000.0 for w in walls],
        "run_ms": [w * 1000.0 * f for w in walls],
        "samples_per_s": wl.samples * len(walls) / (sum(walls) * f)
        if walls else 0.0,
        "modeled_ms": modeled,
        "peak_rss_mb": peak_rss_mb(),
    })
    if ledger is not None:
        out["layers"] = layers.breakdown(ledger.snapshot(), len(walls),
                                         sum(walls))
    return out


# ----------------------------------------------------------------------
# serve workload
# ----------------------------------------------------------------------

class ServeChecker:
    """Output gate for replies: every 200 reply's arrays are hashed; each
    distinct (request, arrays) pair is decoded once and its digest and
    modeled time compared with the reference."""

    def __init__(self, gate: Gate) -> None:
        self.gate = gate
        self.verdicts: Dict[tuple, bool] = {}
        #: Modeled milliseconds each request seed's replies reported.
        self.modeled_ms: Dict[int, float] = {}

    def check(self, seed: int, reply: Dict) -> bool:
        arrays = reply.get("arrays")
        if (not isinstance(arrays, dict) or reply.get("seed") != seed
                or not isinstance(reply.get("modeled_seconds"), float)):
            self.gate.mismatches.append(f"seed {seed}: malformed reply")
            return False
        h = hashlib.sha256()
        for name in sorted(arrays):
            h.update(name.encode())
            h.update(arrays[name].encode("ascii"))
        token = (seed, h.hexdigest(), reply.get("digest"),
                 reply.get("modeled_seconds"))
        verdict = self.verdicts.get(token)
        if verdict is None:
            key = serve_key(seed)
            modeled = float(reply["modeled_seconds"]) * 1000.0
            self.modeled_ms[seed] = modeled
            decoded = reply_digest(arrays)
            verdict = self.gate.check(key, decoded, modeled)
            if verdict and reply.get("digest") != decoded:
                self.gate.mismatches.append(
                    f"{key}: reply says digest {reply.get('digest')}, its "
                    f"arrays decode to {decoded}")
                verdict = False
            self.verdicts[token] = verdict
        return verdict


class Daemon:
    """``repro serve`` in its own process (via ``daemon.py``)."""

    def __init__(self, traced: bool) -> None:
        cmd = [sys.executable, os.path.join(HERE, "daemon.py")]
        if traced:
            cmd.append("--trace")
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                                     text=True)
        for line in self.proc.stdout:
            m = re.search(r"listening on http://([\d.]+):(\d+)", line)
            if m:
                self.host, self.port = m.group(1), int(m.group(2))
                return
        self.proc.wait()
        raise SystemExit(f"daemon exited with {self.proc.returncode} "
                         "before listening")

    def request(self, body: bytes) -> Dict:
        conn = http.client.HTTPConnection(self.host, self.port, timeout=60)
        try:
            conn.request("POST", loadgen.PATH, body,
                         {"Content-Type": "application/json"})
            resp = conn.getresponse()
            return json.loads(resp.read())
        finally:
            conn.close()

    def stop(self) -> Dict:
        """Graceful drain; returns the ledger line, if any."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        ledger = {}
        for line in self.proc.stdout:
            if line.startswith("{"):
                ledger = json.loads(line)["ledger"]
        self.proc.wait(timeout=60)
        return ledger

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()


def run_serve(args) -> Dict:
    gate = Gate(load_reference())
    seeds = serve_request_seeds(args.seed)
    bodies = [json.dumps(serve_request(s)).encode() for s in seeds]
    checker = ServeChecker(gate)
    daemon = Daemon(traced=args.mode == "traced")
    def request_checked(i: int) -> None:
        """One untimed request; a refused one stops the benchmark, a
        wrong one is reported."""
        reply = daemon.request(bodies[i])
        if reply.get("status") != "ok":
            raise SystemExit(f"request seed {seeds[i]} failed: "
                             f"{reply.get('status')} {reply.get('error')}")
        checker.check(seeds[i], reply)

    try:
        request_checked(0)
        out = {"setup_s": time.monotonic() - args.t0,
               "mismatches": gate.mismatches}
        if args.mode == "setup":
            daemon.stop()
            return out
        out["config"] = resolved_config()
        # Warm the daemon's graph cache for every distinct request.
        for i in range(1, len(bodies)):
            request_checked(i)

        def on_reply(rec: loadgen.Record) -> None:
            if rec.ok and not checker.check(seeds[rec.body_index],
                                            rec.reply):
                rec.error = "wrong output"
            rec.reply = {k: rec.reply[k] for k in
                         ("queue_wait_ms", "wall_ms") if k in rec.reply}

        nconns = max(1, min(2, os.cpu_count() or 1))
        open_s = args.seconds * SERVE.open_share
        opened = loadgen.open_loop(daemon.host, daemon.port, nconns, bodies,
                                   SERVE.open_rate_rps, open_s,
                                   seed=SERVE.trace_seed, on_reply=on_reply)
        closed = loadgen.closed_loop(daemon.host, daemon.port, nconns,
                                     bodies, args.seconds - open_s,
                                     on_reply=on_reply)
        ledger = daemon.stop()
    finally:
        daemon.kill()
    records = opened + closed
    ok_closed = [r for r in closed if r.ok]
    closed_span = (max(r.received for r in closed)
                   - min(r.sent for r in closed)) if closed else 0.0
    rps = len(ok_closed) / closed_span if closed_span > 0 else 0.0
    out.update({
        "attempted": len(records), "failed": sum(not r.ok for r in records),
        "mismatches": gate.mismatches[:5],
        "open_requests": len(opened), "closed_requests": len(closed),
        "open_failed": sum(not r.ok for r in opened),
        "closed_failed": sum(not r.ok for r in closed),
        "latency_ms": [r.latency * 1000.0 if r.ok
                       else SERVE.failed_latency_ms for r in opened],
        "run_ms": [r.round_trip * 1000.0 for r in ok_closed],
        "throughput_rps": rps,
        "samples_per_s": SERVE.samples * rps,
        "modeled_ms": pct(list(checker.modeled_ms.values()), 50),
        "peak_rss_mb": peak_rss_mb(resource.RUSAGE_CHILDREN),
        "lag_ms": [r.lag * 1000.0 for r in opened],
        "nconns": nconns,
    })
    ok = [r for r in records if r.ok]
    queue = [r.reply["queue_wait_ms"] for r in ok]
    execute = [r.reply["wall_ms"] for r in ok]
    transport = [r.round_trip * 1000.0 - q - e
                 for r, q, e in zip(ok, queue, execute)]
    out.update({"queue_wait_ms": queue, "execute_ms": execute,
                "transport_ms": transport,
                "response_bytes": [r.nbytes for r in ok]})
    if ledger:
        out["layers"] = layers.breakdown(ledger, ledger["runs"],
                                         ledger["run_s"])
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--mode", choices=["setup", "timed", "traced"],
                   required=True)
    p.add_argument("--t0", type=float, required=True)
    args = p.parse_args(argv)
    runner = run_serve if args.workload == SERVE.name else run_batch
    out = runner(args)
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
