"""Tests of the benchmark itself.

Run from the repository root:

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))

import layers  # noqa: E402
import loadgen  # noqa: E402
import workloads  # noqa: E402


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def _run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170)


# ----------------------------------------------------------------------
# quick-size runs
# ----------------------------------------------------------------------

@pytest.mark.parametrize("trace,section", [("0", "end_to_end"),
                                           ("1", "per_layer")])
def test_quick_run_prints_every_metric(trace, section):
    proc = _run_bench("--workload", "khop", "--seed", "5", "--seconds",
                      "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in _spec()[section]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == expected
    if trace == "1":
        assert result["metrics"]["layer_coverage"]["value"] >= 0.95


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run_bench("--workload", "khop", "--seed", "1", "--seconds",
                      "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


# ----------------------------------------------------------------------
# output gate
# ----------------------------------------------------------------------

def test_run_reports_a_corrupted_reference_as_incorrect(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    os.symlink(os.path.join(ROOT, "src"), tmp_path / "src")
    ref_path = tmp_path / "perfbench" / "reference.json"
    reference = json.loads(ref_path.read_text())
    reference[workloads.batch_key("khop", 5)]["digest"] = "0" * 32
    ref_path.write_text(json.dumps(reference))
    proc = _run_bench("--workload", "khop", "--seed", "5", "--seconds",
                      "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 1
    assert result["metrics"]["success_rate"]["value"] == 0.0


def _khop_result(seed):
    from repro.core.engine import NextDoorEngine
    app, graph, roots, engine_seed = workloads.batch_inputs(
        workloads.BATCH["khop"], seed)
    return NextDoorEngine().run(app, graph, roots=roots, seed=engine_seed)


def test_gate_accepts_the_reference_and_rejects_a_corrupted_digest():
    from repro.serve.protocol import batch_digest
    result = _khop_result(7)
    digest, modeled = batch_digest(result.batch), result.seconds * 1000.0
    key = workloads.batch_key("khop", 7)
    reference = workloads.load_reference()
    assert workloads.Gate(reference).check(key, digest, modeled)

    corrupted = dict(reference)
    corrupted[key] = dict(reference[key], digest="0" * 32)
    gate = workloads.Gate(corrupted)
    assert not gate.check(key, digest, modeled)
    assert len(gate.mismatches) == 1


def test_gate_rejects_a_changed_modeled_time():
    from repro.serve.protocol import batch_digest
    result = _khop_result(8)
    key = workloads.batch_key("khop", 8)
    gate = workloads.Gate(workloads.load_reference())
    assert not gate.check(key, batch_digest(result.batch),
                          result.seconds * 1000.0 * (1 + 1e-12))


def test_served_reply_is_checked_after_decoding():
    from child import ServeChecker
    from repro.bench.runner import paper_app
    from repro.core.engine import NextDoorEngine
    from repro.graph import datasets
    from repro.serve.protocol import batch_digest, encode_batch
    seed = 3
    graph = datasets.load("ppi", seed=seed, weighted=False)
    result = NextDoorEngine().run(paper_app("k-hop"), graph,
                                  num_samples=256, seed=seed)
    reply = {"seed": seed, "digest": batch_digest(result.batch),
             "modeled_seconds": result.seconds,
             "arrays": encode_batch(result)}
    reference = workloads.load_reference()
    assert ServeChecker(workloads.Gate(reference)).check(seed,
                                                                 reply)
    key = workloads.serve_key(seed)
    corrupted = dict(reference)
    corrupted[key] = dict(reference[key], digest="f" * 32)
    assert not ServeChecker(workloads.Gate(corrupted)).check(
        seed, reply)
    gate = workloads.Gate(reference)
    assert not ServeChecker(gate).check(seed, dict(reply, digest="0" * 32))
    assert len(gate.mismatches) == 1


def test_inputs_follow_the_seed():
    wl = workloads.BATCH["ladies"]
    a = workloads.batch_inputs(wl, 4)[2]
    b = workloads.batch_inputs(wl, 4)[2]
    c = workloads.batch_inputs(wl, 5)[2]
    assert (a == b).all() and not (a == c).all()
    seeds = workloads.serve_request_seeds(4)
    assert seeds == workloads.serve_request_seeds(4)
    assert len(set(seeds)) == len(seeds)


# ----------------------------------------------------------------------
# open loop
# ----------------------------------------------------------------------

class _StallingHandler(BaseHTTPRequestHandler):
    """Answers at once, except that the first request stalls."""

    protocol_version = "HTTP/1.1"
    stall_s = 0.5
    first = threading.Event()

    def log_message(self, fmt, *args):
        pass

    def do_POST(self):
        self.rfile.read(int(self.headers["Content-Length"]))
        if not self.first.is_set():
            self.first.set()
            time.sleep(self.stall_s)
        body = json.dumps({"status": "ok", "queue_wait_ms": 0.0,
                           "wall_ms": 0.0}).encode()
        self.wfile.write(b"HTTP/1.1 200 OK\r\nContent-Type: "
                         b"application/json\r\nContent-Length: "
                         + str(len(body)).encode() + b"\r\n\r\n" + body)


def test_open_loop_counts_a_stalled_server_as_lateness():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _StallingHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        records = loadgen.open_loop(
            "127.0.0.1", server.server_address[1], 1, [b"{}"],
            rate_rps=40.0, seconds=1.0, seed=1,
            on_reply=lambda rec: None)
    finally:
        server.shutdown()
        server.server_close()
    assert all(r.ok for r in records)
    stall_end = records[0].received
    behind = [r for r in records[1:] if r.due < stall_end - 0.05]
    assert len(behind) >= 3
    for rec in behind:
        # Queued behind the stall on the only connection: the wait
        # counts, although each request's own round trip is short.
        assert rec.sent >= stall_end - 0.01
        assert rec.latency >= stall_end - rec.due - 1e-6
        assert rec.latency - rec.round_trip > 0.04
        assert rec.lag < 0.05  # the generator itself kept up
    assert max(r.latency for r in records) >= 0.4


def test_poisson_schedule_is_seeded_and_absolute():
    a = loadgen.poisson_schedule(50.0, 10.0, 0.0, seed=2)
    assert a == loadgen.poisson_schedule(50.0, 10.0, 0.0, seed=2)
    assert 400 < len(a) < 600
    assert all(0.0 < t < 10.0 for t in a)


# ----------------------------------------------------------------------
# layers and coverage
# ----------------------------------------------------------------------

def test_self_time_subtracts_children():
    ledger = layers.Ledger()
    inner = ledger.wrap("draw", lambda: time.sleep(0.02))

    def outer_body():
        time.sleep(0.01)
        inner()

    outer = ledger.wrap("scatter", outer_body)
    ledger.wrap("run", outer)()
    snap = ledger.snapshot()
    assert snap["runs"] == 1
    assert 0.018 <= snap["self_s"]["draw"] < 0.03
    assert 0.008 <= snap["self_s"]["scatter"] < 0.018
    assert snap["run_s"] >= snap["self_s"]["draw"] + snap["self_s"][
        "scatter"]


def test_frames_outside_a_run_are_not_counted():
    ledger = layers.Ledger()
    ledger.wrap("draw", lambda: None)()
    assert ledger.snapshot()["self_s"] == {}


def test_coverage_check_fails_loudly():
    snap = {"self_s": {"draw": 0.9}, "counts": {}, "run_s": 1.0,
            "runs": 1}
    metrics = layers.breakdown(snap, 1, 1.0)
    assert metrics["layer_coverage"] == pytest.approx(0.9)
    with pytest.raises(layers.LayerError, match="cover 0.900"):
        layers.check_coverage(metrics, "walk")
    snap["self_s"]["index"] = 0.06
    layers.check_coverage(layers.breakdown(snap, 1, 1.0), "walk")


def test_install_fails_loudly_on_a_missing_entry_point(monkeypatch):
    from repro.api.apps import KHop
    from repro.core import engine
    monkeypatch.delattr(engine, "build_transit_map")
    with pytest.raises(layers.LayerError, match="build_transit_map"):
        layers.install([KHop])
    # Nothing stays wrapped after the failure.
    assert not hasattr(engine.NextDoorEngine.run, "__wrapped_layer__")


def test_installed_layers_cover_a_khop_run():
    from repro.core import engine
    from repro.api.apps import KHop
    _khop_result(2)  # lazy caches filled outside the measured run
    ledger = layers.install([KHop])
    try:
        t = time.perf_counter()
        _khop_result(2)
        wall = time.perf_counter() - t
    finally:
        ledger.uninstall()
    assert not hasattr(engine.build_transit_map, "__wrapped_layer__")
    metrics = layers.breakdown(ledger.snapshot(), 1, wall)
    assert metrics["draw.chunks"] > 0 and metrics["index.pairs"] > 0
    assert metrics["edge_record.edges"] == 0
    layers.check_coverage(metrics, "khop")
