"""Regenerate ``reference.json``: the expected sample digest and modeled
time of every benchmark input set and every distinct serve request.

Run from the repository root after an intentional output change:

    PYTHONPATH=src python3 perfbench/make_reference.py

References come from direct, in-process engine runs at the program's
defaults; served replies must match them bitwise.
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from workloads import (BATCH, INPUT_SETS, REFERENCE_PATH,  # noqa: E402
                       SERVE, SERVE_REQUEST_POOL, batch_inputs,
                       batch_key, serve_key)


def entry(result) -> dict:
    from repro.serve.protocol import batch_digest
    return {"digest": batch_digest(result.batch),
            "modeled_ms": result.seconds * 1000.0}


def main() -> int:
    from repro.bench.runner import paper_app
    from repro.core.engine import NextDoorEngine
    from repro.graph import datasets

    ref = {}
    for wl in BATCH.values():
        for idx in range(INPUT_SETS):
            app, graph, roots, engine_seed = batch_inputs(wl, idx)
            ref[batch_key(wl.name, idx)] = entry(NextDoorEngine(workers=0).run(
                app, graph, roots=roots, seed=engine_seed))
        print(f"{wl.name}: {INPUT_SETS} input sets", flush=True)
    # Mirrors the daemon: k-hop is unweighted, the dataset stand-in is
    # generated with the request seed, roots are drawn by the engine.
    for seed in range(SERVE_REQUEST_POOL):
        graph = datasets.load(SERVE.graph, seed=seed, weighted=False)
        ref[serve_key(seed)] = entry(NextDoorEngine(workers=0).run(
            paper_app(SERVE.app), graph, num_samples=SERVE.samples,
            seed=seed))
    print(f"serve: {SERVE_REQUEST_POOL} requests", flush=True)
    with open(REFERENCE_PATH, "w") as f:
        json.dump(ref, f, indent=0, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
