"""Launch ``repro serve`` at its defaults, optionally with layer shims.

Usage: ``python3 perfbench/daemon.py [--trace]`` (with ``src`` on
``PYTHONPATH``).  Prints the daemon's own output; with ``--trace`` it
installs the engine-layer shims first and, after the graceful drain,
prints one JSON line ``{"ledger": ...}`` with the served runs' layer
self times.
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))


def main() -> int:
    traced = "--trace" in sys.argv[1:]
    ledger = None
    if traced:
        from layers import install
        from repro.bench.runner import paper_app
        from workloads import SERVE
        ledger = install([type(paper_app(SERVE.app))])
    from repro.cli import main as repro_main
    code = repro_main(["serve", "--port", "0"])
    if ledger is not None:
        print(json.dumps({"ledger": ledger.snapshot()}), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
