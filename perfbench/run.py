"""GPU-BLOB reproduction benchmark: one workload, one run.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload tables-cold --seed 1 --seconds 30 --trace 0

Workloads: ``tables-cold``, ``serve``, ``des-campaign`` (see
perfbench/README.md).  ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer metrics of a traced run.  Informational
lines come first; the last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
All state lives under ``.perfbench/`` in the checkout and is removed
when the run ends; a traced run leaves its spans in
``.perfbench/traces/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("tables-cold", "serve", "des-campaign")


class Context:
    """What every workload needs: where things are and what to run."""

    def __init__(self, args) -> None:
        self.seed = args.seed
        self.seconds = float(args.seconds)
        self.trace = bool(args.trace)
        self.src = SRC
        base = ROOT / ".perfbench"
        self.state = base / f"run-{args.workload}-{args.seed}-{os.getpid()}"
        traces = base / "traces"
        self.trace_file = traces / f"{args.workload}-seed{args.seed}.jsonl"
        shutil.rmtree(self.state, ignore_errors=True)
        self.state.mkdir(parents=True)
        if self.trace:
            traces.mkdir(parents=True, exist_ok=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))

    ctx = Context(args)
    try:
        if args.workload == "serve":
            import serve_load

            out = serve_load.run(ctx)
        else:
            import campaigns

            out = campaigns.run(ctx, args.workload)
    finally:
        shutil.rmtree(ctx.state, ignore_errors=True)

    for line in out["notes"] + out["errors"]:
        print(line)
    if args.trace:
        from measure import layer_table

        metrics = layer_table(out["layers"])
    else:
        metrics = {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in out["e2e"].items()
        }
    print(json.dumps({
        "correct": not out["errors"] and out["failed"] == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
