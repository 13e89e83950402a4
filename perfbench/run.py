"""mhplan benchmark: timed planning workloads with verified, deterministic output.

Run from the repository root:

    python3 perfbench/run.py --workload repair-static --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all

One invocation runs one workload in this process (``all`` runs every workload,
each in its own fresh process, one after another).  The benchmark imports the
package from ``src/`` next to this directory and fails without it.

Set-up builds the workload's pool of operations from ``--seed``.  The timed
phase then runs the pool's operations in order, pass after pass, until at
least one full pass is done and ``--seconds`` have elapsed.  Every plan is
checked outside its timed call (``verify.py``).  Each operation's
deterministic record (no wall time) must be identical in every pass; the first
pass is written with ``harness.write_records`` and must be byte-identical to
what an earlier run of the same sources and seed wrote.  A failed check exits
with 1.

With ``--trace 1`` the run times the first half of one pass untraced, then
runs the same half again with the package's public functions wrapped in spans
(``tracing.py``).  Its records must equal the untraced ones, and the run
reports per-layer metrics and the tracing overhead in place of the end-to-end
metrics.  The last line of output is one JSON object.  ``README.md`` defines
every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")
WORKLOADS = ("repair-static", "open-field", "replan-window")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=None,
                    help="workload seed (default: the workload's own)")
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def run_one(args) -> int:
    if not os.path.isfile(os.path.join(SRC, "mhplan", "__init__.py")):
        print(f"error: the mhplan package is not under {SRC}", file=sys.stderr)
        return 2
    t_start = time.perf_counter()
    sys.path.insert(0, SRC)
    import mhplan

    if not os.path.abspath(mhplan.__file__).startswith(SRC + os.sep):
        print(f"error: imported mhplan from {mhplan.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import bench

    return bench.run(args.workload, args.seed, args.seconds, bool(args.trace), t_start, OUT)


def run_all(args) -> int:
    """Each workload in its own fresh process, one after another."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.seed is not None:
            cmd += ["--seed", str(args.seed)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        status = status or proc.returncode
        try:
            child = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            merged["correct"] = False
            status = status or 1
            continue
        merged["correct"] &= child["correct"]
        merged["attempted"] += child["attempted"]
        merged["failed"] += child["failed"]
        for k, v in child["metrics"].items():
            merged["metrics"][f"{name}.{k}"] = v
    print(json.dumps(merged))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
