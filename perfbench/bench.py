"""One workload run: set-up, timed passes, checks, metrics (see ``run.py``)."""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import itertools
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass

import mhplan
from mhplan import harness
from mhplan.lattice import shared_default_library
from mhplan.search_core import VirtualClock

import tracing
import verify
import workloads

MODES = ("SH", "VEH", "PEH", "GEH", "GEGRH")
TAIL_LADDER = (99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10
# Instances whose set-up a traced run times per call (the costmap metrics).
TRACED_SETUP_INSTANCES = 10

E2E_UNITS = {
    "setup_s": "s", "plans_per_s": "1/s", "plan_ms_p50": "ms", "plan_ms_tail": "ms",
    "solved_share": "ratio", "sound_share": "ratio", "path_ratio_mean": "ratio",
    "virtual_s_p50": "s", "peak_rss_mb": "MB",
}
# Printed, but left out of the result object: with 60 instances per run its
# spread over seeds (0.1 to 0.2, near 0.25 by resampling) leaves no margin
# under the largest bound allowed.  A traced run reports it as
# ``planners.solved_share``.
UNBOUNDED = ("solved_share",)


def layer_unit(name: str) -> str:
    if name.startswith("planners.plan_ms_p50."):
        return "ms"
    for suffix, unit in ((".calls", "count"), ("_ms", "ms"), (".ms", "ms"),
                         (".us_per_call", "us"), ("_ratio", "ratio"),
                         ("_share", "ratio"), ("_per_s", "1/s")):
        if name.endswith(suffix):
            return unit
    return "count"


def tail_percentile(pass_ops: int) -> float:
    """Highest ladder percentile with at least ten of one pass's ops beyond it."""
    for p in TAIL_LADDER:
        if pass_ops - math.ceil(p / 100.0 * pass_ops) >= TAIL_MIN_BEYOND:
            return p
    return TAIL_LADDER[-1]


def nearest_rank(sorted_values, p: float) -> float:
    return sorted_values[max(0, math.ceil(p / 100.0 * len(sorted_values)) - 1)]


@dataclass(slots=True)
class Outcome:
    """What one timed operation returned and how its check went."""

    op: workloads.Op
    wall_s: float
    result: object  # PlanResult, or None when the call raised
    row: list[str]  # the deterministic record, as written
    verified: bool
    failure: str | None


def run_op(wl, op, call, lib) -> Outcome:
    t0 = time.perf_counter()
    try:
        result = call()
    except Exception as exc:  # noqa: BLE001 - a raising plan is a failed op
        wall = time.perf_counter() - t0
        traceback.print_exc(file=sys.stderr)
        row = [f"{wl.name}/{op.key}", op.mode, f"error: {type(exc).__name__}"]
        return Outcome(op, wall, None, row, False, f"raised {exc!r}")
    wall = time.perf_counter() - t0
    failure = None
    if result.trajectory is not None:
        failure = verify.check(result.trajectory, op.primary_view, lib, op.start, op.goal,
                               op.optimum)
    return Outcome(op, wall, result, workloads.record(wl, op, result).row(),
                   result.trajectory is not None and failure is None, failure)


def timed_phase(pool, seconds: float, lib, pass_ops: int | None = None):
    """Run passes until one is complete and ``seconds`` have elapsed.

    A pass is the pool's first ``pass_ops`` operations (all by default).
    Returns (outcomes of every op, outcomes of the first pass, determinism
    mismatches between later passes and the first).
    """
    first: list[Outcome] = []
    every: list[Outcome] = []
    mismatches = []
    t_start = time.perf_counter()
    passes = 0
    while True:
        for i, (op, call) in enumerate(itertools.islice(pool.calls(), pass_ops)):
            out = run_op(pool.workload, op, call, lib)
            every.append(out)
            if passes == 0:
                first.append(out)
            elif out.row != first[i].row:
                mismatches.append(f"pass {passes + 1} op {op.key}: {out.row} != {first[i].row}")
            if passes and time.perf_counter() - t_start >= seconds:
                return every, first, mismatches
        passes += 1
        if time.perf_counter() - t_start >= seconds:
            return every, first, mismatches


def end_to_end(setup_s: float, every, first) -> tuple[dict, dict]:
    walls = sorted(o.wall_s for o in every)
    tail_p = tail_percentile(len(first))
    verified = [o for o in first if o.verified]
    ratios = [o.result.trajectory.duration / o.op.optimum for o in verified]
    virtual = [o.result.planning_time for o in first if o.result is not None]
    metrics = {
        "setup_s": setup_s,
        "plans_per_s": len(walls) / sum(walls),
        "plan_ms_p50": statistics.median(walls) * 1e3,
        "plan_ms_tail": nearest_rank(walls, tail_p) * 1e3,
        "solved_share": len(verified) / len(first),
        "sound_share": sum(1 for o in first if o.failure is None) / len(first),
        "path_ratio_mean": statistics.fmean(ratios) if ratios else 0.0,
        "virtual_s_p50": statistics.median(virtual) if virtual else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    details = {"plan_ms_tail_percentile": tail_p, "timed_ops": len(walls),
               "pass_ops": len(first), "verified_ops": len(verified)}
    return metrics, details


def bytes_of(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def source_digest() -> str:
    """Hash of the package's sources: records are compared across runs of the
    same sources only."""
    digest = hashlib.sha256()
    package = os.path.dirname(os.path.abspath(mhplan.__file__))
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            digest.update(name.encode() + b"\0" + bytes_of(os.path.join(package, name)))
    return digest.hexdigest()[:12]


def write_checked(records, path: str, problems: list) -> None:
    """Write ``records``; a file an earlier run left at ``path`` must not change."""
    previous = bytes_of(path) if os.path.exists(path) else None
    harness.write_records(records, path)
    if previous is not None and bytes_of(path) != previous:
        problems.append(f"{path} differs from an earlier run with this seed")


def traced_run(pool, first, records_path: str, out_dir: str,
               problems: list) -> dict[str, float]:
    """Run the ops of ``first`` again under tracing, after tracing the set-up of
    the pool's first few instances; returns the per-layer metrics."""
    wl, seed = pool.workload, pool.seed
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    traced_path = records_path.replace(".csv", ".traced.csv")
    map_dir = os.path.join(out_dir, f"maps-{wl.name}-traced")
    os.makedirs(map_dir, exist_ok=True)
    head = dataclasses.replace(wl, instances=min(wl.instances, TRACED_SETUP_INSTANCES))
    try:
        tracer.phase = "setup"
        tracer.run("setup", lambda: workloads.build(head, seed, map_dir))
        tracer.phase = "ops"
        results, records = [], []
        for op, call in itertools.islice(pool.calls(), len(first)):
            result = tracer.run("op", call)
            results.append(result)
            records.append(workloads.record(wl, op, result))
        tracer.phase = "harness"
        for _ in range(5):
            harness.write_records(records, traced_path)
            harness.read_records(traced_path)
            harness.summarize(records)
    finally:
        restore()
    if bytes_of(traced_path) != bytes_of(records_path):
        problems.append(f"traced records {traced_path} differ from {records_path}")
    tracer.write(os.path.join(out_dir, f"spans-{wl.name}.bin"))

    untraced_s = sum(o.wall_s for o in first)
    traced_s = tracer.total("op")[2] / 1e3
    layers = tracing.layer_metrics(tracer, results, untraced_s, VirtualClock().tick)
    for mode in MODES:
        walls = [o.wall_s for o in first if o.op.mode == mode]
        layers[f"planners.plan_ms_p50.{mode}"] = statistics.median(walls) * 1e3 if walls else 0.0
    layers["trace.overhead_ms"] = (traced_s - untraced_s) * 1e3
    layers["trace.overhead_ratio"] = traced_s / untraced_s - 1.0
    return layers


def run(workload: str, seed: int | None, seconds: float, trace: bool, t_start: float,
        out_dir: str) -> int:
    """Run one workload and print its metrics; ``t_start`` is when imports began."""
    lib = shared_default_library(1.0)
    warmup_s = time.perf_counter() - t_start

    wl = workloads.WORKLOADS[workload]
    seed = wl.default_seed if seed is None else seed
    map_dir = os.path.join(out_dir, f"maps-{wl.name}")  # rewritten by every run
    os.makedirs(map_dir, exist_ok=True)
    pool = workloads.build(wl, seed, map_dir)
    # Each instance is one set-up repetition: the median scales to the pool.
    setup_s = warmup_s + len(pool.instance_s) * statistics.median(pool.instance_s)
    # The pool is the benchmark's input; keep the collector from rescanning it.
    gc.collect()
    gc.freeze()

    # A traced run times the first half of one pass, untraced, as the baseline
    # of the same half traced; halves keep a traced run short.
    pass_ops = len(pool.ops) // 2 if trace else None
    every, first, problems = timed_phase(pool, 0.0 if trace else seconds, lib, pass_ops)
    failures = [o for o in every if o.failure is not None]
    for o in failures[:10]:
        print(f"verification failed: {wl.name}/{o.op.key} {o.op.mode}: {o.failure}",
              file=sys.stderr)

    full_path = os.path.join(out_dir, f"records-{wl.name}-s{seed}-{source_digest()}.csv")
    records_path = full_path.replace(".csv", ".half.csv") if trace else full_path
    write_checked([workloads.record(wl, o.op, o.result) for o in first if o.result is not None],
                  records_path, problems)
    if trace and os.path.exists(full_path) and not bytes_of(full_path).startswith(
            bytes_of(records_path)):
        problems.append(f"{records_path} is not the head of {full_path}")

    e2e, details = end_to_end(setup_s, every, first)
    for name, value in e2e.items():
        print(f"{wl.name:14s} {name:44s} {value:14.6g} {E2E_UNITS[name]}")
    if trace and not failures:
        metrics = traced_run(pool, first, records_path, out_dir, problems)
        metrics["planners.solved_share"] = e2e["solved_share"]
        units = {name: layer_unit(name) for name in metrics}
        for name, value in metrics.items():
            print(f"{wl.name:14s} {name:44s} {value:14.6g} {units[name]}")
    else:
        metrics = {k: v for k, v in e2e.items() if k not in UNBOUNDED}
        units = E2E_UNITS
    for p in problems[:10]:
        print(f"determinism check failed: {p}", file=sys.stderr)

    details.update(workload=wl.name, seed=seed, params=wl.params(),
                   modes={m: n for m in MODES
                          if (n := sum(1 for o in first if o.op.mode == m))},
                   no_plan=sum(1 for o in first if o.result is not None
                               and o.result.trajectory is None),
                   records=os.path.basename(records_path))
    print("details " + json.dumps(details, sort_keys=True))
    correct = not failures and not problems
    print(json.dumps({
        "correct": correct,
        "attempted": len(every),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if correct else 1
