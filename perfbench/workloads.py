"""Benchmark workloads: seeded set-up and the timed operations of one pass.

A workload builds a fixed pool of planning operations from its seed during
set-up; a pass runs every operation of the pool once, in order.  Each
operation is one timed call (a plan, plus per-call map loading where the
workload has it).  The pool size is fixed per workload, so the operations of a
pass, and every deterministic counter they produce, depend only on the seed.
"""

from __future__ import annotations

import math
import os
import random
import time
from dataclasses import dataclass, field

from mhplan import costmap, planners
from mhplan.costmap import GenerationError, HypothesisStack
from mhplan.harness import ResultRecord, clutter_endpoints
from mhplan.lattice import Pose
from mhplan.search_core import AnytimeConfig, VirtualClock

UNLIMITED = AnytimeConfig(time_budget=math.inf)
# The SH optimum every plan is checked against: uninflated, unlimited search.
OPTIMUM = AnytimeConfig(initial_inflation=1.0, time_budget=math.inf)


@dataclass(frozen=True)
class Workload:
    """Pool parameters; README.md says why each workload is in the benchmark."""

    name: str
    size: int
    density: float
    shift: int
    kinds: tuple[tuple[str, int], ...]  # (mode, hypotheses), cycled over instances
    cfg: AnytimeConfig
    instances: int  # instances (stacks, or drift series) in the pool
    samples: int = 0  # drift-series length; 0 for independent stacks
    window: int = 0  # newest samples planned over per replanning cycle
    default_seed: int = 1

    def params(self) -> dict:
        out = {"size": self.size, "density": self.density, "shift": self.shift,
               "kinds": [list(k) for k in self.kinds], "instances": self.instances,
               "time_budget": self.cfg.time_budget,
               "inflation": [self.cfg.initial_inflation, self.cfg.final_inflation],
               "default_seed": self.default_seed}
        if self.samples:
            out.update(samples=self.samples, window=self.window)
        return out


WORKLOADS = {w.name: w for w in (
    Workload(
        "repair-static",
        size=40, density=0.12, shift=2,
        kinds=(("PEH", 3), ("GEH", 3), ("GEGRH", 3)),
        cfg=AnytimeConfig(), instances=60),
    Workload(
        "open-field",
        size=48, density=0.12, shift=2,
        kinds=(("SH", 2), ("VEH", 2), ("SH", 5), ("VEH", 5)),
        cfg=UNLIMITED, instances=560),
    Workload(
        "replan-window",
        size=32, density=0.12, shift=1,
        kinds=(("GEGRH", 3),),
        cfg=AnytimeConfig(), instances=3, samples=40, window=3),
)}


@dataclass
class Op:
    """One timed planning call and what its result is checked against."""

    key: str
    mode: str
    n: int
    gen_seed: int
    start: Pose
    goal: Pose
    primary_view: HypothesisStack  # primary map alone, for verification
    optimum: float | None  # SH optimum duration on the primary map
    stack: HypothesisStack | None = None  # prebuilt stack (static workloads)
    path: str | None = None  # newest sample's map file (replan workloads)


@dataclass
class Pool:
    workload: Workload
    seed: int
    ops: list[Op]
    series: list[list[str]] = field(default_factory=list)  # map files per series
    instance_s: list[float] = field(default_factory=list)  # set-up time per instance

    def calls(self):
        """Yield ``(op, call)`` for one pass; ``call()`` is the timed region.

        ``call()`` returns the plan result.  Replanning passes load the
        oldest window samples of each series before its first call, untimed,
        so every timed call loads exactly one new sample.
        """
        wl = self.workload
        if not wl.samples:
            for op in self.ops:
                yield op, _static_call(op, wl.cfg)
            return
        per_series = wl.samples - wl.window + 1
        for j, paths in enumerate(self.series):
            window = [costmap.load_costmap(p) for p in reversed(paths[:wl.window - 1])]
            for op in self.ops[j * per_series:(j + 1) * per_series]:
                yield op, _replan_call(op, window, wl.cfg, wl.window - 1)


def _static_call(op: Op, cfg: AnytimeConfig):
    def call():
        return planners.plan(op.mode, op.stack, op.start, op.goal, cfg, clock=VirtualClock())
    return call


def _replan_call(op: Op, window: list, cfg: AnytimeConfig, keep: int):
    def call():
        newest = costmap.load_costmap(op.path)
        stack = HypothesisStack((newest, *window))
        result = planners.plan(op.mode, stack, op.start, op.goal, cfg, clock=VirtualClock())
        window[:] = stack.maps[:keep]
        return result
    return call


def record(wl: Workload, op: Op, result) -> ResultRecord:
    """The deterministic per-operation record; wall time stays out of it."""
    duration = result.trajectory.duration if result.trajectory is not None else None
    return ResultRecord(f"{wl.name}/{op.key}", op.mode, op.n, 0, result.status,
                        result.planning_time, duration, result.expansions,
                        result.reroutes, result.final_inflation, op.gen_seed)


def _seed_stream(name: str, seed: int):
    """Generation seeds for one run.  A seed whose generation fails is skipped
    and the next one from the stream is used, whatever the planners do."""
    rng = random.Random(f"{name}:{seed}")
    while True:
        yield rng.randrange(2 ** 31)


def _optimum(stack: HypothesisStack, start: Pose, goal: Pose) -> float | None:
    return planners.plan("SH", stack, start, goal, OPTIMUM).duration


def _generate(wl: Workload, seeds, n: int, start: Pose, goal: Pose):
    for gen_seed in seeds:
        try:
            stack = costmap.gen_clutter(wl.size, wl.size, seed=gen_seed, density=wl.density,
                                        n_hypotheses=n, shift=wl.shift,
                                        keep_free=(start.cell(), goal.cell()))
        except GenerationError:
            continue
        return gen_seed, stack
    raise AssertionError("seed stream is infinite")


def build(wl: Workload, seed: int, map_dir: str) -> Pool:
    """Set-up: generate the pool's inputs, write them as map files, and find
    their SH optima.

    Independent stacks are planned as loaded back from their files, with
    ``lethal_mask`` filled; drift series are loaded by the timed calls.  Each
    instance's set-up is timed on its own.
    """
    start, goal = clutter_endpoints(wl.size)
    seeds = _seed_stream(wl.name, seed)
    pool = Pool(wl, seed, [])
    for i in range(wl.instances):
        t0 = time.perf_counter()
        if wl.samples:
            _build_series(pool, i, seeds, start, goal, map_dir)
        else:
            mode, n = wl.kinds[i % len(wl.kinds)]
            gen_seed, generated = _generate(wl, seeds, n, start, goal)
            path = os.path.join(map_dir, f"i{i}.mhstack")
            costmap.save_stack(generated, path)
            stack = costmap.load_stack(path)
            for cmap in stack.maps:
                cmap.lethal_mask  # noqa: B018 - prebuilt stacks are planned warm
            view = stack.single(0)
            pool.ops.append(Op(f"i{i}", mode, n, gen_seed, start, goal, view,
                               _optimum(view, start, goal), stack=stack))
        pool.instance_s.append(time.perf_counter() - t0)
    return pool


def _build_series(pool: Pool, j: int, seeds, start: Pose, goal: Pose, map_dir: str) -> None:
    """One drift series, saved oldest first; one op per cycle with a full window."""
    wl = pool.workload
    mode, n = wl.kinds[0]
    gen_seed, stack = _generate(wl, seeds, wl.samples, start, goal)
    chronological = list(reversed(stack.maps))
    paths = []
    for t, cmap in enumerate(chronological):
        path = os.path.join(map_dir, f"s{j}_{t:02d}.mhmap")
        costmap.save_costmap(cmap, path)
        paths.append(path)
    pool.series.append(paths)
    for t in range(wl.window - 1, wl.samples):
        view = HypothesisStack((chronological[t],))
        pool.ops.append(Op(f"s{j}t{t:02d}", mode, n, gen_seed, start, goal, view,
                           _optimum(view, start, goal), path=paths[t]))
