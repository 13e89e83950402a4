"""Scenario definitions, batch execution, CSV records, and summary statistics.

A scenario bundles a hypothesis stack (from a file or a named generator), a
start/goal pair, the planner modes to run, and the search configuration.
Suites of scenarios execute deterministically and append one CSV row per
(scenario, mode, repetition).
"""

from __future__ import annotations

import csv
import io
import math
import os
import statistics
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

from .costmap import (CostMap, HypothesisStack, gen_case1, gen_case2,
                      gen_clutter, load_stack)
from .lattice import Pose, Trajectory
from .planners import MODES, PlannerMode, plan
from .search_core import AnytimeConfig, VirtualClock

RESULT_COLUMNS = ("scenario", "mode", "hypotheses", "repetition", "status",
                  "planning_time", "path_duration", "expansions", "reroutes",
                  "final_inflation", "seed")

BUILTIN_NAMES = ("fig3", "fig4", "seal", "clutter")


class ScenarioError(ValueError):
    """Raised for malformed scenario text or unsatisfiable scenario inputs."""


# -- stack sources -----------------------------------------------------------


@dataclass(frozen=True)
class StackSource:
    """Where a scenario's hypothesis stack comes from.

    ``kind`` is either ``file`` (with ``path``) or one of the builtin
    generator names; ``params`` holds generator keyword overrides as a sorted
    tuple so sources hash and compare cleanly.
    """

    kind: str
    path: str | None = None
    params: tuple[tuple[str, float], ...] = ()

    def __post_init__(self):
        if self.kind == "file":
            if not self.path:
                raise ScenarioError("file stack source requires a path")
        elif self.kind not in BUILTIN_NAMES:
            raise ScenarioError(f"unknown stack source {self.kind!r}")

    def resolve(self) -> HypothesisStack:
        if self.kind == "file":
            return load_stack(self.path)
        return _build_stack(self.kind, dict(self.params))


def clutter_endpoints(size: int) -> tuple[Pose, Pose]:
    return Pose(2, size // 2, 0), Pose(size - 3, size // 2 - 1, 0)


def _build_stack(kind: str, params: dict[str, float]) -> HypothesisStack:
    if kind != "clutter":
        if params:
            raise ScenarioError(f"{kind} takes no parameters")
        if kind == "fig3":
            return gen_case1(13, 13, (6, 6))
        if kind == "fig4":
            return gen_case2(20, 20, (10, 6), 9, orientation="v", thickness=2)
        return _gen_seal()
    p = dict(params)
    size = int(p.pop("size", 24))
    start, goal = clutter_endpoints(size)
    stack = gen_clutter(size, size,
                        seed=int(p.pop("seed", 0)),
                        density=p.pop("density", 0.12),
                        n_hypotheses=int(p.pop("n", 2)),
                        shift=int(p.pop("shift", 2)),
                        keep_free=(start.cell(), goal.cell()))
    if p:
        raise ScenarioError(f"unknown clutter parameters {sorted(p)}")
    return stack


def _gen_seal(width: int = 16, height: int = 16,
              goal_cell: tuple[int, int] = (12, 8)) -> HypothesisStack:
    """Two-map stack whose secondary hypothesis walls the goal in completely."""
    free = CostMap(width, height, 1.0, (0,) * (width * height))
    gx, gy = goal_cell
    ring = {(gx + dx, gy + dy): 255
            for dx in range(-2, 3) for dy in range(-2, 3)
            if max(abs(dx), abs(dy)) == 2}
    return HypothesisStack((free, free.with_cells(ring)))


# -- scenarios ---------------------------------------------------------------


@dataclass(frozen=True)
class Scenario:
    name: str
    source: StackSource
    start: Pose
    goal: Pose
    modes: tuple[PlannerMode, ...]
    cfg: AnytimeConfig = AnytimeConfig()
    repetitions: int = 1
    seed: int = 0

    def __post_init__(self):
        if not self.modes:
            raise ScenarioError("scenario needs at least one planner mode")
        if self.repetitions < 1:
            raise ScenarioError("repetitions must be >= 1")


_BUILTIN_POSES = {
    "fig3": (Pose(5, 6, 1), Pose(9, 2, 1)),
    "fig4": (Pose(3, 10, 0), Pose(17, 10, 0)),
    "seal": (Pose(2, 8, 0), Pose(12, 8, 0)),
}


def _default_poses(kind: str, params: dict[str, float]) -> tuple[Pose, Pose]:
    """Start and goal of a builtin stack when the scenario names none."""
    if kind == "clutter":
        return clutter_endpoints(int(params.get("size", 24)))
    return _BUILTIN_POSES[kind]


# Builtin parameters that count something: each must be a finite integer.
INTEGER_PARAMS = ("size", "seed", "n", "shift")


def parse_builtin(spec: str) -> tuple[str, dict[str, float]]:
    """Split ``clutter{n=3,seed=7}`` style builtin specs into name + float
    params, refusing an :data:`INTEGER_PARAMS` value such as 2.5 or inf."""
    name, brace, rest = spec.partition("{")
    if name not in BUILTIN_NAMES:
        raise ScenarioError(f"unknown builtin scenario {name!r}")
    params: dict[str, float] = {}
    if brace:
        if not rest.endswith("}"):
            raise ScenarioError(f"unterminated parameter list in {spec!r}")
        body = rest[:-1].strip()
        for item in filter(None, (s.strip() for s in body.split(","))):
            key, eq, val = item.partition("=")
            if not eq:
                raise ScenarioError(f"expected key=value, got {item!r}")
            key = key.strip()
            try:
                params[key] = float(val)
            except ValueError as exc:
                raise ScenarioError(f"bad parameter value {item!r}") from exc
            if key in INTEGER_PARAMS and not params[key].is_integer():
                raise ScenarioError(f"{key} must be a finite integer, got {item!r}")
    return name, params


def builtin_scenario(spec: str, modes=MODES, cfg: AnytimeConfig | None = None,
                     repetitions: int = 1, seed: int | None = None) -> Scenario:
    name, params = parse_builtin(spec)
    if name == "clutter" and seed is not None:
        params["seed"] = seed
    start, goal = _default_poses(name, params)
    source = StackSource(name, params=tuple(sorted(params.items())))
    return Scenario(spec, source, start, goal, tuple(PlannerMode(m) for m in modes),
                    cfg or AnytimeConfig(), repetitions,
                    int(params.get("seed", seed or 0)))


# -- scenario files ----------------------------------------------------------

SCENARIO_MAGIC = "MHSCEN 1"


def parse_scenario(text: str, base_dir: str = ".") -> Scenario:
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines or lines[0] != SCENARIO_MAGIC:
        raise ScenarioError(f"scenario file must start with {SCENARIO_MAGIC!r}")
    fields: dict[str, str] = {}
    for ln in lines[1:]:
        key, _, value = ln.partition(" ")
        if not value:
            raise ScenarioError(f"malformed scenario line {ln!r}")
        if key in fields:
            raise ScenarioError(f"duplicate scenario key {key!r}")
        fields[key] = value.strip()

    def pop(key, default=None):
        if key in fields:
            return fields.pop(key)
        if default is None:
            raise ScenarioError(f"scenario missing required key {key!r}")
        return default

    name = pop("name")
    stack_spec = pop("stack").split()
    if stack_spec[0] == "file":
        if len(stack_spec) != 2:
            raise ScenarioError("stack file line must name one path")
        source = StackSource("file", path=stack_spec[1])
        default_poses = None
    elif stack_spec[0] == "builtin" and len(stack_spec) == 2:
        kind, params = parse_builtin(stack_spec[1])
        source = StackSource(kind, params=tuple(sorted(params.items())))
        default_poses = _default_poses(kind, params)
    else:
        raise ScenarioError(f"bad stack line {' '.join(stack_spec)!r}")

    def pose_of(key):
        raw = fields.pop(key, None)
        if raw is None:
            if default_poses is None:
                raise ScenarioError(f"scenario missing required key {key!r}")
            return default_poses[0 if key == "start" else 1]
        parts = raw.split()
        if len(parts) not in (2, 3):
            raise ScenarioError(f"{key} must be 'x y [heading]'")
        try:
            x, y = int(parts[0]), int(parts[1])
            heading = int(parts[2]) if len(parts) == 3 else 0
        except ValueError as exc:
            raise ScenarioError(f"non-integer {key} component in {raw!r}") from exc
        return Pose(x, y, heading)

    start = pose_of("start")
    goal = pose_of("goal")
    modes = tuple(PlannerMode(m.strip()) for m in pop("modes").split(","))
    try:
        cfg = AnytimeConfig(
            initial_inflation=float(pop("inflation", "2.0")),
            inflation_step=float(pop("step", "0.25")),
            final_inflation=float(pop("final", "1.0")),
            time_budget=float(pop("budget", "1.0")),
            goal_tolerance=float(pop("tolerance", "0")),
        )
        repetitions = int(pop("repetitions", "1"))
        seed = int(pop("seed", "0"))
    except ValueError as exc:
        raise ScenarioError(f"bad scenario value: {exc}") from exc
    if fields:
        raise ScenarioError(f"unknown scenario keys {sorted(fields)}")
    sc = Scenario(name, source, start, goal, modes, cfg, repetitions, seed)
    if source.kind == "file":
        # Resolve relative stack paths against the scenario file's directory.
        sc = replace(sc, source=StackSource("file", path=source.path
                     if os.path.isabs(source.path)
                     else os.path.join(base_dir, source.path)))
    return sc


def load_scenario(path: str) -> Scenario:
    with open(path, "r", encoding="ascii") as fh:
        return parse_scenario(fh.read(), base_dir=os.path.dirname(path) or ".")


def _param_text(v: float) -> str:
    """Builtin parameter text that parses back to exactly ``v``."""
    v = float(v)
    return str(int(v)) if v.is_integer() else repr(v)


def dumps_scenario(sc: Scenario) -> str:
    out = [SCENARIO_MAGIC, f"name {sc.name}"]
    if sc.source.kind == "file":
        out.append(f"stack file {sc.source.path}")
    else:
        params = ",".join(f"{k}={_param_text(v)}" for k, v in sc.source.params)
        suffix = "{" + params + "}" if params else ""
        out.append(f"stack builtin {sc.source.kind}{suffix}")
    out.append(f"start {sc.start.x} {sc.start.y} {sc.start.heading}")
    out.append(f"goal {sc.goal.x} {sc.goal.y} {sc.goal.heading}")
    out.append("modes " + ",".join(m.value for m in sc.modes))
    out.append(f"budget {sc.cfg.time_budget!r}")
    out.append(f"inflation {sc.cfg.initial_inflation!r}")
    out.append(f"step {sc.cfg.inflation_step!r}")
    out.append(f"final {sc.cfg.final_inflation!r}")
    out.append(f"tolerance {sc.cfg.goal_tolerance!r}")
    out.append(f"repetitions {sc.repetitions}")
    out.append(f"seed {sc.seed}")
    return "\n".join(out) + "\n"


def save_scenario(sc: Scenario, path: str) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(dumps_scenario(sc))


# -- execution ---------------------------------------------------------------


@dataclass(frozen=True)
class ResultRecord:
    scenario: str
    mode: str
    hypotheses: int
    repetition: int
    status: str
    planning_time: float
    path_duration: float | None
    expansions: int
    reroutes: int
    final_inflation: float
    seed: int

    def row(self) -> list[str]:
        return [self.scenario, self.mode, str(self.hypotheses),
                str(self.repetition), self.status,
                repr(self.planning_time),
                "" if self.path_duration is None else repr(self.path_duration),
                str(self.expansions), str(self.reroutes),
                repr(self.final_inflation), str(self.seed)]


def run_scenario(sc: Scenario) -> list[ResultRecord]:
    """Execute every (mode, repetition) of one scenario with a virtual clock."""
    stack = sc.source.resolve()
    for label, pose in (("start", sc.start), ("goal", sc.goal)):
        if not stack.primary.in_bounds(*pose.cell()):
            raise ScenarioError(f"{sc.name}: {label} {pose.cell()} out of bounds")
        if stack.primary.is_lethal(*pose.cell()):
            raise ScenarioError(f"{sc.name}: {label} {pose.cell()} lethal in primary")
    records = []
    for mode in sc.modes:
        for rep in range(sc.repetitions):
            result = plan(mode, stack, sc.start, sc.goal, sc.cfg,
                          clock=VirtualClock())
            duration = (result.trajectory.duration
                        if result.trajectory is not None else None)
            records.append(ResultRecord(
                sc.name, mode.value, stack.n, rep, result.status,
                result.planning_time, duration, result.expansions,
                result.reroutes, result.final_inflation, sc.seed))
    return records


def _error_record(sc_name: str, message: str) -> ResultRecord:
    return ResultRecord(sc_name, "-", 0, 0, f"error: {message}",
                        0.0, None, 0, 0, 0.0, 0)


@dataclass
class SuiteResult:
    records: list[ResultRecord] = field(default_factory=list)
    errors: list[tuple[str, str]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors


def _run_entry(entry) -> list[ResultRecord]:
    if isinstance(entry, Scenario):
        return run_scenario(entry)
    return run_scenario(load_scenario(entry))


def collect_scenarios(path: str) -> list[str]:
    """Scenario files under ``path`` (or ``path`` itself), sorted by name."""
    if os.path.isdir(path):
        return sorted(os.path.join(path, name) for name in os.listdir(path)
                      if name.endswith(".mhscen"))
    return [path]


def run_suite(entries, out_path: str | None = None, jobs: int = 1) -> SuiteResult:
    """Run scenarios (paths or Scenario objects) in deterministic order.

    Workers only parallelize execution; the merged record order always follows
    the input order, so identical inputs give identical output files.  At most
    one worker per scenario is started; ``jobs`` below 1 raises ValueError.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    entries = list(entries)
    suite = SuiteResult()
    outcomes: list[list[ResultRecord] | Exception] = [None] * len(entries)
    workers = min(jobs, len(entries))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_run_entry, e) for e in entries]
            for i, fut in enumerate(futures):
                try:
                    outcomes[i] = fut.result()
                except Exception as exc:  # noqa: BLE001 - recorded per scenario
                    outcomes[i] = exc
    else:
        for i, entry in enumerate(entries):
            try:
                outcomes[i] = _run_entry(entry)
            except Exception as exc:  # noqa: BLE001 - recorded per scenario
                outcomes[i] = exc
    for entry, outcome in zip(entries, outcomes):
        name = entry.name if isinstance(entry, Scenario) else os.path.basename(entry)
        if isinstance(outcome, Exception):
            suite.errors.append((name, str(outcome)))
            suite.records.append(_error_record(name, str(outcome)))
        else:
            suite.records.extend(outcome)
    if out_path is not None:
        write_records(suite.records, out_path)
    return suite


def write_records(records, path: str) -> None:
    with open(path, "w", encoding="ascii", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(RESULT_COLUMNS)
        for rec in records:
            writer.writerow(rec.row())


def read_records(path: str) -> list[ResultRecord]:
    with open(path, "r", encoding="ascii", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if tuple(header or ()) != RESULT_COLUMNS:
            raise ScenarioError(f"unexpected results header in {path}")
        records = []
        for row in reader:
            if len(row) != len(RESULT_COLUMNS):
                raise ScenarioError(f"short results row {row!r}")
            records.append(ResultRecord(
                row[0], row[1], int(row[2]), int(row[3]), row[4],
                float(row[5]), float(row[6]) if row[6] else None,
                int(row[7]), int(row[8]), float(row[9]), int(row[10])))
        return records


# -- summaries ---------------------------------------------------------------


@dataclass(frozen=True)
class MetricSummary:
    mean: float
    median: float
    ci95: float
    q1: float
    q3: float
    whisker_lo: float
    whisker_hi: float
    count: int


@dataclass(frozen=True)
class SummaryRow:
    mode: str
    hypotheses: int
    solved: int
    total: int
    planning_time: MetricSummary
    path_duration: MetricSummary | None


def _summary_of(values: list[float]) -> MetricSummary:
    n = len(values)
    mean = statistics.fmean(values)
    median = statistics.median(values)
    ci = 1.96 * statistics.stdev(values) / math.sqrt(n) if n > 1 else 0.0
    if n > 1:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = q3 = values[0]
    iqr = q3 - q1
    lo_bound, hi_bound = q1 - 1.5 * iqr, q3 + 1.5 * iqr
    # Whiskers clip to the most extreme data points inside the 1.5 IQR fences.
    whisker_lo = min(v for v in values if v >= lo_bound)
    whisker_hi = max(v for v in values if v <= hi_bound)
    return MetricSummary(mean, median, ci, q1, q3, whisker_lo, whisker_hi, n)


def summarize(records) -> list[SummaryRow]:
    """Aggregate per (mode, hypothesis count); durations cover solved runs only."""
    records = [r for r in records if not r.status.startswith("error")]
    if not records:
        raise ValueError("no result records to summarize")
    groups: dict[tuple[str, int], list[ResultRecord]] = {}
    for rec in records:
        groups.setdefault((rec.mode, rec.hypotheses), []).append(rec)
    rows = []
    for (mode, n_hyp) in sorted(groups):
        recs = groups[(mode, n_hyp)]
        durations = [r.path_duration for r in recs if r.path_duration is not None]
        rows.append(SummaryRow(
            mode, n_hyp, len(durations), len(recs),
            _summary_of([r.planning_time for r in recs]),
            _summary_of(durations) if durations else None))
    return rows


def format_summary(rows) -> str:
    out = io.StringIO()
    header = (f"{'mode':<6} {'hyp':>3} {'solved':>6} "
              f"{'time mean':>10} {'ci95':>8} {'median':>8} "
              f"{'dur mean':>10} {'ci95':>8} {'median':>8} "
              f"{'q1':>8} {'q3':>8} {'whiskers':>17}")
    out.write(header + "\n")
    for row in rows:
        t, d = row.planning_time, row.path_duration
        if d is None:
            dur = f"{'-':>10} {'-':>8} {'-':>8} {'-':>8} {'-':>8} {'-':>17}"
        else:
            dur = (f"{d.mean:10.3f} {d.ci95:8.3f} {d.median:8.3f} "
                   f"{d.q1:8.3f} {d.q3:8.3f} "
                   f"{d.whisker_lo:8.3f}/{d.whisker_hi:.3f}")
        out.write(f"{row.mode:<6} {row.hypotheses:>3} "
                  f"{row.solved:>3}/{row.total:<3}"
                  f"{t.mean:10.4f} {t.ci95:8.4f} {t.median:8.4f} {dur}\n")
    return out.getvalue()


# -- trajectory comparison ---------------------------------------------------


def plan_divergence(traj_a: Trajectory, traj_b: Trajectory,
                    resolution: float = 1.0) -> float:
    """Discrete Frechet distance between two trajectories' pose sequences.

    Standard quadratic dynamic program over the coupling lattice; distances
    are Euclidean between cell centers, scaled to meters by ``resolution``.
    """
    pa = [p.cell() for p in traj_a.poses]
    pb = [p.cell() for p in traj_b.poses]
    if not pa or not pb:
        raise ValueError("plan_divergence needs nonempty trajectories")

    def dist(i, j):
        return math.hypot(pa[i][0] - pb[j][0], pa[i][1] - pb[j][1]) * resolution

    na, nb = len(pa), len(pb)
    prev = [0.0] * nb
    prev[0] = dist(0, 0)
    for j in range(1, nb):
        prev[j] = max(prev[j - 1], dist(0, j))
    for i in range(1, na):
        cur = [0.0] * nb
        cur[0] = max(prev[0], dist(i, 0))
        for j in range(1, nb):
            reach = min(prev[j], prev[j - 1], cur[j - 1])
            cur[j] = max(reach, dist(i, j))
        prev = cur
    return prev[nb - 1]
