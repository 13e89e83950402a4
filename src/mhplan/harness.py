"""Scenario definitions, batch execution, CSV records, and summary statistics.

A scenario bundles a hypothesis stack (from a file or a named generator), a
start/goal pair, the planner modes to run, and the search configuration.
Each decision of this layer has one home here:

- :data:`BUILTINS` maps each builtin name to its stack generator and its
  default start and goal; :func:`builtin_scenario` turns a spec such as
  ``clutter{n=3,seed=7}`` into a scenario, and a scenario file's
  ``stack builtin`` line goes through it too.  An explicit seed (``--seed``
  or a file's ``seed`` line) overrides the spec's; without one, the spec's
  seed (or 0) is both generated and recorded.
- :data:`CONFIG_KEYS` maps scenario-file keys to :class:`AnytimeConfig`
  fields for both reading and writing; absent keys keep the config's own
  defaults.
- :func:`plan_scenario` plans every (mode, repetition) of a scenario and
  builds its :class:`ResultRecord`; suites, ``mhplan plan`` and
  ``mhplan render`` all run through it.

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


class ScenarioError(ValueError):
    """Raised for malformed scenario text or unsatisfiable scenario inputs."""


# -- builtin stacks ----------------------------------------------------------


def clutter_endpoints(size: int) -> tuple[Pose, Pose]:
    return Pose(2, size // 2, 0), Pose(size - 3, size // 2 - 1, 0)


def _gen_clutter(p: dict[str, float]) -> HypothesisStack:
    size = int(p.pop("size", 24))
    start, goal = clutter_endpoints(size)
    return gen_clutter(size, size,
                       seed=int(p.pop("seed", 0)),
                       density=p.pop("density", 0.12),
                       n_hypotheses=int(p.pop("n", 2)),
                       shift=int(p.pop("shift", 2)),
                       keep_free=(start.cell(), goal.cell()))


def _gen_seal(width: int = 16, height: int = 16,
              goal_cell: tuple[int, int] = (12, 8)) -> HypothesisStack:
    """Two-map stack whose secondary hypothesis walls the goal in completely."""
    free = CostMap(width, height, 1.0, (0,) * (width * height))
    gx, gy = goal_cell
    ring = {(gx + dx, gy + dy): 255
            for dx in range(-2, 3) for dy in range(-2, 3)
            if max(abs(dx), abs(dy)) == 2}
    return HypothesisStack((free, free.with_cells(ring)))


# name -> (build(params), poses(params)).  ``build`` pops every parameter it
# reads; one it leaves is refused.  ``poses`` gives the default start and goal.
BUILTINS = {
    "fig3": (lambda p: gen_case1(13, 13, (6, 6)),
             lambda p: (Pose(5, 6, 1), Pose(9, 2, 1))),
    "fig4": (lambda p: gen_case2(20, 20, (10, 6), 9, orientation="v", thickness=2),
             lambda p: (Pose(3, 10, 0), Pose(17, 10, 0))),
    "seal": (lambda p: _gen_seal(),
             lambda p: (Pose(2, 8, 0), Pose(12, 8, 0))),
    "clutter": (_gen_clutter,
                lambda p: clutter_endpoints(int(p.get("size", 24)))),
}

# Builtin parameters that count something: each must be a finite integer.
INTEGER_PARAMS = ("size", "seed", "n", "shift")


@dataclass(frozen=True)
class StackSource:
    """Where a scenario's hypothesis stack comes from.

    ``kind`` is either ``file`` (with ``path``) or one of the :data:`BUILTINS`
    names; ``params`` holds generator keyword overrides as a sorted tuple so
    sources hash and compare cleanly.
    """

    kind: str
    path: str | None = None
    params: tuple[tuple[str, float], ...] = ()

    def __post_init__(self):
        if self.kind == "file":
            if not self.path:
                raise ScenarioError("file stack source requires a path")
        elif self.kind not in BUILTINS:
            raise ScenarioError(f"unknown stack source {self.kind!r}")

    def resolve(self) -> HypothesisStack:
        if self.kind == "file":
            return load_stack(self.path)
        params = dict(self.params)
        stack = BUILTINS[self.kind][0](params)
        if params:
            raise ScenarioError(f"unknown {self.kind} parameters {sorted(params)}")
        return stack


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


def parse_builtin(spec: str) -> tuple[str, dict[str, float]]:
    """Split ``clutter{n=3,seed=7}`` style builtin specs into name + float
    params, refusing a repeated parameter and an :data:`INTEGER_PARAMS`
    value such as 2.5 or inf."""
    name, brace, rest = spec.partition("{")
    if name not in BUILTINS:
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
            if key in params:
                raise ScenarioError(f"parameter {key!r} given twice in {spec!r}")
            try:
                params[key] = float(val)
            except ValueError as exc:
                raise ScenarioError(f"bad parameter value {item!r}") from exc
            if key in INTEGER_PARAMS and not params[key].is_integer():
                raise ScenarioError(f"{key} must be a finite integer, got {item!r}")
    return name, params


def builtin_scenario(spec: str, modes=MODES, cfg: AnytimeConfig | None = None,
                     repetitions: int = 1, seed: int | None = None) -> Scenario:
    """The scenario of builtin ``spec`` at its default poses.  ``seed``, when
    given, replaces the clutter spec's seed; the seed generated is the one
    recorded."""
    name, params = parse_builtin(spec)
    if name == "clutter" and seed is not None:
        params["seed"] = seed
    start, goal = BUILTINS[name][1](params)
    source = StackSource(name, params=tuple(sorted(params.items())))
    return Scenario(spec, source, start, goal, tuple(PlannerMode(m) for m in modes),
                    cfg or AnytimeConfig(), repetitions,
                    int(params.get("seed", seed or 0)))


# -- scenario files ----------------------------------------------------------

SCENARIO_MAGIC = "MHSCEN 1"

# (scenario-file key, AnytimeConfig field), in the order files are written.
CONFIG_KEYS = (("budget", "time_budget"), ("inflation", "initial_inflation"),
               ("step", "inflation_step"), ("final", "final_inflation"),
               ("tolerance", "goal_tolerance"))


def _pose(key: str, raw: str) -> Pose:
    parts = raw.split()
    if len(parts) not in (2, 3):
        raise ScenarioError(f"{key} must be 'x y [heading]'")
    try:
        x, y = int(parts[0]), int(parts[1])
        heading = int(parts[2]) if len(parts) == 3 else 0
    except ValueError as exc:
        raise ScenarioError(f"non-integer {key} component in {raw!r}") from exc
    return Pose(x, y, heading)


def parse_scenario(text: str, base_dir: str = ".") -> Scenario:
    """Read scenario text.  A ``stack builtin SPEC`` line is built by
    :func:`builtin_scenario`, passing the ``seed`` line if there is one; a
    ``stack file PATH`` is resolved against ``base_dir`` and needs ``start``
    and ``goal``."""
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

    for key in ("name", "stack", "modes"):
        if key not in fields:
            raise ScenarioError(f"scenario missing required key {key!r}")
    name = fields.pop("name")
    stack = fields.pop("stack")
    kind, _, stack_arg = stack.partition(" ")
    stack_arg = stack_arg.strip()
    if kind not in ("file", "builtin") or not stack_arg:
        raise ScenarioError(f"bad stack line {stack!r}")
    modes = tuple(PlannerMode(m.strip()) for m in fields.pop("modes").split(","))
    try:
        cfg = AnytimeConfig(**{attr: float(fields.pop(key))
                               for key, attr in CONFIG_KEYS if key in fields})
        repetitions = int(fields.pop("repetitions", "1"))
        seed = int(fields.pop("seed")) if "seed" in fields else None
    except ValueError as exc:
        raise ScenarioError(f"bad scenario value: {exc}") from exc
    poses = {key: _pose(key, fields.pop(key)) for key in ("start", "goal")
             if key in fields}
    if fields:
        raise ScenarioError(f"unknown scenario keys {sorted(fields)}")
    if kind == "builtin":
        sc = builtin_scenario(stack_arg, modes, cfg, repetitions, seed)
        return replace(sc, name=name, **poses)
    if len(poses) < 2:
        raise ScenarioError("a stack file scenario needs both start and goal")
    # A relative stack path is anchored at the scenario file's directory.
    source = StackSource("file", path=os.path.join(base_dir, stack_arg))
    return Scenario(name, source, poses["start"], poses["goal"], modes, cfg,
                    repetitions, seed or 0)


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
    out.extend(f"{key} {getattr(sc.cfg, attr)!r}" for key, attr in CONFIG_KEYS)
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


def plan_scenario(sc: Scenario, stack: HypothesisStack, clock=VirtualClock):
    """Plan every (mode, repetition) of ``sc`` on ``stack``, each with a fresh
    ``clock()``, and yield each run's ``(ResultRecord, PlanResult)``."""
    for mode in sc.modes:
        for rep in range(sc.repetitions):
            result = plan(mode, stack, sc.start, sc.goal, sc.cfg, clock=clock())
            duration = (result.trajectory.duration
                        if result.trajectory is not None else None)
            yield ResultRecord(
                sc.name, mode.value, stack.n, rep, result.status,
                result.planning_time, duration, result.expansions,
                result.reroutes, result.final_inflation, sc.seed), result


def run_scenario(sc: Scenario) -> list[ResultRecord]:
    """Execute every (mode, repetition) of one scenario with a virtual clock."""
    stack = sc.source.resolve()
    for label, pose in (("start", sc.start), ("goal", sc.goal)):
        if not stack.primary.in_bounds(*pose.cell()):
            raise ScenarioError(f"{sc.name}: {label} {pose.cell()} out of bounds")
        if stack.primary.is_lethal(*pose.cell()):
            raise ScenarioError(f"{sc.name}: {label} {pose.cell()} lethal in primary")
    return [record for record, _ in plan_scenario(sc, stack)]


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


# Results columns that hold a count, a time or an inflation: each must be
# finite and >= 0 (``path_duration`` may also be empty, for no plan).
_MEASURE_COLUMNS = ("hypotheses", "repetition", "planning_time", "path_duration",
                    "expansions", "reroutes", "final_inflation")


def read_records(path: str) -> list[ResultRecord]:
    with open(path, "r", encoding="ascii", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if tuple(header or ()) != RESULT_COLUMNS:
            raise ScenarioError(f"unexpected results header in {path}")
        records = []
        for row in reader:
            where = f"{path}:{reader.line_num}"
            if len(row) != len(RESULT_COLUMNS):
                raise ScenarioError(f"{where}: results row has {len(row)} fields, "
                                    f"expected {len(RESULT_COLUMNS)}")
            rec = ResultRecord(
                row[0], row[1], int(row[2]), int(row[3]), row[4],
                float(row[5]), float(row[6]) if row[6] else None,
                int(row[7]), int(row[8]), float(row[9]), int(row[10]))
            for column in _MEASURE_COLUMNS:
                value = getattr(rec, column)
                if value is not None and not 0 <= value < math.inf:
                    raise ScenarioError(f"{where}: {column} must be finite "
                                        f"and >= 0, got {value!r}")
            records.append(rec)
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
