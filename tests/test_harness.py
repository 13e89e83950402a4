import functools
import math
import os
import random
from types import SimpleNamespace

import numpy as np
import pytest

from mhplan.costmap import gen_case1, save_stack
from mhplan.harness import (RESULT_COLUMNS, ResultRecord, Scenario,
                            ScenarioError, StackSource, builtin_scenario,
                            clutter_endpoints, collect_scenarios,
                            dumps_scenario, format_summary, load_scenario,
                            parse_builtin, parse_scenario, plan_divergence,
                            read_records, run_scenario, run_suite,
                            save_scenario, summarize, write_records)
from mhplan.lattice import Pose, Trajectory
from mhplan.planners import MODES, PlannerMode
from mhplan.search_core import AnytimeConfig

UNLIMITED = AnytimeConfig(time_budget=math.inf)


def traj_of(cells):
    if len(cells) == 1:
        return Trajectory((), 0.0, Pose(*cells[0], 0))
    steps = tuple((Pose(*a, 0), -1, Pose(*b, 0)) for a, b in zip(cells, cells[1:]))
    return Trajectory(steps, float(len(steps)), Pose(*cells[0], 0))


# -- scenario specs ----------------------------------------------------------


def test_parse_builtin():
    assert parse_builtin("fig3") == ("fig3", {})
    name, params = parse_builtin("clutter{n=3, seed=7,density=0.2}")
    assert name == "clutter"
    assert params == {"n": 3.0, "seed": 7.0, "density": 0.2}
    for bad in ("nope", "clutter{n=3", "clutter{n}", "clutter{n=x}"):
        with pytest.raises(ScenarioError):
            parse_builtin(bad)


def test_builtin_scenario_poses():
    sc = builtin_scenario("fig3")
    assert (sc.start, sc.goal) == (Pose(5, 6, 1), Pose(9, 2, 1))
    assert sc.modes == tuple(PlannerMode(m) for m in MODES)
    cl = builtin_scenario("clutter{size=16}", seed=9)
    assert (cl.start, cl.goal) == clutter_endpoints(16)
    assert cl.seed == 9
    assert dict(cl.source.params)["seed"] == 9.0


def test_builtin_rejects_stray_params():
    sc = builtin_scenario("fig3{size=9}")
    with pytest.raises(ScenarioError):
        sc.source.resolve()


def test_stack_source_validation():
    with pytest.raises(ScenarioError):
        StackSource("file")
    with pytest.raises(ScenarioError):
        StackSource("mystery")


def test_scenario_validation():
    src = StackSource("fig3")
    with pytest.raises(ScenarioError):
        Scenario("s", src, Pose(0, 0, 0), Pose(1, 1, 0), ())
    with pytest.raises(ScenarioError):
        Scenario("s", src, Pose(0, 0, 0), Pose(1, 1, 0),
                 (PlannerMode.SH,), repetitions=0)


def test_scenario_file_round_trip(tmp_path):
    sc = builtin_scenario("clutter{n=3,density=0.1}", modes=("SH", "GEGRH"),
                          cfg=AnytimeConfig(time_budget=math.inf,
                                            initial_inflation=1.5,
                                            inflation_step=0.5,
                                            final_inflation=1.25,
                                            goal_tolerance=1.0),
                          repetitions=3, seed=4)
    path = os.path.join(tmp_path, "case.mhscen")
    save_scenario(sc, path)
    assert load_scenario(path) == sc
    # Parameters that a short float format would round come back exactly.
    precise = builtin_scenario("clutter{seed=12345678,density=0.123456789}")
    text = dumps_scenario(precise)
    assert "stack builtin clutter{density=0.123456789,seed=12345678}" in text
    assert parse_scenario(text) == precise


def test_scenario_file_with_stack_file(tmp_path):
    save_stack(gen_case1(13, 13, (6, 6)), os.path.join(tmp_path, "maps.mhstack"))
    text = "\n".join(["MHSCEN 1", "name filecase", "stack file maps.mhstack",
                      "start 5 6 1", "goal 9 2 1", "modes SH", ""])
    path = os.path.join(tmp_path, "filecase.mhscen")
    with open(path, "w") as fh:
        fh.write(text)
    sc = load_scenario(path)
    assert sc.source.kind == "file"
    stack = sc.source.resolve()
    assert (stack.n, stack.width, stack.height) == (2, 13, 13)
    # Relative stack paths anchor at the scenario file, not the cwd.
    assert os.path.dirname(sc.source.path) == str(tmp_path)


def test_parse_scenario_defaults_and_errors():
    ok = parse_scenario("MHSCEN 1\nname x\nstack builtin fig4\nmodes SH\n")
    assert (ok.start, ok.goal) == (Pose(3, 10, 0), Pose(17, 10, 0))
    assert ok.cfg == AnytimeConfig()
    bad = [
        "name x\nstack builtin fig3\nmodes SH\n",           # missing magic
        "MHSCEN 1\nname x\nmodes SH\n",                      # missing stack
        "MHSCEN 1\nname x\nstack builtin fig3\n",            # missing modes
        "MHSCEN 1\nname x\nstack builtin fig3\nmodes SH\nname y\n",
        "MHSCEN 1\nname x\nstack builtin fig3\nmodes SH\ncolor red\n",
        "MHSCEN 1\nname x\nstack builtin fig3\nmodes SH\nstart 1\n",
        "MHSCEN 1\nname x\nstack builtin fig3\nmodes SH\nbudget soon\n",
        "MHSCEN 1\nname x\nstack builtin fig3\nmodes QQ\n",
    ]
    for text in bad:
        with pytest.raises(ValueError):
            parse_scenario(text)


@pytest.mark.parametrize("spec", ["fig3", "fig4", "seal", "clutter{size=16}"])
def test_scenario_file_default_poses_match_builtin(spec):
    sc = parse_scenario(f"MHSCEN 1\nname x\nstack builtin {spec}\nmodes SH\n")
    ref = builtin_scenario(spec)
    assert (sc.start, sc.goal) == (ref.start, ref.goal)


def test_dumps_is_single_trailing_newline():
    text = dumps_scenario(builtin_scenario("seal"))
    assert text.startswith("MHSCEN 1\n")
    assert text.endswith("\n") and not text.endswith("\n\n")


# -- execution ---------------------------------------------------------------


def test_run_scenario_records():
    sc = builtin_scenario("fig3", modes=("SH",), cfg=UNLIMITED, repetitions=2)
    records = run_scenario(sc)
    assert [r.repetition for r in records] == [0, 1]
    for rec in records:
        assert rec.scenario == "fig3"
        assert rec.mode == "SH"
        assert rec.hypotheses == 2
        assert rec.status == "solved"
        assert rec.path_duration == 6.0
        assert rec.final_inflation == 1.0
    # Virtual clocks restart per call, so repetitions are exact repeats.
    assert records[0] == records[1].__class__(**{**records[1].__dict__,
                                                 "repetition": 0})


def test_run_scenario_mode_spread():
    sc = builtin_scenario("fig3", cfg=UNLIMITED)
    by_mode = {r.mode: r for r in run_scenario(sc)}
    assert set(by_mode) == set(MODES)
    assert by_mode["VEH"].path_duration >= by_mode["SH"].path_duration
    assert by_mode["GEGRH"].expansions < by_mode["GEH"].expansions


def test_run_scenario_rejects_bad_endpoints(tmp_path):
    sc = Scenario("oob", StackSource("fig3"), Pose(5, 6, 1), Pose(40, 2, 1),
                  (PlannerMode.SH,))
    with pytest.raises(ScenarioError, match="out of bounds"):
        run_scenario(sc)
    blocked = gen_case1(13, 13, (6, 6))
    blocked = blocked.__class__((blocked.primary.with_cells({(5, 6): 255}),
                                 blocked.maps[1]))
    path = os.path.join(tmp_path, "blocked.mhstack")
    save_stack(blocked, path)
    sc = Scenario("hot", StackSource("file", path=path), Pose(5, 6, 1),
                  Pose(9, 2, 1), (PlannerMode.SH,))
    with pytest.raises(ScenarioError, match="lethal"):
        run_scenario(sc)


def test_run_suite_collects_errors_in_order(tmp_path):
    good = builtin_scenario("fig3", modes=("SH",), cfg=UNLIMITED)
    bad = Scenario("broken", StackSource("fig3"), Pose(5, 6, 1), Pose(40, 2, 1),
                   (PlannerMode.SH,))
    out = os.path.join(tmp_path, "results.csv")
    suite = run_suite([good, bad], out_path=out)
    assert not suite.ok
    assert suite.errors == [("broken", suite.errors[0][1])]
    assert "out of bounds" in suite.errors[0][1]
    assert [r.scenario for r in suite.records] == ["fig3", "broken"]
    assert suite.records[-1].mode == "-"
    assert suite.records[-1].status.startswith("error: ")
    assert read_records(out) == suite.records


def test_run_suite_is_deterministic():
    entries = [builtin_scenario("fig3", modes=("SH", "GEGRH"), cfg=UNLIMITED),
               builtin_scenario("clutter{size=12,n=2}", modes=("VEH",),
                                cfg=UNLIMITED)]
    a = run_suite(entries)
    b = run_suite(entries)
    assert a.records == b.records
    assert a.ok and b.ok


def test_run_suite_empty():
    suite = run_suite([])
    assert suite.ok and suite.records == []


def test_collect_scenarios(tmp_path):
    for name in ("b.mhscen", "a.mhscen", "notes.txt"):
        with open(os.path.join(tmp_path, name), "w") as fh:
            fh.write("x\n")
    found = collect_scenarios(str(tmp_path))
    assert [os.path.basename(p) for p in found] == ["a.mhscen", "b.mhscen"]
    assert collect_scenarios("solo.mhscen") == ["solo.mhscen"]


# -- records files -----------------------------------------------------------


def test_records_round_trip(tmp_path):
    records = [
        ResultRecord("s", "SH", 2, 0, "solved", 0.00315, 6.0, 63, 0, 1.0, 7),
        ResultRecord("s", "VEH", 2, 0, "no-plan", 0.0761, None, 1522, 0, 1.0, 7),
        ResultRecord("x", "-", 0, 0, "error: boom", 0.0, None, 0, 0, 0.0, 0),
    ]
    path = os.path.join(tmp_path, "r.csv")
    write_records(records, path)
    assert read_records(path) == records
    with open(path) as fh:
        header = fh.readline().strip()
    assert header == ",".join(RESULT_COLUMNS)


def test_read_records_validates(tmp_path):
    path = os.path.join(tmp_path, "bad.csv")
    with open(path, "w") as fh:
        fh.write("who,what\n1,2\n")
    with pytest.raises(ScenarioError, match="header"):
        read_records(path)
    with open(path, "w") as fh:
        fh.write(",".join(RESULT_COLUMNS) + "\nonly,three,cols\n")
    with pytest.raises(ScenarioError, match="row"):
        read_records(path)


# -- summaries ---------------------------------------------------------------


def fake_record(mode, n_hyp, time, duration, status="solved"):
    return ResultRecord("s", mode, n_hyp, 0, status, time, duration, 1, 0, 1.0, 0)


def test_summary_matches_numpy():
    rng = random.Random(17)
    for trial in range(20):
        n = rng.randrange(2, 40)
        times = [rng.uniform(0.001, 2.0) for _ in range(n)]
        records = [fake_record("SH", 2, t, 2 * t) for t in times]
        [row] = summarize(records)
        s = row.planning_time
        arr = np.array(times)
        assert s.count == n
        assert s.mean == pytest.approx(arr.mean())
        assert s.median == pytest.approx(np.median(arr))
        assert s.ci95 == pytest.approx(1.96 * arr.std(ddof=1) / math.sqrt(n))
        assert s.q1 == pytest.approx(np.quantile(arr, 0.25, method="linear"))
        assert s.q3 == pytest.approx(np.quantile(arr, 0.75, method="linear"))
        iqr = s.q3 - s.q1
        assert s.whisker_lo == min(v for v in times if v >= s.q1 - 1.5 * iqr)
        assert s.whisker_hi == max(v for v in times if v <= s.q3 + 1.5 * iqr)
        assert row.path_duration.mean == pytest.approx(2 * arr.mean())


def test_summary_single_sample():
    [row] = summarize([fake_record("SH", 2, 0.25, 4.0)])
    s = row.planning_time
    assert (s.mean, s.median, s.ci95) == (0.25, 0.25, 0.0)
    assert s.q1 == s.q3 == s.whisker_lo == s.whisker_hi == 0.25
    assert (row.solved, row.total) == (1, 1)


def test_summary_groups_and_filters():
    records = [
        fake_record("SH", 2, 0.1, 5.0),
        fake_record("SH", 2, 0.2, None, status="no-plan"),
        fake_record("SH", 3, 0.3, 7.0),
        fake_record("VEH", 2, 0.4, 9.0),
        fake_record("-", 0, 0.0, None, status="error: nope"),
    ]
    rows = summarize(records)
    assert [(r.mode, r.hypotheses) for r in rows] == [("SH", 2), ("SH", 3), ("VEH", 2)]
    sh2 = rows[0]
    assert (sh2.solved, sh2.total) == (1, 2)
    assert sh2.path_duration.count == 1  # unsolved runs carry no duration
    with pytest.raises(ValueError):
        summarize([fake_record("-", 0, 0.0, None, status="error: nope")])


def test_summary_all_unsolved_group():
    [row] = summarize([fake_record("VEH", 2, 0.5, None, status="no-plan")])
    assert row.path_duration is None
    text = format_summary([row])
    assert "VEH" in text and " -" in text


def test_format_summary_layout():
    rows = summarize([fake_record("SH", 2, 0.1, 5.0),
                      fake_record("SH", 2, 0.3, 6.5)])
    text = format_summary(rows)
    lines = text.splitlines()
    assert lines[0].split()[:3] == ["mode", "hyp", "solved"]
    assert lines[1].startswith("SH")
    assert "2/2" in lines[1]


# -- trajectory comparison ---------------------------------------------------


def frechet_oracle(pa, pb):
    @functools.lru_cache(maxsize=None)
    def rec(i, j):
        d = math.dist(pa[i], pb[j])
        if i == 0 and j == 0:
            return d
        if i == 0:
            return max(rec(0, j - 1), d)
        if j == 0:
            return max(rec(i - 1, 0), d)
        return max(min(rec(i - 1, j), rec(i - 1, j - 1), rec(i, j - 1)), d)

    return rec(len(pa) - 1, len(pb) - 1)


def test_plan_divergence_basics():
    line = traj_of([(x, 2) for x in range(6)])
    shifted = traj_of([(x, 5) for x in range(6)])
    assert plan_divergence(line, line) == 0.0
    assert plan_divergence(line, shifted) == 3.0
    assert plan_divergence(line, shifted, resolution=0.5) == 1.5
    assert plan_divergence(traj_of([(0, 0)]), traj_of([(3, 4)])) == 5.0
    with pytest.raises(ValueError):
        plan_divergence(SimpleNamespace(poses=()), line)


def test_plan_divergence_matches_recursive_oracle():
    rng = random.Random(29)
    for _ in range(60):
        def walk():
            x, y = rng.randrange(10), rng.randrange(10)
            cells = [(x, y)]
            for _ in range(rng.randrange(1, 9)):
                x += rng.choice((-1, 0, 1))
                y += rng.choice((-1, 0, 1))
                cells.append((x, y))
            return cells

        a, b = walk(), walk()
        got = plan_divergence(traj_of(a), traj_of(b))
        assert got == pytest.approx(frechet_oracle(tuple(a), tuple(b)))
        assert got == pytest.approx(plan_divergence(traj_of(b), traj_of(a)))
