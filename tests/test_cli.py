import math
import os
import subprocess
import sys

import pytest

import mhplan
from mhplan.cli import main
from mhplan.harness import builtin_scenario, read_records, save_scenario
from mhplan.search_core import AnytimeConfig

UNLIMITED = AnytimeConfig(time_budget=math.inf)


def run_cli(*args):
    """Run ``python -m mhplan.cli`` with ``args`` in a child process that
    imports the package from where this process found it."""
    src = os.path.dirname(os.path.dirname(mhplan.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, "-m", "mhplan.cli", *args],
                          capture_output=True, text=True, check=False,
                          env=dict(os.environ, PYTHONPATH=path))


def write_scenario(tmp_path, name, spec, modes):
    sc = builtin_scenario(spec, modes=modes, cfg=UNLIMITED)
    path = os.path.join(tmp_path, f"{name}.mhscen")
    save_scenario(sc, path)
    return path


def test_plan_prints_one_line_per_mode(capsys):
    rc = main(["plan", "fig3", "--modes", "SH,GEGRH", "--budget", "30"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("SH") and "solved" in lines[0]
    assert "cost=6.000" in lines[0]
    assert lines[1].startswith("GEGRH")
    assert "cost=6.500" in lines[1]


def test_plan_formats_missing_results(capsys):
    rc = main(["plan", "seal", "--modes", "VEH", "--budget", "30"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "no-plan" in out
    assert "cost=-" in out and "duration=-" in out


def test_plan_writes_records(tmp_path, capsys):
    out = os.path.join(tmp_path, "plan.csv")
    rc = main(["plan", "fig3", "--modes", "SH,VEH", "--budget", "30",
               "--out", out])
    assert rc == 0
    records = read_records(out)
    assert [r.mode for r in records] == ["SH", "VEH"]
    assert records[0].path_duration == 6.0


def test_plan_from_scenario_file(tmp_path, capsys):
    path = write_scenario(tmp_path, "case", "fig4", ("GEH",))
    rc = main(["plan", path])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("GEH")
    # Flags still override what the file says.
    rc = main(["plan", path, "--modes", "SH"])
    assert rc == 0
    assert capsys.readouterr().out.startswith("SH")


def test_plan_runs_each_mode_of_a_scenario_file_once(tmp_path, capsys):
    sc = builtin_scenario("fig3", modes=("SH", "GEGRH"), cfg=UNLIMITED,
                          repetitions=3)
    path = os.path.join(tmp_path, "reps.mhscen")
    save_scenario(sc, path)
    out = os.path.join(tmp_path, "reps.csv")
    assert main(["plan", path, "--out", out]) == 0
    assert len(capsys.readouterr().out.strip().splitlines()) == 2
    assert [(r.mode, r.repetition) for r in read_records(out)] == [("SH", 0), ("GEGRH", 0)]


@pytest.mark.parametrize("command", ["plan", "render"])
def test_scenario_file_refuses_seed(tmp_path, capsys, command):
    # A scenario file fixes its stack, seed included, so --seed would change
    # nothing; it is refused rather than ignored.
    path = write_scenario(tmp_path, "case", "clutter{size=16,n=2,seed=3}", ("SH",))
    assert main([command, path, "--seed", "9", "--out", str(tmp_path / "out")]) == 2
    assert "--seed applies to builtin scenarios" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "out")
    assert main(["plan", path]) == 0


def test_env_defaults_apply(monkeypatch, capsys):
    monkeypatch.setenv("MHPLAN_MODES", "SH")
    monkeypatch.setenv("MHPLAN_BUDGET", "30")
    assert main(["plan", "fig3"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("SH")


def test_flags_beat_env(monkeypatch, capsys):
    monkeypatch.setenv("MHPLAN_MODES", "SH,VEH,PEH")
    monkeypatch.setenv("MHPLAN_BUDGET", "30")
    assert main(["plan", "fig3", "--modes", "GEGRH"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("GEGRH")


def test_bad_env_value_aborts(monkeypatch):
    monkeypatch.setenv("MHPLAN_BUDGET", "soon")
    with pytest.raises(SystemExit):
        main(["plan", "fig3"])


def test_unknown_scenario_is_reported(capsys):
    rc = main(["plan", "nosuch"])
    assert rc == 2
    assert capsys.readouterr().err.startswith("mhplan: ")


@pytest.mark.parametrize("spec", ["clutter{size=inf}", "clutter{n=2.5,size=12}"])
def test_non_integer_builtin_parameter_is_reported(spec):
    # Refused before any stack is built, in a child process so that an
    # uncaught exception would show as its traceback and exit status 1, and
    # with nothing planned under a name that says another count than it ran.
    proc = run_cli("plan", spec, "--modes", "SH")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("mhplan: ") and "must be a finite integer" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("command", ["plan", "render"])
@pytest.mark.parametrize("spec", ["clutter{size=3}", "clutter{density=0.99}"])
def test_generation_failure_is_reported(command, spec, tmp_path):
    # The generator gives up on a stack it cannot draw; the CLI reports it
    # like any other bad scenario, in a child process so that an uncaught
    # exception would show as its traceback and exit status 1.
    proc = run_cli(command, spec, "--modes", "SH", "--out", str(tmp_path / "out"))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("mhplan: could not generate ")
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "out").exists()


def test_non_finite_inflation_is_rejected(capsys):
    # An infinite inflation never steps down to the final one; the config
    # refuses it before any search starts.
    rc = main(["plan", "fig3", "--modes", "SH", "--budget", "30", "--inflation", "inf"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("mhplan: ") and "initial inflation must be finite" in err


def test_suite_runs_directory(tmp_path, capsys):
    write_scenario(tmp_path, "a", "fig3", ("SH",))
    write_scenario(tmp_path, "b", "clutter{size=12,n=2}", ("VEH",))
    out = os.path.join(tmp_path, "results.csv")
    rc = main(["suite", str(tmp_path), "--out", out])
    assert rc == 0
    assert "2 scenarios" in capsys.readouterr().out
    records = read_records(out)
    assert [r.scenario for r in records] == ["fig3", "clutter{size=12,n=2}"]


def test_suite_without_out_prints_rows(tmp_path, capsys):
    write_scenario(tmp_path, "a", "fig3", ("SH",))
    rc = main(["suite", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "fig3,SH,2,0,solved" in out


def test_suite_flags_error_scenarios(tmp_path, capsys):
    write_scenario(tmp_path, "a", "fig3", ("SH",))
    with open(os.path.join(tmp_path, "z.mhscen"), "w") as fh:
        fh.write("MHSCEN 1\nname z\nstack builtin fig3\nmodes SH\ngoal 99 99\n")
    out = os.path.join(tmp_path, "results.csv")
    rc = main(["suite", str(tmp_path), "--out", out])
    assert rc == 1
    assert "error:" in capsys.readouterr().err
    statuses = [r.status for r in read_records(out)]
    assert statuses[0] == "solved"
    assert statuses[1].startswith("error: ")


def test_suite_parallel_matches_serial(tmp_path, capsys):
    write_scenario(tmp_path, "a", "fig3", ("SH", "GEGRH"))
    write_scenario(tmp_path, "b", "seal", ("GEH",))
    serial = os.path.join(tmp_path, "serial.csv")
    parallel = os.path.join(tmp_path, "parallel.csv")
    assert main(["suite", str(tmp_path), "--out", serial]) == 0
    assert main(["suite", str(tmp_path), "--out", parallel, "--jobs", "2"]) == 0
    capsys.readouterr()
    with open(serial, "rb") as a, open(parallel, "rb") as b:
        assert a.read() == b.read()


def test_suite_rejects_fewer_than_one_job(tmp_path, capsys):
    write_scenario(tmp_path, "a", "fig3", ("SH",))
    for jobs in ("0", "-3"):
        assert main(["suite", str(tmp_path), "--jobs", jobs]) == 2
        assert "jobs must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("flag", [("--modes", "SH"), ("--budget", "0.001"),
                                  ("--seed", "9"), ("--inflation", "3")])
def test_suite_refuses_planning_flags(tmp_path, capsys, flag):
    # A suite's scenarios carry their own modes, seeds and configs, so these
    # flags would change nothing; argparse refuses them instead.
    write_scenario(tmp_path, "a", "fig3", ("SH",))
    with pytest.raises(SystemExit) as exc:
        main(["suite", str(tmp_path), *flag])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_summarize_round_trip(tmp_path, capsys):
    write_scenario(tmp_path, "a", "fig3", ("SH", "VEH"))
    csv_path = os.path.join(tmp_path, "results.csv")
    assert main(["suite", str(tmp_path), "--out", csv_path]) == 0
    capsys.readouterr()
    assert main(["summarize", csv_path]) == 0
    table = capsys.readouterr().out
    assert table.splitlines()[0].startswith("mode")
    assert "SH" in table and "VEH" in table
    table_path = os.path.join(tmp_path, "summary.txt")
    assert main(["summarize", csv_path, "--out", table_path]) == 0
    with open(table_path) as fh:
        assert fh.read() == table


def test_summarize_missing_file(capsys):
    rc = main(["summarize", "/definitely/not/here.csv"])
    assert rc == 2
    assert "mhplan:" in capsys.readouterr().err


def test_render_deterministic_output(tmp_path, capsys):
    out = os.path.join(tmp_path, "fig3.svg")
    argv = ["render", "fig3", "--modes", "SH,GEGRH", "--budget", "30",
            "--out", out]
    assert main(argv) == 0
    assert capsys.readouterr().out.strip() == out
    with open(out, "rb") as fh:
        first = fh.read()
    assert main(argv) == 0
    with open(out, "rb") as fh:
        assert fh.read() == first
    assert first.startswith(b"<svg")


def test_render_default_name(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["render", "seal", "--modes", "SH", "--budget", "30"]) == 0
    assert capsys.readouterr().out.strip() == "seal.svg"
    assert os.path.exists(os.path.join(tmp_path, "seal.svg"))


def test_module_entry_point(tmp_path):
    out = os.path.join(tmp_path, "cli.csv")
    proc = run_cli("plan", "fig3", "--modes", "SH", "--budget", "30", "--out", out)
    assert proc.returncode == 0
    assert proc.stdout.startswith("SH")
    assert read_records(out)[0].mode == "SH"
