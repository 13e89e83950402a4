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
    # The child imports the package from where this process found it.
    src = os.path.dirname(os.path.dirname(mhplan.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "mhplan.cli", "plan", "fig3", "--modes", "SH",
         "--budget", "30", "--out", out],
        capture_output=True, text=True, check=False,
        env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0
    assert proc.stdout.startswith("SH")
    assert read_records(out)[0].mode == "SH"
