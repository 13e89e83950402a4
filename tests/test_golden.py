"""Frozen result rows of every planner mode on seeded clutter stacks.

Each row holds the status, virtual planning time, path duration, expansion
and reroute counts and final inflation of one plan, so any change to a search
decision (edge order, costs, tie-breaks, duplicate detection, reroute budget)
moves at least one literal here.  A change meant to speed the planner up must
leave every row as it is; a change meant to alter a decision updates the rows
and says in CHANGES.md which ones moved and why.
"""

import math

import pytest

from mhplan.harness import builtin_scenario, run_scenario
from mhplan.search_core import AnytimeConfig

# Default AnytimeConfig (1 s virtual budget, inflation 2.0 -> 1.0), VirtualClock.
GOLDEN = {
    "clutter{size=24,n=3,seed=3,density=0.15}": [
        ["SH", "3", "0", "solved", "0.004699999999999999", "19.5", "19", "0", "1.0", "3"],
        ["VEH", "3", "0", "solved", "0.005549999999999994", "20.5", "19", "0", "1.0", "3"],
        ["PEH", "3", "0", "solved", "0.01724999999999998", "19.5", "47", "99", "1.0", "3"],
        ["GEH", "3", "0", "solved", "0.009349999999999971", "19.5", "185", "2", "1.0", "3"],
        ["GEGRH", "3", "0", "solved", "0.00959999999999997", "19.5", "189", "3", "1.0", "3"],
    ],
    "clutter{size=24,n=3,seed=2,density=0.15}": [
        ["SH", "3", "0", "solved", "0.008049999999999979", "21.5", "19", "0", "1.0", "2"],
        ["VEH", "3", "0", "solved", "0.007699999999999981", "23.5", "19", "0", "1.0", "2"],
        ["PEH", "3", "0", "solved", "0.08839999999999842", "21.5", "412", "332", "1.0", "2"],
        ["GEH", "3", "0", "solved", "0.034900000000000486", "21.5", "693", "5", "1.0", "2"],
        ["GEGRH", "3", "0", "solved", "0.035900000000000515", "21.5", "697", "14", "1.0", "2"],
    ],
    "clutter{size=32,n=3,seed=12,density=0.15}": [
        ["SH", "3", "0", "solved", "0.0061499999999999905", "27.5", "27", "0", "1.0", "12"],
        ["VEH", "3", "0", "solved", "0.007749999999999981", "28.5", "27", "0", "1.0", "12"],
        ["PEH", "3", "0", "solved", "0.013449999999999946", "27.5", "28", "43", "1.0", "12"],
        ["GEH", "3", "0", "solved", "0.01860000000000002", "27.5", "325", "4", "1.0", "12"],
        ["GEGRH", "3", "0", "solved", "0.017299999999999982", "27.5", "284", "6", "1.0", "12"],
    ],
}


@pytest.mark.parametrize("spec", sorted(GOLDEN))
def test_result_rows_are_frozen(spec):
    rows = [rec.row() for rec in run_scenario(builtin_scenario(spec))]
    assert rows == [[spec] + row for row in GOLDEN[spec]]


# Stacks shaped like the benchmark's workloads, planned with their modes and
# budgets: repair-static (40², n=3, density 0.12, shift 2, default 1 s budget;
# PEH, GEH, GEGRH) and open-field (48², n=5, unlimited budget; SH, VEH).
WORKLOAD_GOLDEN = {
    "clutter{size=40,n=3,seed=10,density=0.12,shift=2}": (("PEH", "GEH", "GEGRH"), None, [
        ["PEH", "3", "0", "solved", "0.01124999999999996", "35.5", "36", "125", "1.0", "10"],
        ["GEH", "3", "0", "solved", "0.031350000000000385", "35.5", "612", "6", "1.0", "10"],
        ["GEGRH", "3", "0", "solved", "0.045300000000000784", "35.5", "538", "6", "1.0", "10"],
    ]),
    "clutter{size=48,n=5,seed=2,density=0.12,shift=2}": (
        ("SH", "VEH"), AnytimeConfig(time_budget=math.inf), [
            ["SH", "5", "0", "solved", "0.01860000000000002", "48.5", "43", "0", "1.0", "2"],
            ["VEH", "5", "0", "solved", "0.17824999999998853", "70.0", "2628", "0", "1.0", "2"],
        ]),
}


@pytest.mark.parametrize("spec", sorted(WORKLOAD_GOLDEN))
def test_workload_shaped_rows_are_frozen(spec):
    modes, cfg, expected = WORKLOAD_GOLDEN[spec]
    rows = [rec.row() for rec in run_scenario(builtin_scenario(spec, modes=modes, cfg=cfg))]
    assert rows == [[spec] + row for row in expected]
