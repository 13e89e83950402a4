import math
import random

import pytest

from mhplan.costmap import CostMap, HypothesisStack, gen_case1, gen_clutter
from mhplan.lattice import Pose, default_library
from mhplan.oracle import (MAX_ORACLE_DIM, OracleSizeError, dijkstra_reference,
                           veh_reference)
from mhplan.planners import plan
from mhplan.search_core import AnytimeConfig

LIB = default_library()


def free(w, h):
    return CostMap(w, h, 1.0, (0,) * (w * h))


def test_diagonal_run_cost():
    res = dijkstra_reference(free(5, 5), LIB, Pose(0, 0, 7), Pose(4, 4, 7))
    assert res.reachable
    assert res.optimal_cost == 6.0  # four diagonal arcs at 1.5 each
    assert [p.cell() for p in res.optimal_path] == [(i, i) for i in range(5)]


def test_cardinal_run_cost():
    res = dijkstra_reference(free(5, 5), LIB, Pose(0, 2, 0), Pose(4, 2, 0))
    assert res.optimal_cost == 4.0
    assert all(p.heading == 0 for p in res.optimal_path)


def test_walled_goal_unreachable():
    wall = {(2, y): 255 for y in range(5)}
    res = dijkstra_reference(free(5, 5).with_cells(wall), LIB,
                             Pose(0, 2, 0), Pose(4, 2, 0))
    assert res == type(res)(None, None, False)


def test_size_limit():
    big = free(MAX_ORACLE_DIM + 1, 4)
    with pytest.raises(OracleSizeError):
        dijkstra_reference(big, LIB, Pose(0, 0, 0), Pose(1, 0, 0))
    # Exactly at the limit is fine.
    edge = free(MAX_ORACLE_DIM, 4)
    assert dijkstra_reference(edge, LIB, Pose(0, 0, 0), Pose(1, 0, 0)).reachable


def test_out_of_bounds_endpoint():
    with pytest.raises(ValueError, match="outside"):
        dijkstra_reference(free(5, 5), LIB, Pose(0, 0, 0), Pose(9, 0, 0))


def test_veh_degenerates_to_single_map():
    rng = random.Random(5)
    for _ in range(20):
        cells = tuple(255 if rng.random() < 0.2 else 0 for _ in range(64))
        cmap = CostMap(8, 8, 1.0, cells).with_cells({(0, 0): 0, (7, 7): 0})
        a = dijkstra_reference(cmap, LIB, Pose(0, 0, 0), Pose(7, 7, 0))
        b = veh_reference(HypothesisStack((cmap,)), LIB, Pose(0, 0, 0), Pose(7, 7, 0))
        assert a == b


def test_veh_detour_around_union_of_obstacles():
    stack = gen_case1(13, 13, (6, 6))
    res = veh_reference(stack, LIB, Pose(5, 6, 1), Pose(9, 2, 1))
    assert res.reachable
    assert res.optimal_cost == 6.5  # one cardinal step dodges the contested cell


def test_deterministic():
    stack = gen_clutter(10, 10, 3, 0.2, 2, 1, keep_free=((0, 0), (9, 9)))
    a = veh_reference(stack, LIB, Pose(0, 0, 0), Pose(9, 9, 0))
    b = veh_reference(stack, LIB, Pose(0, 0, 0), Pose(9, 9, 0))
    assert a == b


def test_planner_matches_veh_oracle():
    cfg = AnytimeConfig(initial_inflation=1.0, time_budget=math.inf)
    rng = random.Random(71)
    solved = 0
    for seed in range(25):
        stack = gen_clutter(9, 9, seed, 0.15, 2, 1, keep_free=((1, 1), (7, 7)))
        start, goal = Pose(1, 1, rng.randrange(8)), Pose(7, 7, rng.randrange(8))
        ref = veh_reference(stack, LIB, start, goal)
        res = plan("VEH", stack, start, goal, cfg)
        if ref.reachable:
            assert res.status == "solved"
            assert res.cost == pytest.approx(ref.optimal_cost, abs=1e-9)
            solved += 1
        else:
            assert res.status == "no-plan"
    assert solved > 10
