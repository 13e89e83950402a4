import math
from statistics import fmean
from types import SimpleNamespace

import pytest

from mhplan.costmap import CostMap, HypothesisStack, gen_case1, gen_case2, gen_clutter
from mhplan.histories import REROUTED
from mhplan.lattice import Pose, default_library
from mhplan.oracle import dijkstra_reference
from mhplan.planners import (MODES, PlannerMode, Rerouter, plan, plan_geh,
                             plan_gegrh, plan_peh, plan_sh, plan_veh, reroute)
from mhplan.search_core import AnytimeConfig, SearchTrace, VirtualClock

LIB = default_library()
UNLIMITED = AnytimeConfig(time_budget=math.inf)
GREEDY_FREE = AnytimeConfig(initial_inflation=1.0, time_budget=math.inf)

# Two maps that disagree at a single cell sitting on the diagonal shortcut.
CASE1 = gen_case1(13, 13, (6, 6))
CASE1_START, CASE1_GOAL = Pose(5, 6, 1), Pose(9, 2, 1)

# A wall appears in the older hypothesis across the straight corridor.
CASE2 = gen_case2(20, 20, (10, 6), 9, orientation="v", thickness=2)
CASE2_START, CASE2_GOAL = Pose(3, 10, 0), Pose(17, 10, 0)

DIRECT_CELLS = [(5, 6), (6, 5), (7, 4), (8, 3), (9, 2)]
DETOUR_CELLS = [(5, 6), (5, 5), (6, 4), (7, 3), (8, 2), (9, 2)]


def sealed_goal_stack():
    """Secondary hypothesis walls the goal cell in completely."""
    free = CostMap(16, 16, 1.0, (0,) * 256)
    ring = {(12 + dx, 8 + dy): 255
            for dx in range(-2, 3) for dy in range(-2, 3)
            if max(abs(dx), abs(dy)) == 2}
    return HypothesisStack((free, free.with_cells(ring)))


def cells_of(result):
    return [p.cell() for p in result.trajectory.poses]


# -- single contested cell ---------------------------------------------------


def test_case1_sh_cuts_through_contested_cell():
    res = plan_sh(CASE1, CASE1_START, CASE1_GOAL, UNLIMITED)
    assert res.status == "solved"
    assert res.cost == 6.0
    assert cells_of(res) == DIRECT_CELLS


def test_case1_veh_detours():
    res = plan_veh(CASE1, CASE1_START, CASE1_GOAL, UNLIMITED)
    assert res.status == "solved"
    assert res.cost == 6.5
    assert cells_of(res) == DETOUR_CELLS


def test_case1_peh_matches_veh_via_repairs():
    res = plan_peh(CASE1, CASE1_START, CASE1_GOAL, UNLIMITED)
    assert res.status == "solved"
    assert res.cost == 6.5
    assert cells_of(res) == DETOUR_CELLS
    assert res.reroutes == 4


def test_case1_geh_pays_for_late_reconciliation():
    # The averaged goal edge keeps the direct plan but prices in the detour
    # of the disagreeing hypothesis, and the equal-g detour candidate stays
    # shadowed behind the already-closed direct history.
    res = plan_geh(CASE1, CASE1_START, CASE1_GOAL, UNLIMITED)
    assert res.status == "solved"
    assert res.cost == 8.5
    assert res.duration == 6.0
    assert cells_of(res) == DIRECT_CELLS


def test_case1_revision_recovers_the_consistent_plan():
    tr_geh, tr_rev = SearchTrace(), SearchTrace()
    geh = plan_geh(CASE1, CASE1_START, CASE1_GOAL, UNLIMITED, trace=tr_geh)
    rev = plan_gegrh(CASE1, CASE1_START, CASE1_GOAL, UNLIMITED, trace=tr_rev)
    assert rev.status == "solved"
    assert rev.cost == 6.5
    assert cells_of(rev) == DETOUR_CELLS
    assert rev.cost < geh.cost
    assert rev.expansions < geh.expansions
    assert len(tr_rev.revisions) >= 1
    assert not tr_geh.revisions


def test_case1_goal_updates_average_their_terms():
    tr = SearchTrace()
    plan_geh(CASE1, CASE1_START, CASE1_GOAL, UNLIMITED, trace=tr)
    assert tr.goal_updates
    for _nid, terms, new_edge in tr.goal_updates:
        assert len(terms) >= 2  # direct goal edge plus one term per pending hyp
        assert new_edge == pytest.approx(fmean(terms))


def test_case1_peh_g_is_mean_of_tallies():
    tr = SearchTrace()
    plan_peh(CASE1, CASE1_START, CASE1_GOAL, UNLIMITED, trace=tr)
    repaired = 0
    for node in tr.nodes.values():
        assert node.g == pytest.approx(fmean(node.hyp_g))
        for rec in node.edges or ():
            if rec is not None and rec.kind == REROUTED:
                repaired += 1
                assert rec.detour is not None
                assert rec.cost == rec.detour.duration
    assert repaired > 0


# -- wall in the older hypothesis --------------------------------------------


def test_case2_mode_spread():
    sh = plan_sh(CASE2, CASE2_START, CASE2_GOAL, UNLIMITED)
    veh = plan_veh(CASE2, CASE2_START, CASE2_GOAL, UNLIMITED)
    geh = plan_geh(CASE2, CASE2_START, CASE2_GOAL, UNLIMITED)
    assert sh.cost == 14.0
    assert veh.cost == 19.0  # forced around the wall in every hypothesis
    assert veh.trajectory.collision_free(CASE2.maps[0], LIB)
    assert veh.trajectory.collision_free(CASE2.maps[1], LIB)
    assert geh.cost == 15.0
    assert geh.duration == 14.0  # executes the primary-direct corridor


def test_case2_revision_event_is_sound():
    tr = SearchTrace()
    res = plan_gegrh(CASE2, CASE2_START, CASE2_GOAL, UNLIMITED, trace=tr)
    assert res.status == "solved"
    assert len(tr.revisions) == 1
    ev = tr.revisions[0]

    goal = tr.nodes[ev.goal_nid]
    nd = tr.nodes[ev.divergence_nid]
    assert goal.parent is not None and goal.parent.nid == ev.former_parent_nid
    assert nd.parent is not None and nd.parent.nid == ev.former_parent_nid
    assert nd.invalid

    def touches_divergence(nid):
        node = tr.nodes[nid]
        while node is not None:
            if node.nid == ev.divergence_nid:
                return True
            node = node.parent
        return False

    for nid in ev.open_nids + ev.kept_nids:
        assert not touches_divergence(nid)
    for nid, _pose, _g in tr.expansions[ev.expansion_index:]:
        assert not touches_divergence(nid)


# -- goal unreachable in one hypothesis --------------------------------------


def test_sealed_goal_behaviour():
    stack = sealed_goal_stack()
    start, goal = Pose(2, 8, 0), Pose(12, 8, 0)
    assert plan_veh(stack, start, goal, UNLIMITED).status == "no-plan"
    sh = plan_sh(stack, start, goal, UNLIMITED)
    peh = plan_peh(stack, start, goal, UNLIMITED)
    assert sh.cost == peh.cost == 10.0
    for res in (plan_geh(stack, start, goal, UNLIMITED),
                plan_gegrh(stack, start, goal, UNLIMITED)):
        assert res.status == "solved"
        assert res.duration == 10.0
        # Unreachable secondary charged at triple the goal edge: (10+12)/2 - 9.
        assert res.cost == 11.0
        assert res.trajectory.collision_free(stack.primary, LIB)


# -- cross-mode invariants ---------------------------------------------------


def test_every_solved_plan_is_safe_in_primary():
    for seed in range(10):
        stack = gen_clutter(12, 12, seed, 0.14, 3, 1, keep_free=((1, 1), (10, 10)))
        start, goal = Pose(1, 1, 0), Pose(10, 10, 0)
        for mode in MODES:
            res = plan(mode, stack, start, goal, GREEDY_FREE)
            if res.status != "solved":
                continue
            traj = res.trajectory
            assert traj.collision_free(stack.primary, LIB), (seed, mode)
            assert traj.poses[0] == start
            assert traj.end_pose().cell() == goal.cell()
            assert res.duration == pytest.approx(traj.duration)
            assert res.cost > 0.0


def test_single_hypothesis_collapses_every_mode():
    for seed in range(6):
        stack = gen_clutter(10, 10, seed, 0.18, 1, 0, keep_free=((1, 1), (8, 8)))
        start, goal = Pose(1, 1, 0), Pose(8, 8, 0)
        ref = plan_sh(stack, start, goal, GREEDY_FREE)
        for mode in MODES:
            res = plan(mode, stack, start, goal, GREEDY_FREE)
            assert res.status == ref.status, (seed, mode)
            assert res.cost == ref.cost, (seed, mode)
            if ref.trajectory is not None:
                assert cells_of(res) == cells_of(ref), (seed, mode)


def test_identical_hypotheses_collapse_every_mode():
    for seed in range(6):
        base = gen_clutter(10, 10, seed, 0.18, 1, 0, keep_free=((1, 1), (8, 8)))
        twin = HypothesisStack((base.primary, base.primary))
        start, goal = Pose(1, 1, 0), Pose(8, 8, 0)
        ref = plan_sh(twin, start, goal, GREEDY_FREE)
        for mode in MODES:
            res = plan(mode, twin, start, goal, GREEDY_FREE)
            assert res.status == ref.status, (seed, mode)
            assert res.cost == ref.cost, (seed, mode)


def test_plans_are_repeatable():
    for mode in MODES:
        first = plan(mode, CASE1, CASE1_START, CASE1_GOAL, UNLIMITED)
        again = plan(mode, CASE1, CASE1_START, CASE1_GOAL, UNLIMITED)
        assert first == again


def test_plan_dispatch():
    by_name = plan("SH", CASE1, CASE1_START, CASE1_GOAL, UNLIMITED)
    by_enum = plan(PlannerMode.SH, CASE1, CASE1_START, CASE1_GOAL, UNLIMITED)
    assert by_name == by_enum
    with pytest.raises(ValueError):
        plan("XYZ", CASE1, CASE1_START, CASE1_GOAL, UNLIMITED)


def test_peh_never_beaten_by_veh():
    # Seeds 6, 15, 17, and 39 used to fail here: an equal-g node with a
    # pending primary history shadowed the clean path under scalar-g
    # duplicate detection, costing PEH the plan entirely on 15 and 17.
    for seed in range(40):
        stack = gen_clutter(10, 10, seed, 0.15, 2, 1, keep_free=((1, 1), (8, 8)))
        start, goal = Pose(1, 1, 0), Pose(8, 8, 0)
        veh = plan_veh(stack, start, goal, GREEDY_FREE)
        if veh.status != "solved":
            continue
        peh = plan_peh(stack, start, goal, GREEDY_FREE)
        assert peh.status == "solved", seed
        assert peh.cost <= veh.cost + 1e-9, seed


# -- rerouting ---------------------------------------------------------------


def test_reroute_is_optimal_within_its_hypothesis():
    wall = {(5, y): 255 for y in range(2, 9)}
    cmap = CostMap(10, 10, 1.0, (0,) * 100).with_cells(wall)
    stack = HypothesisStack((CostMap(10, 10, 1.0, (0,) * 100), cmap))
    anchor, target = Pose(2, 5, 0), (8, 5)
    traj = reroute(anchor, target, 1, stack)
    assert traj is not None
    ref = dijkstra_reference(cmap, LIB, anchor, Pose(*target, 0))
    assert traj.duration == ref.optimal_cost
    assert traj.collision_free(cmap, LIB)
    assert traj.poses[0] == anchor
    assert traj.end_pose().cell() == target


def test_rerouter_memoizes_queries():
    stack = CASE1
    rerouter = Rerouter(stack, LIB)
    engine = SimpleNamespace(remaining_budget=lambda: math.inf,
                             clock=VirtualClock(), reroutes=0)
    anchor = Pose(5, 6, 1)
    first = rerouter.reroute(engine, anchor, (9, 2), 1)
    second = rerouter.reroute(engine, anchor, (9, 2), 1)
    assert first is second
    assert engine.reroutes == 1


def test_rerouter_skips_lethal_targets():
    rerouter = Rerouter(CASE1, LIB)
    engine = SimpleNamespace(remaining_budget=lambda: math.inf,
                             clock=VirtualClock(), reroutes=0)
    lethal_in_1 = (6, 6)
    assert CASE1.maps[1].is_lethal(*lethal_in_1)
    assert rerouter.reroute(engine, Pose(5, 6, 1), lethal_in_1, 1) is None
    assert engine.reroutes == 0


def test_rerouter_rejects_bad_fraction():
    with pytest.raises(ValueError):
        Rerouter(CASE1, LIB, fraction=0.0)
    with pytest.raises(ValueError):
        Rerouter(CASE1, LIB, fraction=1.5)
