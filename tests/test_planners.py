import contextlib
import gc
import math
from statistics import fmean
from types import SimpleNamespace

import pytest

from mhplan import histories, planners
from mhplan.costmap import CostMap, HypothesisStack, gen_case1, gen_case2, gen_clutter
from mhplan.harness import clutter_endpoints
from mhplan.histories import record_expansion, trajectory
from mhplan.lattice import Pose, Trajectory, default_library, evaluate_edge
from mhplan.oracle import dijkstra_reference, veh_reference
from mhplan.planners import MODES, PlannerMode, Rerouter, plan, reroute
from mhplan.search_core import (AnytimeConfig, BestGTable, PlanningInputError, SearchProblem,
                                SearchTrace, VirtualClock, extract_solution)

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
    res = plan("SH", CASE1, CASE1_START, CASE1_GOAL, UNLIMITED)
    assert res.status == "solved"
    assert res.cost == 6.0
    assert cells_of(res) == DIRECT_CELLS


def test_case1_veh_detours():
    res = plan("VEH", CASE1, CASE1_START, CASE1_GOAL, UNLIMITED)
    assert res.status == "solved"
    assert res.cost == 6.5
    assert cells_of(res) == DETOUR_CELLS


def test_case1_peh_matches_veh_via_repairs():
    res = plan("PEH", CASE1, CASE1_START, CASE1_GOAL, UNLIMITED)
    assert res.status == "solved"
    assert res.cost == 6.5
    assert cells_of(res) == DETOUR_CELLS
    assert res.reroutes == 4


def test_case1_geh_pays_for_late_reconciliation():
    # The averaged goal edge keeps the direct plan but prices in the detour
    # of the disagreeing hypothesis, and the equal-g detour candidate stays
    # shadowed behind the already-closed direct history.
    res = plan("GEH", CASE1, CASE1_START, CASE1_GOAL, UNLIMITED)
    assert res.status == "solved"
    assert res.cost == 8.5
    assert res.duration == 6.0
    assert cells_of(res) == DIRECT_CELLS


def test_case1_revision_recovers_the_consistent_plan():
    tr_geh, tr_rev = SearchTrace(), SearchTrace()
    geh = plan("GEH", CASE1, CASE1_START, CASE1_GOAL, UNLIMITED, trace=tr_geh)
    rev = plan("GEGRH", CASE1, CASE1_START, CASE1_GOAL, UNLIMITED, trace=tr_rev)
    assert rev.status == "solved"
    assert rev.cost == 6.5
    assert cells_of(rev) == DETOUR_CELLS
    assert rev.cost < geh.cost
    assert rev.expansions < geh.expansions
    assert len(tr_rev.revisions) >= 1
    assert not tr_geh.revisions


def test_case1_goal_updates_average_their_terms():
    tr = SearchTrace()
    plan("GEH", CASE1, CASE1_START, CASE1_GOAL, UNLIMITED, trace=tr)
    assert tr.goal_updates
    for _nid, terms, new_edge in tr.goal_updates:
        assert len(terms) >= 2  # direct goal edge plus one term per pending hyp
        assert new_edge == pytest.approx(fmean(terms))


def test_case1_peh_g_is_mean_of_tallies():
    # The contested cell is lethal in the secondary, so PEH repairs only it
    # and stores no detour.  With the maps swapped it repairs the primary,
    # and each repaired node stores the primary's detour from its anchor.
    for stack, primary_repairs in ((CASE1, False),
                                   (HypothesisStack(CASE1.maps[::-1]), True)):
        tr = SearchTrace()
        plan("PEH", stack, CASE1_START, CASE1_GOAL, UNLIMITED, trace=tr)
        repaired = {0: 0, 1: 0}
        for node in tr.nodes.values():
            assert node.g == pytest.approx(fmean(node.hyp_g))
            if node.parent is None:
                continue
            closed = (node.parent.pending | node.ev.invalid) & ~node.pending
            for h in repaired:
                repaired[h] += closed >> h & 1
            detour = node.detour
            assert (detour is not None) == bool(closed & 1)
            if detour is not None:
                assert detour.start == histories.last_intact(node.parent, 0).pose
                assert detour.end_pose().cell() == node.pose.cell()
        assert (repaired[0] > 0, repaired[1] > 0) == (primary_repairs, not primary_repairs)


# -- wall in the older hypothesis --------------------------------------------


def test_case2_mode_spread():
    sh = plan("SH", CASE2, CASE2_START, CASE2_GOAL, UNLIMITED)
    veh = plan("VEH", CASE2, CASE2_START, CASE2_GOAL, UNLIMITED)
    geh = plan("GEH", CASE2, CASE2_START, CASE2_GOAL, UNLIMITED)
    assert sh.cost == 14.0
    assert veh.cost == 19.0  # forced around the wall in every hypothesis
    assert veh.trajectory.collision_free(CASE2.maps[0], LIB)
    assert veh.trajectory.collision_free(CASE2.maps[1], LIB)
    assert geh.cost == 15.0
    assert geh.duration == 14.0  # executes the primary-direct corridor


def test_case2_revision_event_is_sound():
    tr = SearchTrace()
    res = plan("GEGRH", CASE2, CASE2_START, CASE2_GOAL, UNLIMITED, trace=tr)
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
    assert plan("VEH", stack, start, goal, UNLIMITED).status == "no-plan"
    sh = plan("SH", stack, start, goal, UNLIMITED)
    peh = plan("PEH", stack, start, goal, UNLIMITED)
    assert sh.cost == peh.cost == 10.0
    for res in (plan("GEH", stack, start, goal, UNLIMITED),
                plan("GEGRH", stack, start, goal, UNLIMITED)):
        assert res.status == "solved"
        assert res.duration == 10.0
        # Unreachable secondary charged at triple the goal edge: (10+12)/2 - 9.
        assert res.cost == 11.0
        assert res.trajectory.collision_free(stack.primary, LIB)


def test_gegrh_keeps_goal_candidates_lethal_in_a_secondary_map():
    # Every candidate whose edge into a goal cell lethal in a secondary map
    # starts at a node intact everywhere is its own first break.  Graph
    # revision has nothing to rewire there, and must not revoke the
    # candidate the hook just updated: GEGRH then costs what GEH costs.
    stack = gen_case1(8, 8, (5, 2))
    goal = Pose(5, 2, 0)
    for start, cost in ((Pose(1, 2, 0), 5.0), (Pose(5, 1, 6), 2.0)):
        trace = SearchTrace()
        geh = plan("GEH", stack, start, goal, UNLIMITED)
        gegrh = plan("GEGRH", stack, start, goal, UNLIMITED, trace=trace)
        assert (geh.cost, gegrh.cost) == (cost, cost), start
        assert trace.goal_updates
        assert all(event.divergence_nid != event.goal_nid for event in trace.revisions)
    # Without keep_free the goal cell is lethal in a secondary map here.
    stack = gen_clutter(9, 9, seed=265, density=0.28, n_hypotheses=3, shift=2)
    start, goal = Pose(5, 1, 7), Pose(5, 2, 0)
    assert plan("GEH", stack, start, goal, UNLIMITED).status == "solved"
    res = plan("GEGRH", stack, start, goal, UNLIMITED)
    assert res.status == "solved"
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
    # On one map nothing is ever pending, so every mode is SH: the same
    # status, cost, virtual planning time, expansions, reroutes (none), final
    # inflation and trajectory, under unlimited and finite budgets alike.
    configs = (GREEDY_FREE, AnytimeConfig(), AnytimeConfig(time_budget=2e-3))
    for seed in range(6):
        stack = gen_clutter(10, 10, seed, 0.18, 1, 0, keep_free=((1, 1), (8, 8)))
        start, goal = Pose(1, 1, 0), Pose(8, 8, 0)
        for cfg in configs:
            ref = plan("SH", stack, start, goal, cfg)
            assert ref.reroutes == 0
            for mode in MODES:
                assert plan(mode, stack, start, goal, cfg) == ref, (seed, mode, cfg)


def test_identical_hypotheses_collapse_every_mode():
    for seed in range(6):
        base = gen_clutter(10, 10, seed, 0.18, 1, 0, keep_free=((1, 1), (8, 8)))
        twin = HypothesisStack((base.primary, base.primary))
        start, goal = Pose(1, 1, 0), Pose(8, 8, 0)
        ref = plan("SH", twin, start, goal, GREEDY_FREE)
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
        veh = plan("VEH", stack, start, goal, GREEDY_FREE)
        if veh.status != "solved":
            continue
        peh = plan("PEH", stack, start, goal, GREEDY_FREE)
        assert peh.status == "solved", seed
        assert peh.cost <= veh.cost + 1e-9, seed


def test_every_mode_plans_wherever_sh_plans():
    # With an unlimited budget, a plan in the primary map is a plan for PEH,
    # GEH and GEGRH too.  GEH and GEGRH returned no-plan on 8 of these 48
    # stacks (all 24x24) while a node whose primary history was pending could
    # shadow a costlier intact one at its pose.
    planned = 0
    for size in (16, 24):
        start, goal = clutter_endpoints(size)
        for n in (2, 3):
            for seed in range(12):
                stack = gen_clutter(size, size, seed, 0.15, n, 2,
                                    keep_free=(start.cell(), goal.cell()))
                if plan("SH", stack, start, goal, UNLIMITED).status != "solved":
                    continue
                planned += 1
                for mode in ("PEH", "GEH", "GEGRH"):
                    res = plan(mode, stack, start, goal, UNLIMITED)
                    assert res.status == "solved", (size, n, seed, mode)
    assert planned == 48


def test_each_goal_candidate_is_updated_and_revised_at_most_once():
    # The goal hook updates a candidate at most once and revises only when
    # it updates, so GEGRH needs no guard against revising a (candidate,
    # divergence node) pair twice.  Same stacks as above.
    updates = revisions = 0
    for size in (16, 24):
        start, goal = clutter_endpoints(size)
        for n in (2, 3):
            for seed in range(12):
                stack = gen_clutter(size, size, seed, 0.15, n, 2,
                                    keep_free=(start.cell(), goal.cell()))
                for mode in ("GEH", "GEGRH"):
                    trace = SearchTrace()
                    plan(mode, stack, start, goal, UNLIMITED, trace=trace)
                    updated = [nid for nid, _terms, _edge in trace.goal_updates]
                    revised = [event.goal_nid for event in trace.revisions]
                    assert len(updated) == len(set(updated)), (size, n, seed, mode)
                    assert len(revised) == len(set(revised)), (size, n, seed, mode)
                    assert set(revised) <= set(updated), (size, n, seed, mode)
                    if mode == "GEH":
                        assert not revised
                    updates += len(updated)
                    revisions += len(revised)
    assert updates > revisions > 0


def test_peh_keeps_incomparable_histories(monkeypatch):
    # PEH's g is the mean of its tallies, and a pending tally is a placeholder
    # until a later repair replaces it, so the least-g node at a pose is not
    # always the one whose repairs end cheapest.  On this stack the one table
    # GEH uses, cheapest node per (pose, primary pending flag), settles for a
    # dearer plan than PEH's antichain over histories.
    start, goal = clutter_endpoints(16)
    stack = gen_clutter(16, 16, 13, 0.15, 3, 2, keep_free=(start.cell(), goal.cell()))
    res = plan("PEH", stack, start, goal, UNLIMITED)
    assert (res.status, res.cost, res.duration) == ("solved", 13.0, 14.0)
    monkeypatch.setattr(planners, "HistoryFrontier", BestGTable)
    res = plan("PEH", stack, start, goal, UNLIMITED)
    assert (res.status, res.cost, res.duration) == ("solved", 13.5, 13.5)


# -- derived history records -------------------------------------------------


def test_deferred_records_equal_record_expansion():
    # Nodes store no direct steps: histories.trajectory takes the primary's
    # from the incoming edge when it walks the chain.  Every node must still
    # read as what record_expansion gives for its edge, apart from the
    # hypotheses PEH repaired with a detour and from goal candidates the goal
    # hook updated.  Secondary repairs leave no detour, and a node stores one
    # only where PEH repaired the primary.  Only PEH nodes carry a tally tuple: the g of
    # SH, GEH and GEGRH nodes is the primary tally, and a VEH node's g adds
    # the mean of its edge's costs.
    start, goal = clutter_endpoints(24)
    stack = gen_clutter(24, 24, seed=3, density=0.15, n_hypotheses=3, shift=2,
                        keep_free=(start.cell(), goal.cell()))
    seen = {"pending": 0, "repaired": 0, "rerouted": 0}
    for mode in ("SH", "VEH", "GEH", "GEGRH", "PEH"):
        trace = SearchTrace()
        plan(mode, stack, start, goal, trace=trace)
        view = stack.single(0) if mode == "SH" else stack
        updated = {nid for nid, _terms, _edge in trace.goal_updates}
        checked = 0
        for node in trace.nodes.values():
            parent = node.parent
            if parent is None:
                assert trajectory(node) == Trajectory((), 0.0, node.pose)
                continue
            if node.nid in updated:
                continue  # a goal candidate the hook updated
            prim = LIB.get(node.prim_id)
            ev = evaluate_edge(parent.pose, prim, view, LIB)
            tallied = mode == "PEH"
            if not tallied:
                assert node.hyp_g is None, (mode, node)
                parent = SimpleNamespace(pose=parent.pose, pending=parent.pending,
                                         hyp_g=(parent.g,) * view.n)
            hyp_g, pending, step = record_expansion(parent, ev, prim, node.pose)
            if mode in ("SH", "VEH"):
                assert not pending and step is not None
            if mode == "VEH":
                assert node.g == node.parent.g + histories.average_edge_cost(ev.cost)
            elif not tallied:
                assert node.g == hyp_g[0], (mode, node)
            repaired = pending & ~node.pending
            assert not repaired or mode == "PEH", (mode, node)
            assert node.pending & ~pending == 0, (mode, node)
            if repaired & 1:
                assert node.detour is not None and step is None
                assert trajectory(node, since=node.parent) == Trajectory(
                    node.detour.steps, node.detour.duration, node.parent.pose)
                seen["rerouted"] += 1
            else:
                assert node.detour is None, (mode, node)
                if step is None:
                    assert node.pending & 1, (mode, node)
                else:
                    assert trajectory(node, since=node.parent) == Trajectory(
                        (step,), ev.cost[0], node.parent.pose), (mode, node)
            for h in range(view.n):
                if repaired >> h & 1:
                    seen["repaired"] += 1
                else:
                    if tallied:
                        assert node.hyp_g[h] == hyp_g[h], (mode, node)
                    seen["pending"] += pending >> h & 1
            checked += 1
        assert checked > 50, mode
    assert seen["pending"] > 0 and seen["repaired"] > 0 and seen["rerouted"] > 0, seen


def with_soft_costs(stack):
    """The stack with every free cell of map ``h`` given a soft cost, 1 to 120
    by position and ``h``: edge costs that are not dyadic and differ between
    the maps, so sums of them depend on their order and on which map's
    costs they add."""
    return HypothesisStack(tuple(
        cmap.with_cells({(x, y): (37 * x + 91 * y + 13 * h) % 120 + 1
                         for x in range(stack.width) for y in range(stack.height)
                         if not cmap.is_lethal(x, y)})
        for h, cmap in enumerate(stack.maps)))


def test_sh_and_veh_costs_equal_their_oracles_on_soft_costs():
    # The 48 stacks of test_every_mode_plans_wherever_sh_plans with soft
    # costs that differ between maps, so a cost summed in another order or
    # from other terms than the oracle's misses it in the last bits.  At
    # inflation 1 and an unlimited budget, SH's cost is exactly the optimum
    # on the primary and VEH's is exactly the optimum over edges valid in
    # every map, each charged the mean of its per-map costs.
    veh_planned = 0
    for size in (16, 24):
        start, goal = clutter_endpoints(size)
        for n in (2, 3):
            for seed in range(12):
                stack = with_soft_costs(gen_clutter(size, size, seed, 0.15, n, 2,
                                                    keep_free=(start.cell(), goal.cell())))
                case = (size, n, seed)
                sh = plan("SH", stack, start, goal, GREEDY_FREE)
                assert sh.cost == dijkstra_reference(stack.primary, LIB, start,
                                                     goal).optimal_cost, case
                ref = veh_reference(stack, LIB, start, goal)
                veh = plan("VEH", stack, start, goal, GREEDY_FREE)
                assert veh.cost == ref.optimal_cost, case
                veh_planned += ref.reachable
    assert veh_planned == 47


# (status, cost, duration, expansions, reroutes) of PEH, GEH and GEGRH on
# soft-cost copies of eight stacks of test_every_mode_plans_wherever_sh_plans,
# keyed (size, n, seed).
SOFT_COST_PINS = {
    (16, 2, 9): (
        ("solved", 13.915686274509802, 14.1, 68, 46),
        ("solved", 15.252941176470587, 14.1, 116, 1),
        ("solved", 15.498039215686273, 15.498039215686273, 87, 2),
    ),
    (16, 3, 3): (
        ("solved", 16.572549019607845, 16.354901960784314, 537, 426),
        ("solved", 16.21764705882353, 16.21764705882353, 320, 4),
        ("solved", 16.21764705882353, 16.21764705882353, 296, 4),
    ),
    (16, 3, 4): (
        ("solved", 13.873202614379084, 14.02941176470588, 109, 102),
        ("solved", 14.36470588235294, 14.36470588235294, 91, 1),
        ("solved", 14.211764705882352, 14.211764705882352, 81, 1),
    ),
    (16, 3, 10): (
        ("solved", 16.352287581699347, 16.266666666666666, 424, 316),
        ("solved", 17.45294117647059, 16.3, 376, 5),
        ("solved", 17.45294117647059, 16.299999999999997, 322, 5),
    ),
    (24, 2, 3): (
        ("solved", 24.020588235294113, 24.147058823529406, 882, 281),
        ("solved", 24.917647058823526, 24.917647058823526, 641, 2),
        ("solved", 24.917647058823526, 24.917647058823526, 665, 5),
    ),
    (24, 3, 1): (
        ("solved", 23.907843137254897, 24.01176470588235, 1154, 3),
        ("solved", 23.970588235294116, 23.970588235294116, 366, 0),
        ("solved", 23.970588235294116, 23.970588235294116, 366, 0),
    ),
    (24, 3, 4): (
        ("solved", 24.01960784313725, 24.1235294117647, 1210, 324),
        ("solved", 24.082352941176467, 24.082352941176467, 417, 2),
        ("solved", 24.082352941176467, 24.082352941176467, 424, 6),
    ),
    (24, 3, 7): (
        ("solved", 24.022875816993462, 23.970588235294116, 1225, 359),
        ("solved", 25.821568627450976, 23.970588235294116, 1052, 12),
        ("solved", 25.97450980392156, 24.123529411764707, 1083, 16),
    ),
}


def test_history_modes_pin_their_results_on_soft_costs():
    # No oracle covers PEH, GEH or GEGRH, and on gen_clutter's own stacks
    # every edge costs 1.0 or 1.5, so every sum is exact in any order.  With
    # soft costs that differ between maps, a tally summed in another order
    # or from other terms moves the last bits: averaging PEH's tallies in
    # reverse moves its cost on (16, 3, 4), (24, 3, 1) and (24, 3, 4).
    for (size, n, seed), pinned in SOFT_COST_PINS.items():
        start, goal = clutter_endpoints(size)
        stack = with_soft_costs(gen_clutter(size, size, seed, 0.15, n, 2,
                                            keep_free=(start.cell(), goal.cell())))
        for mode, want in zip(("PEH", "GEH", "GEGRH"), pinned):
            res = plan(mode, stack, start, goal, UNLIMITED)
            got = (res.status, res.cost, res.duration, res.expansions, res.reroutes)
            assert got == want, (size, n, seed, mode)


def test_goal_candidates_sit_on_chains_whose_masks_only_grow(monkeypatch):
    # The goal hook reads each anchor as last_intact and the first break as
    # the shallowest pending node.  Both rest on two facts about the chain of
    # every candidate it reconciles: a node's pending mask contains its
    # parent's, and no node on the chain stores a detour (only the hook
    # stores one, on a candidate it updates, which is never expanded).
    checked = {False: 0, True: 0}
    soft = False
    make_hook = planners._make_goal_update_hook

    def checking_hook(rerouter, revise):
        hook = make_hook(rerouter, revise)

        def wrapped(engine, node):
            if node.pending:  # not updated yet: the hook clears the mask
                assert node.detour is None, node
                cur = node
                while cur.parent is not None:
                    assert not cur.parent.pending & ~cur.pending, cur
                    cur = cur.parent
                    assert cur.detour is None, cur
                checked[soft] += 1
            return hook(engine, node)

        return wrapped

    monkeypatch.setattr(planners, "_make_goal_update_hook", checking_hook)
    for size in (16, 24):
        start, goal = clutter_endpoints(size)
        for n in (2, 3):
            for seed in range(12):
                stack = gen_clutter(size, size, seed, 0.15, n, 2,
                                    keep_free=(start.cell(), goal.cell()))
                for soft, view in ((False, stack), (True, with_soft_costs(stack))):
                    for mode in ("GEH", "GEGRH"):
                        plan(mode, view, start, goal, UNLIMITED)
    assert checked == {False: 939, True: 1897}


def test_revision_keeps_the_candidates_primary_steps(monkeypatch):
    # A revision drops the nodes between the candidate and its new parent,
    # so the candidate stores the primary's trajectory below that parent as
    # its detour.  The plan it stands for must not change: the same steps,
    # and the same duration up to the order of its float sums.
    revise = planners.graph_revision
    checked = {False: 0, True: 0}
    soft = False

    def checking_revision(engine, goal_node, divergence_node):
        before = extract_solution(goal_node)
        revise(engine, goal_node, divergence_node)
        after = extract_solution(goal_node)
        assert after.steps == before.steps
        assert after.start == before.start
        assert abs(after.duration - before.duration) <= 1e-9
        checked[soft] += 1

    monkeypatch.setattr(planners, "graph_revision", checking_revision)
    for size in (16, 24):
        start, goal = clutter_endpoints(size)
        for n in (2, 3):
            for seed in range(12):
                stack = gen_clutter(size, size, seed, 0.15, n, 2,
                                    keep_free=(start.cell(), goal.cell()))
                for soft, view in ((False, stack), (True, with_soft_costs(stack))):
                    plan("GEGRH", view, start, goal, UNLIMITED)
    assert checked == {False: 106, True: 148}


# -- cyclic garbage collector ------------------------------------------------


@contextlib.contextmanager
def collector(enabled):
    """Run the block with the cyclic collector enabled or not, then restore it."""
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        yield
    finally:
        (gc.enable if was else gc.disable)()


@pytest.mark.parametrize("enabled", [True, False])
def test_search_restores_the_collector_state(enabled):
    with collector(enabled):
        plan("SH", CASE1, CASE1_START, CASE1_GOAL, UNLIMITED)
        assert gc.isenabled() is enabled
        with pytest.raises(PlanningInputError):
            plan("GEH", CASE1, CASE1_START, Pose(40, 2, 1), UNLIMITED)
        assert gc.isenabled() is enabled


def test_collector_stays_paused_across_nested_reroutes(monkeypatch):
    seen = []
    make_hook = planners._make_goal_update_hook

    def spying_hook_factory(*args, **kwargs):
        hook = make_hook(*args, **kwargs)

        def spy(engine, node):
            seen.append(gc.isenabled())
            decision = hook(engine, node)
            seen.append(gc.isenabled())
            return decision

        return spy

    monkeypatch.setattr(planners, "_make_goal_update_hook", spying_hook_factory)
    with collector(True):
        res = plan("GEH", CASE1, CASE1_START, CASE1_GOAL, UNLIMITED)
        assert gc.isenabled()
    assert res.reroutes > 0
    assert seen and not any(seen)


def test_plans_leave_no_reference_cycles():
    # AnytimeSearch.run pauses the cyclic collector on this premise.
    start, goal = clutter_endpoints(24)
    stacks = [gen_clutter(24, 24, seed=seed, density=0.15, n_hypotheses=3, shift=2,
                          keep_free=(start.cell(), goal.cell())) for seed in (3, 4)]
    # With the collector off throughout, no cycle made anywhere in plan()
    # can be collected before the check.
    with collector(False):
        for stack in stacks:
            for mode in MODES:
                for trace in (None, SearchTrace()):
                    gc.collect()
                    res = plan(mode, stack, start, goal, trace=trace)
                    assert gc.collect() == 0, (mode, trace is not None)
                    assert res.expansions > 0


def test_rerouter_searches_of_one_hypothesis_share_one_table():
    start, goal = clutter_endpoints(24)
    stack = gen_clutter(24, 24, seed=3, density=0.15, n_hypotheses=3, shift=2,
                        keep_free=(start.cell(), goal.cell()))
    rerouter = Rerouter(stack, LIB)
    engine = SimpleNamespace(remaining_budget=lambda: math.inf,
                             clock=VirtualClock(), reroutes=0)
    assert rerouter.reroute(engine, start, goal.cell(), 1) is not None
    table = rerouter._tables[1]
    after_first = len(table)
    assert rerouter.reroute(engine, Pose(goal.x, goal.y, 4), start.cell(), 1) is not None
    assert rerouter._tables[1] is table and len(table) > after_first > 0
    assert engine.reroutes == 2
    filled = dict(table)
    view = stack.single(1)
    shared = SearchProblem(view, LIB, start, goal, table=table)
    fresh = SearchProblem(view, LIB, start, goal)
    for x in range(24):
        for y in range(24):
            for heading in range(8):
                pose = Pose(x, y, heading)
                assert shared.edges(pose) == fresh.edges(pose)
    assert all(table[key] is ev for key, ev in filled.items())


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


@pytest.mark.parametrize("mode", ["PEH", "GEH"])
@pytest.mark.parametrize("time_budget", [1.0, 2e-3, math.inf])
def test_nested_reroutes_get_a_fixed_share_of_the_remaining_budget(monkeypatch, mode,
                                                                   time_budget):
    engines, budgets = [], []
    rerouter_reroute, nested_reroute = planners.Rerouter.reroute, planners.reroute

    def remember_engine(self, engine, *args):
        engines.append(engine)
        return rerouter_reroute(self, engine, *args)

    def record_budget(*args, budget, **kwargs):
        budgets.append((budget, engines[-1].remaining_budget()))
        return nested_reroute(*args, budget=budget, **kwargs)

    monkeypatch.setattr(planners.Rerouter, "reroute", remember_engine)
    monkeypatch.setattr(planners, "reroute", record_budget)
    cfg = AnytimeConfig(time_budget=time_budget)
    res = plan(mode, CASE1, CASE1_START, CASE1_GOAL, cfg)
    assert budgets and res.reroutes == len(budgets)
    for budget, remaining in budgets:
        if math.isinf(time_budget):
            assert budget == math.inf
        else:
            assert 0.0 < remaining < time_budget
            assert budget == planners.DEFAULT_REROUTE_FRACTION * remaining
