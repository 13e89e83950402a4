import math
import random

import pytest

from mhplan.costmap import CostMap, HypothesisStack
from mhplan.lattice import (SOFT_FACTOR, Pose, default_library, evaluate_edge,
                            successors)
from mhplan.oracle import dijkstra_reference
from mhplan.planners import plan_sh
from mhplan.search_core import (AnytimeConfig, AnytimeSearch, BestGTable,
                                HistoryFrontier, OpenList, PlanningInputError,
                                SearchNode, SearchProblem, SearchTrace,
                                VirtualClock, WallClock, heuristic)

LIB = default_library()


def rand_map(rng, w, h, density=0.0, keep=()):
    cells = [0] * (w * h)
    for i in range(w * h):
        if rng.random() < density:
            cells[i] = 255
    for (x, y) in keep:
        cells[y * w + x] = 0
    return CostMap(w, h, 1.0, tuple(cells))


def free_stack(w, h):
    return HypothesisStack((CostMap(w, h, 1.0, (0,) * (w * h)),))


# -- heuristic ---------------------------------------------------------------


def test_heuristic_basics():
    assert heuristic(Pose(3, 3, 0), Pose(3, 3, 5)) == 0.0
    assert heuristic(Pose(0, 0, 0), Pose(3, 4, 0)) == 5.0
    assert heuristic(Pose(0, 0, 0), Pose(3, 4, 0), resolution=2.0) == 10.0
    assert heuristic(Pose(0, 0, 0), Pose(3, 4, 0), nominal_speed=2.0) == 2.5
    assert heuristic(Pose(0, 0, 0), Pose(3, 4, 0), goal_tolerance=5.0) == 0.0


def test_heuristic_admissible_on_random_instances():
    rng = random.Random(21)
    for _ in range(60):
        w = h = rng.randrange(6, 11)
        cmap = rand_map(rng, w, h)
        start = Pose(rng.randrange(w), rng.randrange(h), rng.randrange(8))
        goal = Pose(rng.randrange(w), rng.randrange(h), rng.randrange(8))
        ref = dijkstra_reference(cmap, LIB, start, goal)
        if not ref.reachable:
            continue
        assert heuristic(start, goal) <= ref.optimal_cost + 1e-9


# -- edge table --------------------------------------------------------------


def test_edge_table_matches_successors_and_evaluate_edge():
    # Three hypotheses, each with every soft value 0-253 and with cells at the
    # lethal threshold (254), some shared and some not; every pose is checked,
    # the border ones included.
    w = h = 18
    maps = []
    for m in range(3):
        cells, soft = [], 0
        for i in range(w * h):
            if i % 9 == m or i % 23 == 0:
                cells.append(254)
            else:
                cells.append(soft % 254)
                soft += 1
        assert set(cells) == set(range(255))
        maps.append(CostMap(w, h, 1.0, tuple(cells)))
    stack = HypothesisStack(tuple(maps))
    problem = SearchProblem(stack, LIB, Pose(0, 0, 0), Pose(w - 1, h - 1, 0))
    on_map = kept = 0
    for x in range(w):
        for y in range(h):
            for heading in range(8):
                pose = Pose(x, y, heading)
                expect = [(p, d, evaluate_edge(pose, p, stack, LIB))
                          for p, d in successors(pose, LIB, w, h)]
                on_map += len(expect)
                expect = tuple(e for e in expect if e[2].valid_in_any)
                row = problem.edges(pose)
                assert row == expect
                assert problem.edges(pose) is row
                kept += len(row)
    assert 0 < kept < on_map < w * h * 8 * 3
    assert SOFT_FACTOR == tuple(1.0 + v / 255.0 for v in range(256))


# -- configuration and clocks ------------------------------------------------


def test_anytime_config_validation():
    AnytimeConfig()  # defaults valid
    with pytest.raises(ValueError):
        AnytimeConfig(initial_inflation=0.5)
    with pytest.raises(ValueError):
        AnytimeConfig(inflation_step=0.0)
    with pytest.raises(ValueError):
        AnytimeConfig(time_budget=0.0)
    with pytest.raises(ValueError):
        AnytimeConfig(goal_tolerance=-1.0)
    with pytest.raises(ValueError):
        AnytimeConfig(final_inflation=0.9)


def test_virtual_clock_ticks_per_expansion():
    clock = VirtualClock(tick=0.5)
    t0 = clock.now()
    clock.on_expansion()
    clock.on_expansion()
    assert clock.now() - t0 == 1.0


def test_wall_clock_moves_forward():
    clock = WallClock()
    a = clock.now()
    clock.on_expansion()
    assert clock.now() >= a


# -- open list ---------------------------------------------------------------


def mknode(nid, pose, g, f):
    return SearchNode(nid, pose, g, f, None, -1, (g,), (False,), None)


def test_open_list_orders_by_f_then_larger_g():
    ol = OpenList()
    a = mknode(1, Pose(0, 0, 0), 1.0, 5.0)
    b = mknode(2, Pose(1, 0, 0), 3.0, 5.0)  # same f, deeper
    c = mknode(3, Pose(2, 0, 0), 1.0, 4.0)
    for n in (a, b, c):
        ol.push(n, n.f)
    order = [ol.pop_valid(lambda n: True) for _ in range(3)]
    assert order == [c, b, a]


def test_open_list_tie_break_is_total():
    ol = OpenList()
    a = mknode(1, Pose(2, 1, 0), 1.0, 5.0)
    b = mknode(2, Pose(1, 2, 0), 1.0, 5.0)
    ol.push(a, a.f)
    ol.push(b, b.f)
    # Same f and g: lexicographic pose order decides (x first).
    assert ol.pop_valid(lambda n: True) is b


def test_open_list_rekey_drops_and_dedups():
    ol = OpenList()
    a = mknode(1, Pose(0, 0, 0), 1.0, 10.0)
    b = mknode(2, Pose(1, 0, 0), 2.0, 12.0)
    ol.push(a, a.f)
    ol.push(a, a.f)  # duplicate entry
    ol.push(b, b.f)
    ol.rekey(lambda n: n.g, lambda n: n.nid != 2)
    assert len(ol) == 1
    assert ol.pop_valid(lambda n: True) is a
    assert ol.pop_valid(lambda n: True) is None


def test_open_list_pop_skips_invalid():
    ol = OpenList()
    a = mknode(1, Pose(0, 0, 0), 1.0, 1.0)
    b = mknode(2, Pose(1, 0, 0), 1.0, 2.0)
    ol.push(a, a.f)
    ol.push(b, b.f)
    a.invalid = True
    assert ol.pop_valid(lambda n: not n.invalid) is b


# -- duplicate detection tables ----------------------------------------------


def histnode(nid, pose, hyp_g, pending):
    g = sum(hyp_g) / len(hyp_g)
    return SearchNode(nid, pose, g, g, None, -1, hyp_g, pending, None)


def test_best_g_table_keeps_single_cheapest():
    table = BestGTable()
    pose = Pose(2, 2, 0)
    a = histnode(1, pose, (4.0,), (False,))
    table.record(a)
    assert table.current(a)
    assert not table.admits(pose, 4.0, (4.0,), (False,))
    assert not table.admits(pose, 5.0, (5.0,), (False,))
    assert table.admits(pose, 3.0, (3.0,), (False,))
    b = histnode(2, pose, (3.0,), (False,))
    table.record(b)
    assert table.current(b) and not table.current(a)
    table.purge(lambda n: n is b)
    assert not table.current(b)


def test_history_frontier_keeps_incomparable_nodes():
    table = HistoryFrontier()
    pose = Pose(2, 2, 0)
    clean = histnode(1, pose, (4.0, 6.0), (False, False))
    table.record(clean)
    # Dominated in both tallies with equal flags: shadowed.
    assert not table.admits(pose, 5.5, (5.0, 6.0), (False, False))
    assert not table.admits(pose, 5.0, (4.0, 6.0), (False, False))
    # Better in one hypothesis, worse in the other: kept alongside.
    assert table.admits(pose, 5.5, (3.0, 8.0), (False, False))
    # Different pending flags never compare, even with worse tallies.
    assert table.admits(pose, 6.0, (5.0, 7.0), (True, False))
    other = histnode(2, pose, (3.0, 8.0), (False, False))
    table.record(other)
    assert table.current(clean) and table.current(other)
    # A node dominating a kept one evicts it on record.
    better = histnode(3, pose, (3.0, 5.0), (False, False))
    table.record(better)
    assert table.current(better)
    assert not table.current(clean) and not table.current(other)
    table.purge(lambda n: n is better)
    assert not table.current(better)
    assert table.admits(pose, 9.0, (9.0, 9.0), (False, False))


# -- revocation --------------------------------------------------------------


@pytest.mark.parametrize("frontier", [BestGTable, HistoryFrontier])
def test_revoke_drops_subtree_and_readmits_its_poses(frontier):
    problem = SearchProblem(free_stack(8, 8), LIB, Pose(0, 0, 0), Pose(7, 7, 0))
    engine = AnytimeSearch(problem, AnytimeConfig(), None, frontier=frontier())

    def grow(parent, x, y, g):
        node = engine.new_node(Pose(x, y, 0), g, parent, 0, (g,), (False,), None)
        engine.frontier.record(node)
        return node

    root = grow(None, 0, 0, 0.0)
    nd = grow(root, 1, 0, 1.0)
    subtree = [nd, grow(nd, 2, 0, 2.0)]
    subtree.append(grow(subtree[1], 3, 0, 3.0))
    subtree.append(grow(nd, 1, 1, 2.0))
    sibling = grow(root, 0, 1, 1.0)
    cousin = grow(sibling, 0, 2, 2.0)

    engine.revoke(nd)
    for node in subtree:
        assert not engine.node_live(node)
    assert all(n not in engine.frontier.nodes() for n in subtree)
    for node in (root, sibling, cousin):
        assert engine.node_live(node)
    assert engine.frontier.admits(nd.pose, nd.g, nd.hyp_g, nd.pending)
    fresh = grow(sibling, 1, 0, 5.0)
    assert engine.node_live(fresh)


# -- end-to-end search -------------------------------------------------------


def unlimited(**kw):
    kw.setdefault("time_budget", math.inf)
    kw.setdefault("initial_inflation", 1.0)
    return AnytimeConfig(**kw)


def test_straight_line_plan_cost():
    stack = free_stack(10, 10)
    res = plan_sh(stack, Pose(1, 5, 0), Pose(8, 5, 0), unlimited())
    assert res.status == "solved"
    assert res.cost == 7.0
    assert [p.cell() for p in res.trajectory.poses] == [(x, 5) for x in range(1, 9)]


def test_start_equals_goal():
    stack = free_stack(5, 5)
    res = plan_sh(stack, Pose(2, 2, 3), Pose(2, 2, 3), unlimited())
    assert res.status == "solved"
    assert res.cost == 0.0
    assert res.trajectory.poses == (Pose(2, 2, 3),)
    assert res.trajectory.duration == 0.0


def test_unreachable_goal_is_no_plan():
    wall = {(4, y): 255 for y in range(8)}
    cmap = CostMap(8, 8, 1.0, (0,) * 64).with_cells(wall)
    res = plan_sh(HypothesisStack((cmap,)), Pose(1, 4, 0), Pose(6, 4, 0),
                  unlimited())
    assert res.status == "no-plan"
    assert res.trajectory is None and res.cost is None


def test_input_validation():
    stack = free_stack(6, 6)
    with pytest.raises(PlanningInputError):
        plan_sh(stack, Pose(-1, 0, 0), Pose(5, 5, 0), unlimited())
    with pytest.raises(PlanningInputError):
        plan_sh(stack, Pose(0, 0, 9), Pose(5, 5, 0), unlimited())
    lethal = HypothesisStack((CostMap(6, 6, 1.0, (0,) * 36).with_cells({(5, 5): 255}),))
    with pytest.raises(PlanningInputError):
        plan_sh(lethal, Pose(0, 0, 0), Pose(5, 5, 0), unlimited())
    with pytest.raises(PlanningInputError):
        plan_sh(lethal, Pose(5, 5, 0), Pose(0, 0, 0), unlimited())


def test_matches_oracle_at_inflation_one():
    rng = random.Random(33)
    checked = 0
    for _ in range(150):
        w = h = rng.randrange(8, 15)
        start = Pose(rng.randrange(w), rng.randrange(h), rng.randrange(8))
        goal = Pose(rng.randrange(w), rng.randrange(h), rng.randrange(8))
        cmap = rand_map(rng, w, h, density=0.18,
                        keep=[start.cell(), goal.cell()])
        ref = dijkstra_reference(cmap, LIB, start, goal)
        res = plan_sh(HypothesisStack((cmap,)), start, goal, unlimited())
        if ref.reachable:
            assert res.status == "solved"
            assert res.cost == ref.optimal_cost  # exact, same edge model
            checked += 1
        else:
            assert res.status == "no-plan"
    assert checked > 60


def test_incumbents_never_worsen_across_rounds():
    rng = random.Random(8)
    seen_multi = 0
    for _ in range(40):
        w = h = 14
        start, goal = Pose(1, 1, 0), Pose(12, 12, 0)
        cmap = rand_map(rng, w, h, density=0.22, keep=[start.cell(), goal.cell()])
        trace = SearchTrace()
        res = plan_sh(HypothesisStack((cmap,)), start, goal,
                      AnytimeConfig(time_budget=math.inf), trace=trace)
        costs = [c for _, c in trace.rounds]
        assert costs == sorted(costs, reverse=True) or \
            all(b <= a + 1e-12 for a, b in zip(costs, costs[1:]))
        if len(set(costs)) > 1:
            seen_multi += 1
        if res.status == "solved" and costs:
            assert res.cost == min(costs)
    assert seen_multi > 0  # the schedule actually improved some incumbents


def test_budget_statuses_and_overshoot():
    rng = random.Random(13)
    cmap = rand_map(rng, 12, 12, density=0.2, keep=[(1, 1), (10, 10)])
    stack = HypothesisStack((cmap,))
    start, goal = Pose(1, 1, 0), Pose(10, 10, 0)
    tick = 5e-5
    full = plan_sh(stack, start, goal, AnytimeConfig(time_budget=math.inf))
    assert full.status == "solved"
    statuses = set()
    for k in range(2, full.expansions + 2, 3):
        clock = VirtualClock(tick=tick)
        res = plan_sh(stack, start, goal, AnytimeConfig(time_budget=k * tick),
                      clock=clock)
        statuses.add(res.status)
        assert res.planning_time <= k * tick + tick + 1e-12
        if res.status == "timeout-with-incumbent":
            assert res.trajectory is not None
            assert res.cost >= full.cost - 1e-12
        if res.status == "no-plan":
            assert res.trajectory is None
    assert "no-plan" in statuses
    assert "timeout-with-incumbent" in statuses
    assert "solved" in statuses


def test_deterministic_repeats():
    rng = random.Random(99)
    cmap = rand_map(rng, 14, 14, density=0.25, keep=[(1, 1), (12, 12)])
    stack = HypothesisStack((cmap,))
    runs = [plan_sh(stack, Pose(1, 1, 0), Pose(12, 12, 0),
                    AnytimeConfig(time_budget=math.inf)) for _ in range(2)]
    assert runs[0] == runs[1]
