"""Acceptance gate: ten end-to-end checks over the public API.

Run ``pytest tests/test_acceptance.py -s`` to see one verdict line per
criterion.  Every check is seeded and driven by the virtual clock, so a rerun
reproduces the same numbers bit for bit.
"""

import itertools
import math
import random
import statistics
import time
from contextlib import contextmanager
from functools import lru_cache

from mhplan.costmap import (CostMap, GenerationError, HypothesisStack,
                            gen_case2, gen_clutter)
from mhplan.harness import (builtin_scenario, clutter_endpoints,
                            plan_divergence, run_suite, write_records)
from mhplan.histories import REROUTED
from mhplan.lattice import Pose, default_library
from mhplan.oracle import dijkstra_reference, veh_reference
from mhplan.planners import (MODES, plan, plan_gegrh, plan_peh, plan_sh,
                             plan_veh)
from mhplan.render import emit_overlay
from mhplan.search_core import AnytimeConfig, SearchTrace, VirtualClock

LIB = default_library()
OPTIMAL = AnytimeConfig(initial_inflation=1.0, time_budget=math.inf)
DEFAULT = AnytimeConfig()


@contextmanager
def verdict(num, label):
    try:
        yield
    except BaseException:
        print(f"criterion {num} FAIL: {label}")
        raise
    print(f"criterion {num} PASS: {label}")


def rand_map(rng, w, h, density, keep):
    cells = [255 if rng.random() < density else 0 for _ in range(w * h)]
    for x, y in keep:
        cells[y * w + x] = 0
    return CostMap(w, h, 1.0, tuple(cells))


def rand_instance(rng):
    w = rng.randrange(6, 21)
    h = rng.randrange(6, 21)
    start = Pose(rng.randrange(w), rng.randrange(h), rng.randrange(8))
    goal = Pose(rng.randrange(w), rng.randrange(h), rng.randrange(8))
    cmap = rand_map(rng, w, h, rng.uniform(0.0, 0.35),
                    [start.cell(), goal.cell()])
    return cmap, start, goal


@lru_cache(maxsize=1)
def clutter_instances():
    """200 seeded 2- and 3-hypothesis clutter problems of varied geometry."""
    out = []
    params = itertools.cycle([(size, density, n, shift)
                              for size in (10, 11, 12, 13, 14)
                              for density in (0.10, 0.15, 0.20)
                              for n in (2, 3)
                              for shift in (1, 2)])
    seed = 0
    while len(out) < 200:
        size, density, n, shift = next(params)
        start, goal = clutter_endpoints(size)
        try:
            stack = gen_clutter(size, size, seed, density, n, shift,
                                keep_free=(start.cell(), goal.cell()))
        except GenerationError:
            pass
        else:
            out.append((stack, start, goal))
        seed += 1
    return tuple(out)


def test_criterion_1_oracle_equivalence():
    with verdict(1, "optimal single-hypothesis search matches the exhaustive "
                    "reference on 1000 maps"):
        rng = random.Random(101)
        t0 = time.perf_counter()
        solved = 0
        for _ in range(1000):
            cmap, start, goal = rand_instance(rng)
            ref = dijkstra_reference(cmap, LIB, start, goal)
            res = plan_sh(HypothesisStack((cmap,)), start, goal, OPTIMAL,
                          clock=VirtualClock())
            assert (res.status == "solved") == ref.reachable
            if ref.reachable:
                assert res.cost == ref.optimal_cost  # exact, same edge model
                solved += 1
        assert solved > 400  # both solvable and unsolvable maps were exercised
        assert time.perf_counter() - t0 < 60.0


def test_criterion_2_single_hypothesis_degeneracy():
    with verdict(2, "all planner modes coincide on 100 single-hypothesis "
                    "problems"):
        rng = random.Random(202)
        agreeing = 0
        for _ in range(100):
            cmap, start, goal = rand_instance(rng)
            stack = HypothesisStack((cmap,))
            results = [plan(mode, stack, start, goal, OPTIMAL,
                            clock=VirtualClock()) for mode in MODES]
            base = results[0]
            for res in results[1:]:
                assert res.status == base.status
                assert res.cost == base.cost
                if base.trajectory is None:
                    assert res.trajectory is None
                else:
                    assert tuple(res.trajectory.poses) == \
                        tuple(base.trajectory.poses)
            agreeing += base.status == "solved"
        assert agreeing > 40


def test_criterion_3_safety_invariants():
    with verdict(3, "zero collision violations across 200 multi-hypothesis "
                    "clutter problems"):
        solved = {"VEH": 0, "PEH": 0, "GEH": 0, "GEGRH": 0}
        for stack, start, goal in clutter_instances():
            for mode in solved:
                res = plan(mode, stack, start, goal, OPTIMAL,
                           clock=VirtualClock())
                if res.status != "solved":
                    continue
                solved[mode] += 1
                maps = stack.maps if mode == "VEH" else (stack.primary,)
                for cmap in maps:
                    assert res.trajectory.collision_free(cmap, LIB)
        assert all(count > 100 for count in solved.values())


def test_criterion_4_bridging_node_average():
    with verdict(4, "fig3 bridging node g-cost averages oracle direct and "
                    "detour costs"):
        sc = builtin_scenario("fig3")
        stack = sc.source.resolve()
        tr = SearchTrace()
        res = plan_peh(stack, sc.start, sc.goal, OPTIMAL,
                       clock=VirtualClock(), trace=tr)
        assert res.status == "solved"
        bridges = [n for n in tr.nodes.values()
                   if n.pose.cell() == (6, 5) and n.parent is not None
                   and n.parent.pose.cell() == (5, 6)
                   and n.edges is not None and n.edges[1] is not None
                   and n.edges[1].kind == REROUTED]
        assert bridges
        direct = dijkstra_reference(stack.maps[0], LIB, sc.start,
                                    Pose(6, 5, 1)).optimal_cost
        detour = dijkstra_reference(stack.maps[1], LIB, sc.start,
                                    Pose(6, 5, 1)).optimal_cost
        assert direct == 1.5
        assert detour > direct  # the contested cell forces a real detour
        for node in bridges:
            assert abs(node.g - statistics.fmean((direct, detour))) <= 1e-9


def test_criterion_5_peh_never_beaten_by_veh():
    with verdict(5, "PEH solution cost never exceeds VEH on 100 solvable "
                    "two-hypothesis problems"):
        params = itertools.cycle([(size, density, shift)
                                  for size in (9, 10, 11, 12, 13, 14, 15)
                                  for density in (0.10, 0.15, 0.20)
                                  for shift in (1, 2)])
        seed = checked = 0
        while checked < 100:
            size, density, shift = next(params)
            start, goal = clutter_endpoints(size)
            try:
                stack = gen_clutter(size, size, seed, density, 2, shift,
                                    keep_free=(start.cell(), goal.cell()))
            except GenerationError:
                seed += 1
                continue
            seed += 1
            ref = veh_reference(stack, LIB, start, goal)
            if not ref.reachable:
                continue
            veh = plan_veh(stack, start, goal, OPTIMAL, clock=VirtualClock())
            peh = plan_peh(stack, start, goal, OPTIMAL, clock=VirtualClock())
            assert veh.status == "solved"
            assert veh.cost == ref.optimal_cost
            assert peh.status == "solved"
            assert peh.cost <= veh.cost + 1e-9
            checked += 1


def wall_cases():
    """The fig4 stack plus two wall variants that cross the travel corridor."""
    return (
        (builtin_scenario("fig4").source.resolve(),
         Pose(3, 10, 0), Pose(17, 10, 0)),
        (gen_case2(22, 22, (11, 6), 11, orientation="v", thickness=2),
         Pose(3, 12, 0), Pose(19, 12, 0)),
        (gen_case2(20, 20, (10, 11), 7, orientation="v", thickness=1),
         Pose(3, 14, 0), Pose(17, 14, 0)),
    )


def test_criterion_6_revision_soundness_and_termination():
    with verdict(6, "graph revision leaves no stale descendants and GEGRH "
                    "terminates on all 200 clutter problems"):
        total_revisions = 0
        for case_index, (stack, start, goal) in enumerate(wall_cases()):
            tr = SearchTrace()
            res = plan_gegrh(stack, start, goal, OPTIMAL,
                             clock=VirtualClock(), trace=tr)
            assert res.status == "solved"
            if case_index == 0:
                assert tr.revisions
            total_revisions += len(tr.revisions)
            for ev in tr.revisions:
                goal_node = tr.nodes[ev.goal_nid]
                diverged = tr.nodes[ev.divergence_nid]
                assert goal_node.parent is not None
                assert goal_node.parent.nid == ev.former_parent_nid
                assert diverged.invalid

                def touches(nid, target=ev.divergence_nid):
                    node = tr.nodes[nid]
                    while node is not None:
                        if node.nid == target:
                            return True
                        node = node.parent
                    return False

                for nid in ev.open_nids + ev.kept_nids:
                    assert not touches(nid)
                for nid, _pose, _g in tr.expansions[ev.expansion_index:]:
                    assert not touches(nid)
        assert total_revisions >= 1
        for stack, start, goal in clutter_instances():
            tr = SearchTrace()
            res = plan_gegrh(stack, start, goal, DEFAULT,
                             clock=VirtualClock(), trace=tr)
            assert res.status in ("solved", "timeout-with-incumbent",
                                  "no-plan")
            pairs = [(ev.goal_nid, ev.divergence_nid) for ev in tr.revisions]
            assert len(pairs) == len(set(pairs))  # each repair runs once


SUITE_MODES = ("SH", "VEH", "GEGRH")


@lru_cache(maxsize=1)
def suite_seeds():
    start, goal = clutter_endpoints(20)
    found, seed = [], 0
    while len(found) < 100:
        try:
            gen_clutter(20, 20, seed, 0.08, 3, 1,
                        keep_free=(start.cell(), goal.cell()))
        except GenerationError:
            pass
        else:
            found.append(seed)
        seed += 1
    return tuple(found)


def run_acceptance_suite():
    scenarios = [builtin_scenario(
        f"clutter{{size=20,density=0.08,n=3,shift=1,seed={seed}}}",
        modes=SUITE_MODES) for seed in suite_seeds()]
    return run_suite(scenarios)


_FIRST_SUITE = {}


def test_criterion_7_directional_medians():
    with verdict(7, "clutter suite medians: GEGRH no slower or longer than "
                    "VEH, SH shortest"):
        t0 = time.perf_counter()
        suite = run_acceptance_suite()
        elapsed = time.perf_counter() - t0
        assert not suite.errors
        med_time, med_dur = {}, {}
        for mode in SUITE_MODES:
            recs = [r for r in suite.records if r.mode == mode]
            assert len(recs) == 100
            planned = [r for r in recs if r.path_duration is not None]
            assert planned
            med_time[mode] = statistics.median(r.planning_time for r in recs)
            med_dur[mode] = statistics.median(r.path_duration
                                              for r in planned)
        assert med_time["GEGRH"] <= med_time["VEH"]
        assert med_dur["GEGRH"] <= med_dur["VEH"]
        assert med_dur["SH"] <= med_dur["GEGRH"]
        assert med_dur["SH"] <= med_dur["VEH"]
        assert elapsed < 600.0
        _FIRST_SUITE["records"] = suite.records


def test_criterion_8_sealed_goal():
    with verdict(8, "sealed goal: VEH reports no-plan while GEGRH plans in "
                    "the primary"):
        sc = builtin_scenario("seal")
        stack = sc.source.resolve()
        veh = plan_veh(stack, sc.start, sc.goal, OPTIMAL, clock=VirtualClock())
        assert veh.status == "no-plan"
        gegrh = plan_gegrh(stack, sc.start, sc.goal, OPTIMAL,
                           clock=VirtualClock())
        assert gegrh.status == "solved"
        assert gegrh.trajectory.collision_free(stack.primary, LIB)


def render_builtins(out_dir):
    out_dir.mkdir()
    blobs = []
    for name in ("fig3", "fig4", "seal"):
        sc = builtin_scenario(name)
        stack = sc.source.resolve()
        trajs = []
        for mode in ("SH", "GEGRH"):
            res = plan(mode, stack, sc.start, sc.goal, OPTIMAL,
                       clock=VirtualClock())
            if res.trajectory is not None:
                trajs.append((mode, res.trajectory))
        path = out_dir / f"{name}.svg"
        emit_overlay(stack, trajs, str(path))
        blobs.append(path.read_bytes())
    return blobs


def test_criterion_9_byte_identical_reruns(tmp_path):
    with verdict(9, "rerunning with identical seeds gives byte-identical CSV "
                    "and SVG output"):
        first = _FIRST_SUITE.get("records")
        if first is None:
            first = run_acceptance_suite().records
        again = run_acceptance_suite().records
        path_a = tmp_path / "suite_a.csv"
        path_b = tmp_path / "suite_b.csv"
        write_records(first, str(path_a))
        write_records(again, str(path_b))
        assert path_a.read_bytes() == path_b.read_bytes()
        assert render_builtins(tmp_path / "img_a") == \
            render_builtins(tmp_path / "img_b")


def drift_series():
    """A 22-sample drifting clutter stack, reordered oldest to newest."""
    start, goal = clutter_endpoints(18)
    stack = gen_clutter(18, 18, 39, 0.15, 22, 1,
                        keep_free=(start.cell(), goal.cell()))
    return tuple(reversed(stack.maps)), start, goal


def test_criterion_10_oscillation_contrast():
    with verdict(10, "pair-stack replans drift no more than single-map "
                     "replans over 20 cycles"):
        chron, start, goal = drift_series()
        assert len(chron) == 22  # 21 replan cycles, 20 consecutive pairs
        means = {}
        for mode in ("SH", "GEGRH"):
            plans = []
            for t in range(1, len(chron)):
                stack = HypothesisStack((chron[t],) if mode == "SH"
                                        else (chron[t], chron[t - 1]))
                res = plan(mode, stack, start, goal, OPTIMAL,
                           clock=VirtualClock())
                assert res.status == "solved"
                plans.append(res.trajectory)
            means[mode] = statistics.fmean(
                plan_divergence(a, b) for a, b in zip(plans, plans[1:]))
        assert means["SH"] > 0.0  # the single-map replans really do wander
        assert means["GEGRH"] <= means["SH"]
