import heapq
import math
import random

import pytest

from mhplan.costmap import CostMap, HypothesisStack, gen_clutter
from mhplan.lattice import (SOFT_FACTOR, EdgeEvaluation, MotionPrimitive, Pose,
                            PrimitiveLibrary, default_library, divergence_mask,
                            evaluate_at, evaluate_edge, load_library, save_library,
                            successors, supercover_offsets)
from mhplan.oracle import dijkstra_reference, veh_reference
from mhplan.planners import plan
from mhplan.search_core import (AnytimeConfig, AnytimeSearch, BestGTable, CostToGo,
                                HistoryFrontier, blocked_origins, OpenList, PlanningInputError,
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


# -- cost-to-go field --------------------------------------------------------


def _field(stack, lib, goal, tolerance=0.0, clock=None, budget=math.inf, start=Pose(0, 0, 0)):
    problem = SearchProblem(stack, lib, start, goal, mask=stack.lethal_mask)
    return CostToGo(problem, tolerance, clock or VirtualClock(), 0.0, budget)


def _soft_map(rng, w, h, density):
    return CostMap(w, h, 1.0, tuple(255 if rng.random() < density else rng.randrange(254)
                                    for _ in range(w * h)))


def _hop_library(path):
    """A non-unit library read from a ``.mhprim`` file: the default unit
    steps, a two-cell step per heading and a knight hop from every even
    heading, at arc lengths no float sum makes exact, at speed 1.5."""
    prims = list(LIB.prims)
    for heading, (dx, dy) in enumerate(((1, 0), (1, -1), (0, -1), (-1, -1),
                                        (-1, 0), (-1, 1), (0, 1), (1, 1))):
        arc = 2.1 if dx == 0 or dy == 0 else 3.05
        prims.append(MotionPrimitive(len(prims), heading, 2 * dx, 2 * dy, heading, arc,
                                     supercover_offsets(2 * dx, 2 * dy)))
        if heading % 2 == 0:
            kx, ky = (2 * dx - dy, 2 * dy + dx)
            prims.append(MotionPrimitive(len(prims), heading, kx, ky, heading, 2.3,
                                         supercover_offsets(kx, ky)))
    save_library(PrimitiveLibrary(tuple(prims)), str(path))
    return load_library(str(path), nominal_speed=1.5)


def _shapes(lib):
    """The first primitive of each shape, by shape."""
    shapes = {}
    for p in lib.prims:
        shapes.setdefault(lib.shape[p.id], p)
    return shapes


def _border_mask(rng, w, h):
    """Random nonzero bytes (not only 1) at about a fifth of the cells, with
    at least one masked cell on each border."""
    mask = bytearray(rng.choice((1, 7, 255)) if rng.random() < 0.2 else 0
                     for _ in range(w * h))
    for cell in (rng.randrange(w), (h - 1) * w + rng.randrange(w),
                 rng.randrange(h) * w, rng.randrange(h) * w + w - 1):
        mask[cell] = 1
    return bytes(mask)


def test_blocked_origins_match_a_per_cell_reference(tmp_path):
    # On non-square maps with masked cells on all four borders, an origin's
    # byte is 1 exactly where its shape's edge leaves the map or sweeps a
    # masked cell, for the default library and one with longer hops.
    rng = random.Random(13)
    leaving = masked = free = 0
    for lib in (LIB, _hop_library(tmp_path / "hops.mhprim")):
        for w, h in ((9, 5), (5, 9)):
            for _ in range(3):
                mask = _border_mask(rng, w, h)
                blocked = blocked_origins(mask, lib, w, h)
                off_map = lib.off_map(w, h)
                assert len(blocked) == len(off_map) == lib.n_shapes
                for shape, prim in _shapes(lib).items():
                    leaves = [any(not (0 <= x + ox < w and 0 <= y + oy < h)
                                  for ox, oy in prim.swept)
                              for y in range(h) for x in range(w)]
                    expect = bytes(
                        leaves[y * w + x] or any(mask[(y + oy) * w + x + ox]
                                                 for ox, oy in prim.swept)
                        for y in range(h) for x in range(w))
                    assert off_map[shape] == bytes(leaves)
                    assert blocked[shape] == expect, (w, h, prim)
                    leaving += sum(leaves)
                    masked += sum(expect) - sum(leaves)
                    free += w * h - sum(expect)
    assert min(leaving, masked, free) > 100


def test_free_costs_are_exact_and_consistent(tmp_path):
    # The guide table: 0 at the origin, never above the entry one shape back
    # plus that shape's duration (consistency), and equal to the least such
    # sum elsewhere (exact), for every in-box displacement and shape.
    for lib in (LIB, _hop_library(tmp_path / "hops.mhprim")):
        steps = [(p.dx, p.dy, lib.duration(p)) for p in _shapes(lib).values()]
        for w, h in ((9, 5), (5, 9), (1, 4)):
            span = 2 * w - 1
            costs = lib.free_costs(w, h)
            assert lib.free_costs(w, h) is costs
            assert len(costs) == span * (2 * h - 1)

            def at(dx, dy):
                return costs[(dy + h - 1) * span + dx + w - 1]

            box = [(dx, dy) for dy in range(1 - h, h) for dx in range(1 - w, w)]
            assert at(0, 0) == 0.0
            for dx, dy in box:
                back = [at(dx - sx, dy - sy) + d for sx, sy, d in steps
                        if abs(dx - sx) < w and abs(dy - sy) < h]
                for prior in back:
                    assert at(dx, dy) <= prior
                if (dx, dy) != (0, 0):
                    assert at(dx, dy) == min(back, default=math.inf)
            if w > 1:
                assert all(c < math.inf for c in costs)
    # A move of 4 right and 3 up on the default library: three diagonals
    # and one cardinal step.
    assert LIB.free_costs(9, 5)[(3 + 4) * 17 + 4 + 8] == 3 * 1.5 + 1.0


def _relaxed_reference(mask, lib, w, h, goal, tolerance):
    """Backward Dijkstra over the relaxed cell lattice: from every cell of the
    goal region, each shape at its nominal duration, unless its edge leaves
    the map or sweeps a masked cell.  Cells it never reaches are absent."""
    dist = {}
    heap = [(0.0, x, y) for y in range(h) for x in range(w)
            if math.hypot(x - goal.x, y - goal.y) <= tolerance]
    shapes = [p for p in _shapes(lib).values() if p.dx or p.dy]
    while heap:
        g, x, y = heapq.heappop(heap)
        if (x, y) in dist:
            continue
        dist[x, y] = g
        for p in shapes:
            ux, uy = x - p.dx, y - p.dy
            if (ux, uy) in dist or not (0 <= ux < w and 0 <= uy < h):
                continue
            if all(0 <= ux + ox < w and 0 <= uy + oy < h and not mask[(uy + oy) * w + ux + ox]
                   for ox, oy in p.swept):
                heapq.heappush(heap, (g + lib.duration(p), ux, uy))
    return dist


def test_cost_to_go_equals_a_backward_dijkstra_at_every_cell(tmp_path):
    # The field is the exact relaxed cost at every cell (inf where the
    # reference never arrives), whatever the start its guide aims at, with
    # and without goal tolerance; bit for bit on the default library, whose
    # durations are multiples of 0.5.
    rng = random.Random(23)
    unreachable = 0
    for lib in (LIB, _hop_library(tmp_path / "hops.mhprim")):
        for w, h in ((11, 7), (7, 11)):
            for tolerance in (0.0, 1.5):
                cmap = _soft_map(rng, w, h, 0.2)
                if tolerance:
                    cmap = cmap.with_cells({(w // 2, y): 255 for y in range(h)})
                goal = Pose(rng.randrange(w), rng.randrange(h), 0)
                start = Pose(rng.randrange(w), rng.randrange(h), 0)
                cmap = cmap.with_cells({goal.cell(): 0})
                stack = HypothesisStack((cmap,))
                ref = _relaxed_reference(cmap.lethal_mask, lib, w, h, goal, tolerance)
                field = _field(stack, lib, goal, tolerance, start=start)
                cells = [(x, y) for y in range(h) for x in range(w)]
                rng.shuffle(cells)
                for x, y in cells:
                    bound = field.bound(Pose(x, y, 0))
                    expect = ref.get((x, y), math.inf)
                    if lib is LIB:
                        assert bound == expect, (x, y)
                    else:
                        assert bound == pytest.approx(expect, abs=1e-9), (x, y)
                assert field.cells_closed == len(ref)
                unreachable += w * h - len(ref)
    assert unreachable > 20


def test_cost_to_go_is_a_lower_bound_from_every_pose(tmp_path):
    # From every pose of small seeded maps with soft values, the field is
    # never above the exact lattice cost (inf only where the oracle finds
    # no path), for the default library and a non-unit one.  The last map
    # of each library is cut in two by a wall.
    rng = random.Random(5)
    for lib in (LIB, _hop_library(tmp_path / "hops.mhprim")):
        checked = unreachable = 0
        for i in range(4):
            cmap = _soft_map(rng, 7, 7, 0.15)
            goal = Pose(rng.choice((0, 1, 2, 4, 5, 6)), rng.randrange(7), 0)
            cmap = cmap.with_cells({goal.cell(): 0})
            if i == 3:
                cmap = cmap.with_cells({(3, y): 255 for y in range(7)})
            field = _field(HypothesisStack((cmap,)), lib, goal)
            for x in range(7):
                for y in range(7):
                    for heading in range(8):
                        pose = Pose(x, y, heading)
                        bound = field.bound(pose)
                        ref = dijkstra_reference(cmap, lib, pose, goal)
                        if ref.reachable:
                            assert bound <= ref.optimal_cost + 1e-9, (pose, goal)
                            checked += 1
                        elif bound == math.inf:
                            unreachable += 1
        assert checked > 500 and unreachable > 50


def test_cost_to_go_over_a_goal_region_is_the_least_over_its_cells():
    rng = random.Random(9)
    for tolerance in (1.0, 1.5, 2.5):
        cmap = _soft_map(rng, 10, 10, 0.2)
        stack = HypothesisStack((cmap,))
        goal = Pose(6, 4, 0)
        region = [(x, y) for x in range(10) for y in range(10)
                  if math.hypot(x - goal.x, y - goal.y) <= tolerance]
        fields = [_field(stack, LIB, Pose(x, y, 0)) for x, y in region]
        wide = _field(stack, LIB, goal, tolerance)
        for x in range(10):
            for y in range(10):
                pose = Pose(x, y, 0)
                least = min(f.bound(pose) for f in fields)
                assert wide.bound(pose) == pytest.approx(least, abs=1e-9)
                if (x, y) in region:
                    assert wide.bound(pose) == 0.0


def test_cost_to_go_charges_the_clock_and_keeps_no_budget_fallback():
    # A wall with a gap at the bottom between (1, 1) and the goal (8, 1): the
    # straight line says 7, the field says more.
    wall = {(4, y): 255 for y in range(9)}
    cmap = CostMap(10, 10, 1.0, (0,) * 100).with_cells(wall)
    stack = HypothesisStack((cmap,))
    clock = VirtualClock(tick=1.0)
    field = _field(stack, LIB, Pose(8, 1, 0), clock=clock, budget=100.0)
    clock.t = 95.0
    assert field.bound(Pose(1, 1, 0)) == 0.0  # once 5 cells are closed
    assert field.cells_closed == 5 and clock.now() == 100.0
    clock.t = 0.0  # budget again: the fallback was not kept
    assert field.bound(Pose(1, 1, 0)) == 20.5  # down through the gap and back
    assert field.cells_closed == 5 + clock.now()
    spent = clock.now()
    assert field.bound(Pose(1, 1, 0)) == 20.5 and clock.now() == spent


def test_no_plan_reads_the_field_once_the_budget_is_spent(monkeypatch):
    # Every answer the field gives once the budget is spent, the fallback
    # and a bound closed on the last tick alike, is replaced by another
    # finite value.  SH and VEH then return the same PlanResult under every
    # budget of a sweep, with and without goal tolerance: the engine times
    # out before it pops a node keyed with such a value.
    resume = CostToGo._resume
    replaced = []

    def spent_answers_differ(self, target):
        value = resume(self, target)
        if self._clock.now() - self._t0 >= self._budget:
            replaced.append(value)
            return 1e9
        return value

    cases = []
    for size, seed in ((16, 0), (16, 1), (24, 2)):
        start, goal = Pose(1, 1, 0), Pose(size - 2, size - 2, 0)
        stack = gen_clutter(size, size, seed, 0.15, 2, 1, keep_free=(start.cell(), goal.cell()))
        for tolerance in (0.0, 1.5):
            for mode in ("SH", "VEH"):
                full = plan(mode, stack, start, goal,
                            AnytimeConfig(time_budget=math.inf, goal_tolerance=tolerance))
                for k in range(1, 9):
                    cfg = AnytimeConfig(time_budget=full.planning_time * k / 7,
                                        goal_tolerance=tolerance)
                    cases.append((mode, stack, start, goal, cfg))
    expected = [plan(*case) for case in cases]
    monkeypatch.setattr(CostToGo, "_resume", spent_answers_differ)
    assert [plan(*case) for case in cases] == expected
    assert len(replaced) > 20 and 0.0 in replaced
    assert {res.status for res in expected} == {"no-plan", "timeout-with-incumbent", "solved"}


def test_plan_ticks_count_expansions_and_field_cells():
    start, goal = Pose(1, 1, 0), Pose(20, 20, 0)
    tick = 5e-5
    for seed in range(3):
        stack = gen_clutter(22, 22, seed, 0.15, 3, 1, keep_free=(start.cell(), goal.cell()))
        for mode in ("SH", "VEH", "PEH", "GEH", "GEGRH"):
            res = plan(mode, stack, start, goal, AnytimeConfig(time_budget=math.inf),
                       clock=VirtualClock(tick))
            if mode in ("SH", "VEH"):
                assert res.field_cells > 0
                assert round(res.planning_time / tick) == res.expansions + res.field_cells
            else:
                assert res.field_cells == 0  # straight line on several maps


def test_soft_map_plans_match_the_oracles():
    # The field's nominal costs stay below the soft costs the search pays,
    # so SH and VEH still end on the optimum under the anytime schedule.
    rng = random.Random(17)
    for _ in range(12):
        maps = tuple(_soft_map(rng, 9, 9, 0.12).with_cells({(1, 1): 0, (7, 7): 0})
                     for _ in range(2))
        stack = HypothesisStack(maps)
        start, goal = Pose(1, 1, rng.randrange(8)), Pose(7, 7, rng.randrange(8))
        cfg = AnytimeConfig(time_budget=math.inf)
        for mode, ref in (("SH", dijkstra_reference(maps[0], LIB, start, goal)),
                          ("VEH", veh_reference(stack, LIB, start, goal))):
            res = plan(mode, stack, start, goal, cfg)
            if ref.reachable:
                assert res.status == "solved"
                assert res.cost == pytest.approx(ref.optimal_cost, abs=1e-9)
            else:
                assert res.status == "no-plan"


# -- edge table --------------------------------------------------------------


def _soft_lethal_stack(w, h, n=3):
    """``n`` hypotheses, each with every soft value 0-253 and with cells at
    the lethal threshold (254), some shared and some not."""
    maps = []
    for m in range(n):
        cells, soft = [], 0
        for i in range(w * h):
            if i % 9 == m or i % 23 == 0:
                cells.append(254)
            else:
                cells.append(soft % 254)
                soft += 1
        assert set(cells) == set(range(255))
        maps.append(CostMap(w, h, 1.0, tuple(cells)))
    return HypothesisStack(tuple(maps))


def _shape_sharing_library():
    """Primitives that share a shape while ending at different headings: the
    table must key on (swept, arc length), not on the end heading."""
    step = supercover_offsets(1, 0)
    hop = supercover_offsets(2, 1)
    return PrimitiveLibrary((
        MotionPrimitive(0, 0, 1, 0, 0, 1.0, step),
        MotionPrimitive(1, 0, 1, 0, 1, 1.0, step),  # shape of 0, ends at heading 1
        MotionPrimitive(2, 0, 2, 1, 0, 2.5, hop),
        MotionPrimitive(3, 0, 1, 0, 0, 2.0, step),  # swept of 0, another arc length
        MotionPrimitive(4, 1, 1, 0, 2, 1.0, step),  # shape of 0 from heading 1
        MotionPrimitive(5, 1, 2, 1, 7, 2.5, hop),   # shape of 2, ends at heading 7
    ))


def test_edge_table_matches_successors_and_evaluate_edge():
    # Every pose is checked, the border ones included, with the default
    # library and with one whose shared shapes end at different headings,
    # on stacks of one to five maps (one whose second map is the primary
    # again, so no cell diverges).  A row holds, as tuples in ascending
    # primitive id, the on-map edges valid in some hypothesis; the edges of
    # one shape from one cell share one evaluation, whatever the pose's
    # heading.
    w = h = 18
    primary = _soft_lethal_stack(w, h, 1).primary
    stacks = [_soft_lethal_stack(w, h, n) for n in (1, 2, 3, 5)]
    stacks.append(HypothesisStack((primary, primary)))
    for stack in stacks:
        for lib in (LIB, _shape_sharing_library()):
            problem = SearchProblem(stack, lib, Pose(0, 0, 0), Pose(w - 1, h - 1, 0))
            on_map = kept = 0
            for x in range(w):
                for y in range(h):
                    by_shape = {}
                    for heading in range(8):
                        pose = Pose(x, y, heading)
                        expect = [(p, d, evaluate_edge(pose, p, stack, lib))
                                  for p, d in successors(pose, lib, w, h)]
                        on_map += len(expect)
                        expect = tuple(e for e in expect
                                       if e[2].invalid != (1 << stack.n) - 1)
                        row = problem.edges(pose)
                        assert type(row) is tuple and row == expect
                        assert problem.edges(pose) == row
                        for prim, dst, ev in row:
                            assert type(dst) is Pose
                            assert by_shape.setdefault(lib.shape[prim.id], ev) is ev
                        kept += len(row)
            assert 0 < kept < on_map < w * h * len(lib)
    assert SOFT_FACTOR == tuple(1.0 + v / 255.0 for v in range(256))


def _reference_evaluation(cell, offsets, nominal, maps):
    """The per-map edge-cost formula, map by map: validity against the lethal
    mask and the nominal duration times the mean soft-cost factor."""
    valid, cost = [], []
    for cmap in maps:
        total = 0.0
        ok = True
        for off in offsets:
            idx = cell + off
            if cmap.lethal_mask[idx]:
                ok = False
                break
            total += 1.0 + cmap.cells[idx] / 255.0
        valid.append(ok)
        cost.append(nominal * (total / len(offsets)) if ok else None)
    return tuple(valid), tuple(cost)


def _diverging_stack(rng, w, h, n):
    """A primary map and ``n - 1`` others: copies with some cells changed,
    copies under another lethal threshold, or the primary itself."""
    values = (0, 1, 17, 100, 149, 150, 199, 200, 253, 254, 255)
    primary = CostMap(w, h, 1.0, tuple(rng.choice(values) if rng.random() < 0.6
                                       else rng.randrange(256) for _ in range(w * h)))
    maps = [primary]
    for _ in range(n - 1):
        kind = rng.randrange(4)
        if kind == 0:
            maps.append(primary)
            continue
        cells = list(primary.cells)
        for _ in range(rng.randrange(1, w * h // 4)):
            cells[rng.randrange(w * h)] = rng.choice(values)
        threshold = rng.choice((150, 200, 255)) if kind >= 2 else primary.lethal_threshold
        if kind == 3:
            cells = primary.cells  # same values, another threshold
        maps.append(CostMap(w, h, 1.0, tuple(cells), threshold))
    return HypothesisStack(tuple(maps))


def test_edge_kernel_matches_per_map_formula_bit_for_bit():
    # Every (cell, shape) of seeded stacks of one to five maps, the kernel
    # against the per-map formula it replaces, costs compared by repr.  The
    # stacks hold cells that diverge in value, maps whose lethal threshold
    # differs from the primary's, and edges invalid in some or every map;
    # the table holds None for the latter.  Bit h of ``invalid`` is set
    # exactly where ``cost[h]`` is None.
    rng = random.Random(6)
    seen = {"all": 0, "some": 0, "none": 0, "no_divergence": 0, "threshold": 0}
    for lib in (LIB, _shape_sharing_library()):
        for n in range(1, 6):
            for _ in range(4):
                w, h = rng.randrange(5, 10), rng.randrange(5, 10)
                stack = _diverging_stack(rng, w, h, n)
                maps = stack.maps
                problem = SearchProblem(stack, lib, Pose(0, 0, 0), Pose(0, 0, 0))
                seen["no_divergence"] += problem.divergence is None
                seen["threshold"] += any(m.lethal_threshold != maps[0].lethal_threshold
                                         for m in maps)
                shapes = {}
                for p in lib.prims:
                    shapes.setdefault(lib.shape[p.id], p)
                for x in range(w):
                    for y in range(h):
                        for shape, prim in shapes.items():
                            if not all(0 <= x + ox < w and 0 <= y + oy < h
                                       for ox, oy in prim.swept):
                                continue
                            cell = y * w + x
                            offsets, nominal = lib.geometry(w)[shape]
                            valid, cost = _reference_evaluation(cell, offsets, nominal, maps)
                            invalid = sum(1 << i for i, ok in enumerate(valid) if not ok)
                            ev = evaluate_at(cell, offsets, nominal, maps, problem.divergence)
                            wrapped = evaluate_edge(Pose(x, y, prim.start_heading), prim,
                                                    stack, lib)
                            assert wrapped.invalid == invalid
                            assert repr(wrapped.cost) == repr(cost)
                            problem.edges(Pose(x, y, prim.start_heading))
                            entry = problem.table[cell * lib.n_shapes + shape]
                            if True not in valid:
                                seen["none"] += 1
                                assert ev is None and entry is None
                                continue
                            seen["all" if False not in valid else "some"] += 1
                            assert type(ev) is EdgeEvaluation and entry == ev
                            assert ev.invalid == invalid
                            assert repr(ev.cost) == repr(cost)
                            for i in range(n):
                                assert (ev.invalid >> i) & 1 == (ev.cost[i] is None)
    assert min(seen.values()) > 0, seen


def test_divergence_mask_matches_a_per_cell_reference():
    # Seeded stacks of one to five maps: 1 exactly where some map differs
    # from the primary in value or in lethality, and None where no cell
    # differs.
    rng = random.Random(8)
    seen = {"none": 0, "some": 0}
    for n in range(1, 6):
        for _ in range(6):
            w, h = rng.randrange(4, 9), rng.randrange(4, 9)
            maps = _diverging_stack(rng, w, h, n).maps
            primary = maps[0]
            expect = bytes(any(m.cells[i] != primary.cells[i]
                               or m.lethal_mask[i] != primary.lethal_mask[i]
                               for m in maps[1:])
                           for i in range(w * h))
            got = divergence_mask(maps)
            if any(expect):
                seen["some"] += 1
                assert type(got) is bytes and got == expect
            else:
                seen["none"] += 1
                assert got is None
    assert min(seen.values()) > 0, seen
    primary = CostMap(3, 1, 1.0, (0, 150, 254))
    assert divergence_mask((primary,)) is None
    assert divergence_mask((primary, primary)) is None
    assert divergence_mask((primary, CostMap(3, 1, 1.0, (0, 150, 254)))) is None
    # Equal values under another threshold differ only where lethality does.
    assert divergence_mask((primary, CostMap(3, 1, 1.0, (0, 150, 254), 150))) == b"\0\1\0"
    assert divergence_mask((primary, CostMap(3, 1, 1.0, (0, 150, 254), 200))) is None


def test_stack_builds_its_divergence_mask_once(monkeypatch):
    from mhplan import lattice

    calls = []

    def counted(maps):
        calls.append(maps)
        return divergence_mask(maps)

    monkeypatch.setattr(lattice, "divergence_mask", counted)
    stack = gen_clutter(12, 12, 3, 0.15, 3, 2)
    for _ in range(2):
        problem = SearchProblem(stack, LIB, Pose(0, 0, 0), Pose(11, 11, 0))
        evaluate_edge(Pose(5, 5, 0), LIB.by_heading[0][0], stack, LIB)
    assert problem.divergence is stack.divergence == divergence_mask(stack.maps)
    assert problem.divergence is not None
    assert calls == [stack.maps]


def test_edge_table_shares_one_evaluation_across_headings():
    lib = _shape_sharing_library()
    assert lib.n_shapes == 3
    assert lib.shape[0] == lib.shape[1] == lib.shape[4] != lib.shape[3]
    assert lib.shape[2] == lib.shape[5]
    stack = HypothesisStack((CostMap(6, 6, 1.0, tuple(range(36))),))
    problem = SearchProblem(stack, lib, Pose(0, 0, 0), Pose(5, 5, 0))
    row0 = {prim.id: (dst, ev) for prim, dst, ev in problem.edges(Pose(2, 2, 0))}
    row1 = {prim.id: (dst, ev) for prim, dst, ev in problem.edges(Pose(2, 2, 1))}
    assert sorted(row0) == [0, 1, 2, 3] and sorted(row1) == [4, 5]
    assert [row0[i][0] for i in (0, 1)] == [Pose(3, 2, 0), Pose(3, 2, 1)]
    assert row1[4][0] == Pose(3, 2, 2) and row1[5][0] == Pose(4, 3, 7)
    assert row0[0][1] is row0[1][1] is row1[4][1]
    assert row0[2][1] is row1[5][1]
    assert row0[3][1] == EdgeEvaluation(0, (2.0 * (1.0 + 15 / 255.0),))
    # The four primitives of heading 0 fill three entries, heading 1 adds
    # none at the same cell, and another cell adds its own.
    assert len(problem.table) == 3
    problem.edges(Pose(3, 3, 1))
    assert len(problem.table) == 5


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
    # Non-finite inflation values and a NaN tolerance are rejected: with
    # final_inflation=nan or initial_inflation=inf a search never returns,
    # and NaN initial or step values were silently accepted.
    nan, inf = math.nan, math.inf
    for bad in (dict(final_inflation=nan), dict(initial_inflation=inf),
                dict(initial_inflation=nan), dict(inflation_step=nan),
                dict(inflation_step=inf), dict(final_inflation=inf, initial_inflation=inf),
                dict(goal_tolerance=nan)):
        with pytest.raises(ValueError):
            AnytimeConfig(**bad)
    AnytimeConfig(time_budget=inf, goal_tolerance=inf)  # unlimited values stay valid


def test_virtual_clock_ticks_per_expansion():
    clock = VirtualClock(tick=0.5)
    t0 = clock.now()
    clock.on_expansion()
    clock.on_expansion()
    assert clock.now() - t0 == 1.0


@pytest.mark.parametrize("tick", [0.0, -1.0, math.nan, math.inf])
def test_virtual_clock_rejects_bad_ticks(tick):
    # A NaN tick never reaches a budget (a 1 s GEGRH plan came back solved
    # with a NaN planning time); an infinite one stops every plan after one
    # expansion.
    with pytest.raises(ValueError):
        VirtualClock(tick=tick)


def test_wall_clock_moves_forward():
    clock = WallClock()
    a = clock.now()
    clock.on_expansion()
    assert clock.now() >= a


# -- open list ---------------------------------------------------------------


def mknode(nid, pose, g):
    return SearchNode(nid, pose, g, None, -1, (g,), 0, None)


def test_open_list_orders_by_f_then_larger_g():
    ol = OpenList()
    a = mknode(1, Pose(0, 0, 0), 1.0)
    b = mknode(2, Pose(1, 0, 0), 3.0)
    c = mknode(3, Pose(2, 0, 0), 1.0)
    for n, f in ((a, 5.0), (b, 5.0), (c, 4.0)):  # b: same f as a, deeper
        ol.push(n, f)
    order = [ol.pop_valid(lambda n: True) for _ in range(3)]
    assert order == [c, b, a]


def test_open_list_tie_break_is_total():
    ol = OpenList()
    a = mknode(1, Pose(2, 1, 0), 1.0)
    b = mknode(2, Pose(1, 2, 0), 1.0)
    ol.push(a, 5.0)
    ol.push(b, 5.0)
    # Same f and g: lexicographic pose order decides (x first).
    assert ol.pop_valid(lambda n: True) is b


def test_open_list_rekey_drops_and_dedups():
    ol = OpenList()
    a = mknode(1, Pose(0, 0, 0), 1.0)
    b = mknode(2, Pose(1, 0, 0), 2.0)
    ol.push(a, 10.0)
    ol.push(a, 10.0)  # duplicate entry
    ol.push(b, 12.0)
    ol.rekey(lambda n: n.g, lambda n: n.nid != 2)
    assert len(ol) == 1
    assert ol.pop_valid(lambda n: True) is a
    assert ol.pop_valid(lambda n: True) is None


def test_open_list_rekey_pops_like_pushes_in_nid_order():
    # Random keys with ties, nodes pushed several times and invalid nodes:
    # the rekeyed heap pops exactly what a heap built by pushing the valid
    # nodes once each, in nid order, pops.
    rng = random.Random(3)
    for _ in range(30):
        nodes = [mknode(nid, Pose(rng.randrange(3), rng.randrange(3), rng.randrange(2)),
                        rng.choice((0.5, 1.0, 1.5))) for nid in range(40)]
        ol = OpenList()
        pushed = {}
        for _ in range(60):
            node = rng.choice(nodes)
            ol.push(node, rng.choice((1.0, 2.0)))
            pushed[node.nid] = node
        invalid = set(rng.sample(range(40), 10))
        keys = {node.nid: rng.choice((1.0, 2.0, 2.5)) for node in nodes}

        def valid(n):
            return n.nid not in invalid

        def f_of(n):
            return keys[n.nid]

        ol.rekey(f_of, valid)
        ref = OpenList()
        for nid in sorted(pushed):
            if valid(pushed[nid]):
                ref.push(pushed[nid], f_of(pushed[nid]))
        assert len(ol) == len(ref) < len(pushed)
        pops = [ol.pop_valid(valid) for _ in range(len(ref) + 1)]
        assert pops == [ref.pop_valid(valid) for _ in range(len(ref) + 1)]
        assert pops[-1] is None


def test_open_list_pop_skips_invalid():
    ol = OpenList()
    a = mknode(1, Pose(0, 0, 0), 1.0)
    b = mknode(2, Pose(1, 0, 0), 1.0)
    ol.push(a, 1.0)
    ol.push(b, 2.0)
    a.invalid = True
    assert ol.pop_valid(lambda n: not n.invalid) is b


# -- duplicate detection tables ----------------------------------------------


def histnode(nid, pose, hyp_g, pending):
    g = sum(hyp_g) / len(hyp_g)
    return SearchNode(nid, pose, g, None, -1, hyp_g, pending, None)


def test_best_g_table_keeps_single_cheapest():
    table = BestGTable()
    pose = Pose(2, 2, 0)
    a = histnode(1, pose, (4.0,), 0)
    table.record(a)
    assert table.current(a)
    assert not table.admits(pose, 4.0, (4.0,), 0)
    assert not table.admits(pose, 5.0, (5.0,), 0)
    assert table.admits(pose, 3.0, (3.0,), 0)
    b = histnode(2, pose, (3.0,), 0)
    table.record(b)
    assert table.current(b) and not table.current(a)
    table.purge(lambda n: n is b)
    assert not table.current(b)


def test_best_g_table_keys_on_the_primary_pending_flag():
    table = BestGTable()
    pose = Pose(2, 2, 0)
    broken = histnode(1, pose, (3.0, 3.0), 0b01)
    table.record(broken)
    # A cheaper node with a pending primary does not shadow an intact one...
    assert table.admits(pose, 5.0, (5.0, 5.0), 0)
    assert not table.admits(pose, 4.0, (4.0, 4.0), 0b11)
    intact = histnode(2, pose, (5.0, 5.0), 0)
    table.record(intact)
    assert table.current(broken) and table.current(intact)
    # ...nor the reverse, and each bit value keeps its own cheapest node.
    assert not table.admits(pose, 6.0, (6.0, 6.0), 0b01)
    assert table.admits(pose, 2.0, (2.0, 2.0), 0b01)
    assert table.admits(pose, 4.0, (4.0, 4.0), 0b10)
    assert not table.admits(pose, 5.0, (5.0, 5.0), 0b10)
    assert set(table.nodes()) == {broken, intact}
    table.purge(lambda n: n is broken)
    assert table.nodes() == [intact]
    assert table.admits(pose, 9.0, (9.0, 9.0), 0b01)
    table.record(broken)
    table.purge(lambda n: n is intact)
    assert table.nodes() == [broken]
    assert not table.current(intact)
    assert table.admits(pose, 9.0, (9.0, 9.0), 0)


def test_history_frontier_keeps_incomparable_nodes():
    table = HistoryFrontier()
    pose = Pose(2, 2, 0)
    clean = histnode(1, pose, (4.0, 6.0), 0)
    table.record(clean)
    # Dominated in both tallies with equal pending masks: shadowed.
    assert not table.admits(pose, 5.5, (5.0, 6.0), 0)
    assert not table.admits(pose, 5.0, (4.0, 6.0), 0)
    # Better in one hypothesis, worse in the other: kept alongside.
    assert table.admits(pose, 5.5, (3.0, 8.0), 0)
    # Different pending masks never compare, even with worse tallies.
    assert table.admits(pose, 6.0, (5.0, 7.0), 0b01)
    other = histnode(2, pose, (3.0, 8.0), 0)
    table.record(other)
    assert table.current(clean) and table.current(other)
    # A node dominating a kept one evicts it on record.
    better = histnode(3, pose, (3.0, 5.0), 0)
    table.record(better)
    assert table.current(better)
    assert not table.current(clean) and not table.current(other)
    table.purge(lambda n: n is better)
    assert not table.current(better)
    assert table.admits(pose, 9.0, (9.0, 9.0), 0)


# -- revocation --------------------------------------------------------------


@pytest.mark.parametrize("frontier", [BestGTable, HistoryFrontier])
def test_revoke_drops_subtree_and_readmits_its_poses(frontier):
    problem = SearchProblem(free_stack(8, 8), LIB, Pose(0, 0, 0), Pose(7, 7, 0))
    engine = AnytimeSearch(problem, AnytimeConfig(), None, frontier=frontier())

    def grow(parent, x, y, g, pending=0):
        node = engine.new_node(Pose(x, y, 0), g, parent, 0, (g,), pending, None)
        engine.frontier.record(node)
        return node

    root = grow(None, 0, 0, 0.0)
    nd = grow(root, 1, 0, 1.0)
    subtree = [nd, grow(nd, 2, 0, 2.0)]
    subtree.append(grow(subtree[1], 3, 0, 3.0))
    subtree.append(grow(nd, 1, 1, 2.0))
    # A node whose primary history is pending, beside an intact one at its
    # pose, inside the subtree and out of it.
    subtree.append(grow(subtree[1], 3, 0, 2.5, pending=1))
    sibling = grow(root, 0, 1, 1.0)
    cousin = grow(sibling, 0, 2, 2.0)
    broken_cousin = grow(sibling, 1, 1, 1.5, pending=1)
    # Goal candidates never enter the frontier: one below the revoked node,
    # one outside its subtree.
    goal_inside = engine.new_node(Pose(7, 7, 0), 9.0, subtree[2], 0, (9.0,), 0, None)
    goal_outside = engine.new_node(Pose(7, 7, 1), 9.0, cousin, 0, (9.0,), 0, None)
    assert engine.node_live(goal_inside) and engine.node_live(goal_outside)

    engine.revoke(nd)
    for node in (*subtree, goal_inside):
        assert not engine.node_live(node)
    assert all(n not in engine.frontier.nodes() for n in subtree)
    for node in (root, sibling, cousin, broken_cousin, goal_outside):
        assert engine.node_live(node)
    assert set(engine.frontier.nodes()) == {root, sibling, cousin, broken_cousin}
    for node in subtree:
        assert engine.frontier.admits(node.pose, node.g, node.hyp_g, node.pending)
    fresh = grow(sibling, 1, 0, 5.0)
    assert engine.node_live(fresh)


# -- end-to-end search -------------------------------------------------------


def unlimited(**kw):
    kw.setdefault("time_budget", math.inf)
    kw.setdefault("initial_inflation", 1.0)
    return AnytimeConfig(**kw)


def test_straight_line_plan_cost():
    stack = free_stack(10, 10)
    res = plan("SH", stack, Pose(1, 5, 0), Pose(8, 5, 0), unlimited())
    assert res.status == "solved"
    assert res.cost == 7.0
    assert [p.cell() for p in res.trajectory.poses] == [(x, 5) for x in range(1, 9)]


def test_start_equals_goal():
    stack = free_stack(5, 5)
    res = plan("SH", stack, Pose(2, 2, 3), Pose(2, 2, 3), unlimited())
    assert res.status == "solved"
    assert res.cost == 0.0
    assert res.trajectory.poses == (Pose(2, 2, 3),)
    assert res.trajectory.duration == 0.0


def test_unreachable_goal_is_no_plan():
    wall = {(4, y): 255 for y in range(8)}
    cmap = CostMap(8, 8, 1.0, (0,) * 64).with_cells(wall)
    res = plan("SH", HypothesisStack((cmap,)), Pose(1, 4, 0), Pose(6, 4, 0),
               unlimited())
    assert res.status == "no-plan"
    assert res.trajectory is None and res.cost is None
    # The start's cost-to-go is inf, so none of its children is pushed.
    assert res.expansions == 1


def test_input_validation():
    stack = free_stack(6, 6)
    with pytest.raises(PlanningInputError):
        plan("SH", stack, Pose(-1, 0, 0), Pose(5, 5, 0), unlimited())
    with pytest.raises(PlanningInputError):
        plan("SH", stack, Pose(0, 0, 9), Pose(5, 5, 0), unlimited())
    lethal = HypothesisStack((CostMap(6, 6, 1.0, (0,) * 36).with_cells({(5, 5): 255}),))
    with pytest.raises(PlanningInputError):
        plan("SH", lethal, Pose(0, 0, 0), Pose(5, 5, 0), unlimited())
    with pytest.raises(PlanningInputError):
        plan("SH", lethal, Pose(5, 5, 0), Pose(0, 0, 0), unlimited())


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
        res = plan("SH", HypothesisStack((cmap,)), start, goal, unlimited())
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
        res = plan("SH", HypothesisStack((cmap,)), start, goal,
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
    full = plan("SH", stack, start, goal, AnytimeConfig(time_budget=math.inf))
    assert full.status == "solved"
    statuses = set()
    # The clock charges expansions and cells closed by the cost-to-go field
    # alike, so the sweep runs to the full run's tick count.
    for k in range(2, round(full.planning_time / tick) + 3, 3):
        clock = VirtualClock(tick=tick)
        res = plan("SH", stack, start, goal, AnytimeConfig(time_budget=k * tick),
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
    runs = [plan("SH", stack, Pose(1, 1, 0), Pose(12, 12, 0),
                 AnytimeConfig(time_budget=math.inf)) for _ in range(2)]
    assert runs[0] == runs[1]


# -- goal hooks --------------------------------------------------------------


def direct_policy(engine, node, prim, ev, dst):
    g = node.g + ev.cost[0]
    return (g, (g,), 0, None) if not ev.invalid & 1 else None


def hook_engine(hook, trace=None):
    problem = SearchProblem(free_stack(6, 6), LIB, Pose(0, 0, 0), Pose(4, 3, 0))
    return AnytimeSearch(problem, unlimited(), direct_policy, hook, trace=trace)


def test_hook_that_skips_every_candidate_ends_in_no_plan():
    met = []

    def hook(engine, node):
        met.append(node.nid)
        return False

    engine = hook_engine(hook)
    res = engine.run()
    assert res.status == "no-plan" and res.trajectory is None and res.cost is None
    assert len(engine.open) == 0  # the open list was exhausted
    assert len(met) == len(set(met)) > 1  # several candidates, each met once


def test_hook_that_reinserts_once_is_accepted_on_the_second_pop():
    met = []

    def hook(engine, node):
        met.append(node)
        if len(met) == 1:
            engine.reinsert(node)
            return False
        return True

    trace = SearchTrace()
    res = hook_engine(hook, trace).run()
    assert res.status == "solved"
    assert len(met) == 2 and met[0] is met[1]
    assert trace.rounds == [(1.0, met[0].g)]
    assert res.cost == met[0].g


def test_no_hook_accepts_the_first_candidate():
    met = []

    def hook(engine, node):
        met.append(node)
        return True

    with_hook = hook_engine(hook).run()
    trace = SearchTrace()
    without = hook_engine(None, trace).run()
    assert len(met) == 1
    assert without == with_hook
    assert without.status == "solved"
    assert trace.rounds == [(1.0, met[0].g)]


def test_the_engine_never_accepts_a_pending_primary():
    # With no hook, a goal candidate that the policy leaves pending in the
    # primary (bit 0) is skipped: its primary history cannot be extracted.
    # A pending secondary does not stop a candidate.
    free = free_stack(6, 6).primary
    stack = HypothesisStack((free, free))

    def run(bits, below):
        """Plan with ``bits`` pending on every goal candidate of g below ``below``."""
        def policy(engine, node, prim, ev, dst):
            g = node.g + ev.cost[0]
            at_goal = engine.in_goal_region(dst) and g < below
            return (g, None, bits if at_goal else 0, None)

        trace = SearchTrace()
        problem = SearchProblem(stack, LIB, Pose(0, 0, 0), Pose(4, 3, 0))
        return AnytimeSearch(problem, unlimited(), policy, None, trace=trace).run(), trace

    clean, _ = run(0, math.inf)
    assert clean.status == "solved"
    res, trace = run(0b01, math.inf)
    assert res.status == "no-plan" and trace.rounds == []
    res, _ = run(0b10, math.inf)
    assert res == clean
    # Every candidate as cheap as the optimum is broken in the primary: the
    # search goes on to a dearer candidate with an intact primary history.
    res, trace = run(0b01, clean.cost + 1e-9)
    assert res.status == "solved" and res.cost > clean.cost
    assert res.duration == res.cost
    assert trace.rounds == [(1.0, res.cost)]
