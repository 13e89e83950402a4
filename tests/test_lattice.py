import random
from fractions import Fraction

import pytest

from mhplan.costmap import CostMap, HypothesisStack
from mhplan.lattice import (CARDINAL_ARC, DIAGONAL_ARC, DIRS, N_HEADINGS, SOFT_FACTOR,
                            EdgeEvaluation, LibraryFormatError, MotionPrimitive, Pose,
                            Trajectory, default_library, evaluate_edge, load_library, save_library,
                            successors, supercover_offsets)


def rand_map(rng, w, h, density=0.2):
    cells = tuple(255 if rng.random() < density else rng.randrange(0, 200)
                  for _ in range(w * h))
    return CostMap(w, h, 1.0, cells)


# -- value types -------------------------------------------------------------


def test_pose_and_edge_evaluation_value_semantics():
    p = Pose(1, 2, 3)
    assert repr(p) == "Pose(x=1, y=2, heading=3)"
    assert hash(p) == hash((1, 2, 3)) and p == Pose(1, 2, 3)
    assert p.cell() == (1, 2)
    assert sorted([Pose(1, 2, 4), Pose(1, 3, 0), p, Pose(0, 9, 9)]) == [
        Pose(0, 9, 9), p, Pose(1, 2, 4), Pose(1, 3, 0)]
    with pytest.raises(AttributeError):
        p.x = 5
    # As a named tuple a pose also equals the plain tuple of its fields.
    assert p == (1, 2, 3)
    ev = EdgeEvaluation(0b10, (1.5, None))
    assert repr(ev) == "EdgeEvaluation(invalid=2, cost=(1.5, None))"
    assert hash(ev) == hash((2, (1.5, None)))
    with pytest.raises(AttributeError):
        ev.invalid = 0


# -- supercover --------------------------------------------------------------


def crossed_cells_reference(dx, dy):
    """Cells the open segment (0,0)->(dx,dy) enters, by exact interval walk.

    Uses Fractions to find every x+1/2 and y+1/2 boundary crossing; a crossing
    where both boundaries coincide (a corner) contributes both side cells.
    """
    events = []
    for i in range(abs(dx)):
        t = Fraction(2 * i + 1, 2 * abs(dx))
        events.append((t, "x"))
    for j in range(abs(dy)):
        t = Fraction(2 * j + 1, 2 * abs(dy))
        events.append((t, "y"))
    events.sort()
    sx = 1 if dx > 0 else -1
    sy = 1 if dy > 0 else -1
    out = []
    x = y = 0
    i = 0
    while i < len(events):
        t = events[i][0]
        axes = {a for tt, a in events[i:] if tt == t}
        n_here = sum(1 for tt, _ in events[i:] if tt == t)
        if axes == {"x", "y"}:
            out.append((x + sx, y))
            out.append((x, y + sy))
            x += sx
            y += sy
        elif axes == {"x"}:
            x += sx
        else:
            y += sy
        out.append((x, y))
        i += n_here
    return out


def test_supercover_cardinal_and_diagonal():
    assert supercover_offsets(1, 0) == ((1, 0),)
    assert supercover_offsets(0, -1) == ((0, -1),)
    # Exact corner crossing: both side cells appear before the far cell.
    assert supercover_offsets(1, 1) == ((1, 0), (0, 1), (1, 1))
    assert supercover_offsets(-1, 1) == ((-1, 0), (0, 1), (-1, 1))


def test_supercover_matches_interval_walk():
    rng = random.Random(4)
    cases = [(dx, dy) for dx in range(-4, 5) for dy in range(-4, 5)
             if (dx, dy) != (0, 0)]
    cases += [(rng.randrange(-9, 10), rng.randrange(-9, 10)) for _ in range(200)]
    for dx, dy in cases:
        if (dx, dy) == (0, 0):
            continue
        got = supercover_offsets(dx, dy)
        assert list(got) == crossed_cells_reference(dx, dy), (dx, dy)
        assert got[-1] == (dx, dy)


def test_supercover_rejects_null_motion():
    with pytest.raises(ValueError):
        supercover_offsets(0, 0)


# -- primitive library -------------------------------------------------------


def test_default_library_shape():
    lib = default_library()
    assert len(lib) == 3 * N_HEADINGS
    for h in range(N_HEADINGS):
        prims = lib.by_heading[h]
        assert [p.id for p in prims] == [3 * h, 3 * h + 1, 3 * h + 2]
        ends = {p.end_heading for p in prims}
        assert ends == {h, (h + 1) % N_HEADINGS, (h - 1) % N_HEADINGS}
        for p in prims:
            assert (p.dx, p.dy) == DIRS[p.end_heading]
            expect = DIAGONAL_ARC if p.dx and p.dy else CARDINAL_ARC
            assert p.arc_length == expect


def test_library_shapes_moves_and_geometry():
    lib = default_library(resolution=0.5, nominal_speed=2.0)
    # One shape per displacement: forward from h and left from h - 1 share one.
    assert lib.n_shapes == len(lib.shapes) == N_HEADINGS
    for p in lib.prims:
        same = [q.id for q in lib.prims if lib.shape[q.id] == lib.shape[p.id]]
        assert same == [q.id for q in lib.prims
                        if (q.swept, q.arc_length) == (p.swept, p.arc_length)]
    assert sorted(set(lib.shape.values())) == list(range(N_HEADINGS))
    # shapes[s] is the first primitive of shape s, and shapes are numbered in
    # ascending primitive id of that first use.
    for shape, first in enumerate(lib.shapes):
        assert first is min((p for p in lib.prims if lib.shape[p.id] == shape),
                            key=lambda p: p.id)
    assert [p.id for p in lib.shapes] == sorted(p.id for p in lib.shapes)
    for h in range(N_HEADINGS):
        assert lib.moves[h] == tuple((p, lib.shape[p.id]) for p in lib.by_heading[h])
    geo = lib.geometry(7)
    assert lib.geometry(7) is geo and lib.geometry(9) is not geo
    assert len(geo) == lib.n_shapes
    for p in lib.prims:
        assert geo[lib.shape[p.id]] == (tuple(oy * 7 + ox for ox, oy in p.swept),
                                        lib.duration(p))


def test_evaluate_edge_costs_foreign_primitives_from_their_own_fields():
    lib = default_library()
    stack = HypothesisStack((CostMap(6, 6, 1.0, tuple(range(36))),))
    twin = default_library().get(4)  # equal to lib's primitive 4, another object
    assert evaluate_edge(Pose(3, 3, 1), twin, stack, lib) == evaluate_edge(
        Pose(3, 3, 1), lib.get(4), stack, lib)
    # A primitive that reuses a library id, and one with an unknown id, are
    # costed from their own swept cells and arc length.
    expect = EdgeEvaluation(0, (2.0 * SOFT_FACTOR[22],))
    for pid in (4, 99):
        prim = MotionPrimitive(pid, 1, 1, 0, 0, 2.0, ((1, 0),))
        assert evaluate_edge(Pose(3, 3, 1), prim, stack, lib) == expect


def test_library_respects_resolution_and_speed():
    lib = default_library(resolution=0.5, nominal_speed=2.0)
    straight = lib.by_heading[0][0]
    assert straight.arc_length == 0.5 * CARDINAL_ARC
    assert lib.duration(straight) == 0.25


def test_primitive_validation():
    with pytest.raises(ValueError):
        MotionPrimitive(0, 0, 2, 0, 0, 1.0, ((1, 0),))  # swept misses endpoint


def test_library_file_roundtrip(tmp_path):
    lib = default_library(resolution=2.0)
    p = tmp_path / "prims.mhprim"
    save_library(lib, str(p))
    loaded = load_library(str(p))
    assert loaded.prims == lib.prims
    bad = tmp_path / "bad.mhprim"
    bad.write_text("MHPRIM 1\nnot numbers\n")
    with pytest.raises(LibraryFormatError):
        load_library(str(bad))


# -- successors --------------------------------------------------------------


def test_successors_bounds_and_order():
    lib = default_library()
    inner = successors(Pose(5, 5, 0), lib, 10, 10)
    assert [p.id for p, _ in inner] == sorted(p.id for p, _ in inner)
    assert len(inner) == 3
    corner = successors(Pose(0, 0, 4), lib, 10, 10)  # facing -x at the corner
    assert len(corner) < 3
    for prim, dst in successors(Pose(0, 0, 3), lib, 10, 10):
        assert dst == Pose(prim.dx, prim.dy, prim.end_heading)
        for ox, oy in prim.swept:
            assert 0 <= 0 + ox < 10 and 0 <= 0 + oy < 10


def test_successor_count_over_all_headings():
    lib = default_library()
    total = sum(len(successors(Pose(4, 4, h), lib, 9, 9)) for h in range(8))
    assert total == 24  # interior pose keeps every primitive


# -- edge evaluation ---------------------------------------------------------


def independent_edge_cost(pose, prim, cmap, speed):
    """Re-derivation of the edge cost model from its definition."""
    swept = [(pose.x + ox, pose.y + oy) for ox, oy in
             crossed_cells_reference(prim.dx, prim.dy)]
    if any(cmap.is_lethal(x, y) for x, y in swept):
        return None
    occupancy = [1.0 + cmap.value(x, y) / 255.0 for x, y in swept]
    return (prim.arc_length / speed) * (sum(occupancy) / len(occupancy))


def test_evaluate_edge_matches_independent_model():
    rng = random.Random(11)
    lib = default_library()
    for _ in range(40):
        cmap = rand_map(rng, 8, 8)
        stack = HypothesisStack((cmap,))
        pose = Pose(rng.randrange(2, 6), rng.randrange(2, 6), rng.randrange(8))
        for prim, _dst in successors(pose, lib, 8, 8):
            ev = evaluate_edge(pose, prim, stack, lib)
            expect = independent_edge_cost(pose, prim, cmap, lib.nominal_speed)
            if expect is None:
                assert ev.invalid & 1 and ev.cost[0] is None
            else:
                assert not ev.invalid & 1
                assert ev.cost[0] == pytest.approx(expect, abs=1e-12)


def test_evaluate_edge_free_map_is_nominal_duration():
    lib = default_library()
    stack = HypothesisStack((CostMap(6, 6, 1.0, (0,) * 36),))
    for prim, _dst in successors(Pose(3, 3, 1), lib, 6, 6):
        ev = evaluate_edge(Pose(3, 3, 1), prim, stack, lib)
        assert ev.cost[0] == prim.arc_length / lib.nominal_speed


def test_evaluate_edge_per_hypothesis_validity():
    lib = default_library()
    free = CostMap(6, 6, 1.0, (0,) * 36)
    blocked = free.with_cells({(4, 3): 255})
    stack = HypothesisStack((free, blocked))
    straight = lib.by_heading[0][0]
    ev = evaluate_edge(Pose(3, 3, 0), straight, stack, lib)
    assert ev.invalid == 0b10
    assert ev.cost[1] is None


def test_evaluate_edge_off_the_map_is_invalid_everywhere():
    # Flat cell indices must not wrap across rows: east from the last column
    # would read the next row's first cell, west from the first column the
    # previous row's last cell, and south from the bottom row runs past the
    # end of the cells.
    lib = default_library()
    free = CostMap(4, 3, 1.0, (0,) * 12)
    east, west, south = (lib.by_heading[h][0] for h in (0, 4, 6))
    for stack in (HypothesisStack((free,)), HypothesisStack((free, free.with_cells({(1, 1): 9})))):
        n = stack.n
        for pose, prim in ((Pose(3, 1, 0), east), (Pose(0, 1, 4), west), (Pose(1, 2, 6), south)):
            ev = evaluate_edge(pose, prim, stack, lib)
            assert ev == EdgeEvaluation((1 << n) - 1, (None,) * n)
            assert ev.invalid == (1 << n) - 1
        # The same primitives stay valid where they stay on the map.
        for pose, prim in ((Pose(2, 1, 0), east), (Pose(1, 1, 4), west), (Pose(1, 1, 6), south)):
            assert evaluate_edge(pose, prim, stack, lib).invalid == 0


def test_diagonal_sweep_blocks_side_cells():
    # A diagonal move must not slip between diagonally touching obstacles.
    lib = default_library()
    free = CostMap(6, 6, 1.0, (0,) * 36)
    pinch = free.with_cells({(4, 3): 255, (3, 2): 255})
    diag = [p for p in lib.by_heading[1] if p.end_heading == 1][0]
    ev = evaluate_edge(Pose(3, 3, 1), diag, HypothesisStack((pinch,)), lib)
    assert ev.invalid & 1


# -- trajectories ------------------------------------------------------------


def test_trajectory_accessors():
    lib = default_library()
    p0, p1, p2 = Pose(1, 1, 0), Pose(2, 1, 0), Pose(3, 0, 1)
    traj = Trajectory(((p0, 0, p1), (p1, 1, p2)), 2.5, p0)
    assert traj.poses == (p0, p1, p2)
    assert traj.end_pose() == p2
    empty = Trajectory((), 0.0, p0)
    assert empty.poses == (p0,) and empty.end_pose() == p0


def test_trajectory_collision_check():
    lib = default_library()
    p0, p1 = Pose(1, 1, 0), Pose(2, 1, 0)
    traj = Trajectory(((p0, 0, p1),), 1.0, p0)
    free = CostMap(4, 4, 1.0, (0,) * 16)
    assert traj.collision_free(free, lib)
    assert not traj.collision_free(free.with_cells({(2, 1): 255}), lib)


def test_trajectory_leaving_the_map_is_not_collision_free():
    lib = default_library()
    p0, p1 = Pose(3, 0, 0), Pose(4, 0, 0)
    traj = Trajectory(((p0, 0, p1),), 1.0, p0)
    assert not traj.collision_free(CostMap(4, 4, 1.0, (0,) * 16), lib)
