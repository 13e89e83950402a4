import random

import pytest

from mhplan.costmap import (CostMap, GenerationError, HypothesisStack,
                            MapFormatError, diff_cells, dumps_costmap,
                            gen_case1, gen_case2, gen_clutter, load_costmap,
                            load_stack, loads_costmap, save_costmap,
                            save_stack)


def grid(w, h, lethal=(), threshold=254):
    cells = [0] * (w * h)
    for (x, y) in lethal:
        cells[y * w + x] = 255
    return CostMap(w, h, 1.0, tuple(cells), threshold)


def test_costmap_invariants():
    m = grid(3, 2)
    assert m.width == 3 and m.height == 2
    with pytest.raises(ValueError):
        CostMap(3, 2, 1.0, (0,) * 5)
    with pytest.raises(ValueError):
        CostMap(3, 2, 0.0, (0,) * 6)
    with pytest.raises(ValueError):
        CostMap(3, 2, 1.0, (0,) * 5 + (256,))
    with pytest.raises(ValueError):
        CostMap(3, 2, 1.0, (0,) * 6, lethal_threshold=0)


def test_is_lethal_threshold_inclusive():
    m = CostMap(2, 1, 1.0, (253, 254), 254)
    assert not m.is_lethal(0, 0)
    assert m.is_lethal(1, 0)
    with pytest.raises(IndexError):
        m.is_lethal(2, 0)


def test_lethal_255_and_free_zero():
    m = grid(3, 3, lethal=[(1, 1)])
    assert m.is_lethal(1, 1)
    assert not m.is_lethal(0, 0)


def test_with_cells_and_diff():
    m = grid(4, 4)
    m2 = m.with_cells({(2, 3): 255, (0, 0): 7})
    assert m.value(2, 3) == 0  # original untouched
    assert m2.value(2, 3) == 255 and m2.value(0, 0) == 7
    assert diff_cells(m, m2) == {(2, 3), (0, 0)}
    with pytest.raises(ValueError):
        diff_cells(m, grid(3, 3))


def test_roundtrip_is_canonical(tmp_path):
    m = grid(3, 3, lethal=[(1, 1)])
    p = tmp_path / "m.mhmap"
    save_costmap(m, str(p))
    loaded = load_costmap(str(p))
    assert loaded == m
    # a sloppily formatted file canonicalizes on the second pass
    sloppy = "MHMAP 1\n3  3   1.0  254\n0 0 0\n0  255 0\n0 0 0\n\n"
    assert dumps_costmap(loads_costmap(sloppy)) == dumps_costmap(m)


def test_load_errors_name_position():
    with pytest.raises(MapFormatError, match=":1:"):
        loads_costmap("BOGUS\n1 1 1.0 254\n0\n")
    with pytest.raises(MapFormatError, match="cell count mismatch"):
        loads_costmap("MHMAP 1\n3 3 1.0 254\n0 0 0\n0 0\n0 0 0\n")
    with pytest.raises(MapFormatError, match="outside"):
        loads_costmap("MHMAP 1\n1 1 1.0 254\n900\n")
    with pytest.raises(MapFormatError, match="bad cell value"):
        loads_costmap("MHMAP 1\n1 1 1.0 254\nxyz\n")


def test_load_refuses_rows_of_the_wrong_length():
    # Six values for a 3x2 map, but on rows of 4 and 2: read in order they
    # would move the lethal cell written on line 3 to (0, 1).
    with pytest.raises(MapFormatError, match=r"<string>:3: row has 4 values"):
        loads_costmap("MHMAP 1\n3 2 1.0 254\n0 0 0 255\n0 0\n")
    # A blank line is skipped, and the line named is the file's own.
    with pytest.raises(MapFormatError, match=r"<string>:5: row has 2 values"):
        loads_costmap("MHMAP 1\n3 2 1.0 254\n0 0 0\n\n0 0\n255\n")


def test_all_free_map_has_no_lethal_cells():
    m = loads_costmap("MHMAP 1\n3 3 1.0 254\n0 0 0\n0 0 0\n0 0 0\n")
    assert not any(m.is_lethal(x, y) for x in range(3) for y in range(3))


def test_stack_invariants():
    a, b = grid(4, 4), grid(4, 4, lethal=[(1, 1)])
    stack = HypothesisStack((a, b))
    assert stack.n == 2 and stack.primary is a
    assert stack.single(1).maps == (b,)
    with pytest.raises(ValueError):
        HypothesisStack(())
    with pytest.raises(ValueError):
        HypothesisStack((a, grid(3, 4)))


def test_stack_file_roundtrip(tmp_path):
    stack = gen_case1(6, 5, (2, 2))
    p = tmp_path / "s.mhstack"
    save_stack(stack, str(p))
    assert load_stack(str(p)) == stack


def test_gen_case1_single_cell_diff():
    stack = gen_case1(10, 10, (5, 5))
    assert diff_cells(stack.maps[0], stack.maps[1]) == {(5, 5)}
    assert not stack.maps[0].is_lethal(5, 5)
    assert stack.maps[1].is_lethal(5, 5)
    corner = gen_case1(10, 10, (0, 0))
    assert diff_cells(corner.maps[0], corner.maps[1]) == {(0, 0)}
    with pytest.raises(ValueError):
        gen_case1(10, 10, (10, 0))


def test_gen_case2_wall_diffs():
    stack = gen_case2(20, 20, (4, 7), 6, orientation="h")
    diff = diff_cells(stack.maps[0], stack.maps[1])
    assert diff == {(4 + i, 7) for i in range(6)}
    thick = gen_case2(20, 20, (4, 7), 5, orientation="v", thickness=2)
    assert len(diff_cells(thick.maps[0], thick.maps[1])) == 10
    single = gen_case2(20, 20, (4, 7), 1)
    assert len(diff_cells(single.maps[0], single.maps[1])) == 1
    with pytest.raises(ValueError):
        gen_case2(20, 20, (18, 7), 6, orientation="h")


def test_gen_clutter_deterministic():
    a = gen_clutter(24, 24, seed=7, density=0.15, n_hypotheses=3, shift=2)
    b = gen_clutter(24, 24, seed=7, density=0.15, n_hypotheses=3, shift=2)
    assert a == b
    c = gen_clutter(24, 24, seed=8, density=0.15, n_hypotheses=3, shift=2)
    assert a != c


def test_gen_clutter_density_zero_all_free():
    stack = gen_clutter(16, 16, seed=1, density=0.0, n_hypotheses=3, shift=2)
    for m in stack.maps:
        assert not any(m.is_lethal(x, y) for x in range(16) for y in range(16))


def test_gen_clutter_successive_maps_differ():
    stack = gen_clutter(24, 24, seed=3, density=0.15, n_hypotheses=3, shift=2)
    assert stack.n == 3
    for older, newer in zip(stack.maps[1:], stack.maps[:-1]):
        assert diff_cells(older, newer)


def test_gen_clutter_keeps_protected_cells_free():
    rng = random.Random(90)
    for _ in range(10):
        seed = rng.randrange(10_000)
        keep = ((2, 12), (21, 11))
        stack = gen_clutter(24, 24, seed=seed, density=0.2, n_hypotheses=3,
                            shift=2, keep_free=keep)
        for m in stack.maps:
            for (cx, cy) in keep:
                for dx in (-1, 0, 1):
                    for dy in (-1, 0, 1):
                        assert not m.is_lethal(cx + dx, cy + dy)


def test_gen_clutter_impossible_keep_free_raises():
    # Density so high the keep-free neighborhood cannot survive placement.
    with pytest.raises((GenerationError, ValueError)):
        gen_clutter(6, 6, seed=0, density=0.97, n_hypotheses=2, shift=1,
                    keep_free=tuple((x, y) for x in range(1, 5) for y in range(1, 5)))
