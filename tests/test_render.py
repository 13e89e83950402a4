import math
import os
import xml.etree.ElementTree as ET

from mhplan.costmap import gen_case1
from mhplan.lattice import Pose
from mhplan.planners import plan
from mhplan.render import CELL_PX, emit_overlay, polyline_points, svg_overlay
from mhplan.search_core import AnytimeConfig

UNLIMITED = AnytimeConfig(time_budget=math.inf)
STACK = gen_case1(13, 13, (6, 6))
START, GOAL = Pose(5, 6, 1), Pose(9, 2, 1)

SVG_NS = "{http://www.w3.org/2000/svg}"


def plans():
    sh = plan("SH", STACK, START, GOAL, UNLIMITED)
    rev = plan("GEGRH", STACK, START, GOAL, UNLIMITED)
    return [("SH", sh.trajectory), ("GEGRH", rev.trajectory)]


def polyline_vertices(svg_text):
    root = ET.fromstring(svg_text)
    out = []
    for el in root.iter(f"{SVG_NS}polyline"):
        pts = [tuple(float(c) for c in pair.split(","))
               for pair in el.attrib["points"].split()]
        out.append(pts)
    return out


def test_output_is_well_formed_and_deterministic():
    entries = plans()
    first = svg_overlay(STACK, entries)
    second = svg_overlay(STACK, entries)
    assert first == second
    ET.fromstring(first)  # parses as XML


def test_map_only_render_has_no_polylines():
    text = svg_overlay(STACK)
    assert "<polyline" not in text
    assert "legend" not in text.lower()
    # One shaded rect per lethal cell (the single contested obstacle) plus
    # the background.
    root = ET.fromstring(text)
    rects = root.iter(f"{SVG_NS}rect")
    assert sum(1 for _ in rects) == 1 + 1


def test_vertices_sit_on_cell_centers():
    entries = plans()
    text = svg_overlay(STACK, entries)
    lines = polyline_vertices(text)
    assert len(lines) == 2
    for pts, (_label, traj) in zip(lines, entries):
        expect = [((p.x + 0.5) * CELL_PX, (p.y + 0.5) * CELL_PX)
                  for p in traj.poses]
        assert pts == expect
    # The two modes draw visibly different lines on this stack.
    assert lines[0] != lines[1]


def test_polyline_points_formatting():
    traj = plans()[0][1]
    pts = polyline_points(traj, scale=2.0)
    assert pts.split()[0] == "11.0,13.0"  # (5, 6) scaled to cell center


def test_legend_lists_labels():
    text = svg_overlay(STACK, plans())
    assert ">SH</text>" in text
    assert ">GEGRH</text>" in text


def test_emit_overlay_writes_bytes(tmp_path):
    path = os.path.join(tmp_path, "case.svg")
    assert emit_overlay(STACK, plans(), path) == path
    with open(path, "rb") as fh:
        data = fh.read()
    assert data == svg_overlay(STACK, plans()).encode("ascii")
    assert b"\r" not in data
