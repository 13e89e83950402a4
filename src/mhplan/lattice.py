"""Heading-indexed state lattice: poses, motion primitives, and edge evaluation.

Edges are short precomputed motions between grid poses.  Each primitive carries
the ordered list of cells swept while executing it (supercover rasterization,
origin cell excluded, endpoint included), so validity and traversal cost against
a cost map reduce to a scan over those cells.

Edge costs read the soft-cost factor ``1 + value / 255`` of each cell value
from one 256-entry module table, ``SOFT_FACTOR``, instead of dividing per
cell; the table holds the same floats the division gives, so every cost is
bit-identical to the formula.

A :class:`PrimitiveLibrary` describes each shape once (primitives with the
same swept cells and arc length cost the same from any cell, whatever their
headings): ``shapes`` holds the first primitive of each, and every per-shape
table is derived from it.  Per map width, those are the swept cells as flat
index offsets together with the nominal duration; per map size, which cells
each shape's edge leaves the map from (the edge table's and the cost-to-go
field's one rule for it) and the obstacle-free time of every displacement
(the field's guide, see :class:`mhplan.search_core.CostToGo`).

One kernel, :func:`evaluate_at`, holds the edge-cost formula.  World
hypotheses agree on most cells, so it walks the swept cells on the primary
map alone and replicates the cost, unless a :func:`divergence_mask` marks
some swept cell as differing between the maps; only then does it cost the
edge on each map.  The search fills its edge table through it (see
:meth:`mhplan.search_core.SearchProblem.edges`), once per (cell, shape);
:func:`evaluate_edge` is the public per-edge wrapper, and :func:`successors`
the reference enumeration, both off the hot path (the oracle and the tests
use them).

``Pose`` and ``EdgeEvaluation`` are named tuples: they hash, order and print
like the equivalent frozen records, and are cheap to create on the search's
hot path.  As tuples they also compare equal to plain tuples of their fields.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import NamedTuple

from .costmap import CostMap, HypothesisStack

N_HEADINGS = 8
# Unit steps per heading, 45 degrees apart, counterclockwise on screen (y down).
DIRS = ((1, 0), (1, -1), (0, -1), (-1, -1), (-1, 0), (-1, 1), (0, 1), (1, 1))

PRIM_MAGIC = "MHPRIM 1"

# Arc lengths in cells for unit steps.  The diagonal is quantized to 1.5 (above
# the sqrt(2) chord) so the straight-line-time heuristic stays admissible while
# free-space edge costs remain exactly representable in binary floating point.
CARDINAL_ARC = 1.0
DIAGONAL_ARC = 1.5

# Soft-cost factor of each cell value, indexed by the value.
SOFT_FACTOR = tuple(1.0 + v / 255.0 for v in range(256))

# A bytes.translate table that maps every nonzero byte to 1.
NONZERO = bytes(min(v, 1) for v in range(256))


class LibraryFormatError(ValueError):
    """Raised for malformed primitive library files."""


class Pose(NamedTuple):
    x: int
    y: int
    heading: int

    def cell(self) -> tuple[int, int]:
        return (self.x, self.y)


def supercover_offsets(dx: int, dy: int) -> tuple[tuple[int, int], ...]:
    """Cells entered by the segment from (0,0) to (dx,dy) between cell centers.

    The origin cell is excluded and the endpoint is last.  When the segment
    passes exactly through a cell corner both adjacent cells are included, so a
    diagonal motion cannot slip between two diagonally touching obstacles.
    """
    if dx == 0 and dy == 0:
        raise ValueError("zero-length motion has no swept cells")
    cells: list[tuple[int, int]] = []
    x = y = 0
    nx, ny = abs(dx), abs(dy)
    sx = 1 if dx > 0 else -1
    sy = 1 if dy > 0 else -1
    ix = iy = 0
    while ix < nx or iy < ny:
        decision = (1 + 2 * ix) * ny - (1 + 2 * iy) * nx
        if decision == 0:
            cells.append((x + sx, y))
            cells.append((x, y + sy))
            x += sx
            y += sy
            ix += 1
            iy += 1
        elif decision < 0:
            x += sx
            ix += 1
        else:
            y += sy
            iy += 1
        cells.append((x, y))
    return tuple(cells)


@dataclass(frozen=True)
class MotionPrimitive:
    """One lattice edge shape, anchored at a start heading."""

    id: int
    start_heading: int
    dx: int
    dy: int
    end_heading: int
    arc_length: float
    swept: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if not 0 <= self.start_heading < N_HEADINGS or not 0 <= self.end_heading < N_HEADINGS:
            raise ValueError(f"primitive {self.id}: headings must be in [0, {N_HEADINGS})")
        if self.arc_length <= 0.0:
            raise ValueError(f"primitive {self.id}: arc length must be positive")
        if not self.swept:
            raise ValueError(f"primitive {self.id}: swept cell list is empty")
        if self.swept[-1] != (self.dx, self.dy):
            raise ValueError(f"primitive {self.id}: swept cells must end at the displacement")


class PrimitiveLibrary:
    """Primitives grouped by start heading, plus the nominal execution speed.

    ``shape[prim.id]`` numbers the distinct ``(swept, arc_length)`` pairs,
    ``0 .. n_shapes - 1`` in ascending primitive id of their first use; the
    default library's 24 primitives have 8 shapes.  ``shapes[shape]`` is the
    first primitive of that shape, the one description :meth:`geometry`,
    :meth:`off_map` and :meth:`free_costs` read.  ``moves[heading]`` lists,
    in ascending primitive id, ``(prim, shape)``.
    """

    def __init__(self, prims: tuple[MotionPrimitive, ...], nominal_speed: float = 1.0,
                 resolution: float | None = None):
        if nominal_speed <= 0.0:
            raise ValueError("nominal speed must be positive")
        ids = [p.id for p in prims]
        if len(set(ids)) != len(ids):
            raise ValueError("primitive ids must be unique")
        self.prims = tuple(sorted(prims, key=lambda p: p.id))
        self.nominal_speed = nominal_speed
        self.resolution = resolution
        self.by_heading: dict[int, tuple[MotionPrimitive, ...]] = {
            h: tuple(p for p in self.prims if p.start_heading == h) for h in range(N_HEADINGS)
        }
        self._by_id = {p.id: p for p in self.prims}
        first: dict[tuple, MotionPrimitive] = {}
        for p in self.prims:
            first.setdefault((p.swept, p.arc_length), p)
        self.shapes = tuple(first.values())
        self.n_shapes = len(self.shapes)
        index = {key: s for s, key in enumerate(first)}
        self.shape = {p.id: index[p.swept, p.arc_length] for p in self.prims}
        self.moves: dict[int, tuple[tuple[MotionPrimitive, int], ...]] = {
            h: tuple((p, self.shape[p.id]) for p in prims)
            for h, prims in self.by_heading.items()
        }
        self._geometry: dict[int, tuple[tuple[tuple[int, ...], float], ...]] = {}
        self._off_map: dict[tuple[int, int], tuple[bytes, ...]] = {}
        self._free_costs: dict[tuple[int, int], tuple[float, ...]] = {}

    def geometry(self, width: int) -> tuple[tuple[tuple[int, ...], float], ...]:
        """Per shape, the swept cells as offsets of the flat cell index
        ``y * width + x`` and the nominal duration; cached per map width."""
        geo = self._geometry.get(width)
        if geo is None:
            geo = self._geometry[width] = tuple(
                (tuple(oy * width + ox for ox, oy in p.swept), self.duration(p))
                for p in self.shapes)
        return geo

    def off_map(self, width: int, height: int) -> tuple[bytes, ...]:
        """Per shape, one byte per cell of a ``width`` x ``height`` map
        (flat index ``y * width + x``), 1 where the edge of that shape from
        the cell leaves the map, else 0; cached per map size."""
        key = (width, height)
        patterns = self._off_map.get(key)
        if patterns is None:
            out = []
            for p in self.shapes:
                xs = [x for x, _ in p.swept]
                ys = [y for _, y in p.swept]
                x_lo, y_lo, x_hi, y_hi = min(xs), min(ys), max(xs), max(ys)
                row = bytes(not (0 <= x + x_lo and x + x_hi < width) for x in range(width))
                off = b"\x01" * width
                out.append(b"".join(row if 0 <= y + y_lo and y + y_hi < height else off
                                    for y in range(height)))
            patterns = self._off_map[key] = tuple(out)
        return patterns

    def free_costs(self, width: int, height: int) -> tuple[float, ...]:
        """Least nominal duration of a chain of shapes, heading ignored, that
        moves by ``(dx, dy)`` while every partial sum keeps ``|dx| < width``
        and ``|dy| < height``: the obstacle-free time between two cells of a
        ``width`` x ``height`` map (``inf`` where no chain exists).

        Indexed by ``(dy + height - 1) * (2 * width - 1) + dx + width - 1``;
        0 at ``(0, 0)``.  Exact shortest distances over the displacement
        graph, so consistent for any library: each entry is at most the
        entry one shape back plus that shape's duration.  Cached per map
        size.
        """
        key = (width, height)
        costs = self._free_costs.get(key)
        if costs is None:
            span = 2 * width - 1
            steps: dict[tuple[int, int], float] = {}
            for p in self.shapes:
                if p.dx or p.dy:
                    d = self.duration(p)
                    steps[p.dx, p.dy] = min(d, steps.get((p.dx, p.dy), d))
            moves = [(dx, dy, dy * span + dx, d) for (dx, dy), d in sorted(steps.items())]
            x_max, y_max = width - 1, height - 1
            origin = y_max * span + x_max
            best = [math.inf] * (span * (2 * height - 1))
            best[origin] = 0.0
            heap = [(0.0, origin)]
            pop, push = heapq.heappop, heapq.heappush
            while heap:
                g, v = pop(heap)
                if g > best[v]:
                    continue  # superseded entry
                vy, vx = divmod(v, span)
                vx -= x_max
                vy -= y_max
                for dx, dy, step, d in moves:
                    if -x_max <= vx + dx <= x_max and -y_max <= vy + dy <= y_max:
                        ng = g + d
                        u = v + step
                        if ng < best[u]:
                            best[u] = ng
                            push(heap, (ng, u))
            costs = self._free_costs[key] = tuple(best)
        return costs

    def duration(self, prim: MotionPrimitive) -> float:
        """Nominal (free-space) execution time of a primitive, in seconds."""
        return prim.arc_length / self.nominal_speed

    def __len__(self) -> int:
        return len(self.prims)

    def get(self, prim_id: int) -> MotionPrimitive:
        try:
            return self._by_id[prim_id]
        except KeyError:
            raise KeyError(f"no primitive with id {prim_id}") from None


def default_library(resolution: float = 1.0, nominal_speed: float = 1.0) -> PrimitiveLibrary:
    """Minimal unit-step library: per heading, forward plus 45-degree left/right.

    Ids are ``3 * heading + {0: forward, 1: left, 2: right}``.
    """
    prims = []
    for h in range(N_HEADINGS):
        for slot, eh in enumerate((h, (h + 1) % N_HEADINGS, (h - 1) % N_HEADINGS)):
            dx, dy = DIRS[eh]
            arc = (CARDINAL_ARC if dx == 0 or dy == 0 else DIAGONAL_ARC) * resolution
            prims.append(
                MotionPrimitive(
                    id=3 * h + slot,
                    start_heading=h,
                    dx=dx,
                    dy=dy,
                    end_heading=eh,
                    arc_length=arc,
                    swept=supercover_offsets(dx, dy),
                )
            )
    return PrimitiveLibrary(tuple(prims), nominal_speed=nominal_speed, resolution=resolution)


def successors(pose: Pose, lib: PrimitiveLibrary, width: int, height: int
               ) -> list[tuple[MotionPrimitive, Pose]]:
    """Applicable primitives at ``pose`` whose swept cells stay on the map.

    Deterministic: ascending primitive id.  This is the reference
    enumeration; the search itself reads which edges leave the map from
    :meth:`PrimitiveLibrary.off_map`, through its edge table (see
    :meth:`mhplan.search_core.SearchProblem.edges`).
    """
    out = []
    for prim in lib.by_heading.get(pose.heading, ()):
        ok = True
        for ox, oy in prim.swept:
            cx, cy = pose.x + ox, pose.y + oy
            if not (0 <= cx < width and 0 <= cy < height):
                ok = False
                break
        if ok:
            out.append((prim, Pose(pose.x + prim.dx, pose.y + prim.dy, prim.end_heading)))
    return out


class EdgeEvaluation(NamedTuple):
    """Per-hypothesis validity and traversal cost of one edge.

    ``invalid`` is a bitmask: bit ``h`` is set where the edge is invalid in
    hypothesis ``h`` (0 when it is valid in every one).  ``cost[h]`` is None
    there; otherwise it is the nominal duration scaled by the mean soft-cost
    factor ``1 + value / 255`` over the swept cells.
    """

    invalid: int
    cost: tuple[float | None, ...]


def divergence_mask(maps: tuple[CostMap, ...]) -> bytes | None:
    """Per cell of ``maps[0]``'s layout, 1 where some map differs from the
    primary in value or in lethality, else 0; None when no cell differs (a
    single map, or identical ones).

    The maps' cells are compared as big integers: the XOR of two maps is
    nonzero exactly in the bytes of the cells they differ on.  Cells of
    equal value differ in lethality only between maps of different
    ``lethal_threshold``, so only those XOR their lethal masks too.
    """
    if len(maps) == 1:
        return None
    primary = maps[0]
    cells = int.from_bytes(primary.cells, "little")
    diff = 0
    for cmap in maps[1:]:
        diff |= cells ^ int.from_bytes(cmap.cells, "little")
        if cmap.lethal_threshold != primary.lethal_threshold:
            diff |= (int.from_bytes(primary.lethal_mask, "little")
                     ^ int.from_bytes(cmap.lethal_mask, "little"))
    if not diff:
        return None
    return diff.to_bytes(len(primary.cells), "little").translate(NONZERO)


def evaluate_at(base: int, offsets: tuple[int, ...], nominal: float,
                maps: tuple[CostMap, ...], divergence) -> EdgeEvaluation | None:
    """The edge sweeping the flat cells ``base + offset``, of nominal duration
    ``nominal``, against every map of ``maps``; None when it is invalid in
    every one.

    ``divergence`` is the :func:`divergence_mask` of ``maps`` (None when they
    agree on every cell).  While no swept cell diverges, the edge is costed on
    the primary map alone: a lethal cell there is lethal in every map, and
    the cost, summed from the same values in the same order, is the one every
    map would give, and ``invalid`` is 0.  Otherwise it is costed on each
    map, and ``invalid`` has bit ``h`` set for each map ``h`` where a swept
    cell is lethal.
    """
    factor = SOFT_FACTOR
    k = len(offsets)
    primary = maps[0]
    cells = primary.cells
    thr = primary.lethal_threshold
    total = 0.0
    for off in offsets:
        idx = base + off
        if divergence is not None and divergence[idx]:
            break
        v = cells[idx]
        if v >= thr:
            return None
        total += factor[v]
    else:
        return tuple.__new__(EdgeEvaluation, (0, (nominal * (total / k),) * len(maps)))
    swept = [base + off for off in offsets]
    invalid = 0
    cost = []
    for h, cmap in enumerate(maps):
        cells = cmap.cells
        thr = cmap.lethal_threshold
        total = 0.0
        for idx in swept:
            v = cells[idx]
            if v >= thr:
                invalid |= 1 << h
                cost.append(None)
                break
            total += factor[v]
        else:
            cost.append(nominal * (total / k))
    if invalid == (1 << len(maps)) - 1:
        return None
    return tuple.__new__(EdgeEvaluation, (invalid, tuple(cost)))


def evaluate_edge(pose: Pose, prim: MotionPrimitive, stack: HypothesisStack,
                  lib: PrimitiveLibrary) -> EdgeEvaluation:
    """Check and cost one edge against every hypothesis in the stack.

    Only the pose's cell and the primitive's shape matter, so primitives that
    share a shape (see :class:`PrimitiveLibrary`) give equal evaluations.  A
    primitive of ``lib`` reads its offsets and duration from
    :meth:`PrimitiveLibrary.geometry`; any other is costed from its own
    fields.  An edge that leaves the map is invalid in every hypothesis, as
    in :meth:`Trajectory.collision_free`.  The cost comes from
    :func:`evaluate_at`, against the stack's cached :func:`divergence_mask`
    (``stack.divergence``).
    """
    width = stack.width
    height = stack.height
    if all(0 <= pose.x + ox < width and 0 <= pose.y + oy < height for ox, oy in prim.swept):
        if lib._by_id.get(prim.id) is prim:
            offsets, nominal = lib.geometry(width)[lib.shape[prim.id]]
        else:
            offsets = tuple(oy * width + ox for ox, oy in prim.swept)
            nominal = lib.duration(prim)
        ev = evaluate_at(pose.y * width + pose.x, offsets, nominal, stack.maps,
                         stack.divergence)
        if ev is not None:
            return ev
    n = stack.n
    return EdgeEvaluation((1 << n) - 1, (None,) * n)


@dataclass(frozen=True)
class Trajectory:
    """Executed pose sequence: per-step (source, primitive id, destination).

    A step's source heading can differ from the previous step's arrival heading
    where a rerouted segment was spliced in; cell continuity always holds.
    """

    steps: tuple[tuple[Pose, int, Pose], ...]
    duration: float
    start: Pose

    @property
    def poses(self) -> tuple[Pose, ...]:
        if not self.steps:
            return (self.start,)
        out = [self.steps[0][0]]
        for _src, _pid, dst in self.steps:
            out.append(dst)
        return tuple(out)

    def end_pose(self) -> Pose:
        if not self.steps:
            return self.start
        return self.steps[-1][2]

    def collision_free(self, cmap: CostMap, lib: PrimitiveLibrary) -> bool:
        """True when every swept cell of every step is on ``cmap`` and not
        lethal there."""
        for src, pid, _dst in self.steps:
            prim = lib.get(pid)
            for ox, oy in prim.swept:
                x, y = src.x + ox, src.y + oy
                if not cmap.in_bounds(x, y) or cmap.is_lethal(x, y):
                    return False
        return True


_LIB_CACHE: dict[int, PrimitiveLibrary] = {}


def save_library(lib: PrimitiveLibrary, path: str) -> None:
    lines = [PRIM_MAGIC]
    for p in lib.prims:
        cells = " ".join(f"{x} {y}" for x, y in p.swept)
        lines.append(
            f"{p.id} {p.start_heading} {p.dx} {p.dy} {p.end_heading} {p.arc_length!r} "
            f"{len(p.swept)} {cells}"
        )
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def load_library(path: str, nominal_speed: float = 1.0) -> PrimitiveLibrary:
    with open(path, "r", encoding="ascii") as fh:
        lines = [ln for ln in fh.read().splitlines() if ln.strip()]
    if not lines or lines[0].strip() != PRIM_MAGIC:
        raise LibraryFormatError(f"{path}:1: expected header '{PRIM_MAGIC}'")
    prims = []
    for lineno, line in enumerate(lines[1:], start=2):
        tok = line.split()
        if len(tok) < 7:
            raise LibraryFormatError(f"{path}:{lineno}: short primitive line")
        try:
            pid, sh, dx, dy, eh = (int(t) for t in tok[:5])
            arc = float(tok[5])
            k = int(tok[6])
            coords = [int(t) for t in tok[7:]]
        except ValueError as exc:
            raise LibraryFormatError(f"{path}:{lineno}: {exc}") from exc
        if len(coords) != 2 * k:
            raise LibraryFormatError(
                f"{path}:{lineno}: declared {k} swept cells but listed {len(coords) // 2}"
            )
        swept = tuple((coords[2 * i], coords[2 * i + 1]) for i in range(k))
        try:
            prims.append(MotionPrimitive(pid, sh, dx, dy, eh, arc, swept))
        except ValueError as exc:
            raise LibraryFormatError(f"{path}:{lineno}: {exc}") from exc
    return PrimitiveLibrary(tuple(prims), nominal_speed=nominal_speed)


def shared_default_library(resolution: float = 1.0) -> PrimitiveLibrary:
    """Process-wide cached default library for a given resolution."""
    key = hash(resolution)
    lib = _LIB_CACHE.get(key)
    if lib is None or lib.resolution != resolution:
        lib = default_library(resolution)
        _LIB_CACHE[key] = lib
    return lib
