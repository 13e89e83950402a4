"""Grid cost maps, hypothesis stacks, text-file IO, and synthetic stack generators.

A cost map is a row-major grid of integer cell values in [0, 255].  Values at or
above the lethal threshold are obstacles; everything below is traversable, with
the value acting as a soft traversal penalty.  A hypothesis stack is an ordered
list of maps of identical shape: index 0 is the primary (most recent) world
hypothesis, higher indices are progressively older samples of the same world.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass
from functools import cached_property

DEFAULT_LETHAL = 254
MAP_MAGIC = "MHMAP 1"
STACK_MAGIC = "MHSTACK 1"

_GEN_MAX_ATTEMPTS = 50


class MapFormatError(ValueError):
    """Raised for malformed map or stack files."""


class GenerationError(RuntimeError):
    """Raised when a synthetic stack cannot be generated under the constraints."""


@dataclass(frozen=True)
class CostMap:
    """Immutable 2D cost grid. ``cells`` is row-major with row 0 at the top.

    Any sequence of ints in [0, 255] is accepted for ``cells`` and stored as
    ``bytes``, one byte per cell instead of one object pointer.
    """

    width: int
    height: int
    resolution: float
    cells: bytes
    lethal_threshold: int = DEFAULT_LETHAL

    def __post_init__(self):
        if self.width <= 0 or self.height <= 0:
            raise ValueError(f"map dimensions must be positive, got {self.width}x{self.height}")
        if not (self.resolution > 0.0) or not math.isfinite(self.resolution):
            raise ValueError(f"resolution must be a positive finite number, got {self.resolution}")
        if not 1 <= self.lethal_threshold <= 255:
            raise ValueError(f"lethal threshold must be in [1, 255], got {self.lethal_threshold}")
        if len(self.cells) != self.width * self.height:
            raise ValueError(
                f"cell count {len(self.cells)} does not match {self.width}x{self.height}"
            )
        if not isinstance(self.cells, bytes):
            for i, v in enumerate(self.cells):
                if not isinstance(v, int) or not 0 <= v <= 255:
                    raise ValueError(
                        f"cell {i % self.width},{i // self.width} value {v!r} outside [0, 255]")
            object.__setattr__(self, "cells", bytes(self.cells))

    @cached_property
    def lethal_mask(self) -> bytes:
        """Per-cell lethality flags, same layout as ``cells``."""
        thr = self.lethal_threshold
        return self.cells.translate(bytes(1 if v >= thr else 0 for v in range(256)))

    def in_bounds(self, x: int, y: int) -> bool:
        return 0 <= x < self.width and 0 <= y < self.height

    def value(self, x: int, y: int) -> int:
        if not self.in_bounds(x, y):
            raise IndexError(f"cell ({x}, {y}) outside {self.width}x{self.height} map")
        return self.cells[y * self.width + x]

    def is_lethal(self, x: int, y: int) -> bool:
        """True when the cell value reaches the lethal threshold (boundary inclusive)."""
        if not self.in_bounds(x, y):
            raise IndexError(f"cell ({x}, {y}) outside {self.width}x{self.height} map")
        return self.cells[y * self.width + x] >= self.lethal_threshold

    def with_cells(self, updates: dict[tuple[int, int], int]) -> "CostMap":
        """Copy of this map with the given ``(x, y) -> value`` cells replaced."""
        cells = list(self.cells)
        for (x, y), v in updates.items():
            if not self.in_bounds(x, y):
                raise IndexError(f"cell ({x}, {y}) outside {self.width}x{self.height} map")
            cells[y * self.width + x] = v
        return CostMap(self.width, self.height, self.resolution, tuple(cells), self.lethal_threshold)


def dumps_costmap(cmap: CostMap) -> str:
    """Canonical text serialization (single spaces, newline-terminated rows)."""
    lines = [MAP_MAGIC, f"{cmap.width} {cmap.height} {cmap.resolution!r} {cmap.lethal_threshold}"]
    for y in range(cmap.height):
        row = cmap.cells[y * cmap.width : (y + 1) * cmap.width]
        lines.append(" ".join(str(v) for v in row))
    return "\n".join(lines) + "\n"


def save_costmap(cmap: CostMap, path: str) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(dumps_costmap(cmap))


def loads_costmap(text: str, origin: str = "<string>") -> CostMap:
    lines = text.splitlines()
    if not lines or lines[0].strip() != MAP_MAGIC:
        raise MapFormatError(f"{origin}:1: expected header '{MAP_MAGIC}'")
    if len(lines) < 2:
        raise MapFormatError(f"{origin}:2: missing map header line")
    head = lines[1].split()
    if len(head) != 4:
        raise MapFormatError(f"{origin}:2: expected 'width height resolution lethal_threshold'")
    try:
        width, height = int(head[0]), int(head[1])
        resolution = float(head[2])
        threshold = int(head[3])
    except ValueError as exc:
        raise MapFormatError(f"{origin}:2: {exc}") from exc
    cells: list[int] = []
    rows = [(lineno, line.split()) for lineno, line in enumerate(lines[2:], start=3)
            if line.strip()]
    for lineno, toks in rows:
        for tok in toks:
            try:
                v = int(tok)
            except ValueError as exc:
                raise MapFormatError(f"{origin}:{lineno}: bad cell value {tok!r}") from exc
            if not 0 <= v <= 255:
                raise MapFormatError(f"{origin}:{lineno}: cell value {v} outside [0, 255]")
            cells.append(v)
    if width > 0 and height > 0 and len(cells) != width * height:
        raise MapFormatError(
            f"{origin}: cell count mismatch: {len(cells)} values declared for {width}x{height} map"
        )
    # A right total can still put cells on the wrong rows.
    for lineno, toks in rows:
        if len(toks) != width:
            raise MapFormatError(
                f"{origin}:{lineno}: row has {len(toks)} values for a map {width} wide")
    try:
        return CostMap(width, height, resolution, bytes(cells), threshold)
    except ValueError as exc:
        raise MapFormatError(f"{origin}: {exc}") from exc


def load_costmap(path: str) -> CostMap:
    with open(path, "r", encoding="ascii") as fh:
        return loads_costmap(fh.read(), origin=path)


def diff_cells(a: CostMap, b: CostMap) -> set[tuple[int, int]]:
    """Cells at which two same-shaped maps disagree."""
    if (a.width, a.height) != (b.width, b.height):
        raise ValueError("maps have different shapes")
    return {
        (i % a.width, i // a.width)
        for i, (va, vb) in enumerate(zip(a.cells, b.cells))
        if va != vb
    }


@dataclass(frozen=True)
class HypothesisStack:
    """Ordered cost maps of identical shape; ``maps[0]`` is the primary hypothesis."""

    maps: tuple[CostMap, ...]

    def __post_init__(self):
        if not self.maps:
            raise ValueError("a hypothesis stack needs at least one map")
        first = self.maps[0]
        for i, m in enumerate(self.maps[1:], start=1):
            if (m.width, m.height) != (first.width, first.height):
                raise ValueError(f"map {i} shape {m.width}x{m.height} differs from primary")
            if m.resolution != first.resolution:
                raise ValueError(f"map {i} resolution {m.resolution} differs from primary")

    @property
    def n(self) -> int:
        return len(self.maps)

    @property
    def primary(self) -> CostMap:
        return self.maps[0]

    @property
    def width(self) -> int:
        return self.maps[0].width

    @property
    def height(self) -> int:
        return self.maps[0].height

    @property
    def resolution(self) -> float:
        return self.maps[0].resolution

    @property
    def lethal_mask(self) -> bytes:
        """Per-cell flags, 1 where the cell is lethal in some hypothesis (the
        primary's cached mask for one map, otherwise built on each access)."""
        if len(self.maps) == 1:
            return self.maps[0].lethal_mask
        bits = 0
        for cmap in self.maps:
            bits |= int.from_bytes(cmap.lethal_mask, "little")
        return bits.to_bytes(len(self.maps[0].cells), "little")

    @cached_property
    def divergence(self) -> bytes | None:
        """The maps' :func:`~mhplan.lattice.divergence_mask`, built on first
        access and kept: 1 per cell where some map differs from the primary."""
        from .lattice import divergence_mask  # lattice imports this module

        return divergence_mask(self.maps)

    def single(self, index: int) -> "HypothesisStack":
        """One-map view of hypothesis ``index`` (0 gives the primary-only view)."""
        return HypothesisStack((self.maps[index],))


def save_stack(stack: HypothesisStack, path: str) -> None:
    """Write a stack file plus one map file per hypothesis next to it."""
    directory = os.path.dirname(os.path.abspath(path))
    base = os.path.splitext(os.path.basename(path))[0]
    names = []
    for i, cmap in enumerate(stack.maps):
        name = f"{base}_{i}.mhmap"
        save_costmap(cmap, os.path.join(directory, name))
        names.append(name)
    with open(path, "w", encoding="ascii") as fh:
        fh.write(STACK_MAGIC + "\n")
        fh.write(f"{stack.n}\n")
        for name in names:
            fh.write(name + "\n")


def load_stack(path: str) -> HypothesisStack:
    with open(path, "r", encoding="ascii") as fh:
        lines = [ln.strip() for ln in fh.read().splitlines()]
    if not lines or lines[0] != STACK_MAGIC:
        raise MapFormatError(f"{path}:1: expected header '{STACK_MAGIC}'")
    if len(lines) < 2:
        raise MapFormatError(f"{path}:2: missing hypothesis count")
    try:
        n = int(lines[1])
    except ValueError as exc:
        raise MapFormatError(f"{path}:2: bad hypothesis count {lines[1]!r}") from exc
    entries = [ln for ln in lines[2:] if ln]
    if len(entries) != n:
        raise MapFormatError(f"{path}: declared {n} maps but listed {len(entries)}")
    directory = os.path.dirname(os.path.abspath(path))
    maps = tuple(load_costmap(os.path.join(directory, entry)) for entry in entries)
    try:
        return HypothesisStack(maps)
    except ValueError as exc:
        raise MapFormatError(f"{path}: {exc}") from exc


def _free_map(width: int, height: int, resolution: float, threshold: int) -> CostMap:
    return CostMap(width, height, resolution, bytes(width * height), threshold)


def gen_case1(
    width: int,
    height: int,
    obstacle: tuple[int, int],
    resolution: float = 1.0,
    lethal_threshold: int = DEFAULT_LETHAL,
) -> HypothesisStack:
    """Two-map stack whose hypotheses differ at exactly one cell.

    The primary map is free at ``obstacle``; the secondary marks it lethal.
    """
    primary = _free_map(width, height, resolution, lethal_threshold)
    if not primary.in_bounds(*obstacle):
        raise ValueError(f"obstacle {obstacle} outside {width}x{height} map")
    secondary = primary.with_cells({obstacle: 255})
    return HypothesisStack((primary, secondary))


def gen_case2(
    width: int,
    height: int,
    wall_start: tuple[int, int],
    wall_len: int,
    orientation: str = "h",
    resolution: float = 1.0,
    lethal_threshold: int = DEFAULT_LETHAL,
    thickness: int = 1,
) -> HypothesisStack:
    """Two-map stack where only the secondary contains a contiguous wall.

    ``orientation`` is ``"h"`` (the wall runs along +x) or ``"v"`` (along +y);
    ``thickness`` extends the wall perpendicular to its run.
    """
    if wall_len < 1:
        raise ValueError("wall length must be at least 1")
    if thickness < 1:
        raise ValueError("wall thickness must be at least 1")
    if orientation not in ("h", "v"):
        raise ValueError(f"orientation must be 'h' or 'v', got {orientation!r}")
    primary = _free_map(width, height, resolution, lethal_threshold)
    x0, y0 = wall_start
    cells: dict[tuple[int, int], int] = {}
    for i in range(wall_len):
        for t in range(thickness):
            pos = (x0 + i, y0 + t) if orientation == "h" else (x0 + t, y0 + i)
            if not primary.in_bounds(*pos):
                raise ValueError(f"wall cell {pos} outside {width}x{height} map")
            cells[pos] = 255
    return HypothesisStack((primary, primary.with_cells(cells)))


def _blob_cells(cx: int, cy: int, radius: int) -> list[tuple[int, int]]:
    cells = []
    for dy in range(-radius, radius + 1):
        for dx in range(-radius, radius + 1):
            if dx * dx + dy * dy <= radius * radius:
                cells.append((cx + dx, cy + dy))
    return cells


def _render_blobs(
    blobs: list[tuple[int, int, int]], width: int, height: int, resolution: float, threshold: int
) -> CostMap:
    cells = [0] * (width * height)
    for cx, cy, r in blobs:
        for x, y in _blob_cells(cx, cy, r):
            if 0 <= x < width and 0 <= y < height:
                cells[y * width + x] = 255
    return CostMap(width, height, resolution, bytes(cells), threshold)


def gen_clutter(
    width: int,
    height: int,
    seed: int,
    density: float,
    n_hypotheses: int,
    shift: int,
    keep_free: tuple[tuple[int, int], ...] = (),
    resolution: float = 1.0,
    lethal_threshold: int = DEFAULT_LETHAL,
) -> HypothesisStack:
    """Stack of ``n_hypotheses`` temporal samples of a drifting obstacle field.

    Round obstacle blobs are placed until roughly ``density`` of the base map is
    lethal, then each successive (older) sample translates every blob
    independently by up to ``shift`` cells.  The stack is ordered newest first.
    Cells in ``keep_free`` (plus their 8-neighborhoods) stay free in every
    hypothesis; if that cannot be honored the generator retries and then raises
    :class:`GenerationError`.  Output is fully determined by the arguments.
    """
    if not 0.0 <= density < 1.0:
        raise ValueError(f"density must be in [0, 1), got {density}")
    if n_hypotheses < 1:
        raise ValueError("need at least one hypothesis")
    if shift < 0:
        raise ValueError("shift magnitude must be non-negative")

    protected = set()
    for px, py in keep_free:
        if not (0 <= px < width and 0 <= py < height):
            raise ValueError(f"keep-free cell ({px}, {py}) outside {width}x{height} map")
        for dy in (-1, 0, 1):
            for dx in (-1, 0, 1):
                protected.add((px + dx, py + dy))

    rng = random.Random(seed)
    target = int(density * width * height)

    for _attempt in range(_GEN_MAX_ATTEMPTS):
        blobs: list[tuple[int, int, int]] = []
        covered: set[tuple[int, int]] = set()
        placements = 0
        while len(covered) < target and placements < 20 * (target + 1):
            placements += 1
            r = rng.randint(1, 2)
            cx = rng.randint(0, width - 1)
            cy = rng.randint(0, height - 1)
            cells = _blob_cells(cx, cy, r)
            if any(c in protected for c in cells):
                continue
            blobs.append((cx, cy, r))
            covered.update(c for c in cells if 0 <= c[0] < width and 0 <= c[1] < height)
        if len(covered) < target:
            continue

        # Oldest-to-newest evolution: each sample translates the previous blobs.
        samples = [blobs]
        rendered = [_render_blobs(blobs, width, height, resolution, lethal_threshold)]
        ok = True
        for _step in range(n_hypotheses - 1):
            prev = samples[-1]
            for _reroll in range(_GEN_MAX_ATTEMPTS):
                moved = []
                for cx, cy, r in prev:
                    dx = rng.randint(-shift, shift)
                    dy = rng.randint(-shift, shift)
                    nx = min(max(cx + dx, 0), width - 1)
                    ny = min(max(cy + dy, 0), height - 1)
                    if any(c in protected for c in _blob_cells(nx, ny, r)):
                        nx, ny = cx, cy
                    moved.append((nx, ny, r))
                image = _render_blobs(moved, width, height, resolution, lethal_threshold)
                if shift == 0 or not prev or image.cells != rendered[-1].cells:
                    break
            else:
                ok = False
                break
            samples.append(moved)
            rendered.append(image)
        if not ok:
            continue

        maps = tuple(reversed(rendered))
        if any(
            m.is_lethal(px, py) for m in maps for (px, py) in keep_free
        ):
            continue
        return HypothesisStack(maps)

    raise GenerationError(
        f"could not generate a {width}x{height} clutter stack at density {density} "
        f"keeping {sorted(keep_free)} free (seed {seed})"
    )
