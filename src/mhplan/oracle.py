"""Brute-force uniform-cost references for validating the planners.

These searches share the lattice edge model but none of the anytime machinery:
no heuristic, no inflation, no budget.  They exhaustively settle the whole
reachable pose graph, so they are restricted to small maps.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .costmap import CostMap, HypothesisStack
from .lattice import Pose, PrimitiveLibrary, evaluate_edge, successors

MAX_ORACLE_DIM = 32


class OracleSizeError(ValueError):
    """Raised when a map is too large for exhaustive search."""


@dataclass(frozen=True)
class OracleResult:
    optimal_cost: float | None
    optimal_path: tuple[Pose, ...] | None
    reachable: bool


def _check_size(width: int, height: int) -> None:
    if width > MAX_ORACLE_DIM or height > MAX_ORACLE_DIM:
        raise OracleSizeError(
            f"{width}x{height} exceeds the {MAX_ORACLE_DIM}x{MAX_ORACLE_DIM} oracle limit"
        )


def _uniform_cost(stack: HypothesisStack, lib: PrimitiveLibrary, start: Pose, goal: Pose,
                  edge_fn) -> OracleResult:
    """Dijkstra over (x, y, heading); ``edge_fn(pose, prim) -> cost | None``.

    The goal is any heading at the goal cell.  Ties break on (g, pose,
    primitive id, insertion order) so results are deterministic.
    """
    width, height = stack.width, stack.height
    _check_size(width, height)
    primary = stack.primary
    for label, pose in (("start", start), ("goal", goal)):
        if not primary.in_bounds(pose.x, pose.y):
            raise ValueError(f"{label} {pose.cell()} outside {width}x{height} map")

    counter = 0
    dist: dict[Pose, float] = {start: 0.0}
    parent: dict[Pose, tuple[Pose, int] | None] = {start: None}
    heap = [(0.0, start.x, start.y, start.heading, -1, counter, start)]
    settled: set[Pose] = set()
    goal_cell = goal.cell()
    best_goal: Pose | None = None

    while heap:
        g, _x, _y, _h, _pid, _c, pose = heapq.heappop(heap)
        if pose in settled:
            continue
        settled.add(pose)
        if pose.cell() == goal_cell:
            best_goal = pose
            break
        for prim, dst in successors(pose, lib, width, height):
            cost = edge_fn(pose, prim)
            if cost is None:
                continue
            nd = g + cost
            cur = dist.get(dst)
            if cur is None or nd < cur:
                dist[dst] = nd
                parent[dst] = (pose, prim.id)
                counter += 1
                heapq.heappush(heap, (nd, dst.x, dst.y, dst.heading, prim.id, counter, dst))

    if best_goal is None:
        return OracleResult(None, None, False)
    path = [best_goal]
    while parent[path[-1]] is not None:
        path.append(parent[path[-1]][0])
    path.reverse()
    return OracleResult(dist[best_goal], tuple(path), True)


def dijkstra_reference(cmap: CostMap, lib: PrimitiveLibrary, start: Pose, goal: Pose
                       ) -> OracleResult:
    """Exhaustive optimal cost on a single map, using the lattice edge model."""
    stack = HypothesisStack((cmap,))

    def edge_fn(pose, prim):
        ev = evaluate_edge(pose, prim, stack, lib)
        return ev.cost[0]  # None where the edge is invalid

    return _uniform_cost(stack, lib, start, goal, edge_fn)


def veh_reference(stack: HypothesisStack, lib: PrimitiveLibrary, start: Pose, goal: Pose
                  ) -> OracleResult:
    """Exhaustive optimum when edges must be valid in every hypothesis.

    Equivalent to searching the cell-wise union-of-lethality map with each
    edge charged the average of its per-hypothesis costs.
    """

    def edge_fn(pose, prim):
        ev = evaluate_edge(pose, prim, stack, lib)
        if ev.invalid:
            return None
        return sum(ev.cost) / len(ev.cost)

    return _uniform_cost(stack, lib, start, goal, edge_fn)
