"""Independent checks on a returned trajectory, run outside the timed call."""

from __future__ import annotations

from mhplan.costmap import HypothesisStack
from mhplan.lattice import PrimitiveLibrary, Pose, Trajectory, evaluate_edge

DURATION_TOL = 1e-9


def check(traj: Trajectory, primary_view: HypothesisStack, lib: PrimitiveLibrary,
          start: Pose, goal: Pose, optimum: float | None) -> str | None:
    """Return why ``traj`` is not an executable plan on the primary map, or None.

    ``primary_view`` holds the primary map alone; ``optimum`` is the SH
    optimum on it (None when SH found no plan there).
    """
    primary = primary_view.primary
    if not traj.steps:
        return "empty trajectory"
    if not traj.collision_free(primary, lib):
        return "collides in the primary map"
    poses = traj.poses
    if poses[0].cell() != start.cell():
        return f"starts at {poses[0].cell()}, not {start.cell()}"
    if poses[-1].cell() != goal.cell():
        return f"ends at {poses[-1].cell()}, not {goal.cell()}"
    total = 0.0
    prev_dst = None
    for i, (src, pid, dst) in enumerate(traj.steps):
        prim = lib.get(pid)
        if prev_dst is not None and src.cell() != prev_dst.cell():
            return f"step {i} starts at {src.cell()}, previous ended at {prev_dst.cell()}"
        if (src.heading != prim.start_heading
                or (src.x + prim.dx, src.y + prim.dy, prim.end_heading)
                != (dst.x, dst.y, dst.heading)):
            return f"step {i} does not follow primitive {pid} from {src}"
        cost = evaluate_edge(src, prim, primary_view, lib).cost[0]
        if cost is None:
            return f"step {i} is invalid in the primary map"
        total += cost
        prev_dst = dst
    if abs(total - traj.duration) > DURATION_TOL:
        return f"duration {traj.duration!r} differs from edge-cost sum {total!r}"
    if optimum is None:
        return "SH found no plan on the primary map, yet this plan exists"
    if traj.duration < optimum - DURATION_TOL:
        return f"duration {traj.duration!r} below the SH optimum {optimum!r}"
    return None
