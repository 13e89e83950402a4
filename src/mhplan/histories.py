"""Per-hypothesis expansion histories, divergence detection, and cost averaging.

Every search node carries, for each world hypothesis, the incremental edge
record that extended that hypothesis's trajectory at this step (or a pending
marker where the hypothesis could not follow), plus a running per-hypothesis
cost tally.  Full per-hypothesis trajectories are reconstructed by walking the
parent chain and stitching the records together.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .lattice import EdgeEvaluation, MotionPrimitive, Pose, Trajectory

DIRECT = "direct"
REROUTED = "rerouted"


class HistoryError(RuntimeError):
    """Raised when a per-hypothesis history cannot be stitched into a trajectory."""


class EdgeRecord(NamedTuple):
    """One history increment for one hypothesis (a named tuple: one is made
    per hypothesis per admitted edge)."""

    kind: str  # DIRECT or REROUTED
    cost: float
    src: Pose
    dst: Pose
    prim_id: int | None = None  # DIRECT
    detour: Trajectory | None = None  # REROUTED


@dataclass(frozen=True)
class DivergenceInfo:
    """Where each hypothesis's history stops matching the primary one.

    ``anchors[h]`` is the deepest node on the chain whose history for
    hypothesis ``h`` is still an exact pose-for-pose prefix of the primary
    history (None when the hypothesis never diverged).  ``first_break`` is
    the earliest node on the chain whose history no longer matches in some
    hypothesis (None when none diverged); it is never the root, and its
    parent is the shallowest anchor.
    """

    anchors: tuple[object | None, ...]
    first_break: object | None


def average_edge_cost(costs) -> float:
    """Mean cost over hypotheses."""
    costs = list(costs)
    if not costs:
        raise ValueError("cannot average an empty cost collection")
    return sum(costs) / len(costs)


def baseline_cost(evaluation: EdgeEvaluation) -> float:
    """Cost charged to hypotheses that cannot follow an edge: the cost in the
    lowest-indexed hypothesis where the edge is valid (the primary when it is)."""
    for ok, c in zip(evaluation.valid, evaluation.cost):
        if ok:
            return c
    raise ValueError("edge is invalid in every hypothesis")


def record_expansion(parent, evaluation: EdgeEvaluation, prim: MotionPrimitive,
                     dst: Pose) -> tuple[tuple[float, ...], tuple[bool, ...],
                                         tuple[EdgeRecord | None, ...]]:
    """Extend the parent's per-hypothesis histories across one direct edge.

    Hypotheses whose history is intact and where the edge is valid get a direct
    record at their own cost.  Hypotheses that cannot follow (edge invalid, or
    already pending at the parent) get no record and are marked pending; their
    tally advances by the baseline cost until a reroute repairs them.
    Returns ``(hyp_g, pending, edges)`` for the child node.
    """
    base = baseline_cost(evaluation)
    src = parent.pose
    hyp_g: list[float] = []
    pending: list[bool] = []
    edges: list[EdgeRecord | None] = []
    for h, (ok, cost) in enumerate(zip(evaluation.valid, evaluation.cost)):
        if ok and not parent.pending[h]:
            hyp_g.append(parent.hyp_g[h] + cost)
            pending.append(False)
            edges.append(EdgeRecord(DIRECT, cost, src, dst, prim_id=prim.id))
        else:
            hyp_g.append(parent.hyp_g[h] + base)
            pending.append(True)
            edges.append(None)
    return tuple(hyp_g), tuple(pending), tuple(edges)


def _chain(node) -> list:
    """Parent chain of ``node``, root first."""
    chain = []
    cur = node
    while cur is not None:
        chain.append(cur)
        cur = cur.parent
    chain.reverse()
    return chain


def divergence_point(node) -> DivergenceInfo:
    """Locate, per hypothesis, the last node whose history still matched the primary."""
    chain = _chain(node)
    anchors: list[object | None] = []
    break_at: list[int | None] = []
    for h in range(len(node.pending)):
        anchor = None
        idx = None
        for i, cur in enumerate(chain):
            rec = cur.edges[h] if cur.edges is not None else None
            broken = cur.pending[h] or (rec is not None and rec.kind == REROUTED)
            if broken:
                # The root carries no incoming edge, so i >= 1 here.
                anchor = chain[i - 1]
                idx = i
                break
        anchors.append(anchor)
        break_at.append(idx)
    first_idx = min((i for i in break_at if i is not None), default=None)
    return DivergenceInfo(tuple(anchors),
                          None if first_idx is None else chain[first_idx])


def last_intact(node, h: int):
    """Deepest ancestor (or the node itself) whose history for ``h`` is intact."""
    cur = node
    while cur is not None:
        if not cur.pending[h]:
            return cur
        cur = cur.parent
    raise HistoryError(f"hypothesis {h} has no intact ancestor")


def reconstruct(node, h: int) -> list[EdgeRecord]:
    """Ordered edge records of hypothesis ``h`` along the chain to ``node``.

    Raises :class:`HistoryError` when the history is pending at the tip or the
    collected records do not chain contiguously.
    """
    if node.pending[h]:
        raise HistoryError(f"hypothesis {h} is pending at the requested node")
    records: list[EdgeRecord] = []
    for cur in _chain(node):
        if cur.edges is None:
            continue
        rec = cur.edges[h]
        if rec is not None:
            records.append(rec)
    tail: Pose | None = None
    for rec in records:
        if tail is not None and rec.src.cell() != tail.cell():
            raise HistoryError(
                f"hypothesis {h} history is disconnected: segment starts at "
                f"{rec.src.cell()} but previous segment ended at {tail.cell()}"
            )
        tail = rec.dst
    return records


def stitch(records: list[EdgeRecord], start: Pose) -> Trajectory:
    """Concatenate direct and rerouted records into one executable trajectory."""
    steps: list[tuple[Pose, int, Pose]] = []
    duration = 0.0
    for rec in records:
        duration += rec.cost
        if rec.kind == DIRECT:
            steps.append((rec.src, rec.prim_id, rec.dst))
        else:
            if rec.detour is None:
                raise HistoryError("rerouted record carries no trajectory payload")
            steps.extend(rec.detour.steps)
    return Trajectory(tuple(steps), duration, start)
