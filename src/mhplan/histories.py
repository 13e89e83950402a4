"""Per-hypothesis expansion histories, divergence detection, and cost averaging.

Every search node has, for each world hypothesis, the incremental edge record
that extended that hypothesis's trajectory at this step, or none where the
hypothesis is pending (its history broke and waits for a repair).  A node's
``pending`` is a bitmask, bit ``h`` set where hypothesis ``h`` is pending.
Most records are DIRECT and follow from the node's incoming edge, so a node
stores only its pending mask; :func:`records` rebuilds the records when they
are read, through :func:`direct_records`.  A node stores its records
explicitly only where some record is not the direct one: a REROUTED detour
spliced in by a repair, or a goal candidate's rewritten history.  Full
per-hypothesis trajectories are reconstructed by walking the parent chain
and stitching the records together.

Divergence is read from the masks alone.  A pending hypothesis is repaired
by a detour from its anchor, its :func:`last_intact` ancestor.  A child's
mask is its parent's with the edge's invalid bits added, and only a stored
repair clears a bit.  No record is stored above a GEH/GEGRH goal candidate,
so on its chain the first break is the shallowest pending node
(:func:`divergence_point`).

Per-hypothesis cost tallies are kept on a node (``hyp_g``) only by PEH, whose
frontier and repairs read them (:func:`advance`).  Elsewhere a node's g is
its one tally.
"""

from __future__ import annotations

from typing import NamedTuple

from .lattice import EdgeEvaluation, MotionPrimitive, Pose, Trajectory

DIRECT = "direct"
REROUTED = "rerouted"


class HistoryError(RuntimeError):
    """Raised when a per-hypothesis history cannot be stitched into a trajectory."""


class EdgeRecord(NamedTuple):
    """One history increment for one hypothesis (a named tuple: DIRECT ones
    are rebuilt every time a node's records are read)."""

    kind: str  # DIRECT or REROUTED
    cost: float
    src: Pose
    dst: Pose
    prim_id: int | None = None  # DIRECT
    detour: Trajectory | None = None  # REROUTED


def average_edge_cost(costs) -> float:
    """Mean cost over hypotheses; ``costs`` is a sequence."""
    if not costs:
        raise ValueError("cannot average an empty cost collection")
    return sum(costs) / len(costs)


def baseline_cost(evaluation: EdgeEvaluation) -> float:
    """Cost charged to hypotheses that cannot follow an edge: the cost in the
    lowest-indexed hypothesis where the edge is valid (the primary when it is)."""
    for c in evaluation.cost:
        if c is not None:
            return c
    raise ValueError("edge is invalid in every hypothesis")


def advance(parent, evaluation: EdgeEvaluation) -> tuple[tuple[float, ...], int]:
    """Per-hypothesis tallies and pending mask of a child across one direct edge.

    A hypothesis is pending at the child where it is pending at the parent
    or the edge is invalid in it: ``parent.pending | evaluation.invalid``.
    The others advance by their own cost; a pending hypothesis's tally
    advances by the baseline cost until a reroute repairs it.
    """
    base = baseline_cost(evaluation)
    pending = parent.pending | evaluation.invalid
    return tuple([g + base if pending >> h & 1 else g + c
                  for h, (g, c) in enumerate(zip(parent.hyp_g, evaluation.cost))]), pending


def direct_records(pending: int, costs, src: Pose, dst: Pose,
                   prim_id: int) -> tuple[EdgeRecord | None, ...]:
    """History increments of a child across one direct edge: a DIRECT record
    at the hypothesis's own cost for each hypothesis whose bit in ``pending``
    is clear, and None for each whose bit is set."""
    return tuple([None if pending >> h & 1 else EdgeRecord(DIRECT, c, src, dst, prim_id)
                  for h, c in enumerate(costs)])


def record_expansion(parent, evaluation: EdgeEvaluation, prim: MotionPrimitive,
                     dst: Pose) -> tuple[tuple[float, ...], int,
                                         tuple[EdgeRecord | None, ...]]:
    """Extend the parent's per-hypothesis histories across one direct edge.

    Returns ``(hyp_g, pending, edges)`` for the child node: the tallies and
    mask of :func:`advance` and the records of :func:`direct_records`.
    """
    hyp_g, pending = advance(parent, evaluation)
    return hyp_g, pending, direct_records(pending, evaluation.cost, parent.pose, dst,
                                          prim.id)


def records(node) -> tuple[EdgeRecord | None, ...] | None:
    """History increments of ``node``: its explicit ``edges`` when it has
    them, otherwise the :func:`direct_records` of its incoming edge, and None
    at the root."""
    edges = node.edges
    if edges is not None:
        return edges
    parent = node.parent
    if parent is None:
        return None
    return direct_records(node.pending, node.ev.cost, parent.pose, node.pose, node.prim_id)


def divergence_point(node):
    """The shallowest pending node on ``node``'s chain, or None when
    ``node``'s own mask is 0.

    It relies on masks that only grow down the chain: a child's mask is its
    parent's with the edge's invalid bits added (:func:`advance`), and only
    a stored repair clears a bit.  Then the pending nodes are the chain's
    tail, the returned node's parent is intact in every hypothesis, and
    hypothesis ``h`` broke just below ``last_intact(node, h)``.  Every
    GEH/GEGRH goal candidate's chain qualifies: only the goal hook stores
    records, and only on candidates, which are never expanded.  The root's
    mask is 0, so the walk stops below it.
    """
    if not node.pending:
        return None
    while node.parent.pending:
        node = node.parent
    return node


def last_intact(node, h: int):
    """Deepest ancestor (or the node itself) whose history for ``h`` is intact."""
    cur = node
    while cur is not None:
        if not cur.pending >> h & 1:
            return cur
        cur = cur.parent
    raise HistoryError(f"hypothesis {h} has no intact ancestor")


def reconstruct(node, h: int, since=None) -> list[EdgeRecord]:
    """Ordered edge records of hypothesis ``h`` along the chain to ``node``,
    from the root, or only those of the nodes below ``since`` when it is given.

    Raises :class:`HistoryError` when the history is pending at the tip,
    ``since`` is not an ancestor of ``node``, or the collected records do not
    chain contiguously.
    """
    if node.pending >> h & 1:
        raise HistoryError(f"hypothesis {h} is pending at the requested node")
    out: list[EdgeRecord] = []
    cur = node
    while cur is not since:
        if cur is None:
            raise HistoryError("the node to reconstruct from is not an ancestor")
        recs = records(cur)
        if recs is not None and recs[h] is not None:
            out.append(recs[h])
        cur = cur.parent
    out.reverse()
    tail: Pose | None = None
    for rec in out:
        if tail is not None and rec.src.cell() != tail.cell():
            raise HistoryError(
                f"hypothesis {h} history is disconnected: segment starts at "
                f"{rec.src.cell()} but previous segment ended at {tail.cell()}"
            )
        tail = rec.dst
    return out


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
