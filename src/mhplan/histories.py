"""Expansion histories, divergence detection, and cost averaging.

The search executes one trajectory, the primary's, so a search node keeps
the primary's history alone.  Each node has the incremental edge record
that extended the primary's trajectory at this step, or none where the
primary is pending (its history broke and waits for a repair).  Most records
are DIRECT and follow from the node's incoming edge, so a node stores none;
:func:`record` rebuilds it when it is read.  A node stores its record
explicitly only where it is not the direct one: a REROUTED detour spliced in
by a repair of the primary, or a GEGRH goal candidate's consolidated span.
The primary trajectory is reconstructed by walking the parent chain and
stitching the records together.

Secondary hypotheses only feed costs, and keep no records.  A node's
``pending`` is a bitmask, bit ``h`` set where hypothesis ``h`` is pending.
Divergence is read from the masks alone.  A pending hypothesis is repaired
by a detour from its anchor, its :func:`last_intact` ancestor.  A child's
mask is its parent's with the edge's invalid bits added.  Only a PEH repair
clears a bit, or the goal hook, which clears a GEH/GEGRH goal candidate's
whole mask once its cost accounts for every hypothesis.  Candidates are never
expanded, so on a candidate's chain the first break is the shallowest pending
node (:func:`divergence_point`).

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
    """Raised when the primary history cannot be stitched into a trajectory."""


class EdgeRecord(NamedTuple):
    """One increment of the primary's history (a named tuple: DIRECT ones are
    rebuilt every time a node's record is read)."""

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


def record_expansion(parent, evaluation: EdgeEvaluation, prim: MotionPrimitive,
                     dst: Pose) -> tuple[tuple[float, ...], int, EdgeRecord | None]:
    """Extend the parent's histories across one direct edge.

    Returns ``(hyp_g, pending, record)`` for the child node: the tallies and
    mask of :func:`advance`, and the primary's DIRECT record, or None where
    the primary is pending.
    """
    hyp_g, pending = advance(parent, evaluation)
    rec = None if pending & 1 else EdgeRecord(DIRECT, evaluation.cost[0], parent.pose,
                                              dst, prim.id)
    return hyp_g, pending, rec


def record(node) -> EdgeRecord | None:
    """The primary's history increment at ``node``: its explicit ``record``
    when it has one, otherwise the DIRECT record of its incoming edge, and
    None at the root or where the primary is pending."""
    rec = node.record
    if rec is not None:
        return rec
    parent = node.parent
    if parent is None or node.pending & 1:
        return None
    return EdgeRecord(DIRECT, node.ev.cost[0], parent.pose, node.pose, node.prim_id)


def divergence_point(node):
    """The shallowest pending node on ``node``'s chain, or None when
    ``node``'s own mask is 0.

    It relies on masks that only grow down the chain: a child's mask is its
    parent's with the edge's invalid bits added (:func:`advance`), and only
    a PEH repair clears a bit.  Then the pending nodes are the chain's
    tail, the returned node's parent is intact in every hypothesis, and
    hypothesis ``h`` broke just below ``last_intact(node, h)``.  Every
    GEH/GEGRH goal candidate's chain qualifies until the goal hook updates
    it: the hook alone rewrites a mask there, and only a candidate's, which
    is never expanded.  The root's mask is 0, so the walk stops below it.
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


def reconstruct(node, since=None) -> list[EdgeRecord]:
    """Ordered primary edge records along the chain to ``node``, from the
    root, or only those of the nodes below ``since`` when it is given.

    Raises :class:`HistoryError` when the primary is pending at the tip,
    ``since`` is not an ancestor of ``node``, or the collected records do not
    chain contiguously.
    """
    if node.pending & 1:
        raise HistoryError("the primary is pending at the requested node")
    out: list[EdgeRecord] = []
    cur = node
    while cur is not since:
        if cur is None:
            raise HistoryError("the node to reconstruct from is not an ancestor")
        rec = record(cur)
        if rec is not None:
            out.append(rec)
        cur = cur.parent
    out.reverse()
    tail: Pose | None = None
    for rec in out:
        if tail is not None and rec.src.cell() != tail.cell():
            raise HistoryError(
                f"the primary history is disconnected: segment starts at "
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
