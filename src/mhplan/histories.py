"""Expansion histories, divergence detection, and cost averaging.

The search executes one trajectory, the primary's, so a search node keeps
the primary's history alone, and only where it is not the node's incoming
edge: its ``detour``, a :class:`~mhplan.lattice.Trajectory` that a repair of
the primary spliced in (a PEH repair, the goal hook), or the span a GEGRH
revision collapses below the candidate's new parent.  Every other node
contributes the direct step of its incoming edge, or nothing at the root and
where the primary is pending (its history broke and waits for a repair).
:func:`trajectory` walks the parent chain and joins those pieces into the
primary's trajectory.

Secondary hypotheses only feed costs, and keep no history.  A node's
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

from .lattice import EdgeEvaluation, MotionPrimitive, Pose, Trajectory


class HistoryError(RuntimeError):
    """Raised when the primary history cannot be joined into a trajectory."""


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
                     dst: Pose) -> tuple[tuple[float, ...], int, tuple | None]:
    """Extend the parent's histories across one direct edge.

    Returns ``(hyp_g, pending, step)`` for the child node: the tallies and
    mask of :func:`advance`, and the primary's direct step
    ``(parent.pose, prim.id, dst)``, as in :attr:`Trajectory.steps`, or None
    where the primary is pending.
    """
    hyp_g, pending = advance(parent, evaluation)
    return hyp_g, pending, None if pending & 1 else (parent.pose, prim.id, dst)


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


def trajectory(node, since=None) -> Trajectory:
    """The primary's trajectory along the chain to ``node``, from the root,
    or only the part below ``since`` when it is given.

    Each node on the way contributes its stored detour, the direct step of
    its incoming edge costed ``ev.cost[0]``, or nothing at the root and where
    the primary is pending.  The durations are summed from the top down.
    Raises :class:`HistoryError` when the primary is pending at the tip,
    ``since`` is not an ancestor of ``node``, or two pieces do not meet at
    one cell.
    """
    if node.pending & 1:
        raise HistoryError("the primary is pending at the requested node")
    pieces: list[tuple[tuple, float]] = []  # (steps, duration), tip first
    cur = start = node
    while cur is not since:
        if cur is None:
            raise HistoryError("the node to walk back to is not an ancestor")
        parent = cur.parent
        if cur.detour is not None:
            pieces.append((cur.detour.steps, cur.detour.duration))
        elif parent is not None and not cur.pending & 1:
            pieces.append((((parent.pose, cur.prim_id, cur.pose),), cur.ev.cost[0]))
        start, cur = cur, parent
    if since is not None:
        start = since
    steps: list[tuple[Pose, int, Pose]] = []
    duration = 0.0
    for piece, cost in reversed(pieces):
        if steps and piece and piece[0][0].cell() != steps[-1][2].cell():
            raise HistoryError(
                f"the primary history is disconnected: segment starts at "
                f"{piece[0][0].cell()} but previous segment ended at {steps[-1][2].cell()}"
            )
        steps.extend(piece)
        duration += cost
    return Trajectory(tuple(steps), duration, start.pose)
