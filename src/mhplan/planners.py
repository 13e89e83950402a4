"""Planner modes over hypothesis stacks.

All five modes run the same anytime engine.  They differ only in the stack
view the search plans on, the edge admission policy, the goal handling and
the duplicate-detection frontier, and the branch on :class:`PlannerMode` in
:func:`plan` is the one place where those are chosen:

* ``SH``    plans against the primary map alone.
* ``VEH``   admits edges valid in every hypothesis and charges each the mean
            of its per-hypothesis costs, as :func:`~mhplan.oracle.veh_reference`
            does.  A start or goal that is unreachable in the intersection of
            free space resolves to a no-plan result rather than an error.
* ``PEH``   admits edges valid in at least one hypothesis and immediately
            repairs each diverged hypothesis with a rerouted detour, averaging
            direct and detour costs into the search cost.  It has no goal
            hook: the engine never accepts a candidate whose primary history
            is pending.
* ``GEH``   admits edges on primary-style cost alone and defers hypothesis
            accounting until a goal candidate pops, when each diverged
            hypothesis is rerouted to the goal from its last intact ancestor,
            as PEH reroutes, and the goal-edge cost becomes the average of
            the candidate edge and those detours.
* ``GEGRH`` is GEH plus graph revision: after a goal-edge update the candidate
            is rewired to the parent of the shallowest pending node on its
            chain, the last node intact in every hypothesis, and that
            node's stale subtree is dropped, concentrating further effort
            where the world hypotheses actually disagree.  The candidate
            stores the primary's trajectory from that parent as its detour.
            A candidate whose own parent is intact everywhere has nothing to
            rewire and is not revised.  Each goal candidate is updated, and
            so revised, at most once, which bounds the revision loop.

SH and VEH search with a :class:`~mhplan.search_core.CostToGo` heuristic: its
mask is the primary's lethal cells for SH and the cells lethal in any
hypothesis for VEH, exactly the cells their policies never let an edge
sweep, so the bound stays admissible.  On a one-map stack every mode is SH
and uses SH's field.  PEH, GEH and GEGRH on several maps keep the
straight-line heuristic.  For GEH and GEGRH a field over the cells lethal in
every hypothesis cut expansions but raised virtual time: each closed cell
costs a tick, and their goal reroutes, which a field would shorten, are rare.
With a field PEH's repairs changed.  Nested detour searches keep it too: a
field per detour spends the detour's small budget share on cells, which left
more repairs unsolved.

Duplicate detection is the engine's :class:`~mhplan.search_core.BestGTable`,
the cheapest node per (pose, primary pending bit), except for PEH, which
keeps an antichain over histories
(:class:`~mhplan.search_core.HistoryFrontier`).  Keyed on the bit, a node
whose primary history is pending never shadows an intact one, so with an
unlimited budget GEH and GEGRH plan wherever the primary map has a plan.

Only PEH carries per-hypothesis cost tallies on its nodes, because its
frontier and repairs read them.  Every other node's g is its one tally: the
primary's for SH, GEH and GEGRH, which share one policy (as do the nested
detour searches), and the sum of per-edge means for VEH.

Each nested detour search gets ``DEFAULT_REROUTE_FRACTION`` of the outer
search's remaining budget.  A diverged secondary hypothesis that cannot reach
the goal is charged ``DEFAULT_REROUTE_PENALTY`` times the goal edge.
"""

from __future__ import annotations

import enum
import math

from . import histories
from .costmap import HypothesisStack
from .histories import HistoryError
from .lattice import Pose, PrimitiveLibrary, Trajectory, shared_default_library
from .search_core import (
    AnytimeConfig,
    AnytimeSearch,
    HistoryFrontier,
    PlanResult,
    RevisionEvent,
    SearchProblem,
    SearchTrace,
)

DEFAULT_REROUTE_FRACTION = 0.10
DEFAULT_REROUTE_PENALTY = 3.0


class PlannerMode(str, enum.Enum):
    SH = "SH"
    VEH = "VEH"
    PEH = "PEH"
    GEH = "GEH"
    GEGRH = "GEGRH"


MODES = tuple(m.value for m in PlannerMode)


# -- expansion policies ------------------------------------------------------


def _veh_policy(engine, node, prim, ev, dst):
    """Require validity in every hypothesis; charge the mean of the edge's costs."""
    if ev.invalid:
        return None
    return (node.g + histories.average_edge_cost(ev.cost), None, 0, None)


def _primary_policy(engine, node, prim, ev, dst):
    """Admit on any-hypothesis validity at primary-style cost; defer repairs.

    The child's g is its primary tally, the one tally it carries: it
    advances by the primary's own cost where the edge is valid there and by
    the baseline cost where it is not (goal candidates, whose g the goal
    hook rewrites, are never expanded).  A hypothesis is pending where it is
    at the parent or the edge is invalid in it.  No secondary tally is
    kept, and the engine alone asks the frontier whether the child is
    admitted.  The engine never offers an edge invalid in every map, so on
    one map (SH, every nested detour search) a child is never pending.
    """
    g = node.g + (ev.cost[0] if not ev.invalid & 1 else histories.baseline_cost(ev))
    return (g, None, node.pending | ev.invalid, None)


def _make_peh_policy(rerouter: "Rerouter"):
    def policy(engine, node, prim, ev, dst):
        hyp_g, pending = histories.advance(node, ev)
        detour = None
        if pending:
            hyp_g, pending, detour = _repair_pending(engine, rerouter, node, dst, hyp_g,
                                                     pending)
        g = histories.average_edge_cost(hyp_g)
        return (g, hyp_g, pending, detour)

    return policy


def _detours(engine, rerouter, parent, pending, target_cell):
    """Reroute each hypothesis set in ``pending`` from its anchor, its last
    intact ancestor of ``parent``, to ``target_cell``.

    Yields ``(h, anchor, traj)`` in hypothesis order, ``traj`` None where no
    detour was found.  A caller that stops iterating starts no later reroute.
    """
    for h in range(pending.bit_length()):
        if pending >> h & 1:
            anchor = histories.last_intact(parent, h)
            yield h, anchor, rerouter.reroute(engine, anchor.pose, target_cell, h)


def _repair_pending(engine, rerouter, parent, dst, hyp_g, pending):
    """Try to close every pending hypothesis with a detour ending at ``dst``.

    Returns the updated tallies and pending mask, and the child's detour:
    the primary's where it was repaired, otherwise None (the direct step, or
    nothing while the primary stays pending).
    """
    new_g = list(hyp_g)
    detour = None
    for h, anchor, traj in _detours(engine, rerouter, parent, pending, dst.cell()):
        if traj is None:
            continue
        new_g[h] = anchor.hyp_g[h] + traj.duration
        pending &= ~(1 << h)
        if h == 0:
            detour = traj
    return tuple(new_g), pending, detour


# -- goal hooks --------------------------------------------------------------


def _make_goal_update_hook(rerouter: "Rerouter", revise: bool):
    def hook(engine, node):
        pending = node.pending
        if not pending:
            return True  # nothing to reconcile, or updated already
        parent = node.parent  # a pending node is never the root
        goal_edge = node.g - parent.g
        terms = [goal_edge]
        for h, _anchor, traj in _detours(engine, rerouter, parent, pending,
                                         node.pose.cell()):
            if traj is None:
                if h == 0:
                    return False  # primary trajectory cannot be realized
                terms.append(DEFAULT_REROUTE_PENALTY * goal_edge)
            else:
                terms.append(traj.duration)
                if h == 0:
                    node.detour = traj
        # Read while the candidate's mask is still the one its chain grew.
        first_break = histories.divergence_point(node) if revise else None
        new_edge = histories.average_edge_cost(terms)
        node.g = parent.g + new_edge
        node.pending = 0  # every hypothesis is in the cost: a detour or a penalty
        if engine.trace is not None:
            engine.trace.goal_updates.append((node.nid, tuple(terms), new_edge))
        # A candidate is updated at most once (every later pop returns at
        # the top), so it is revised at most once too.  One whose parent is
        # intact everywhere is its own first break: there is nothing to
        # rewire, and revising it would revoke the candidate itself.
        if revise and first_break is not node:
            graph_revision(engine, node, first_break)
        engine.reinsert(node)
        return False

    return hook


# -- graph revision ----------------------------------------------------------


def graph_revision(engine: AnytimeSearch, goal_node, divergence_node) -> None:
    """Rewire an updated goal candidate past the divergence point.

    ``divergence_node`` is the shallowest pending node on the candidate's
    chain (:func:`~mhplan.histories.divergence_point`), so its parent is
    the last ancestor intact everywhere.  The candidate's parent pointer
    moves there, and ``engine.revoke`` drops the divergence node's whole
    subtree from the open list and the frontier and bars it from
    re-expansion (its poses stay reachable through freshly created nodes).
    The surviving candidate acts as one long independent edge, and later
    expansions concentrate around the divergence region instead of the goal.
    ``divergence_node`` must not be the candidate itself.
    """
    nd = divergence_node
    if nd.parent is None:
        raise HistoryError("divergence node must have an intact parent")
    former_parent = nd.parent
    # The nodes between former_parent and the candidate are dropped, so the
    # candidate keeps the primary's whole trajectory below former_parent.
    goal_node.detour = histories.trajectory(goal_node, since=former_parent)
    goal_node.parent = former_parent
    goal_node.prim_id = -1
    engine.revoke(nd)
    if engine.trace is not None:
        engine.trace.revisions.append(
            RevisionEvent(
                goal_nid=goal_node.nid,
                divergence_nid=nd.nid,
                former_parent_nid=former_parent.nid,
                open_nids=tuple(n.nid for n in engine.open_snapshot()),
                kept_nids=tuple(n.nid for n in engine.frontier.nodes()),
                expansion_index=engine.expansions,
            )
        )


# -- rerouting ---------------------------------------------------------------


class Rerouter:
    """Memoized single-hypothesis detour searches sharing the caller's clock.

    It is the one place that refuses a detour: a query whose anchor or
    target cell is lethal in its hypothesis, or that finds no budget left,
    answers None without a search, costs no tick and is memoized like any
    other.  All nested searches of one hypothesis share one edge table (see
    :class:`~mhplan.search_core.SearchProblem`), kept for the life of the
    rerouter, that is, of one plan call.
    """

    def __init__(self, stack: HypothesisStack, lib: PrimitiveLibrary,
                 trace: SearchTrace | None = None):
        self.stack = stack
        self.lib = lib
        self.trace = trace
        self.memo: dict[tuple[Pose, tuple[int, int], int], Trajectory | None] = {}
        self._tables: dict[int, dict] = {}

    def reroute(self, engine: AnytimeSearch, anchor: Pose, target_cell: tuple[int, int],
                h: int) -> Trajectory | None:
        key = (anchor, target_cell, h)
        if key in self.memo:
            return self.memo[key]
        cmap = self.stack.maps[h]
        result = None
        if not cmap.is_lethal(*target_cell) and not cmap.is_lethal(anchor.x, anchor.y):
            budget = DEFAULT_REROUTE_FRACTION * engine.remaining_budget()
            if budget > 0.0:
                engine.reroutes += 1
                result = reroute(
                    anchor, target_cell, h, self.stack,
                    budget=budget, lib=self.lib, clock=engine.clock,
                    _table=self._tables.setdefault(h, {}),
                )
                if self.trace is not None:
                    self.trace.reroutes.append(
                        (anchor, target_cell, h, result is not None,
                         result.duration if result is not None else None)
                    )
        self.memo[key] = result
        return result


def reroute(from_pose: Pose, to_pose, h: int, stack: HypothesisStack,
            budget: float = math.inf, *, lib: PrimitiveLibrary | None = None,
            clock=None, _table: dict | None = None) -> Trajectory | None:
    """Collision-free detour within one hypothesis, or None when unreachable.

    Runs an uninflated search on ``stack.maps[h]`` from ``from_pose`` to the
    target cell (any heading), capped by ``budget`` seconds.  ``to_pose`` may
    be a Pose or an ``(x, y)`` cell.
    """
    lib = lib or shared_default_library(stack.resolution)
    tx, ty = (to_pose.x, to_pose.y) if isinstance(to_pose, Pose) else to_pose
    view = stack.single(h)
    cfg = AnytimeConfig(
        initial_inflation=1.0, inflation_step=1.0, final_inflation=1.0,
        time_budget=budget, goal_tolerance=0.0,
    )
    problem = SearchProblem(view, lib, from_pose, Pose(tx, ty, 0), table=_table)
    result = AnytimeSearch(problem, cfg, _primary_policy, None, clock, None).run()
    return result.trajectory


# -- planner entry point -----------------------------------------------------


def plan(mode, stack: HypothesisStack, start: Pose, goal: Pose,
         cfg: AnytimeConfig | None = None, *, lib: PrimitiveLibrary | None = None,
         clock=None, trace: SearchTrace | None = None) -> PlanResult:
    """Plan from ``start`` to ``goal`` with a mode name or :class:`PlannerMode`.

    ``cfg`` defaults to :class:`AnytimeConfig`, ``lib`` to the shared default
    library at the stack's resolution and ``clock`` to a fresh
    :class:`~mhplan.search_core.VirtualClock`; ``trace`` records the search.
    """
    mode = PlannerMode(mode)
    cfg = cfg or AnytimeConfig()
    lib = lib or shared_default_library(stack.resolution)
    view, hook, frontier = stack, None, None
    if mode is PlannerMode.SH:
        view, policy = stack.single(0), _primary_policy
    elif mode is PlannerMode.VEH:
        policy = _veh_policy
    else:
        rerouter = Rerouter(stack, lib, trace)
        if mode is PlannerMode.PEH:
            policy = _make_peh_policy(rerouter)
            # PEH's g averages its tallies, and a pending tally is a
            # placeholder until a later repair replaces it, so the least-g
            # node at a pose, even per primary pending bit, can shadow the
            # one whose repairs end cheapest: keep incomparable histories
            # side by side.  On 204 seeded stacks (16², 24², 32², n=2-3,
            # unlimited budget) the keyed table raised PEH's cost on 3
            # (test_peh_keeps_incomparable_histories pins one).
            frontier = HistoryFrontier()
        else:
            policy = _primary_policy
            hook = _make_goal_update_hook(rerouter, revise=mode is PlannerMode.GEGRH)
    # The cost-to-go field where its mask blocks exactly what the policy
    # refuses: the primary's lethal cells for SH (and every mode on one map),
    # lethal in any hypothesis for VEH.
    mask = view.lethal_mask if mode is PlannerMode.VEH or view.n == 1 else None
    problem = SearchProblem(view, lib, start, goal, mask=mask)
    return AnytimeSearch(problem, cfg, policy, hook, clock, trace, frontier=frontier).run()
