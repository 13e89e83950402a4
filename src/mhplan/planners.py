"""Planner modes over hypothesis stacks.

All five modes run the same anytime engine and differ only in the edge
admission rule and the goal handling:

* ``SH``    plans against the primary map alone.
* ``VEH``   admits edges valid in every hypothesis, averaging their costs.
* ``PEH``   admits edges valid in at least one hypothesis and immediately
            repairs each diverged hypothesis with a rerouted detour, averaging
            direct and detour costs into the search cost.
* ``GEH``   admits edges on primary-style cost alone and defers hypothesis
            accounting until a goal candidate pops, when each diverged
            hypothesis is rerouted from its divergence point to the goal and
            the goal-edge cost becomes the average of the candidate edge and
            those detours.
* ``GEGRH`` is GEH plus graph revision: after a goal-edge update the candidate
            is rewired past the earliest divergence point and that stale
            subtree is dropped, concentrating further effort where the world
            hypotheses actually disagree.
"""

from __future__ import annotations

import enum
import math
import operator

from . import histories
from .costmap import HypothesisStack
from .histories import DIRECT, REROUTED, EdgeRecord, HistoryError
from .lattice import Pose, PrimitiveLibrary, Trajectory, shared_default_library
from .search_core import (
    ACCEPT,
    CONTINUE,
    DROP,
    AnytimeConfig,
    AnytimeSearch,
    HistoryFrontier,
    PlanResult,
    RevisionEvent,
    SearchProblem,
    SearchTrace,
    STATUS_NO_PLAN,
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


def _single_policy(engine, node, prim, ev, dst):
    """Direct extension on a single-hypothesis stack."""
    if not ev.valid[0]:
        return None
    cost = ev.cost[0]
    g = node.g + cost
    return (g, (g,), (False,),
            (EdgeRecord(DIRECT, cost, node.pose, dst, prim_id=prim.id),))


def _veh_policy(engine, node, prim, ev, dst):
    """Require validity in every hypothesis; average the per-hypothesis tallies."""
    if not ev.valid_in_all:
        return None
    hyp_g = tuple(map(operator.add, node.hyp_g, ev.cost))
    g = histories.average_edge_cost(hyp_g)
    src, prim_id = node.pose, prim.id
    edges = tuple([EdgeRecord(DIRECT, c, src, dst, prim_id) for c in ev.cost])
    return (g, hyp_g, node.pending, edges)


def _geh_policy(engine, node, prim, ev, dst):
    """Admit on any-hypothesis validity at primary-style cost; defer repairs.

    That cost is the child's primary tally: the tally advances by the
    baseline cost on every edge (the primary's own cost where it can follow,
    the baseline where it is pending), and goal candidates, whose g the goal
    hook rewrites, are never expanded.
    """
    hyp_g, pending, edges = histories.record_expansion(node, ev, prim, dst)
    return (hyp_g[0], hyp_g, pending, edges)


def _make_peh_policy(rerouter: "Rerouter"):
    def policy(engine, node, prim, ev, dst):
        hyp_g, pending, edges = histories.record_expansion(node, ev, prim, dst)
        if any(pending):
            hyp_g, pending, edges = _repair_pending(
                engine, rerouter, node, dst, hyp_g, pending, edges
            )
        g = histories.average_edge_cost(hyp_g)
        return (g, hyp_g, pending, edges)

    return policy


def _repair_pending(engine, rerouter, parent, dst, hyp_g, pending, edges):
    """Try to close every pending hypothesis with a detour ending at ``dst``."""
    hyp_g = list(hyp_g)
    pending = list(pending)
    edges = list(edges)
    for h, is_pending in enumerate(pending):
        if not is_pending:
            continue
        if rerouter.stack.maps[h].is_lethal(dst.x, dst.y):
            continue  # endpoint itself blocked in h; keep waiting
        anchor = histories.last_intact(parent, h)
        traj = rerouter.reroute(engine, anchor.pose, dst.cell(), h)
        if traj is None:
            continue
        hyp_g[h] = anchor.hyp_g[h] + traj.duration
        pending[h] = False
        edges[h] = EdgeRecord(REROUTED, traj.duration, anchor.pose, dst, detour=traj)
    return tuple(hyp_g), tuple(pending), tuple(edges)


# -- goal hooks --------------------------------------------------------------


def _peh_goal_hook(engine, node):
    # A goal candidate without an intact primary history cannot be executed.
    return DROP if node.pending[0] else ACCEPT


def _make_goal_update_hook(rerouter: "Rerouter", penalty_factor: float, revise: bool):
    revision_guard: set[tuple[int, int]] = set()

    def hook(engine, node):
        if node.goal_updated:
            return ACCEPT
        if not any(node.pending):
            return ACCEPT  # consistent candidate, nothing to reconcile
        info = histories.divergence_point(node)
        parent_g = node.parent.g if node.parent is not None else 0.0
        goal_edge = node.g - parent_g
        terms = [goal_edge]
        n = len(node.pending)
        hyp_g = list(node.hyp_g)
        pending = list(node.pending)
        edges = list(node.edges)
        goal_cell = node.pose.cell()
        for h in range(n):
            if not pending[h]:
                continue
            anchor = info.anchors[h]
            traj = None
            if anchor is not None and not rerouter.stack.maps[h].is_lethal(*goal_cell):
                traj = rerouter.reroute(engine, anchor.pose, goal_cell, h)
            if traj is None:
                if h == 0:
                    return DROP  # primary trajectory cannot be realized
                terms.append(penalty_factor * goal_edge)
            else:
                terms.append(traj.duration)
                hyp_g[h] = anchor.hyp_g[h] + traj.duration
                pending[h] = False
                edges[h] = EdgeRecord(REROUTED, traj.duration, anchor.pose, node.pose,
                                      detour=traj)
        new_edge = histories.average_edge_cost(terms)
        node.g = parent_g + new_edge
        node.hyp_g = tuple(hyp_g)
        node.pending = tuple(pending)
        node.edges = tuple(edges)
        node.goal_updated = True
        if engine.trace is not None:
            engine.trace.goal_updates.append((node.nid, tuple(terms), new_edge))
        if revise and info.first_break is not None:
            key = (node.nid, info.first_break.nid)
            if key not in revision_guard:
                revision_guard.add(key)
                graph_revision(engine, node, info.first_break)
        engine.reinsert(node)
        return CONTINUE

    return hook


# -- graph revision ----------------------------------------------------------


def _segment_records(goal_node, stop_node, h: int) -> list[EdgeRecord]:
    """Records for hypothesis ``h`` strictly below ``stop_node`` up to the goal."""
    recs: list[EdgeRecord] = []
    cur = goal_node
    while cur is not None and cur is not stop_node:
        if cur.edges is not None and cur.edges[h] is not None:
            recs.append(cur.edges[h])
        cur = cur.parent
    if cur is None:
        raise HistoryError("revision target is not an ancestor of the goal candidate")
    recs.reverse()
    return recs


def _consolidate_goal_edges(goal_node, new_parent) -> None:
    """Collapse the goal candidate's records into single spans from ``new_parent``.

    After the rewire the nodes between ``new_parent`` and the goal are gone, so
    each non-pending hypothesis gets one record carrying the whole stitched
    segment.  Pending hypotheses stay pending (their history has no usable
    tail).
    """
    edges = []
    for h, is_pending in enumerate(goal_node.pending):
        if is_pending:
            edges.append(None)
            continue
        seg = _segment_records(goal_node, new_parent, h)
        detour = histories.stitch(seg, new_parent.pose)
        edges.append(
            EdgeRecord(REROUTED, detour.duration, new_parent.pose, goal_node.pose,
                       detour=detour)
        )
    goal_node.edges = tuple(edges)


def graph_revision(engine: AnytimeSearch, goal_node, divergence_node) -> None:
    """Rewire an updated goal candidate past the divergence point.

    ``divergence_node`` is the earliest node whose history broke in some
    hypothesis, so its parent is the last ancestor intact everywhere.  The
    candidate's parent pointer moves there, and ``engine.revoke`` drops the
    divergence node's whole subtree from the open list and the frontier and
    bars it from re-expansion (its poses stay reachable through freshly
    created nodes).  The surviving candidate acts as one long
    independent edge, and later expansions concentrate around the divergence
    region instead of the goal.
    """
    nd = divergence_node
    if nd.parent is None:
        raise HistoryError("divergence node must have an intact parent")
    former_parent = nd.parent
    _consolidate_goal_edges(goal_node, former_parent)
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

    All nested searches of one hypothesis share one edge table (see
    :class:`~mhplan.search_core.SearchProblem`), kept for the life of the
    rerouter, that is, of one plan call.
    """

    def __init__(self, stack: HypothesisStack, lib: PrimitiveLibrary,
                 fraction: float = DEFAULT_REROUTE_FRACTION,
                 trace: SearchTrace | None = None):
        if not 0.0 < fraction <= 1.0:
            raise ValueError("reroute budget fraction must be in (0, 1]")
        self.stack = stack
        self.lib = lib
        self.fraction = fraction
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
            remaining = engine.remaining_budget()
            budget = math.inf if math.isinf(remaining) else self.fraction * remaining
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


def reroute(from_pose: Pose, to_pose, hypothesis_index: int, stack: HypothesisStack,
            budget: float = math.inf, *, lib: PrimitiveLibrary | None = None,
            clock=None, _table: dict | None = None) -> Trajectory | None:
    """Collision-free detour within one hypothesis, or None when unreachable.

    Runs an uninflated search on ``stack.maps[hypothesis_index]`` from
    ``from_pose`` to the target cell (any heading), capped by ``budget``
    seconds.  ``to_pose`` may be a Pose or an ``(x, y)`` cell.
    """
    lib = lib or shared_default_library(stack.resolution)
    tx, ty = (to_pose.x, to_pose.y) if isinstance(to_pose, Pose) else to_pose
    view = stack.single(hypothesis_index)
    cfg = AnytimeConfig(
        initial_inflation=1.0, inflation_step=1.0, final_inflation=1.0,
        time_budget=budget, goal_tolerance=0.0,
    )
    problem = SearchProblem(view, lib, from_pose, Pose(tx, ty, 0), table=_table)
    result = AnytimeSearch(problem, cfg, _single_policy, None, clock, None).run()
    return result.trajectory


# -- planner entry points ----------------------------------------------------


def plan_sh(stack: HypothesisStack, start: Pose, goal: Pose,
            cfg: AnytimeConfig | None = None, *, lib: PrimitiveLibrary | None = None,
            clock=None, trace: SearchTrace | None = None) -> PlanResult:
    """Plan against the primary hypothesis only."""
    cfg = cfg or AnytimeConfig()
    lib = lib or shared_default_library(stack.resolution)
    problem = SearchProblem(stack.single(0), lib, start, goal)
    return AnytimeSearch(problem, cfg, _single_policy, None, clock, trace).run()


def plan_veh(stack: HypothesisStack, start: Pose, goal: Pose,
             cfg: AnytimeConfig | None = None, *, lib: PrimitiveLibrary | None = None,
             clock=None, trace: SearchTrace | None = None) -> PlanResult:
    """Plan with edges required to be valid in every hypothesis.

    A start or goal that is unreachable in the intersection of free space
    resolves to a no-plan result rather than an error.
    """
    cfg = cfg or AnytimeConfig()
    lib = lib or shared_default_library(stack.resolution)
    problem = SearchProblem(stack, lib, start, goal)
    return AnytimeSearch(problem, cfg, _veh_policy, None, clock, trace).run()


def plan_peh(stack: HypothesisStack, start: Pose, goal: Pose,
             cfg: AnytimeConfig | None = None, *, lib: PrimitiveLibrary | None = None,
             clock=None, trace: SearchTrace | None = None,
             reroute_fraction: float = DEFAULT_REROUTE_FRACTION) -> PlanResult:
    """Plan with per-expansion rerouting of diverged hypotheses."""
    cfg = cfg or AnytimeConfig()
    lib = lib or shared_default_library(stack.resolution)
    problem = SearchProblem(stack, lib, start, goal)
    rerouter = Rerouter(stack, lib, reroute_fraction, trace)
    policy = _make_peh_policy(rerouter)
    # Scalar-g duplicate detection would let an equal-g node with a worse
    # per-hypothesis history shadow a clean path, so keep incomparable
    # histories side by side.
    return AnytimeSearch(problem, cfg, policy, _peh_goal_hook, clock, trace,
                         frontier=HistoryFrontier()).run()


def plan_geh(stack: HypothesisStack, start: Pose, goal: Pose,
             cfg: AnytimeConfig | None = None, *, lib: PrimitiveLibrary | None = None,
             clock=None, trace: SearchTrace | None = None,
             reroute_fraction: float = DEFAULT_REROUTE_FRACTION,
             reroute_penalty: float = DEFAULT_REROUTE_PENALTY) -> PlanResult:
    """Plan with goal-edge rerouting of diverged hypotheses."""
    cfg = cfg or AnytimeConfig()
    lib = lib or shared_default_library(stack.resolution)
    problem = SearchProblem(stack, lib, start, goal)
    rerouter = Rerouter(stack, lib, reroute_fraction, trace)
    hook = _make_goal_update_hook(rerouter, reroute_penalty, revise=False)
    return AnytimeSearch(problem, cfg, _geh_policy, hook, clock, trace).run()


def plan_gegrh(stack: HypothesisStack, start: Pose, goal: Pose,
               cfg: AnytimeConfig | None = None, *, lib: PrimitiveLibrary | None = None,
               clock=None, trace: SearchTrace | None = None,
               reroute_fraction: float = DEFAULT_REROUTE_FRACTION,
               reroute_penalty: float = DEFAULT_REROUTE_PENALTY) -> PlanResult:
    """Plan with goal-edge rerouting plus graph revision.

    Each distinct (goal candidate, divergence node) pair is revised at most
    once, which bounds the revision loop.
    """
    cfg = cfg or AnytimeConfig()
    lib = lib or shared_default_library(stack.resolution)
    problem = SearchProblem(stack, lib, start, goal)
    rerouter = Rerouter(stack, lib, reroute_fraction, trace)
    hook = _make_goal_update_hook(rerouter, reroute_penalty, revise=True)
    return AnytimeSearch(problem, cfg, _geh_policy, hook, clock, trace).run()


_PLANNERS = {
    PlannerMode.SH: plan_sh,
    PlannerMode.VEH: plan_veh,
    PlannerMode.PEH: plan_peh,
    PlannerMode.GEH: plan_geh,
    PlannerMode.GEGRH: plan_gegrh,
}


def plan(mode, stack: HypothesisStack, start: Pose, goal: Pose,
         cfg: AnytimeConfig | None = None, **kwargs) -> PlanResult:
    """Dispatch to a planner by mode name or :class:`PlannerMode`."""
    mode = PlannerMode(mode)
    return _PLANNERS[mode](stack, start, goal, cfg, **kwargs)
