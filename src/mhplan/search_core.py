"""Anytime weighted A* over the pose lattice, with planner-supplied callbacks.

The engine owns the open list, the duplicate-detection frontier, revocation
of stale subtrees, the inflation schedule, and the time budget.  Planner
variants plug in through two callbacks: ``expand_policy`` decides whether an
edge is admitted and what per-hypothesis bookkeeping the child carries, and
``goal_hook`` decides what happens when a goal node is popped (immediate
acceptance, cost update plus reinsertion, or discard).
"""

from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass, field

from . import histories
from .costmap import HypothesisStack
from .lattice import (
    EdgeEvaluation,
    MotionPrimitive,
    Pose,
    PrimitiveLibrary,
    Trajectory,
    evaluate_edge,
    successors,
)

ACCEPT = "accept"
CONTINUE = "continue"
DROP = "drop"

STATUS_SOLVED = "solved"
STATUS_TIMEOUT = "timeout-with-incumbent"
STATUS_NO_PLAN = "no-plan"


class PlanningInputError(ValueError):
    """Raised when a query is malformed (out of bounds, lethal start/goal, ...)."""


@dataclass(frozen=True)
class AnytimeConfig:
    """Inflation schedule and budget for one anytime search."""

    initial_inflation: float = 2.0
    inflation_step: float = 0.25
    final_inflation: float = 1.0
    time_budget: float = 1.0
    goal_tolerance: float = 0.0

    def __post_init__(self):
        if self.final_inflation < 1.0:
            raise ValueError("final inflation must be at least 1.0")
        if self.initial_inflation < self.final_inflation:
            raise ValueError("initial inflation must be at least the final inflation")
        if self.inflation_step <= 0.0:
            raise ValueError("inflation step must be positive")
        if not self.time_budget > 0.0:
            raise ValueError("time budget must be positive (math.inf for unlimited)")
        if self.goal_tolerance < 0.0:
            raise ValueError("goal tolerance must be non-negative")


class WallClock:
    """Real elapsed time."""

    def now(self) -> float:
        return time.perf_counter()

    def on_expansion(self) -> None:
        pass


class VirtualClock:
    """Deterministic clock advancing a fixed amount per node expansion.

    Keeps benchmark output (including budget cutoffs) bit-reproducible across
    runs and machines.
    """

    def __init__(self, tick: float = 5e-5):
        if tick <= 0.0:
            raise ValueError("tick must be positive")
        self.tick = tick
        self.t = 0.0

    def now(self) -> float:
        return self.t

    def on_expansion(self) -> None:
        self.t += self.tick


def heuristic(pose: Pose, goal: Pose, resolution: float = 1.0,
              nominal_speed: float = 1.0, goal_tolerance: float = 0.0) -> float:
    """Straight-line traversal time from ``pose`` to the goal region (admissible)."""
    d = math.hypot(pose.x - goal.x, pose.y - goal.y) - goal_tolerance
    if d <= 0.0:
        return 0.0
    return d * resolution / nominal_speed


class SearchNode:
    """One lattice pose reached along one specific parent chain."""

    __slots__ = (
        "nid", "pose", "g", "f", "parent", "prim_id",
        "hyp_g", "pending", "edges", "invalid", "goal_updated",
    )

    def __init__(self, nid: int, pose: Pose, g: float, f: float, parent, prim_id: int,
                 hyp_g: tuple[float, ...], pending: tuple[bool, ...], edges):
        self.nid = nid
        self.pose = pose
        self.g = g
        self.f = f
        self.parent = parent
        self.prim_id = prim_id
        self.hyp_g = hyp_g
        self.pending = pending
        self.edges = edges
        self.invalid = False
        self.goal_updated = False

    def __repr__(self):
        return f"SearchNode({self.nid}, {self.pose}, g={self.g:.3f})"


class OpenList:
    """Binary heap ordered by (f, -g, pose, primitive id, creation order).

    Entries are skipped lazily at pop time via a caller-supplied validity
    predicate, so superseded or dropped entries cost nothing to skip.
    """

    def __init__(self):
        self._heap: list = []

    def push(self, node: SearchNode, f: float) -> None:
        heapq.heappush(
            self._heap,
            (f, -node.g, node.pose.x, node.pose.y, node.pose.heading,
             node.prim_id, node.nid, node),
        )

    def pop_valid(self, valid) -> SearchNode | None:
        while self._heap:
            node = heapq.heappop(self._heap)[-1]
            if valid(node):
                return node
        return None

    def rekey(self, f_of, valid) -> None:
        """Rebuild the heap with new keys, dropping invalid or duplicate entries."""
        seen: set[int] = set()
        survivors: list[SearchNode] = []
        for entry in self._heap:
            node = entry[-1]
            if node.nid in seen:
                continue
            seen.add(node.nid)
            if valid(node):
                survivors.append(node)
        self._heap = []
        for node in sorted(survivors, key=lambda n: n.nid):
            self.push(node, f_of(node))

    def snapshot(self, valid) -> list[SearchNode]:
        seen: set[int] = set()
        out = []
        for entry in sorted(self._heap):
            node = entry[-1]
            if node.nid not in seen and valid(node):
                seen.add(node.nid)
                out.append(node)
        return out

    def __len__(self) -> int:
        return len(self._heap)


class SearchProblem:
    """A stack, a primitive library, and one start/goal query, with an edge table.

    The edge table maps each expanded pose to the tuple of its outgoing edges
    ``(prim, dst, EdgeEvaluation)`` in ascending primitive id, keeping only
    edges that stay on the map and are valid in at least one hypothesis.  It
    is filled lazily, one pose at a time, through :func:`successors` and
    :meth:`evaluate`, so the edge-cost formula stays in
    :func:`~mhplan.lattice.evaluate_edge`.  The table holds nothing that
    depends on the start or goal, so problems over the same stack may share
    one by passing ``table``; it lives as long as its problems do.
    """

    def __init__(self, stack: HypothesisStack, lib: PrimitiveLibrary, start: Pose, goal: Pose,
                 table: dict | None = None):
        if lib.resolution is not None and lib.resolution != stack.resolution:
            raise PlanningInputError(
                f"library resolution {lib.resolution} does not match map resolution "
                f"{stack.resolution}"
            )
        self.stack = stack
        self.lib = lib
        self.start = start
        self.goal = goal
        self.table: dict[Pose, tuple] = {} if table is None else table

    def evaluate(self, pose: Pose, prim: MotionPrimitive) -> EdgeEvaluation:
        """One edge against every hypothesis of the stack (not cached)."""
        return evaluate_edge(pose, prim, self.stack, self.lib)

    def edges(self, pose: Pose) -> tuple[tuple[MotionPrimitive, Pose, EdgeEvaluation], ...]:
        """Outgoing edges of ``pose`` valid in some hypothesis, from the table."""
        row = self.table.get(pose)
        if row is None:
            stack = self.stack
            found = []
            for prim, dst in successors(pose, self.lib, stack.width, stack.height):
                ev = self.evaluate(pose, prim)
                if ev.valid_in_any:
                    found.append((prim, dst, ev))
            row = self.table[pose] = tuple(found)
        return row


@dataclass
class PlanResult:
    """Outcome of one planning call."""

    status: str
    trajectory: Trajectory | None
    cost: float | None
    duration: float | None
    planning_time: float
    expansions: int
    reroutes: int
    final_inflation: float | None


@dataclass
class RevisionEvent:
    """Post-revision snapshot for inspection and tests."""

    goal_nid: int
    divergence_nid: int
    former_parent_nid: int | None
    open_nids: tuple[int, ...]
    kept_nids: tuple[int, ...]  # nodes the frontier holds after the purge
    expansion_index: int = 0  # engine expansion count when the revision ran


@dataclass
class SearchTrace:
    """Optional instrumentation collected during a search."""

    expansions: list = field(default_factory=list)   # (nid, pose, g)
    rounds: list = field(default_factory=list)       # (inflation, accepted cost)
    reroutes: list = field(default_factory=list)     # (anchor pose, target cell, hyp, ok, duration)
    goal_updates: list = field(default_factory=list) # (nid, terms, new goal-edge cost)
    revisions: list = field(default_factory=list)    # RevisionEvent
    nodes: dict = field(default_factory=dict)        # nid -> SearchNode


def _default_goal_hook(engine, node) -> str:
    return ACCEPT


class BestGTable:
    """Cheapest-node-per-pose duplicate detection (scalar g)."""

    def __init__(self):
        self._best: dict[Pose, tuple[float, SearchNode]] = {}

    def admits(self, pose: Pose, g: float, hyp_g, pending) -> bool:
        held = self._best.get(pose)
        return held is None or g < held[0]

    def record(self, node: SearchNode) -> None:
        self._best[node.pose] = (node.g, node)

    def current(self, node: SearchNode) -> bool:
        held = self._best.get(node.pose)
        return held is not None and held[1] is node

    def purge(self, removed) -> None:
        self._best = {pose: held for pose, held in self._best.items()
                      if not removed(held[1])}

    def nodes(self) -> list[SearchNode]:
        return [held[1] for held in self._best.values()]


class HistoryFrontier:
    """Per-pose antichain over per-hypothesis histories.

    A kept node shadows a child only when it matches the child's pending
    flags and is no worse in every hypothesis tally; incomparable histories
    coexist.  Modes whose scalar g hides the per-hypothesis breakdown need
    this so a clean path is never pruned behind an equal-g dirty one.
    """

    def __init__(self):
        self._kept: dict[Pose, list[SearchNode]] = {}

    @staticmethod
    def _covers(a: SearchNode, hyp_g, pending) -> bool:
        return a.pending == pending and all(
            x <= y for x, y in zip(a.hyp_g, hyp_g))

    def admits(self, pose: Pose, g: float, hyp_g, pending) -> bool:
        return not any(self._covers(k, hyp_g, pending)
                       for k in self._kept.get(pose, ()))

    def record(self, node: SearchNode) -> None:
        kept = self._kept.setdefault(node.pose, [])
        kept[:] = [k for k in kept
                   if not self._covers(node, k.hyp_g, k.pending)]
        kept.append(node)

    def current(self, node: SearchNode) -> bool:
        return any(k is node for k in self._kept.get(node.pose, ()))

    def purge(self, removed) -> None:
        for pose in list(self._kept):
            kept = [k for k in self._kept[pose] if not removed(k)]
            if kept:
                self._kept[pose] = kept
            else:
                del self._kept[pose]

    def nodes(self) -> list[SearchNode]:
        return [k for kept in self._kept.values() for k in kept]


class AnytimeSearch:
    """Shared engine behind every planner mode."""

    def __init__(self, problem: SearchProblem, cfg: AnytimeConfig, expand_policy,
                 goal_hook=None, clock=None, trace: SearchTrace | None = None,
                 frontier=None):
        self.problem = problem
        self.cfg = cfg
        self.expand_policy = expand_policy
        self.goal_hook = goal_hook or _default_goal_hook
        self.clock = clock if clock is not None else VirtualClock()
        self.trace = trace

        self.open = OpenList()
        self.frontier = frontier if frontier is not None else BestGTable()
        # nid -> whether the node lies in a subtree dropped by revoke(); None
        # until the first revocation, when no node is removed.
        self._removed_memo: dict[int, bool] | None = None

        self.eps = cfg.initial_inflation
        self.expansions = 0
        self.reroutes = 0
        self._next_nid = 0
        self._t0: float | None = None

        stack = problem.stack
        self._res = stack.resolution
        self._speed = problem.lib.nominal_speed
        self._n_hyp = stack.n
        self._goal = problem.goal
        self._tol = cfg.goal_tolerance

    # -- plumbing ------------------------------------------------------------

    def h(self, pose: Pose) -> float:
        return heuristic(pose, self._goal, self._res, self._speed, self._tol)

    def in_goal_region(self, pose: Pose) -> bool:
        if self._tol == 0.0:
            return pose.x == self._goal.x and pose.y == self._goal.y
        return math.hypot(pose.x - self._goal.x, pose.y - self._goal.y) <= self._tol

    def elapsed(self) -> float:
        return self.clock.now() - self._t0

    def remaining_budget(self) -> float:
        return self.cfg.time_budget - self.elapsed()

    def new_node(self, pose: Pose, g: float, parent, prim_id: int,
                 hyp_g, pending, edges) -> SearchNode:
        node = SearchNode(self._next_nid, pose, g, g + self.eps * self.h(pose),
                          parent, prim_id, hyp_g, pending, edges)
        self._next_nid += 1
        if self.trace is not None:
            self.trace.nodes[node.nid] = node
        return node

    def reinsert(self, node: SearchNode) -> None:
        """Push a (possibly updated) node back onto the open list at current keys."""
        node.f = node.g + self.eps * self.h(node.pose)
        self.open.push(node, node.f)

    def node_live(self, node: SearchNode) -> bool:
        """Validity filter used for pops, rekeys, and snapshots."""
        if self._is_removed(node):
            return False
        if self.in_goal_region(node.pose):
            return True
        return self.frontier.current(node)

    def _is_removed(self, node: SearchNode) -> bool:
        """Whether ``node`` lies in a subtree dropped by :meth:`revoke`."""
        memo = self._removed_memo
        if memo is None:
            return False
        chain: list[SearchNode] = []
        cur: SearchNode | None = node
        result = False
        while cur is not None:
            hit = memo.get(cur.nid)
            if hit is not None:
                result = hit
                break
            chain.append(cur)
            if cur.invalid:
                result = True
                break
            cur = cur.parent
        for c in chain:
            memo[c.nid] = result
        return result

    def revoke(self, node: SearchNode) -> None:
        """Drop ``node`` and its whole subtree from the search.

        The subtree is purged from the frontier at once, so fresh nodes at
        its poses are admitted again, and its open-list entries are skipped
        when popped.  Rewire parent pointers before calling it: the memo of
        removed nodes is rebuilt from the tree as it stands.
        """
        node.invalid = True
        self._removed_memo = {}
        self.frontier.purge(self._is_removed)

    def open_snapshot(self) -> list[SearchNode]:
        return self.open.snapshot(self.node_live)

    # -- main loop -----------------------------------------------------------

    def _validate(self) -> None:
        stack = self.problem.stack
        primary = stack.primary
        for label, pose in (("start", self.problem.start), ("goal", self._goal)):
            if not primary.in_bounds(pose.x, pose.y):
                raise PlanningInputError(
                    f"{label} {pose.cell()} outside {primary.width}x{primary.height} map"
                )
            if not 0 <= pose.heading < 8:
                raise PlanningInputError(f"{label} heading {pose.heading} outside [0, 8)")
            if primary.is_lethal(pose.x, pose.y):
                raise PlanningInputError(
                    f"{label} cell {pose.cell()} is lethal in the primary hypothesis"
                )

    def run(self) -> PlanResult:
        self._validate()
        self._t0 = self.clock.now()
        n = self._n_hyp
        start = self.new_node(
            self.problem.start, 0.0, None, -1,
            hyp_g=(0.0,) * n, pending=(False,) * n, edges=None,
        )
        self.frontier.record(start)
        self.open.push(start, start.f)

        incumbent: SearchNode | None = None
        incumbent_eps: float | None = None
        status = STATUS_NO_PLAN

        while True:
            outcome, node = self._run_round()
            if outcome == ACCEPT:
                if self.trace is not None:
                    self.trace.rounds.append((self.eps, node.g))
                if incumbent is None or node.g <= incumbent.g:
                    incumbent = node
                    incumbent_eps = self.eps
                if self.eps <= self.cfg.final_inflation:
                    status = STATUS_SOLVED
                    break
                self.eps = max(self.cfg.final_inflation, self.eps - self.cfg.inflation_step)
                self.reinsert(node)
                self.open.rekey(lambda m: m.g + self.eps * self.h(m.pose), self.node_live)
                continue
            if outcome == "exhausted":
                status = STATUS_SOLVED if incumbent is not None else STATUS_NO_PLAN
                break
            # timeout
            status = STATUS_TIMEOUT if incumbent is not None else STATUS_NO_PLAN
            break

        trajectory = None
        cost = None
        duration = None
        if incumbent is not None:
            trajectory = extract_solution(incumbent, 0)
            cost = incumbent.g
            duration = trajectory.duration
        return PlanResult(
            status=status,
            trajectory=trajectory,
            cost=cost,
            duration=duration,
            planning_time=self.elapsed(),
            expansions=self.expansions,
            reroutes=self.reroutes,
            final_inflation=self.eps if incumbent_eps is None else incumbent_eps,
        )

    def _run_round(self) -> tuple[str, SearchNode | None]:
        while True:
            if self.elapsed() >= self.cfg.time_budget:
                return ("timeout", None)
            node = self.open.pop_valid(self.node_live)
            if node is None:
                return ("exhausted", None)
            if self.in_goal_region(node.pose):
                decision = self.goal_hook(self, node)
                if decision == ACCEPT:
                    return (ACCEPT, node)
                if decision in (CONTINUE, DROP):
                    continue
                raise RuntimeError(f"goal hook returned unknown decision {decision!r}")
            self._expand(node)

    def _expand(self, node: SearchNode) -> None:
        self.expansions += 1
        self.clock.on_expansion()
        if self.trace is not None:
            self.trace.expansions.append((node.nid, node.pose, node.g))
        for prim, dst, ev in self.problem.edges(node.pose):
            spec = self.expand_policy(self, node, prim, ev, dst)
            if spec is None:
                continue
            g_child, hyp_g, pending, edges = spec
            if self.in_goal_region(dst):
                child = self.new_node(dst, g_child, node, prim.id, hyp_g, pending, edges)
                self.open.push(child, child.f)
                continue
            if not self.frontier.admits(dst, g_child, hyp_g, pending):
                continue
            child = self.new_node(dst, g_child, node, prim.id, hyp_g, pending, edges)
            self.frontier.record(child)
            self.open.push(child, child.f)


def extract_solution(node: SearchNode, hypothesis_index: int) -> Trajectory:
    """Stitch the per-hypothesis history of ``node`` into a trajectory.

    Requires the history for ``hypothesis_index`` to be connected back to the
    start (pending or disconnected histories raise
    :class:`~mhplan.histories.HistoryError`).
    """
    records = histories.reconstruct(node, hypothesis_index)
    root = node
    while root.parent is not None:
        root = root.parent
    return histories.stitch(records, root.pose)
