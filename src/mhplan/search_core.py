"""Anytime weighted A* over the pose lattice, with planner-supplied callbacks.

The engine owns the open list, the duplicate-detection frontier, revocation
of stale subtrees, the inflation schedule, and the time budget.  Planner
variants plug in through two callbacks: ``expand_policy`` decides whether an
edge is admitted and what per-hypothesis bookkeeping the child carries, and
``goal_hook(engine, node)`` answers yes or no for each goal candidate the
search pops: True accepts it, False skips it.  A hook that updates a
candidate's cost pushes it back with :meth:`AnytimeSearch.reinsert` before
it answers False, so the search meets it again at its new key.  A candidate
the hook accepts, or any candidate when there is no hook, is then accepted
unless its primary history is pending (bit 0 of its ``pending``): the
solution is always extracted from an intact primary history.  One loop pops,
expands and accepts; each accepted candidate lowers the inflation and rekeys
the open list, until the final inflation is reached, the budget runs out or
the open list empties.

A policy returns ``(g, hyp_g, pending, detour)`` for the child, or None to
refuse the edge.  ``pending`` is a bitmask, bit ``h`` set where hypothesis
``h``'s history is broken (the root's is 0).  ``hyp_g`` is the tuple of
per-hypothesis cost tallies where the mode's decisions read one (PEH's
frontier and repairs), and None where the child's g is its one tally.
``detour`` is the :class:`~mhplan.lattice.Trajectory` a PEH repair of the
primary spliced in, and None otherwise.  A node keeps the
:class:`~mhplan.lattice.EdgeEvaluation` of its incoming edge, an object the
edge table already holds, and :func:`~mhplan.histories.trajectory` reads its
direct step from it, so the search builds none.  The engine alone asks the
frontier whether a child is admitted.

The heuristic is the straight-line time to the goal region
(:func:`heuristic`) unless the problem carries a mask of blocked cells; then
it is a :class:`CostToGo` field over that mask, which also counts obstacles
and is built backward from the goal only as far as the search's queries need.
It reads which edges are blocked from one byte per (cell, shape) and aims
at the start with the library's cached obstacle-free times, so closing a
cell costs a few lookups per shape.  The field charges the clock one tick
per cell it closes, as an expansion does, so budgets bound the whole plan.
A child from which the field finds the goal region unreachable is never
pushed.  Which searches get a mask is the planners' choice (see
:mod:`mhplan.planners`).

A search creates no reference cycles: every node points only at its parent.
:meth:`AnytimeSearch.run` therefore pauses Python's cyclic garbage collector,
which would otherwise rescan the growing search tree, and restores it after.
"""

from __future__ import annotations

import gc
import heapq
import math
import time
from dataclasses import dataclass, field

from . import histories
from .costmap import HypothesisStack
from .lattice import (
    NONZERO,
    EdgeEvaluation,
    MotionPrimitive,
    Pose,
    PrimitiveLibrary,
    Trajectory,
    evaluate_at,
    evaluate_edge,
)

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
        # A non-finite inflation never reaches the final one (inf - step is
        # inf) or turns f-values into NaN, and the search never returns.
        for name in ("initial_inflation", "inflation_step", "final_inflation"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name.replace('_', ' ')} must be finite")
        if self.final_inflation < 1.0:
            raise ValueError("final inflation must be at least 1.0")
        if self.initial_inflation < self.final_inflation:
            raise ValueError("initial inflation must be at least the final inflation")
        if self.inflation_step <= 0.0:
            raise ValueError("inflation step must be positive")
        if not self.time_budget > 0.0:
            raise ValueError("time budget must be positive (math.inf for unlimited)")
        if not self.goal_tolerance >= 0.0:
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
        # A NaN tick never reaches any budget and an infinite one exhausts
        # every budget after one expansion.
        if not math.isfinite(tick):
            raise ValueError("tick must be finite")
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


def blocked_origins(mask: bytes, lib: PrimitiveLibrary, width: int,
                    height: int) -> tuple[bytes, ...]:
    """Per shape of ``lib``, one byte per cell of a ``width`` x ``height``
    map, 1 where the edge of that shape from the cell leaves the map or
    sweeps a cell set in ``mask``, else 0.

    The mask is read as one little-endian integer, so shifting it right by
    ``8 * offset`` bits puts the byte of cell ``c + offset`` at cell ``c``.
    OR-ing one shift per swept offset marks every origin whose sweep meets a
    masked cell.  A shift also carries cells across row ends, but exactly at
    the origins whose edge leaves the map, which the shape's
    :meth:`~mhplan.lattice.PrimitiveLibrary.off_map` pattern sets anyway.
    """
    n = width * height
    bits = int.from_bytes(mask, "little")
    keep = (1 << 8 * n) - 1
    out = []
    for (offsets, _nominal), off_map in zip(lib.geometry(width), lib.off_map(width, height)):
        blocked = int.from_bytes(off_map, "little")
        for off in offsets:
            blocked |= bits >> 8 * off if off >= 0 else bits << -8 * off
        out.append((blocked & keep).to_bytes(n, "little").translate(NONZERO))
    return tuple(out)


class CostToGo:
    """Lower bound on the time from a cell to the goal region, heading ignored.

    The bound is the cheapest route through a relaxed lattice over cells:
    from any cell, every shape of the library (see
    :class:`~mhplan.lattice.PrimitiveLibrary`) may be taken at its nominal
    duration, unless its edge leaves the map or one of its swept cells is
    set in the problem's ``mask``.  A lattice edge costs at least its
    nominal duration (every soft-cost factor is at least 1), so wherever the
    mask covers every cell that blocks the search's edges the bound is
    admissible and consistent, whatever the map values.

    It is Reverse Resumable A* (Silver, "Cooperative Pathfinding", 2005): a
    backward A* from every cell of the goal region, resumed only until the
    queried cell is closed.  Its guide toward the search's start is the
    library's obstacle-free time of the displacement
    (:meth:`~mhplan.lattice.PrimitiveLibrary.free_costs`), exact and so
    consistent for any library.  Closed cells keep their exact bound; once
    the open list empties, every cell not closed is unreachable and gets
    ``inf``.  The edges that may enter a cell are read from one byte per
    (origin cell, shape), built once per field (:func:`blocked_origins`).

    Each closed cell costs one clock tick, as an expansion does.  Once the
    search's budget is spent the field stops resuming and answers ``0.0``
    without keeping it.  No search decision reads that value: the field
    tests the engine's own timeout, ``clock.now() - t0 >= time_budget`` on
    the same clock, so the engine times out before it pops any node keyed
    with it.  The field holds the problem's constants and the clock, never
    the search.
    """

    __slots__ = ("cells_closed", "_known", "_best", "_open", "_moves", "_width", "_guide",
                 "_guide_base", "_span", "_clock", "_t0", "_budget")

    def __init__(self, problem: "SearchProblem", goal_tolerance: float, clock, t0: float,
                 budget: float):
        lib = problem.lib
        width, height = problem.stack.width, problem.stack.height
        blocked = blocked_origins(problem.mask, lib, width, height)
        # The guide of cell (x, y) is guide[y * span + x + guide_base]: the
        # free-space time of its displacement from the start.
        span = 2 * width - 1
        start = problem.start
        self._guide = lib.free_costs(width, height)
        self._guide_base = (height - 1 - start.y) * span + width - 1 - start.x
        self._span = span
        self._moves = tuple((prim.dy * width + prim.dx, prim.dy * span + prim.dx,
                             lib.duration(prim), blocked[shape])
                            for shape, prim in enumerate(lib.shapes)
                            if prim.dx or prim.dy)  # a turn in place moves nowhere
        self._width = width
        self._clock = clock
        self._t0 = t0
        self._budget = budget
        self.cells_closed = 0
        n_cells = width * height
        self._known: list[float | None] = [None] * n_cells
        self._best = [math.inf] * n_cells
        self._open: list[tuple[float, float, int]] = []
        gx, gy = problem.goal.x, problem.goal.y
        r = int(min(goal_tolerance, width + height))
        for y in range(max(0, gy - r), min(height, gy + r + 1)):
            for x in range(max(0, gx - r), min(width, gx + r + 1)):
                if math.hypot(x - gx, y - gy) <= goal_tolerance:
                    cell = y * width + x
                    self._known[cell] = self._best[cell] = 0.0
                    self._open.append((self._guide[y * span + x + self._guide_base], 0.0, cell))
        heapq.heapify(self._open)

    def bound(self, pose: Pose) -> float:
        """The bound at ``pose``'s cell, resuming the backward search if the
        cell is not closed yet."""
        x, y, _ = pose
        cell = y * self._width + x
        known = self._known[cell]
        return self._resume(cell) if known is None else known

    def _resume(self, target: int) -> float:
        """Close cells until ``target`` is closed; its bound, ``inf`` when the
        goal region is unreachable from it, or an uncached ``0.0`` once the
        budget is spent (see the class docstring)."""
        heap, known, best, moves = self._open, self._known, self._best, self._moves
        width, n = self._width, len(best)
        guide, base, span = self._guide, self._guide_base, self._span
        clock = self._clock
        push, pop = heapq.heappush, heapq.heappop
        limited = self._budget != math.inf
        while heap:
            if limited and clock.now() - self._t0 >= self._budget:
                return 0.0
            _, g, v = pop(heap)
            if g > best[v]:
                continue  # superseded entry
            known[v] = g
            self.cells_closed += 1
            clock.on_expansion()
            vy, vx = divmod(v, width)
            gv = vy * span + vx + base
            for step, guide_step, nominal, blocked in moves:
                u = v - step
                if u < 0 or u >= n or blocked[u]:
                    continue  # the edge from u into v leaves the map or is masked
                ng = g + nominal
                if ng < best[u]:
                    best[u] = ng
                    push(heap, (ng + guide[gv - guide_step], ng, u))
            if v == target:
                return g
        return math.inf


class SearchNode:
    """One lattice pose reached along one specific parent chain.

    ``ev`` is the evaluation of the incoming edge (None at the root).
    ``pending`` is a bitmask, bit ``h`` set where hypothesis ``h``'s history
    is broken.  ``hyp_g`` holds per-hypothesis cost tallies only where a
    search decision reads them, in PEH and at the root; elsewhere it is None.
    ``detour`` holds the primary's trajectory from an ancestor to this node
    only where it is not the direct step of that edge (a repair's detour, a
    GEGRH goal candidate's span from its new parent); otherwise it is None
    and :func:`~mhplan.histories.trajectory` takes the step from ``ev``.
    Secondary hypotheses keep no history.  A goal candidate the goal hook
    updated has mask 0: its cost accounts for every hypothesis.  A node
    holds no open-list key; the engine computes one each time it pushes it.
    """

    __slots__ = (
        "nid", "pose", "g", "parent", "prim_id",
        "hyp_g", "pending", "detour", "ev", "invalid",
    )

    def __init__(self, nid: int, pose: Pose, g: float, parent, prim_id: int,
                 hyp_g: tuple[float, ...] | None, pending: int,
                 detour: Trajectory | None, ev: EdgeEvaluation | None = None):
        self.nid = nid
        self.pose = pose
        self.g = g
        self.parent = parent
        self.prim_id = prim_id
        self.hyp_g = hyp_g
        self.pending = pending
        self.detour = detour
        self.ev = ev
        self.invalid = False

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
        """Rebuild the heap with new keys, dropping invalid or duplicate entries.

        Every key ends in the node's unique ``nid``, so the pop order does
        not depend on how the heap was built: the survivors are heapified in
        one go.
        """
        seen: set[int] = set()
        add = seen.add
        heap = [(f_of(node), -node.g, *node.pose, node.prim_id, node.nid, node)
                for node in [entry[-1] for entry in self._heap]
                if node.nid not in seen and (add(node.nid) or valid(node))]
        heapq.heapify(heap)
        self._heap = heap

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


_MISSING = object()


class SearchProblem:
    """A stack, a primitive library, and one start/goal query, with an edge table.

    The edge table is a dict keyed by ``cell * lib.n_shapes + shape``, where
    ``cell = y * width + x``: it holds the :class:`EdgeEvaluation` of the edge
    of that shape (see :class:`~mhplan.lattice.PrimitiveLibrary`) from that
    cell, or ``None`` when the edge leaves the map or is invalid in every
    hypothesis.  Poses at one cell share the entries of the shapes their
    headings have in common.  It is filled lazily: an edge leaves the map
    where the shape's :meth:`~mhplan.lattice.PrimitiveLibrary.off_map` byte
    says so, the rule :func:`blocked_origins` reads too, and any other is
    costed through :func:`~mhplan.lattice.evaluate_at`, the one edge-cost
    kernel, against the stack's divergence mask
    (:attr:`~mhplan.costmap.HypothesisStack.divergence`), built once per
    stack and None for a single map.  The table holds nothing that depends on
    the start or goal, so problems over the same stack may share one by
    passing ``table``; it lives as long as its problems do.

    ``mask`` has one byte per cell, nonzero where a cell blocks every edge
    the search may take through it.  With a mask the search's heuristic is a
    :class:`CostToGo` field over it; without one, the straight-line
    :func:`heuristic`.
    """

    def __init__(self, stack: HypothesisStack, lib: PrimitiveLibrary, start: Pose, goal: Pose,
                 table: dict | None = None, mask: bytes | None = None):
        if lib.resolution is not None and lib.resolution != stack.resolution:
            raise PlanningInputError(
                f"library resolution {lib.resolution} does not match map resolution "
                f"{stack.resolution}"
            )
        self.stack = stack
        self.lib = lib
        self.start = start
        self.goal = goal
        self.table: dict[int, EdgeEvaluation | None] = {} if table is None else table
        self.mask = mask
        self.divergence = stack.divergence
        # What edges() reads on every call, fetched once (the stack's width
        # and height are properties).
        width = stack.width
        self._fill = (width, lib.n_shapes, lib.moves, lib.geometry(width),
                      lib.off_map(width, stack.height), stack.maps)

    def evaluate(self, pose: Pose, prim: MotionPrimitive) -> EdgeEvaluation:
        """One edge against every hypothesis of the stack (not cached; off the
        search's hot path, which reads :meth:`edges`)."""
        return evaluate_edge(pose, prim, self.stack, self.lib)

    def edges(self, pose: Pose) -> tuple[tuple[MotionPrimitive, Pose, EdgeEvaluation], ...]:
        """Outgoing edges ``(prim, dst, EdgeEvaluation)`` of ``pose`` that stay
        on the map and are valid in some hypothesis, in ascending primitive id.

        The row is assembled on every call; only the evaluations come from
        the table.
        """
        x, y, heading = pose
        width, n_shapes, moves, geometry, off_map, maps = self._fill
        cell = y * width + x
        base = cell * n_shapes
        table = self.table
        # Pose(...) without the named tuple's Python-level __new__, which
        # costs about 5% of open-field plan time;
        # test_edge_table_matches_successors_and_evaluate_edge checks the
        # result against successors()' Pose for every pose.
        new = tuple.__new__
        row = []
        for prim, shape in moves[heading]:
            ev = table.get(base + shape, _MISSING)
            if ev is _MISSING:
                ev = table[base + shape] = (
                    None if off_map[shape][cell]
                    else evaluate_at(cell, *geometry[shape], maps, self.divergence))
            if ev is not None:
                row.append((prim, new(Pose, (x + prim.dx, y + prim.dy, prim.end_heading)), ev))
        return tuple(row)


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
    field_cells: int = 0  # cells the CostToGo field closed, one tick each


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


class BestGTable:
    """Cheapest node per (pose, primary pending bit) duplicate detection.

    A node whose primary history is pending (bit 0 of its ``pending`` mask:
    broken, waiting for a repair) never shadows one whose primary history is
    intact, nor the reverse: each bit value keeps its own least-g node per
    pose.  Among primary-intact nodes at
    a pose the least g is exact for primary reachability, so no intact path,
    and no intact goal candidate, is lost behind a cheaper broken one.  A
    search whose nodes are never pending (SH, VEH) uses one of the two dicts.

    It reads a kept node's ``g`` directly: only goal candidates have their
    ``g`` rewritten, and they never enter the frontier.
    """

    def __init__(self):
        self._best: tuple[dict[Pose, SearchNode], dict[Pose, SearchNode]] = ({}, {})

    def admits(self, pose: Pose, g: float, hyp_g, pending: int) -> bool:
        held = self._best[pending & 1].get(pose)
        return held is None or g < held.g

    def record(self, node: SearchNode) -> None:
        self._best[node.pending & 1][node.pose] = node

    def current(self, node: SearchNode) -> bool:
        return self._best[node.pending & 1].get(node.pose) is node

    def purge(self, removed) -> None:
        self._best = tuple({pose: held for pose, held in best.items() if not removed(held)}
                           for best in self._best)

    def nodes(self) -> list[SearchNode]:
        return [*self._best[0].values(), *self._best[1].values()]


class HistoryFrontier:
    """Per-pose antichain over per-hypothesis histories.

    A kept node shadows a child only when its pending mask equals the
    child's and it is no worse in every hypothesis tally (``hyp_g``, which
    the frontier's modes carry); incomparable histories coexist.  Modes whose scalar g hides the per-hypothesis breakdown need
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
        self.goal_hook = goal_hook
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
        self._n_hyp = stack.n
        self._goal = problem.goal
        self._tol = cfg.goal_tolerance
        self.field: CostToGo | None = None  # built when the search starts
        # h(pose): the straight-line bound, until the search starts with a
        # mask and swaps in the field's.  A closure over plain values, so the
        # engine holds no reference to itself.
        goal, tol = problem.goal, cfg.goal_tolerance
        res, speed = stack.resolution, problem.lib.nominal_speed
        self.h = lambda pose: heuristic(pose, goal, res, speed, tol)

    # -- plumbing ------------------------------------------------------------

    def in_goal_region(self, pose: Pose) -> bool:
        if self._tol == 0.0:
            return pose.x == self._goal.x and pose.y == self._goal.y
        return math.hypot(pose.x - self._goal.x, pose.y - self._goal.y) <= self._tol

    def elapsed(self) -> float:
        return self.clock.now() - self._t0

    def remaining_budget(self) -> float:
        return self.cfg.time_budget - self.elapsed()

    def new_node(self, pose: Pose, g: float, parent, prim_id: int,
                 hyp_g, pending, detour, ev: EdgeEvaluation | None = None) -> SearchNode:
        node = SearchNode(self._next_nid, pose, g, parent, prim_id, hyp_g, pending, detour, ev)
        self._next_nid += 1
        if self.trace is not None:
            self.trace.nodes[node.nid] = node
        return node

    def reinsert(self, node: SearchNode) -> None:
        """Push a (possibly updated) node onto the open list at the current key."""
        self.open.push(node, node.g + self.eps * self.h(node.pose))

    def node_live(self, node: SearchNode) -> bool:
        """Validity filter used for pops, rekeys, and snapshots.

        A node the frontier holds is live: :meth:`revoke` purges every
        removed node from the frontier, and only nodes the frontier holds
        are expanded, so none it records later descends from a removed one.
        Goal candidates never enter the frontier; they are live unless
        removed.
        """
        if self.frontier.current(node):
            return True
        return self.in_goal_region(node.pose) and not self._is_removed(node)

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
        """Search until the schedule ends, the budget runs out or the open
        list empties, with the cyclic garbage collector paused throughout (a
        nested search finds it paused and leaves it so)."""
        gc_enabled = gc.isenabled()
        gc.disable()
        try:
            return self._search()
        finally:
            if gc_enabled:
                gc.enable()

    def _search(self) -> PlanResult:
        self._validate()
        self._t0 = self.clock.now()
        if self.problem.mask is not None:
            self.field = CostToGo(self.problem, self._tol, self.clock, self._t0,
                                  self.cfg.time_budget)
            self.h = self.field.bound
        n = self._n_hyp
        start = self.new_node(
            self.problem.start, 0.0, None, -1,
            hyp_g=(0.0,) * n, pending=0, detour=None,
        )
        self.frontier.record(start)
        self.reinsert(start)

        cfg, hook = self.cfg, self.goal_hook
        incumbent: SearchNode | None = None
        incumbent_eps: float | None = None
        while True:
            if self.elapsed() >= cfg.time_budget:
                status = STATUS_TIMEOUT
                break
            node = self.open.pop_valid(self.node_live)
            if node is None:
                status = STATUS_SOLVED  # the open list is exhausted
                break
            if not self.in_goal_region(node.pose):
                self._expand(node)
                continue
            if hook is not None and not hook(self, node):
                continue  # skipped; a hook that updated the node reinserted it
            if node.pending & 1:
                continue  # no executable plan along a broken primary history
            if self.trace is not None:
                self.trace.rounds.append((self.eps, node.g))
            if incumbent is None or node.g <= incumbent.g:
                incumbent = node
                incumbent_eps = self.eps
            if self.eps <= cfg.final_inflation:
                status = STATUS_SOLVED
                break
            self.eps = max(cfg.final_inflation, self.eps - cfg.inflation_step)
            self.reinsert(node)
            # The key reads locals: a closure over self would make self a
            # cell variable, slower to read all through this loop.
            eps, h = self.eps, self.h
            self.open.rekey(lambda m: m.g + eps * h(m.pose), self.node_live)

        trajectory = cost = duration = None
        if incumbent is None:
            status = STATUS_NO_PLAN
        else:
            trajectory = extract_solution(incumbent)
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
            field_cells=0 if self.field is None else self.field.cells_closed,
        )

    def _expand(self, node: SearchNode) -> None:
        self.expansions += 1
        self.clock.on_expansion()
        if self.trace is not None:
            self.trace.expansions.append((node.nid, node.pose, node.g))
        h_of = self.h
        inf = math.inf
        for prim, dst, ev in self.problem.edges(node.pose):
            spec = self.expand_policy(self, node, prim, ev, dst)
            if spec is None:
                continue
            g_child, hyp_g, pending, detour = spec
            at_goal = self.in_goal_region(dst)
            if at_goal:
                h = 0.0
            elif not self.frontier.admits(dst, g_child, hyp_g, pending):
                continue
            else:
                h = h_of(dst)
                if h == inf:
                    continue  # the goal region is unreachable from dst
            child = self.new_node(dst, g_child, node, prim.id, hyp_g, pending, detour, ev)
            if not at_goal:
                self.frontier.record(child)
            self.open.push(child, g_child + self.eps * h)


def extract_solution(node: SearchNode) -> Trajectory:
    """The primary's trajectory to ``node`` (:func:`~mhplan.histories.trajectory`).

    Requires that history to be connected back to the start (a pending or
    disconnected one raises :class:`~mhplan.histories.HistoryError`).  The
    search calls it on its incumbent, whose primary history the engine's
    acceptance rule keeps intact.
    """
    return histories.trajectory(node)
