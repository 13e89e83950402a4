import random
from types import SimpleNamespace

import pytest

from mhplan.histories import (HistoryError, average_edge_cost, baseline_cost,
                              divergence_point, last_intact, record_expansion, trajectory)
from mhplan.lattice import (EdgeEvaluation, Pose, Trajectory, default_library)

LIB = default_library()


def node(pose, parent=None, pending=0, detour=None, hyp_g=(0.0, 0.0),
         ev=None, prim_id=-1):
    return SimpleNamespace(pose=pose, parent=parent, pending=pending, detour=detour,
                           hyp_g=tuple(hyp_g), ev=ev, prim_id=prim_id)


def edge(pending, cost=1.0, n=3):
    """An edge costing ``cost`` in every hypothesis whose bit is clear."""
    return EdgeEvaluation(pending, tuple(None if pending >> h & 1 else cost
                                         for h in range(n)))


def chain_of(cells, pendings):
    """Straight chain of fake nodes; bit h of pendings[i] flags hypothesis h
    broken at step i (the edge arriving at node i+1).  Each edge costs 1.0
    and has primitive id 0; no node stores a detour."""
    nodes = [node(Pose(cells[0][0], cells[0][1], 0))]
    for i, (cx, cy) in enumerate(cells[1:]):
        pend = pendings[i]
        nodes.append(node(Pose(cx, cy, 0), nodes[-1], pend, ev=edge(pend), prim_id=0))
    return nodes


# -- averaging ---------------------------------------------------------------


def test_average_edge_cost_basic():
    assert average_edge_cost([10.0]) == 10.0
    assert average_edge_cost([10.0, 14.0]) == 12.0
    with pytest.raises(ValueError):
        average_edge_cost([])


def test_average_edge_cost_properties():
    rng = random.Random(5)
    for _ in range(200):
        costs = [rng.uniform(0.1, 50.0) for _ in range(rng.randrange(1, 6))]
        mean = average_edge_cost(costs)
        assert min(costs) - 1e-12 <= mean <= max(costs) + 1e-12
        # idempotence on identical entries
        assert average_edge_cost([costs[0]] * 4) == pytest.approx(costs[0])
        # monotone: raising one entry never lowers the mean
        bumped = list(costs)
        bumped[rng.randrange(len(costs))] += rng.uniform(0.0, 5.0)
        assert average_edge_cost(bumped) >= mean - 1e-12


def test_baseline_cost_prefers_lowest_valid_index():
    ev = EdgeEvaluation(0b10, (2.0, None))
    assert baseline_cost(ev) == 2.0
    ev = EdgeEvaluation(0b01, (None, 3.0))
    assert baseline_cost(ev) == 3.0
    with pytest.raises(ValueError):
        baseline_cost(EdgeEvaluation(0b11, (None, None)))


# -- record_expansion --------------------------------------------------------


def test_record_expansion_consistent_edge():
    parent = node(Pose(1, 1, 0))
    prim = LIB.by_heading[0][0]
    ev = EdgeEvaluation(0, (1.0, 1.2))
    hyp_g, pending, step = record_expansion(parent, ev, prim, Pose(2, 1, 0))
    assert hyp_g == (1.0, 1.2)
    assert pending == 0
    assert step == (parent.pose, prim.id, Pose(2, 1, 0))


def test_record_expansion_marks_divergence():
    parent = node(Pose(1, 1, 0))
    prim = LIB.by_heading[0][0]
    ev = EdgeEvaluation(0b10, (1.0, None))
    hyp_g, pending, step = record_expansion(parent, ev, prim, Pose(2, 1, 0))
    assert pending == 0b10
    assert step == (parent.pose, prim.id, Pose(2, 1, 0))
    assert hyp_g == (1.0, 1.0)  # pending hypothesis advances at baseline cost
    # A primary that cannot follow the edge has no step at the child.
    ev = EdgeEvaluation(0b01, (None, 1.2))
    hyp_g, pending, step = record_expansion(parent, ev, prim, Pose(2, 1, 0))
    assert (hyp_g, pending, step) == ((1.2, 1.2), 0b01, None)


def test_record_expansion_pending_parent_stays_pending():
    root = node(Pose(1, 1, 0))
    prim = LIB.by_heading[0][0]
    mid = node(Pose(2, 1, 0), root, pending=0b10, ev=EdgeEvaluation(0b10, (1.0, None)),
               prim_id=0, hyp_g=(1.0, 1.0))
    ev = EdgeEvaluation(0, (1.0, 1.5))
    hyp_g, pending, step = record_expansion(mid, ev, prim, Pose(3, 1, 0))
    # Secondary is valid here but its history already broke upstream.
    assert pending == 0b10
    assert step == (mid.pose, prim.id, Pose(3, 1, 0))
    assert hyp_g == (2.0, 2.0)
    # So does a primary that broke upstream: it gets no step, and its
    # tally advances at the baseline cost, the primary's own here.
    mid.pending = 0b01
    hyp_g, pending, step = record_expansion(mid, ev, prim, Pose(3, 1, 0))
    assert (hyp_g, pending, step) == ((2.0, 2.5), 0b01, None)


def test_record_derives_the_direct_record_from_the_incoming_edge():
    root = node(Pose(1, 1, 0))
    ev = EdgeEvaluation(0b10, (1.0, None))
    child = node(Pose(2, 1, 0), root, pending=0b10, ev=ev, prim_id=3)
    assert trajectory(root) == Trajectory((), 0.0, root.pose)
    assert trajectory(child) == Trajectory(((root.pose, 3, child.pose),), 1.0, root.pose)
    # Where the primary is pending there is no step until a repair stores
    # its detour and clears the bit.
    child = node(Pose(2, 1, 0), root, pending=0b01, ev=EdgeEvaluation(0b01, (None, 1.0)),
                 prim_id=3)
    with pytest.raises(HistoryError, match="pending"):
        trajectory(child)
    detour = Trajectory(((root.pose, 2, Pose(2, 1, 0)),), 2.5, root.pose)
    child.detour = detour
    child.pending = 0
    assert trajectory(child) == Trajectory(detour.steps, 2.5, root.pose)
    # A node pending in the primary contributes nothing below a repair.
    broken = node(Pose(2, 1, 0), root, pending=0b01, ev=EdgeEvaluation(0b01, (None, 1.0)),
                  prim_id=3)
    detour = Trajectory(((root.pose, 5, Pose(3, 1, 0)),), 3.0, root.pose)
    tip = node(Pose(3, 1, 0), broken, detour=detour, ev=EdgeEvaluation(0, (1.0, 1.0)),
               prim_id=4)
    assert trajectory(tip) == Trajectory(detour.steps, 3.0, root.pose)


# -- divergence --------------------------------------------------------------


def test_divergence_none_when_consistent():
    nodes = chain_of([(0, 0), (1, 0), (2, 0)], [0, 0])
    assert divergence_point(nodes[-1]) is None
    assert [last_intact(nodes[-1], h) for h in (0, 1)] == [nodes[-1]] * 2


def test_divergence_anchor_is_last_intact():
    # Secondary breaks on the edge into node 2.
    nodes = chain_of([(0, 0), (1, 0), (2, 0), (3, 0)], [0, 0b10, 0b10])
    first_break = divergence_point(nodes[-1])
    assert first_break is nodes[2]
    assert first_break.parent is nodes[1]
    assert last_intact(nodes[-1], 1) is nodes[1]


def test_divergence_global_first_takes_minimum_depth():
    # Three hypotheses: h1 breaks entering node 4, h2 entering node 2.
    pendings = [0, 0b100, 0b100, 0b110]
    nodes = chain_of([(0, 0), (1, 0), (2, 0), (3, 0), (4, 0)], pendings)
    first_break = divergence_point(nodes[-1])
    assert first_break is nodes[2]
    assert first_break.parent is nodes[1]
    assert [last_intact(nodes[-1], h) for h in (1, 2)] == [nodes[3], nodes[1]]


def test_last_intact_walks_past_pending():
    nodes = chain_of([(0, 0), (1, 0), (2, 0)], [0b10, 0b10])
    assert last_intact(nodes[-1], 1) is nodes[0]
    assert last_intact(nodes[-1], 0) is nodes[-1]


# -- the primary trajectory ---------------------------------------------------


def test_reconstruct_and_stitch_direct_chain():
    nodes = chain_of([(0, 0), (1, 0), (2, 0)], [0, 0])
    traj = trajectory(nodes[-1])
    assert [p.cell() for p in traj.poses] == [(0, 0), (1, 0), (2, 0)]
    assert traj.duration == pytest.approx(2.0)


def test_reconstruct_rejects_pending_tip():
    nodes = chain_of([(0, 0), (1, 0)], [0b01])
    with pytest.raises(HistoryError):
        trajectory(nodes[-1])
    # A pending secondary leaves the primary's history whole.
    nodes = chain_of([(0, 0), (1, 0)], [0b10])
    assert trajectory(nodes[-1]).steps == ((Pose(0, 0, 0), 0, Pose(1, 0, 0)),)


def test_reconstruct_rejects_gap():
    root = node(Pose(0, 0, 0))
    mid = node(Pose(1, 0, 0), root, ev=edge(0), prim_id=0)
    # The detour claims to start at (5, 5) though the previous step ended at (1, 0).
    jump = Trajectory(((Pose(5, 5, 0), 0, Pose(2, 0, 0)),), 1.0, Pose(5, 5, 0))
    bad = node(Pose(2, 0, 0), mid, detour=jump)
    with pytest.raises(HistoryError, match="disconnected"):
        trajectory(bad)


def test_reconstruct_since_an_ancestor_returns_the_tail():
    nodes = chain_of([(0, 0), (1, 0), (2, 0), (3, 0)], [0, 0, 0])
    tip = nodes[-1]
    full = trajectory(tip)
    assert len(full.steps) == 3
    assert trajectory(tip, since=None) == full
    # full.steps[i] is the step of the edge into nodes[i + 1].
    for i, ancestor in enumerate(nodes):
        assert trajectory(tip, since=ancestor) == Trajectory(full.steps[i:], 3.0 - i,
                                                             ancestor.pose)
    stranger = node(Pose(1, 0, 0), nodes[0])
    with pytest.raises(HistoryError, match="not an ancestor"):
        trajectory(tip, since=stranger)
    with pytest.raises(HistoryError, match="not an ancestor"):
        trajectory(nodes[1], since=tip)


def test_stitch_splices_detour_steps():
    start = Pose(0, 0, 0)
    mid = Pose(1, 0, 0)
    detour = Trajectory(((mid, 1, Pose(2, 1, 1)), (Pose(2, 1, 1), 5, Pose(3, 1, 1))),
                        3.0, mid)
    root = node(start)
    first = node(mid, root, ev=edge(0), prim_id=0)
    traj = trajectory(node(Pose(3, 1, 1), first, detour=detour))
    assert [p.cell() for p in traj.poses] == [(0, 0), (1, 0), (2, 1), (3, 1)]
    assert traj.duration == pytest.approx(4.0)
    assert traj.steps[1][1] == 1  # detour's own primitive ids survive
