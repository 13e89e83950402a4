import random
from types import SimpleNamespace

import pytest

from mhplan.histories import (DIRECT, REROUTED, EdgeRecord, HistoryError,
                              average_edge_cost, baseline_cost, divergence_point,
                              last_intact, reconstruct, record, record_expansion,
                              stitch)
from mhplan.lattice import (EdgeEvaluation, Pose, Trajectory, default_library)

LIB = default_library()


def node(pose, parent=None, pending=0, record=None, hyp_g=(0.0, 0.0),
         ev=None, prim_id=-1):
    return SimpleNamespace(pose=pose, parent=parent, pending=pending, record=record,
                           hyp_g=tuple(hyp_g), ev=ev, prim_id=prim_id)


def direct(src, dst, cost=1.0, prim_id=0):
    return EdgeRecord(DIRECT, cost, src, dst, prim_id=prim_id)


def chain_of(cells, pendings):
    """Straight chain of fake nodes; bit h of pendings[i] flags hypothesis h
    broken at step i (the edge arriving at node i+1).  Each node stores its
    primary record explicitly, None where the primary is pending."""
    nodes = [node(Pose(cells[0][0], cells[0][1], 0))]
    for i, (cx, cy) in enumerate(cells[1:]):
        prev = nodes[-1]
        pend = pendings[i]
        rec = None if pend & 1 else direct(prev.pose, Pose(cx, cy, 0))
        nodes.append(node(Pose(cx, cy, 0), prev, pend, rec))
    return nodes


def test_edge_record_value_semantics():
    rec = direct(Pose(1, 2, 3), Pose(2, 2, 3), cost=1.0, prim_id=4)
    assert repr(rec) == ("EdgeRecord(kind='direct', cost=1.0, src=Pose(x=1, y=2, heading=3), "
                         "dst=Pose(x=2, y=2, heading=3), prim_id=4, detour=None)")
    assert hash(rec) == hash((DIRECT, 1.0, Pose(1, 2, 3), Pose(2, 2, 3), 4, None))
    assert rec == direct(Pose(1, 2, 3), Pose(2, 2, 3), cost=1.0, prim_id=4)
    with pytest.raises(AttributeError):
        rec.cost = 2.0


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
    hyp_g, pending, rec = record_expansion(parent, ev, prim, Pose(2, 1, 0))
    assert hyp_g == (1.0, 1.2)
    assert pending == 0
    assert rec == direct(parent.pose, Pose(2, 1, 0), 1.0, prim_id=prim.id)


def test_record_expansion_marks_divergence():
    parent = node(Pose(1, 1, 0))
    prim = LIB.by_heading[0][0]
    ev = EdgeEvaluation(0b10, (1.0, None))
    hyp_g, pending, rec = record_expansion(parent, ev, prim, Pose(2, 1, 0))
    assert pending == 0b10
    assert rec == direct(parent.pose, Pose(2, 1, 0), 1.0, prim_id=prim.id)
    assert hyp_g == (1.0, 1.0)  # pending hypothesis advances at baseline cost
    # A primary that cannot follow the edge has no record at the child.
    ev = EdgeEvaluation(0b01, (None, 1.2))
    hyp_g, pending, rec = record_expansion(parent, ev, prim, Pose(2, 1, 0))
    assert (hyp_g, pending, rec) == ((1.2, 1.2), 0b01, None)


def test_record_expansion_pending_parent_stays_pending():
    root = node(Pose(1, 1, 0))
    prim = LIB.by_heading[0][0]
    mid = node(Pose(2, 1, 0), root, pending=0b10,
               record=direct(root.pose, Pose(2, 1, 0)), hyp_g=(1.0, 1.0))
    ev = EdgeEvaluation(0, (1.0, 1.5))
    hyp_g, pending, rec = record_expansion(mid, ev, prim, Pose(3, 1, 0))
    # Secondary is valid here but its history already broke upstream.
    assert pending == 0b10
    assert rec == direct(mid.pose, Pose(3, 1, 0), 1.0, prim_id=prim.id)
    assert hyp_g == (2.0, 2.0)
    # So does a primary that broke upstream: it gets no record, and its
    # tally advances at the baseline cost, the primary's own here.
    mid.pending = 0b01
    hyp_g, pending, rec = record_expansion(mid, ev, prim, Pose(3, 1, 0))
    assert (hyp_g, pending, rec) == ((2.0, 2.5), 0b01, None)


def test_record_derives_the_direct_record_from_the_incoming_edge():
    root = node(Pose(1, 1, 0))
    ev = EdgeEvaluation(0b10, (1.0, None))
    child = node(Pose(2, 1, 0), root, pending=0b10, ev=ev, prim_id=3)
    assert record(root) is None
    assert record(child) == direct(root.pose, child.pose, 1.0, prim_id=3)
    assert reconstruct(child) == [direct(root.pose, child.pose, 1.0, prim_id=3)]
    # Where the primary is pending there is no record until a repair
    # stores its detour and clears the bit.
    child = node(Pose(2, 1, 0), root, pending=0b01, ev=EdgeEvaluation(0b01, (None, 1.0)),
                 prim_id=3)
    assert record(child) is None
    detour = Trajectory(((root.pose, 2, Pose(2, 1, 0)),), 2.5, root.pose)
    child.record = EdgeRecord(REROUTED, 2.5, root.pose, child.pose, detour=detour)
    child.pending = 0
    assert record(child) is child.record
    assert reconstruct(child) == [child.record]


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


# -- reconstruction ----------------------------------------------------------


def test_reconstruct_and_stitch_direct_chain():
    nodes = chain_of([(0, 0), (1, 0), (2, 0)], [0, 0])
    recs = reconstruct(nodes[-1])
    traj = stitch(recs, nodes[0].pose)
    assert [p.cell() for p in traj.poses] == [(0, 0), (1, 0), (2, 0)]
    assert traj.duration == pytest.approx(2.0)


def test_reconstruct_rejects_pending_tip():
    nodes = chain_of([(0, 0), (1, 0)], [0b01])
    with pytest.raises(HistoryError):
        reconstruct(nodes[-1])
    # A pending secondary leaves the primary's history whole.
    nodes = chain_of([(0, 0), (1, 0)], [0b10])
    assert reconstruct(nodes[-1]) == [direct(Pose(0, 0, 0), Pose(1, 0, 0))]


def test_reconstruct_rejects_gap():
    root = node(Pose(0, 0, 0))
    # Record claims to start at (5, 5) even though the previous ended at (1, 0).
    bad = node(Pose(2, 0, 0), node(Pose(1, 0, 0), root, 0,
                                   direct(Pose(0, 0, 0), Pose(1, 0, 0))),
               0, direct(Pose(5, 5, 0), Pose(2, 0, 0)))
    with pytest.raises(HistoryError, match="disconnected"):
        reconstruct(bad)


def test_reconstruct_since_an_ancestor_returns_the_tail():
    nodes = chain_of([(0, 0), (1, 0), (2, 0), (3, 0)], [0, 0, 0])
    tip = nodes[-1]
    full = reconstruct(tip)
    assert len(full) == 3
    assert reconstruct(tip, since=None) == full
    # full[i] is the record of the edge into nodes[i + 1].
    for i, ancestor in enumerate(nodes):
        assert reconstruct(tip, since=ancestor) == full[i:]
    stranger = node(Pose(1, 0, 0), nodes[0])
    with pytest.raises(HistoryError, match="not an ancestor"):
        reconstruct(tip, since=stranger)
    with pytest.raises(HistoryError, match="not an ancestor"):
        reconstruct(nodes[1], since=tip)


def test_stitch_splices_detour_steps():
    start = Pose(0, 0, 0)
    mid = Pose(1, 0, 0)
    detour = Trajectory(((mid, 1, Pose(2, 1, 1)), (Pose(2, 1, 1), 5, Pose(3, 1, 1))),
                        3.0, mid)
    recs = [direct(start, mid, cost=1.0),
            EdgeRecord(REROUTED, 3.0, mid, Pose(3, 1, 1), detour=detour)]
    traj = stitch(recs, start)
    assert [p.cell() for p in traj.poses] == [(0, 0), (1, 0), (2, 1), (3, 1)]
    assert traj.duration == pytest.approx(4.0)
    assert traj.steps[1][1] == 1  # detour's own primitive ids survive


def test_stitch_requires_detour_payload():
    rec = EdgeRecord(REROUTED, 3.0, Pose(0, 0, 0), Pose(1, 1, 0))
    with pytest.raises(HistoryError):
        stitch([rec], Pose(0, 0, 0))
