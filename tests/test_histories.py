import random
from types import SimpleNamespace

import pytest

from mhplan.histories import (DIRECT, REROUTED, DivergenceInfo, EdgeRecord,
                              HistoryError, average_edge_cost, baseline_cost,
                              divergence_point, last_intact, reconstruct,
                              record_expansion, stitch)
from mhplan.lattice import (EdgeEvaluation, Pose, Trajectory, default_library)

LIB = default_library()


def node(pose, parent=None, pending=(False, False), edges=None, hyp_g=(0.0, 0.0)):
    return SimpleNamespace(pose=pose, parent=parent,
                           pending=tuple(pending), edges=edges,
                           hyp_g=tuple(hyp_g))


def direct(src, dst, cost=1.0, prim_id=0):
    return EdgeRecord(DIRECT, cost, src, dst, prim_id=prim_id)


def chain_of(cells, pendings):
    """Straight chain of fake nodes; pendings[i][h] flags hypothesis h broken
    at step i (the edge arriving at node i+1)."""
    n_hyp = len(pendings[0])
    nodes = [node(Pose(cells[0][0], cells[0][1], 0), pending=(False,) * n_hyp)]
    for i, (cx, cy) in enumerate(cells[1:]):
        prev = nodes[-1]
        pend = pendings[i]
        edges = tuple(None if p else direct(prev.pose, Pose(cx, cy, 0))
                      for p in pend)
        nodes.append(node(Pose(cx, cy, 0), prev, pend, edges))
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
    ev = EdgeEvaluation((True, False), (2.0, None))
    assert baseline_cost(ev) == 2.0
    ev = EdgeEvaluation((False, True), (None, 3.0))
    assert baseline_cost(ev) == 3.0
    with pytest.raises(ValueError):
        baseline_cost(EdgeEvaluation((False, False), (None, None)))


# -- record_expansion --------------------------------------------------------


def test_record_expansion_consistent_edge():
    parent = node(Pose(1, 1, 0))
    prim = LIB.by_heading[0][0]
    ev = EdgeEvaluation((True, True), (1.0, 1.2))
    hyp_g, pending, edges = record_expansion(parent, ev, prim, Pose(2, 1, 0))
    assert hyp_g == (1.0, 1.2)
    assert pending == (False, False)
    assert all(e.kind == DIRECT for e in edges)
    assert edges[0].prim_id == prim.id


def test_record_expansion_marks_divergence():
    parent = node(Pose(1, 1, 0))
    prim = LIB.by_heading[0][0]
    ev = EdgeEvaluation((True, False), (1.0, None))
    hyp_g, pending, edges = record_expansion(parent, ev, prim, Pose(2, 1, 0))
    assert pending == (False, True)
    assert edges[1] is None
    assert hyp_g == (1.0, 1.0)  # pending hypothesis advances at baseline cost


def test_record_expansion_pending_parent_stays_pending():
    root = node(Pose(1, 1, 0))
    prim = LIB.by_heading[0][0]
    mid = node(Pose(2, 1, 0), root, pending=(False, True),
               edges=(direct(root.pose, Pose(2, 1, 0)), None),
               hyp_g=(1.0, 1.0))
    ev = EdgeEvaluation((True, True), (1.0, 1.5))
    hyp_g, pending, edges = record_expansion(mid, ev, prim, Pose(3, 1, 0))
    # Secondary is valid here but its history already broke upstream.
    assert pending == (False, True)
    assert edges[1] is None
    assert hyp_g == (2.0, 2.0)


# -- divergence --------------------------------------------------------------


def test_divergence_none_when_consistent():
    nodes = chain_of([(0, 0), (1, 0), (2, 0)],
                     [(False, False), (False, False)])
    info = divergence_point(nodes[-1])
    assert info.anchors == (None, None)
    assert info.first_break is None


def test_divergence_anchor_is_last_intact():
    # Secondary breaks on the edge into node 2.
    nodes = chain_of([(0, 0), (1, 0), (2, 0), (3, 0)],
                     [(False, False), (False, True), (False, True)])
    info = divergence_point(nodes[-1])
    assert info.anchors == (None, nodes[1])
    assert info.first_break is nodes[2]
    assert info.first_break.parent is nodes[1]


def test_divergence_global_first_takes_minimum_depth():
    # Three hypotheses: h1 breaks entering node 4, h2 entering node 2.
    pendings = [(False, False, False), (False, False, True),
                (False, False, True), (False, True, True)]
    nodes = chain_of([(0, 0), (1, 0), (2, 0), (3, 0), (4, 0)], pendings)
    info = divergence_point(nodes[-1])
    assert info.anchors == (None, nodes[3], nodes[1])
    assert info.first_break is nodes[2]
    assert info.first_break.parent is nodes[1]


def test_divergence_sees_rerouted_records_as_breaks():
    root = node(Pose(0, 0, 0))
    detour = Trajectory(((Pose(0, 0, 0), 2, Pose(0, 1, 6)),
                         (Pose(0, 1, 6), 18, Pose(1, 1, 6))), 2.0, Pose(0, 0, 0))
    rec = EdgeRecord(REROUTED, 2.0, Pose(0, 0, 0), Pose(1, 0, 0), detour=detour)
    child = node(Pose(1, 0, 0), root, pending=(False, False),
                 edges=(direct(root.pose, Pose(1, 0, 0)), rec))
    info = divergence_point(child)
    assert info.anchors == (None, root)
    assert info.first_break is child
    assert info.first_break.parent is root


def test_last_intact_walks_past_pending():
    nodes = chain_of([(0, 0), (1, 0), (2, 0)],
                     [(False, True), (False, True)])
    assert last_intact(nodes[-1], 1) is nodes[0]
    assert last_intact(nodes[-1], 0) is nodes[-1]


# -- reconstruction ----------------------------------------------------------


def test_reconstruct_and_stitch_direct_chain():
    nodes = chain_of([(0, 0), (1, 0), (2, 0)],
                     [(False, False), (False, False)])
    recs = reconstruct(nodes[-1], 0)
    traj = stitch(recs, nodes[0].pose)
    assert [p.cell() for p in traj.poses] == [(0, 0), (1, 0), (2, 0)]
    assert traj.duration == pytest.approx(2.0)


def test_reconstruct_rejects_pending_tip():
    nodes = chain_of([(0, 0), (1, 0)], [(False, True)])
    with pytest.raises(HistoryError):
        reconstruct(nodes[-1], 1)


def test_reconstruct_rejects_gap():
    root = node(Pose(0, 0, 0))
    # Record claims to start at (5, 5) even though the previous ended at (1, 0).
    bad = node(Pose(2, 0, 0), node(Pose(1, 0, 0), root, (False,),
                                   (direct(Pose(0, 0, 0), Pose(1, 0, 0)),)),
               (False,), (direct(Pose(5, 5, 0), Pose(2, 0, 0)),))
    with pytest.raises(HistoryError, match="disconnected"):
        reconstruct(bad, 0)


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
