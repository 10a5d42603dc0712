import math

import numpy as np
import pytest

from conftest import (
    all_closed,
    all_open,
    ball_dist_array,
    certified_distance_oracle,
    dijkstra_distances,
    face_mask,
)
from percolab import (
    BoxSpec,
    EventOutcome,
    EventSpec,
    SurgeryPlan,
    alpha_default,
    apply_surgery,
    detect_cutpoints,
    event_A,
    event_A_free,
    evaluate_event_grid,
    force_cutpoint,
    grow_ball,
    line_count,
    resolved_distance,
    sample_configuration,
    upper_tail_event,
)
from percolab.errors import ContaminatedBallError, PreconditionError, SurgeryPlanError


def open_spine(box, length, closed_sides=True):
    """Open straight path from the origin along the first axis."""
    s = all_closed(box)
    return s.with_edges(open_idx=[box.edge_index((k,) + (0,) * (box.dimension - 1), 0)
                                  for k in range(length)])


def figure_spine_sample(box, k):
    """All open except: spine from -k e1 to 0 whose side edges are closed,
    with the single continuation edge at the far end left open."""
    s = all_open(box)
    close = set()
    for j in range(0, k + 1):
        for eidx, _ in box.incident_edges((-j, 0)):
            close.add(eidx)
    spine = {box.edge_index((-j - 1, 0), 0) for j in range(k)}
    close -= spine
    close.discard(box.edge_index((-k - 1, 0), 0))
    return s.with_edges(close_idx=sorted(close))


def test_alpha_default():
    assert alpha_default(2) == 1 - 1 / 12
    assert alpha_default(3) == 1 - 1 / 18


def test_detect_on_path_graph():
    box = BoxSpec(2, 10)
    s = open_spine(box, 6)
    recs = detect_cutpoints(grow_ball(s, (0, 0)), 1)
    assert [(r.time, r.location) for r in recs] == [(t, (t, 0)) for t in range(1, 7)]


def test_detect_all_open_empty():
    ball = grow_ball(all_open(BoxSpec(2, 8)), (0, 0), t_max=6)
    assert detect_cutpoints(ball, 1) == []


def test_detect_contaminated_errors():
    ball = grow_ball(all_open(BoxSpec(2, 4)), (0, 0))
    assert ball.contaminated
    with pytest.raises(ContaminatedBallError):
        detect_cutpoints(ball, 1, t_max=ball.last_time)
    # certified range still works
    assert detect_cutpoints(ball, 1, t_max=ball.resolved_through) == []


def test_figure_construction_cutpoint_at_spine_end():
    # spine from -k e1 to 0 with closed sides: the far end is a cut-point
    # at time k of the ball grown from the origin
    k = 6
    box = BoxSpec(2, 25)
    s = figure_spine_sample(box, k)
    recs = detect_cutpoints(grow_ball(s, (0, 0), stop_at_boundary=True), 1)
    assert (k, (-k, 0)) in [(r.time, r.location) for r in recs]


def test_event_A_zero_spec_always_occurs():
    for sample in (all_open(BoxSpec(2, 10)), all_closed(BoxSpec(2, 10))):
        res = event_A(sample, EventSpec(0.0, (0.0, 0.0), 8))
        assert res.outcome is EventOutcome.HIT
        assert res.witness.time == 0 and res.witness.location == (0, 0)


def test_event_A_all_open_miss():
    res = event_A(all_open(BoxSpec(2, 20)), EventSpec(0.25, (0.0, 0.0), 8))
    assert res.outcome is EventOutcome.MISS


def test_event_A_forced_path():
    # open self-avoiding path with all incident edges closed: its vertices
    # are singleton layers, so the event holds for s n within the length
    box = BoxSpec(2, 20)
    s = open_spine(box, 7)
    res = event_A(s, EventSpec(0.5, (0.0, 0.0), 8))
    assert res.outcome is EventOutcome.HIT
    assert res.witness.time == 4 and res.witness.location == (4, 0)


def test_event_A_boundary_cap_on_a_spine_touching_the_face():
    # B_5 is the spine (0,0)..(5,0) and reaches the box face at t = 5; its
    # exterior boundary is taken in Z^d, so the contour check still applies
    box = BoxSpec(2, 5)
    res = event_A(open_spine(box, 5), EventSpec(s=1.0, x=(1, 0), n=5), K=10)
    assert res.outcome is EventOutcome.HIT
    assert res.witness.time == 5 and res.witness.location == (5, 0)


def test_event_A_window_constraint():
    # witness exists in time but lies outside a window centred away from it
    box = BoxSpec(2, 30)
    s = open_spine(box, 7)
    res = event_A(s, EventSpec(0.5, (-2.0, 0.0), 8))
    assert res.outcome is EventOutcome.MISS


def test_event_nesting_in_s_exact():
    # on one sample, a hit at s' >= s implies a hit at s
    box_specs = [EventSpec(s, (0.0, 0.0), 8) for s in (0.1, 0.25, 0.4, 0.6)]
    hits = np.zeros(4, dtype=int)
    for seed in range(300):
        s = sample_configuration(BoxSpec(2, 26), 0.7, seed)
        results = evaluate_event_grid(s, box_specs)
        flags = [r.outcome is EventOutcome.HIT for r in results]
        for i in range(3):
            assert flags[i + 1] <= flags[i]
        hits += np.asarray(flags, dtype=int)
    assert (np.diff(hits) <= 0).all()


def test_line_count():
    assert line_count([(3, 4)], 0) == 1
    seg = [(0, k) for k in range(5)]
    assert line_count(seg, 1) == 1
    assert line_count(seg, 0) == 5
    rng = np.random.default_rng(3)
    pts = {tuple(v) for v in rng.integers(-10, 11, size=(50, 3))}
    for axis in range(3):
        oracle = len({tuple(0 if k == axis else p[k] for k in range(3)) for p in pts})
        assert line_count(pts, axis) == oracle


def test_event_A_free_spine_d3():
    box = BoxSpec(3, 12)
    s = open_spine(box, 5)
    spec = EventSpec(0.25, (0.0, 0.0, 0.0), 20)
    # threshold 5 - 3*window < 0 is degenerate; use the spine's own time
    res = event_A_free(s, spec)
    assert res.outcome is EventOutcome.HIT
    i, j = res.axes
    assert i != j


def test_event_A_free_nondegenerate_threshold():
    # n and s chosen so the free threshold s n - 3 floor(n^alpha) is positive
    box = BoxSpec(3, 14)
    s = open_spine(box, 10)
    n = 4
    w = int(n ** alpha_default(3))
    spec = EventSpec(2.6, (0.0, 0.0, 0.0), n)
    assert spec.time_threshold_free(3) > 0
    res = event_A_free(s, spec)
    assert res.outcome is EventOutcome.HIT
    assert res.witness.time >= spec.time_threshold_free(3)


def test_event_A_free_all_open_miss():
    # box large enough that every window vertex distance is certified
    res = event_A_free(all_open(BoxSpec(2, 45)), EventSpec(3.0, (0.0, 0.0), 6))
    assert res.outcome is EventOutcome.MISS


def test_free_implies_relaxed_plain_event():
    spec = EventSpec(0.25, (0.0, 0.0), 8)
    w = spec.window(2)
    box = BoxSpec(2, 30)
    checked = 0
    for seed in range(200):
        s = sample_configuration(box, 0.7, seed)
        ball = grow_ball(s, (0, 0), stop_at_boundary=True)
        free = event_A_free(s, spec, ball=ball)
        if free.outcome is EventOutcome.HIT:
            relaxed = EventSpec(spec.s - 3 * w / spec.n, spec.x, spec.n)
            plain = event_A(s, relaxed, ball=ball, window=4 * w)
            assert plain.outcome is EventOutcome.HIT
            checked += 1
    assert checked > 0


def test_apply_surgery_basics():
    s = sample_configuration(BoxSpec(2, 5), 0.5, 3)
    same = apply_surgery(s, SurgeryPlan(close_edges=()))
    assert same == s

    box = s.box
    incident = [e for e, _ in box.incident_edges((0, 0))]
    isolated = apply_surgery(all_open(box), SurgeryPlan(close_edges=tuple(incident)))
    ball = grow_ball(isolated, (0, 0))
    assert [len(l) for l in ball.layers] == [1]

    with pytest.raises(SurgeryPlanError):
        SurgeryPlan(close_edges=(1, 2), open_edges=(2, 3))


def test_force_cutpoint_all_open_example():
    box = BoxSpec(2, 20)
    s = all_open(box)
    ball = grow_ball(s, (0, 0))
    plan = force_cutpoint(s, ball, 3, (3, 0), 49)
    assert plan.size <= 4 * 2 * math.sqrt(49)
    assert not plan.open_edges
    after = apply_surgery(s, plan)
    ball2 = grow_ball(after, (0, 0))
    assert [box.vertex_coord(f) for f in ball2.layers[3]] == [(3, 0)]
    assert ball2.dist_of((3, 0)) == 3
    assert (ball_dist_array(ball2) >= ball_dist_array(ball)).all()


def test_force_cutpoint_idempotent_on_existing_record():
    box = BoxSpec(2, 15)
    s = open_spine(box, 5)
    ball = grow_ball(s, (0, 0))
    plan = force_cutpoint(s, ball, 3, (3, 0), 36)
    after = apply_surgery(s, plan)
    recs = detect_cutpoints(grow_ball(after, (0, 0)), 1)
    assert (3, (3, 0)) in [(r.time, r.location) for r in recs]


def test_force_cutpoint_monte_carlo():
    box = BoxSpec(2, 40)
    k = 400
    verified = 0
    seed = 0
    while verified < 30 and seed < 1500:
        s = sample_configuration(box, 0.7, seed)
        seed += 1
        ball = grow_ball(s, (0, 0), stop_at_boundary=True)
        sizes = ball.ball_sizes
        t_pick = next(
            (t for t in range(ball.resolved_through, 1, -1) if sizes[t] <= k),
            None,
        )
        if t_pick is None:
            continue
        w = tuple(ball.layer_vertices(t_pick)[0])
        plan = force_cutpoint(s, ball, t_pick, w, k)
        assert plan.size <= 4 * 2 * math.sqrt(k)
        after = apply_surgery(s, plan)
        ball2 = grow_ball(after, (0, 0), stop_at_boundary=True)
        assert ball2.resolved_through >= t_pick
        assert [tuple(v) for v in ball2.layer_vertices(t_pick)] == [w]
        assert (ball_dist_array(ball2) >= ball_dist_array(ball)).all()
        verified += 1
    assert verified == 30


def test_force_cutpoint_preserves_event():
    # closing the plan's (non-witness) edges keeps the event occurring
    spec = EventSpec(0.25, (0.0, 0.0), 8)
    box = BoxSpec(2, 26)
    checked = 0
    for seed in range(400):
        s = sample_configuration(box, 0.7, seed)
        ball = grow_ball(s, (0, 0), stop_at_boundary=True)
        res = event_A(s, spec, ball=ball)
        if res.outcome is not EventOutcome.HIT or res.witness.time == 0:
            continue
        t, w = res.witness.time, res.witness.location
        if ball.ball_sizes[t] > 64:
            continue
        plan = force_cutpoint(s, ball, t, w, 64)
        after = apply_surgery(s, plan)
        res2 = event_A(after, spec)
        assert res2.outcome is EventOutcome.HIT
        checked += 1
    assert checked > 5


def test_force_cutpoint_preconditions():
    box = BoxSpec(2, 10)
    s = all_open(box)
    ball = grow_ball(s, (0, 0))
    with pytest.raises(PreconditionError):
        force_cutpoint(s, ball, 3, (2, 0), 49)  # wrong layer
    with pytest.raises(PreconditionError):
        force_cutpoint(s, ball, 5, (5, 0), 10)  # |B_5| > 10


def test_upper_tail_event_cases():
    assert upper_tail_event(all_open(BoxSpec(2, 16)), 10, 0.1, 1.0).outcome \
        is EventOutcome.MISS
    assert upper_tail_event(all_closed(BoxSpec(2, 16)), 10, 0.1, 1.0).outcome \
        is EventOutcome.DISCONNECTED

    n, xi = 12, 0.3
    k = int(xi * n) + 2
    s = figure_spine_sample(BoxSpec(2, 40), k)
    # geodesic must run the spine backwards, then detour around it
    assert upper_tail_event(s, n, xi, 1.0).outcome is EventOutcome.HIT


@pytest.mark.parametrize("d, L, p, n", [(2, 9, 0.6, 6), (3, 5, 0.35, 3)])
def test_distances_and_upper_tail_match_the_dijkstra_oracle(d, L, p, n, rng):
    xi, mu = 0.2, 1.1
    origin, target = (0,) * d, (n,) + (0,) * (d - 1)
    seen = set()
    for seed in range(60):
        s = sample_configuration(BoxSpec(d, L), p, seed)
        status, value = certified_distance_oracle(s, origin, target)
        res = upper_tail_event(s, n, xi, mu)
        if status == "exact":
            expected = EventOutcome.HIT if value > mu * (1 + xi) * n else EventOutcome.MISS
            assert res.witness.time == value and res.witness.location == target
        else:
            expected = EventOutcome(status)
            assert res.witness is None
        assert res.outcome is expected
        seen.add(expected)
        x, y = (tuple(int(c) for c in rng.integers(-L, L + 1, d)) for _ in range(2))
        for a, b in ((origin, target), (x, y)):
            assert resolved_distance(s, a, b) == certified_distance_oracle(s, a, b)
        # a ball grown past its first face contact certifies no more
        full = grow_ball(s, origin)
        for b in (target, y):
            assert full.certified_distance(b) == certified_distance_oracle(s, origin, b)[1]
    assert len(seen) == 4


@pytest.mark.parametrize("d, L, p", [(2, 12, 0.55), (3, 5, 0.35)])
def test_certified_singleton_layers_match_the_dijkstra_oracle(d, L, p):
    for seed in range(20):
        s = sample_configuration(BoxSpec(d, L), p, seed)
        dist = dijkstra_distances(s, (0,) * d)
        horizon = dist[np.isfinite(dist)].max()
        horizon = min(horizon, dist[face_mask(s.box)].min())
        counts = np.bincount(dist[dist <= horizon].astype(np.int64))
        expected = [t for t in range(1, len(counts)) if counts[t] == 1]
        ball = grow_ball(s, (0,) * d, stop_at_boundary=True)
        assert [r.time for r in detect_cutpoints(ball, 1)] == expected
        for t, flat in ball.singletons():
            assert dist[flat] == t


def test_event_spec_window_floor_convention():
    spec = EventSpec(0.25, (0.0, 0.0), 8)
    assert spec.window(2) == int(8 ** (11 / 12))
    assert spec.window_free(2) == 4 * spec.window(2)
    assert spec.volume_cap() == int(8**1.75)
