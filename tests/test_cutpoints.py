import contextlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (
    all_closed,
    all_open,
    ball_dist_array,
    certified_distance_oracle,
    dijkstra_distances,
    face_mask,
    flood_fill_labels,
    open_path_sample,
    origin_context,
    reference_event,
    ReferenceContext,
    score_one,
)
from percolab import (
    BoxSpec,
    CutPointRecord,
    EventGrid,
    EventOutcome,
    EventSpec,
    SurgeryPlan,
    alpha_default,
    apply_surgery,
    detect_cutpoints,
    event_A,
    event_A_free,
    force_cutpoint,
    grow_ball,
    line_count,
    sample_configuration,
)
from percolab import cutpoints
from percolab.cutpoints import BallEventContext, upper_tail_outcome
from percolab.errors import GeometryError, PreconditionError, SurgeryPlanError
from percolab.estimators import target_distance


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


def test_detect_lists_only_certified_singletons_of_a_contaminated_ball():
    # a spine that reaches the face at t = 4 and then runs along it: the
    # layers past the first face contact are singletons too, but uncertified
    box = BoxSpec(2, 4)
    s = open_spine(box, 4).with_edges(
        open_idx=[box.edge_index((4, j), 1) for j in range(4)]
    )
    ball = grow_ball(s, (0, 0))
    assert ball.contaminated and ball.resolved_through == 4
    assert [len(layer) for layer in ball.layers] == [1] * 9
    recs = detect_cutpoints(ball, 1)
    assert [(r.time, r.location) for r in recs] == [(t, (t, 0)) for t in range(1, 5)]


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
        res = score_one(origin_context(sample), EventSpec(0.0, (0.0, 0.0), 8))
        assert res.outcome is EventOutcome.HIT
        assert res.witness.time == 0 and res.witness.location == (0, 0)


def test_event_A_all_open_miss():
    res = score_one(origin_context(all_open(BoxSpec(2, 20))), EventSpec(0.25, (0.0, 0.0), 8))
    assert res.outcome is EventOutcome.MISS


def test_event_A_forced_path():
    # open self-avoiding path with all incident edges closed: its vertices
    # are singleton layers, so the event holds for s n within the length
    box = BoxSpec(2, 20)
    s = open_spine(box, 7)
    res = score_one(origin_context(s), EventSpec(0.5, (0.0, 0.0), 8))
    assert res.outcome is EventOutcome.HIT
    assert res.witness.time == 4 and res.witness.location == (4, 0)


def test_event_A_hits_on_a_spine_touching_the_face():
    # B_5 is the spine (0,0)..(5,0) and reaches the box face at t = 5, the
    # last certified layer, so the face-stopped ball still certifies it
    box = BoxSpec(2, 5)
    res = score_one(origin_context(open_spine(box, 5)), EventSpec(s=1.0, x=(1, 0), n=5))
    assert res.outcome is EventOutcome.HIT
    assert res.witness.time == 5 and res.witness.location == (5, 0)


def test_event_A_window_constraint():
    # witness exists in time but lies outside a window centred away from it
    box = BoxSpec(2, 30)
    s = open_spine(box, 7)
    res = score_one(origin_context(s), EventSpec(0.5, (-2.0, 0.0), 8))
    assert res.outcome is EventOutcome.MISS


def test_event_nesting_in_s_exact():
    # on one sample and one shared ball, a hit at s' >= s implies a hit at s
    box = BoxSpec(2, 26)
    grid = EventGrid([EventSpec(s, (0.0, 0.0), 8) for s in (0.1, 0.25, 0.4, 0.6)], box, False)
    hits = np.zeros(4, dtype=int)
    for seed in range(300):
        results = event_A(origin_context(sample_configuration(box, 0.7, seed)), grid)
        flags = [r.outcome is EventOutcome.HIT for r in results]
        for i in range(3):
            assert flags[i + 1] <= flags[i]
        hits += np.asarray(flags, dtype=int)
    assert (np.diff(hits) <= 0).all()


def resolved_vertices_oracle(sample):
    """Per vertex: within the origin's first face distance, or in an open
    cluster with no face vertex (oracle)."""
    box = sample.box
    dist = dijkstra_distances(sample, (0,) * box.dimension)
    face = face_mask(box)
    labels = flood_fill_labels(sample)
    return (dist <= dist[face].min()) | ~np.isin(labels, labels[face])


def centred_windows(radius, d):
    """(r, 2 * centre) of windows inside [-radius, radius]^d, touching its
    faces at the ends of the ranges."""
    return st.integers(0, radius).flatmap(lambda r: st.tuples(
        st.just(r),
        st.lists(st.integers(2 * (r - radius), 2 * (radius - r)), min_size=d, max_size=d),
    ))


def certify(ctx, centers, radii):
    """The certificate of each window, given by its centre and radius, from
    one call of the vector certificate on ``ctx``."""
    windows = cutpoints._Windows(
        ctx.ball.box, np.asarray(centers, dtype=float).reshape(len(radii), -1),
        np.asarray(radii, dtype=np.int64),
    )
    return cutpoints._windows_resolved(ctx, windows, windows.of).tolist()


@pytest.mark.parametrize("d, radii", [(2, (2, 7)), (3, (1, 4))])
@given(data=st.data())
def test_window_certificate_matches_the_cluster_oracle(d, radii, data):
    radius = data.draw(st.integers(*radii))
    p = data.draw(st.sampled_from((0.3, 0.45, 0.55, 0.7)))
    s = sample_configuration(BoxSpec(d, radius), p, data.draw(st.integers(0, 2**32 - 1)))
    box = s.box
    resolved = resolved_vertices_oracle(s)
    ball = grow_ball(s, (0,) * d, stop_at_boundary=True)
    drawn = data.draw(st.lists(centred_windows(radius, d), min_size=1, max_size=8))
    centers = [np.asarray(twice, dtype=float) / 2 for _, twice in drawn]
    radii = [r for r, _ in drawn]
    expected = []
    for center, r in zip(centers, radii):
        lo = np.ceil(center - r).astype(int)
        hi = np.floor(center + r).astype(int)
        window = itertools.product(*(range(a, b + 1) for a, b in zip(lo, hi)))
        expected.append(all(resolved[box.flat_index(v)] for v in window))
    # every window in one call, one window per call on a context that keeps
    # the verdicts of the calls before, and one window on a fresh context
    assert certify(BallEventContext(s, ball), centers, radii) == expected
    shared = BallEventContext(s, ball)
    for center, r, want in zip(centers, radii, expected):
        assert certify(shared, [center], [r]) == [want]
        assert certify(BallEventContext(s, ball), [center], [r]) == [want]


def test_overlapping_windows_reuse_the_verdicts_of_one_probe(monkeypatch):
    # the ball first touches the face at (-12, 0), at t = 12, when its other
    # arm ends at the interior frontier vertex (6, 6); an unreached corridor
    # (6, 7) .. (6, 9) leads into that vertex
    box = BoxSpec(2, 12)
    spine = [(k, 0) for k in range(-12, 0)]
    arm = [(0, j) for j in range(7)] + [(i, 6) for i in range(1, 7)]
    corridor = [(6, j) for j in range(7, 10)]
    s = open_path_sample(box, spine + arm + corridor)
    ball = grow_ball(s, (0, 0), stop_at_boundary=True)
    assert ball.resolved_through == ball.last_time == 12
    assert {box.vertex_coord(f) for f in ball.layers[-1]} == {(-12, 0), (6, 6)}

    probes = []
    grow = cutpoints.grow_ball_flats

    def counting(*args, **kwargs):
        probes.append(grow(*args, **kwargs))
        return probes[-1]

    monkeypatch.setattr(cutpoints, "grow_ball_flats", counting)
    ctx = BallEventContext(s, ball)
    assert certify(ctx, [(6.0, 9.0)], [1]) == [False]
    # the failed probe stops on entering the frontier, short of any face
    probe, = probes
    assert probe.first_boundary_time is None and not probe.exhausted
    assert box.flat_index((6, 6)) in probe.layers[-1] and probe.last_time == 2
    assert certify(ctx, [(7.0, 8.0), (6.0, 8.0), (5.5, 8.5)], [1, 1, 1]) == [False] * 3
    assert len(probes) == 1
    # the frontier vertex's own verdict is never read: with the corridor
    # left out, its window holds only ball vertices and isolated ones
    assert certify(ctx, [(6.0, 5.0)], [1]) == [True]

    # isolated vertices: a clean probe, then only the vertices without a
    # verdict are probed, and none when every vertex has one
    assert certify(ctx, [(-6.0, 8.0)], [1]) == [True]
    assert certify(ctx, [(-5.0, 8.0)], [1]) == [True]
    assert len(probes) == 4
    assert {box.vertex_coord(f) for f in probes[-1].layers[0]} == {(-4, j) for j in (7, 8, 9)}
    assert certify(ctx, [(-5.5, 8.0)], [1]) == [True]
    assert len(probes) == 4


def event_specs(d):
    """Specs with s = 0 among the time slacks and half- and quarter-integer
    window centres n x; the free-line windows of the larger n leave every
    drawn box."""
    return st.builds(
        EventSpec,
        s=st.sampled_from((0.0, 0.25, 0.5, 1.0, 2.5, 4.0)),
        x=st.tuples(*[st.sampled_from((-1.0, -0.75, -0.5, 0.0, 0.25, 0.5, 1.0))] * d),
        n=st.integers(2, 5),
    )


@contextlib.contextmanager
def recorded_probes():
    """The sorted sources of every window probe made inside the block."""
    grow, sources = cutpoints.grow_ball_flats, []

    def recording(sample, source_flats, **kwargs):
        sources.append(sorted(np.asarray(source_flats).tolist()))
        return grow(sample, source_flats, **kwargs)

    cutpoints.grow_ball_flats = recording
    try:
        yield sources
    finally:
        cutpoints.grow_ball_flats = grow


@pytest.mark.parametrize("free", [False, True], ids=["plain", "free"])
@pytest.mark.parametrize("d, radii", [(2, (2, 7)), (3, (1, 4))])
@given(data=st.data())
def test_one_pass_scoring_matches_the_per_spec_reference(d, radii, free, data):
    # p = 0.2 leaves most balls uncontaminated; every probe of the batch is
    # one the reference makes, in the same order
    radius = data.draw(st.integers(*radii))
    p = data.draw(st.sampled_from((0.2, 0.3, 0.45, 0.55, 0.7)))
    s = sample_configuration(BoxSpec(d, radius), p, data.draw(st.integers(0, 2**32 - 1)))
    ball = grow_ball(s, (0,) * d, stop_at_boundary=True)
    specs = data.draw(st.lists(event_specs(d), min_size=1, max_size=12))
    score = event_A_free if free else event_A
    reference = ReferenceContext(s, ball)
    with recorded_probes() as expected_probes:
        expected = [reference_event(reference, spec, free) for spec in specs]
    with recorded_probes() as probes:
        got = score(BallEventContext(s, ball), EventGrid(specs, s.box, free))
    assert got == expected
    assert probes == expected_probes
    order = data.draw(st.permutations(range(len(specs))))
    permuted = score(BallEventContext(s, ball), EventGrid([specs[i] for i in order], s.box, free))
    assert permuted == [expected[i] for i in order]


def test_a_grid_refuses_a_direction_of_the_wrong_dimension():
    box = BoxSpec(2, 6)
    specs = [EventSpec(0.25, (0.0, 0.0), 4), EventSpec(0.25, (0.0, 0.0, 0.0), 4),
             EventSpec(0.5, (1.0, 0.0), 4)]
    for free in (False, True):
        with pytest.raises(GeometryError):
            EventGrid(specs, box, free)
    # a grid is scored by the event it was built for
    ctx = origin_context(all_open(box))
    with pytest.raises(PreconditionError):
        event_A(ctx, EventGrid(specs[:1], box, True))
    with pytest.raises(PreconditionError):
        event_A_free(ctx, EventGrid(specs[:1], box, False))


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
    res = score_one(origin_context(s), spec, free=True)
    assert res.outcome is EventOutcome.HIT
    assert res.witness == CutPointRecord(0, (0, 0, 0))


def test_event_A_free_nondegenerate_threshold():
    # n and s chosen so the free threshold s n - 3 floor(n^alpha) is positive
    box = BoxSpec(3, 14)
    s = open_spine(box, 10)
    n = 4
    w = int(n ** alpha_default(3))
    spec = EventSpec(2.6, (0.0, 0.0, 0.0), n)
    assert spec.time_threshold_free(3) > 0
    res = score_one(origin_context(s), spec, free=True)
    assert res.outcome is EventOutcome.HIT
    assert res.witness.time >= spec.time_threshold_free(3)


def test_event_A_free_all_open_miss():
    # box large enough that every window vertex distance is certified
    res = score_one(
        origin_context(all_open(BoxSpec(2, 45))), EventSpec(3.0, (0.0, 0.0), 6), free=True
    )
    assert res.outcome is EventOutcome.MISS


def free_verdict_oracle(ball_set, w, line_cap, volume_cap):
    """Which free-line condition a singleton w of the ball B_t fails first,
    or "accept", from Python sets: the volume cap, then an axis line
    through w meeting B_t only at w, then an axis j other than that line's
    with every line count of w's j-hyperplane slice at most line_cap."""
    if len(ball_set) > volume_cap:
        return "volume"
    d = len(w)

    def drop(v, k):
        return v[:k] + v[k + 1:]

    free = [
        i for i in range(d)
        if not any(v != w and drop(v, i) == drop(w, i) for v in ball_set)
    ]
    if not free:
        return "line"
    for j in range(d):
        slab = {v for v in ball_set if v[j] == w[j]}
        counts_ok = all(
            len({drop(v, k) for v in slab}) <= line_cap for k in range(d) if k != j
        )
        if counts_ok and any(i != j for i in free):
            return "accept"
    return "hyperplane"


def test_free_conditions_match_the_set_oracle():
    # every certified singleton of the face-stopped origin ball, under a
    # grid of caps; each of the three conditions must reject somewhere (a
    # d = 2 hyperplane slice is one line, so only d = 3 can fail the counts)
    seen = set()
    for (d, radius, p), seed in itertools.product(
        [(2, 12, 0.55), (3, 7, 0.27)], range(25)
    ):
        s = sample_configuration(BoxSpec(d, radius), p, 700 + seed)
        ctx = origin_context(s)
        dist = dijkstra_distances(s, (0,) * d)
        for t, coord in zip(ctx.times[1:].tolist(), ctx.coords[1:]):
            w = tuple(int(c) for c in coord)
            ball_set = {
                tuple(int(c) for c in s.box.vertex_coord(f))
                for f in np.flatnonzero(dist <= t)
            }
            for line_cap, volume_cap in itertools.product((1, 2, 3), (6, 20, 10**6)):
                expected = free_verdict_oracle(ball_set, w, line_cap, volume_cap)
                got = cutpoints._free_conditions(ctx.ball, t, coord, line_cap, volume_cap)
                assert got == (expected == "accept"), (seed, t, w, line_cap, volume_cap)
                seen.add(expected)
    assert seen == {"volume", "line", "hyperplane", "accept"}


def test_free_implies_relaxed_plain_event():
    # the free witness is a certified singleton layer (or the source at
    # t = 0) at t >= s n - 3 w, within 4 w of n x: the plain event with the
    # relaxed threshold and the 4 w window. At s = 2.5 the threshold is
    # positive, so some witnesses are late singleton layers.
    box = BoxSpec(2, 30)
    for spec, late in ((EventSpec(0.25, (0.0, 0.0), 8), 0), (EventSpec(2.5, (0.5, 0.0), 8), 1)):
        w = spec.window(2)
        times = []
        for seed in range(200):
            ctx = origin_context(sample_configuration(box, 0.7, seed))
            free = score_one(ctx, spec, free=True)
            if free.outcome is not EventOutcome.HIT:
                continue
            t, location = free.witness.time, free.witness.location
            assert (t, location) in zip(ctx.times.tolist(), map(tuple, ctx.coords.tolist()))
            assert t >= spec.s * spec.n - 3 * w
            assert max(abs(c - spec.n * x) for c, x in zip(location, spec.x)) <= 4 * w
            times.append(t)
        assert times and min(times) >= late


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
        w = box.vertex_coord(ball.layers[t_pick][0])
        plan = force_cutpoint(s, ball, t_pick, w, k)
        assert plan.size <= 4 * 2 * math.sqrt(k)
        after = apply_surgery(s, plan)
        ball2 = grow_ball(after, (0, 0), stop_at_boundary=True)
        assert ball2.resolved_through >= t_pick
        assert [box.vertex_coord(f) for f in ball2.layers[t_pick]] == [w]
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
        res = score_one(BallEventContext(s, ball), spec)
        if res.outcome is not EventOutcome.HIT or res.witness.time == 0:
            continue
        t, w = res.witness.time, res.witness.location
        if ball.ball_sizes[t] > 64:
            continue
        plan = force_cutpoint(s, ball, t, w, 64)
        after = apply_surgery(s, plan)
        res2 = score_one(origin_context(after), spec)
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


def upper_tail(sample, n, xi, mu):
    """Upper-tail outcome of D(0, n e1), read as the estimators read it."""
    e1 = (1.0,) + (0.0,) * (sample.box.dimension - 1)
    _, dist = target_distance(sample, n, e1)
    return upper_tail_outcome(dist, mu * (1.0 + xi) * n)


def test_upper_tail_outcome_cases():
    assert upper_tail(all_open(BoxSpec(2, 16)), 10, 0.1, 1.0) is EventOutcome.MISS
    assert upper_tail(all_closed(BoxSpec(2, 16)), 10, 0.1, 1.0) \
        is EventOutcome.DISCONNECTED

    n, xi = 12, 0.3
    k = int(xi * n) + 2
    s = figure_spine_sample(BoxSpec(2, 40), k)
    # geodesic must run the spine backwards, then detour around it
    assert upper_tail(s, n, xi, 1.0) is EventOutcome.HIT


@pytest.mark.parametrize("d, L, p, n", [(2, 9, 0.6, 6), (3, 5, 0.35, 3)])
def test_distances_and_upper_tail_match_the_dijkstra_oracle(d, L, p, n, rng):
    xi, mu = 0.2, 1.1
    origin, target = (0,) * d, (n,) + (0,) * (d - 1)
    seen = set()
    for seed in range(60):
        s = sample_configuration(BoxSpec(d, L), p, seed)
        status, value = certified_distance_oracle(s, origin, target)
        ball, dist = target_distance(s, n, (1.0,) + (0.0,) * (d - 1))
        assert dist == value and ball.source == origin
        if status == "exact":
            expected = EventOutcome.HIT if value > mu * (1 + xi) * n else EventOutcome.MISS
        else:
            expected = EventOutcome(status)
        assert upper_tail(s, n, xi, mu) is expected
        seen.add(expected)
        x, y = (tuple(int(c) for c in rng.integers(-L, L + 1, d)) for _ in range(2))
        for a, b in ((origin, target), (x, y)):
            stopped = grow_ball(
                s, a, targets=[s.box.flat_index(b)], stop_at_boundary=True
            )
            assert stopped.certified_distance(b) == certified_distance_oracle(s, a, b)[1]
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
