import contextlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (
    INF32,
    all_closed,
    all_open,
    ball_dist_array,
    certified_distance_oracle,
    dijkstra_distances,
    face_mask,
    flood_fill_labels,
    open_path_sample,
    origin_ball,
    reference_event,
    ReferenceContext,
    score_one,
)
from percolab import (
    BoxSpec,
    CutPointRecord,
    EventGrid,
    EventOutcome,
    EventResult,
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
from percolab.cutpoints import upper_tail_outcome, window_radius
from percolab.errors import GeometryError, PreconditionError
from percolab.estimators import target_distances
from percolab.metric import grow_targets


def open_spine(box, length):
    """Open straight path from the origin along the first axis."""
    return open_path_sample(box, [(k,) + (0,) * (box.dimension - 1) for k in range(length + 1)])


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


def test_window_radius_defaults_to_the_exponent_1_minus_1_over_6d():
    # alpha None is the exponent 1 - 1/(6d); n = 10^6 tells the exponents
    # of d = 2 and 3 and of alpha = 0.9 apart
    for d in (2, 3):
        for n in (8, 40, 10**6):
            assert window_radius(d, n, None) == math.floor(n ** (1 - 1 / (6 * d)))
    assert window_radius(2, 10**6, None) == 316227
    assert window_radius(3, 10**6, None) == 464158
    assert window_radius(3, 10**6, 0.9) == 251188
    # 4096^(11/12) = 2^11, which the float power puts just below 2048
    assert window_radius(2, 4096, None) == 2048
    for d in range(2, 7):
        for n in (1, 2, 4095, 4096, 4097, 10**9):
            w = window_radius(d, n, None)
            assert w ** (6 * d) <= n ** (6 * d - 1) < (w + 1) ** (6 * d)


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
    s = open_path_sample(box, [(k, 0) for k in range(4)] + [(4, j) for j in range(5)])
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
        res = score_one(sample, 0.0, (0.0, 0.0), 8)
        assert res.outcome is EventOutcome.HIT
        assert res.witness.time == 0 and res.witness.location == (0, 0)


def test_event_A_all_open_miss():
    res = score_one(all_open(BoxSpec(2, 20)), 0.25, (0.0, 0.0), 8)
    assert res.outcome is EventOutcome.MISS


def test_event_A_forced_path():
    # open self-avoiding path with all incident edges closed: its vertices
    # are singleton layers, so the event holds for s n within the length
    box = BoxSpec(2, 20)
    s = open_spine(box, 7)
    res = score_one(s, 0.5, (0.0, 0.0), 8)
    assert res.outcome is EventOutcome.HIT
    assert res.witness.time == 4 and res.witness.location == (4, 0)


def test_event_A_hits_on_a_spine_touching_the_face():
    # B_5 is the spine (0,0)..(5,0) and reaches the box face at t = 5, the
    # last certified layer, so the face-stopped ball still certifies it
    box = BoxSpec(2, 5)
    res = score_one(open_spine(box, 5), 1.0, (1, 0), 5)
    assert res.outcome is EventOutcome.HIT
    assert res.witness.time == 5 and res.witness.location == (5, 0)


def test_event_A_window_constraint():
    # witness exists in time but lies outside a window centred away from it
    box = BoxSpec(2, 30)
    s = open_spine(box, 7)
    res = score_one(s, 0.5, (-2.0, 0.0), 8)
    assert res.outcome is EventOutcome.MISS


def test_a_ball_stopped_by_t_max_certifies_no_window_past_its_horizon():
    # the path (0, 0) .. (8, 0) is the origin's whole open cluster: grown to
    # its end, the ball hits at t = 4 in the window around (4, 0); stopped at
    # t = 3, neither exhausted nor on a face, it cannot tell that event from
    # a miss, while the window around (-4, 0) holds only ball vertices
    # within the horizon and isolated ones, which a clean probe settles
    box = BoxSpec(2, 12)
    s = open_path_sample(box, [(i, 0) for i in range(9)])
    grid = EventGrid(box, [0.5], [(0.5, 0.0), (-0.5, 0.0)], 8, alpha=None, free=False)
    full = event_A(origin_ball(s), grid)
    assert [r.outcome for r in full] == [EventOutcome.HIT, EventOutcome.MISS]
    assert full[0].witness == CutPointRecord(4, (4, 0))
    stopped = grow_ball(s, (0, 0), t_max=3)
    assert not stopped.exhausted and not stopped.contaminated
    assert [r.outcome for r in event_A(stopped, grid)] == [
        EventOutcome.UNKNOWABLE, EventOutcome.MISS,
    ]


def test_event_nesting_in_s_exact():
    # on one sample and one shared ball, a hit at s' >= s implies a hit at s
    box = BoxSpec(2, 26)
    grid = EventGrid(box, (0.1, 0.25, 0.4, 0.6), [(0.0, 0.0)], 8, alpha=None, free=False)
    hits = np.zeros(4, dtype=int)
    for seed in range(300):
        sample = sample_configuration(box, 0.7, seed)
        results = event_A(origin_ball(sample), grid)
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


def window_centres(r, radius, d):
    """2 * centre of windows of radius r inside [-radius, radius]^d,
    touching its faces at the ends of the ranges."""
    return st.lists(st.integers(2 * (r - radius), 2 * (radius - r)), min_size=d, max_size=d)


def certify(ball, centers, radius):
    """The certificate of each window of the given centres and radius, from
    one call of the vector certificate on ``ball``."""
    centers = np.asarray(centers, dtype=float)
    windows = cutpoints._Windows(ball.box, centers.reshape(len(centers), -1), radius)
    return cutpoints._windows_resolved(ball, windows, windows.of).tolist()


@pytest.mark.parametrize("d, radii", [(2, (2, 7)), (3, (1, 4))])
@given(data=st.data())
def test_window_certificate_matches_the_cluster_oracle(d, radii, data):
    radius = data.draw(st.integers(*radii))
    p = data.draw(st.sampled_from((0.3, 0.45, 0.55, 0.7)))
    s = sample_configuration(BoxSpec(d, radius), p, data.draw(st.integers(0, 2**32 - 1)))
    box = s.box
    resolved = resolved_vertices_oracle(s)
    ball = grow_ball(s, (0,) * d, stop_at_boundary=True)
    r = data.draw(st.integers(0, radius))
    drawn = data.draw(st.lists(window_centres(r, radius, d), min_size=1, max_size=8))
    centers = [np.asarray(twice, dtype=float) / 2 for twice in drawn]
    expected = []
    for center in centers:
        lo = np.ceil(center - r).astype(int)
        hi = np.floor(center + r).astype(int)
        window = itertools.product(*(range(a, b + 1) for a, b in zip(lo, hi)))
        expected.append(all(resolved[box.flat_index(v)] for v in window))
    # every window in one call, and one window per call
    assert certify(ball, centers, r) == expected
    for center, want in zip(centers, expected):
        assert certify(ball, [center], r) == [want]


def test_overlapping_windows_are_certified_by_one_lane_growth():
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

    # the four windows that overlap the corridor are joined to the frontier
    # vertex; the last one holds only ball vertices and isolated ones, and
    # is clean. Each window is its own lane of one growth, so no verdict
    # depends on another window
    windows = [(6.0, 9.0), (7.0, 8.0), (6.0, 8.0), (5.5, 8.5), (6.0, 5.0)]
    with counted(cutpoints, "_lane_probe") as lanes, counted(cutpoints, "grow_ball_flats") as probes:
        assert certify(ball, windows, 1) == [False] * 4 + [True]
        assert [len(sets) for _, (sets,) in lanes] == [5]
        # isolated vertices: three clean lanes of one growth
        assert certify(ball, [(-6.0, 8.0), (-5.0, 8.0), (-5.5, 8.0)], 1) == [True] * 3
        assert [len(sets) for _, (sets,) in lanes] == [5, 3]
        assert probes == []
        # a lone window is one probe
        assert certify(ball, [(6.0, 9.0)], 1) == [False]
        assert len(lanes) == 3 and len(probes) == 1


@contextlib.contextmanager
def counted(module, name):
    """The (first argument, other arguments) of every call of
    ``module.name`` inside the block."""
    fn, calls = getattr(module, name), []

    def recording(*args, **kwargs):
        calls.append((args[0], args[1:]))
        return fn(*args, **kwargs)

    setattr(module, name, recording)
    try:
        yield calls
    finally:
        setattr(module, name, fn)


def frontier_neighbours(ball) -> np.ndarray:
    """Mask of the vertices one lattice step from the ball's last layer."""
    box = ball.box
    coords = box.coords_of_flats(ball.layers[-1])
    out = np.zeros(box.n_vertices, dtype=bool)
    for axis, sign in itertools.product(range(box.dimension), (-1, 1)):
        shifted = coords.copy()
        shifted[:, axis] += sign
        inside = np.abs(shifted - np.asarray(box.origin_offset)).max(axis=1) <= box.radius
        out[box.flats_of_coords(shifted[inside])] = True
    return out


@pytest.mark.parametrize("d, radii, ps", [
    (2, (6, 10), (0.45, 0.5, 0.55, 0.6)),
    (3, (3, 5), (0.25, 0.3, 0.35, 0.45)),
])
@given(data=st.data())
def test_every_lane_verdict_is_the_probe_of_its_set_alone(d, radii, ps, data):
    # sets of a ball's unreached vertices, drawn from a few vertices so that
    # they overlap, among them face vertices and neighbours of the
    # frontier; more than 64 sets or windows take more than one growth
    radius = data.draw(st.integers(*radii))
    s = sample_configuration(
        BoxSpec(d, radius), data.draw(st.sampled_from(ps)), data.draw(st.integers(0, 2**32 - 1))
    )
    ball = origin_ball(s)
    frontier = ball.layers[-1]
    unreached = ball.dist == INF32
    kinds = [np.flatnonzero(unreached & mask) for mask in (
        unreached, face_mask(s.box), frontier_neighbours(ball)
    )]
    kinds = [flats for flats in kinds if flats.size]
    if not kinds:
        return
    pool = [
        int(data.draw(st.sampled_from(flats)))
        for flats in data.draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=10))
    ]
    many = st.one_of(st.integers(1, 64), st.integers(65, 70))
    picks = st.lists(st.sampled_from(pool), min_size=1, max_size=4, unique=True)
    sets = [np.array(sorted(data.draw(picks))) for _ in range(data.draw(many))]
    expected = [cutpoints._probe(s, flats, frontier) for flats in sets]
    got = [cutpoints._lane_probe(ball, sets[at : at + 64]) for at in range(0, len(sets), 64)]
    assert np.concatenate(got).tolist() == expected

    # one-vertex windows at distinct unreached vertices, one set each:
    # ceil(k / 64) growths, and a lone set is one probe. An exhausted ball
    # that never touched a face resolves every window without them
    if not ball.contaminated:
        return
    every = np.flatnonzero(unreached)
    k = min(data.draw(many), every.size)
    picked = every[data.draw(st.lists(st.integers(0, every.size - 1), min_size=k, max_size=k, unique=True))]
    with counted(cutpoints, "_lane_probe") as lanes, counted(cutpoints, "_probe") as probes:
        got = certify(ball, s.box.coords_of_flats(picked), 0)
    assert got == [cutpoints._probe(s, [flat], frontier) for flat in picked.tolist()]
    assert len(lanes) == -(-k // 64)
    assert len(probes) == sum(len(sets) == 1 for _, (sets,) in lanes)


def s_grids():
    """Time slacks, s = 0 among them."""
    return st.lists(st.sampled_from((0.0, 0.25, 0.5, 1.0, 2.5, 4.0)), min_size=1, max_size=4)


def x_grids(d):
    """Directions giving half- and quarter-integer window centres n x; the
    free-line windows of the larger n leave every drawn box."""
    return st.lists(
        st.tuples(*[st.sampled_from((-1.0, -0.75, -0.5, 0.0, 0.25, 0.5, 1.0))] * d),
        min_size=1, max_size=4,
    )


@pytest.mark.parametrize("free", [False, True], ids=["plain", "free"])
@pytest.mark.parametrize("d, radii", [(2, (2, 7)), (3, (1, 4))])
@given(data=st.data())
def test_one_pass_scoring_matches_the_per_spec_reference(d, radii, free, data):
    # p = 0.2 leaves most balls uncontaminated; the reference probes each
    # window alone
    radius = data.draw(st.integers(*radii))
    p = data.draw(st.sampled_from((0.2, 0.3, 0.45, 0.55, 0.7)))
    s = sample_configuration(BoxSpec(d, radius), p, data.draw(st.integers(0, 2**32 - 1)))
    ball = grow_ball(s, (0,) * d, stop_at_boundary=True)
    n = data.draw(st.integers(2, 5))
    alpha = data.draw(st.sampled_from((None, 0.5)))
    s_grid, x_grid = data.draw(s_grids()), data.draw(x_grids(d))
    score = event_A_free if free else event_A
    reference = ReferenceContext(s, ball)
    expected = {
        (i, j): reference_event(reference, s_grid[i], x_grid[j], n, alpha, free)
        for i in range(len(s_grid)) for j in range(len(x_grid))
    }
    got = score(ball, EventGrid(s.box, s_grid, x_grid, n, alpha=alpha, free=free))
    assert got == list(expected.values())
    s_order = data.draw(st.permutations(range(len(s_grid))))
    x_order = data.draw(st.permutations(range(len(x_grid))))
    grid = EventGrid(
        s.box, [s_grid[i] for i in s_order], [x_grid[j] for j in x_order], n,
        alpha=alpha, free=free,
    )
    assert score(ball, grid) == [expected[i, j] for i in s_order for j in x_order]


def settled_and_full_balls(sample, grid):
    """The origin ball stopped once the grid's window vertices are settled,
    and the one grown to its first face contact, checked to agree on every
    layer the first one grew."""
    d = sample.box.dimension
    settled = grow_ball(sample, (0,) * d, stop_at_boundary=True, settle=grid.windows.settle(sample))
    full = origin_ball(sample)
    assert settled.last_time <= full.last_time
    assert all(np.array_equal(a, b) for a, b in zip(settled.layers, full.layers))
    return settled, full


def near_x_grids(d):
    """Directions whose windows n x lie mostly near the origin, so that a
    ball can settle them before it meets a face; 1.0 sends some windows out
    of the drawn boxes."""
    return st.lists(
        st.tuples(*[st.sampled_from((0.0, 0.25, -0.25, 0.5, 1.0))] * d), min_size=1, max_size=3
    )


@pytest.mark.parametrize("free", [False, True], ids=["plain", "free"])
@pytest.mark.parametrize("d, radii, n_max, ps", [
    (2, (6, 16), 6, (0.6, 0.3, 0.55, 0.7)),
    (3, (4, 9), 4, (0.45, 0.25, 0.35, 0.6)),
])
@given(data=st.data())
def test_a_settled_ball_scores_like_the_ball_grown_to_the_face(d, radii, n_max, ps, free, data):
    # off-centre boxes, one of whose faces holds the source at times, and
    # the lowest p, which leaves most clusters finite and exhausted
    radius = data.draw(st.integers(*radii))
    offset = [data.draw(st.sampled_from((0, 1, -3, radius)))]
    offset += data.draw(st.lists(st.integers(-3, 3), min_size=d - 1, max_size=d - 1))
    box = BoxSpec(d, radius, tuple(offset))
    s = sample_configuration(box, data.draw(st.sampled_from(ps)), data.draw(st.integers(0, 2**32 - 1)))
    grid = EventGrid(
        box, data.draw(s_grids()), data.draw(near_x_grids(d)), data.draw(st.integers(2, n_max)),
        alpha=data.draw(st.sampled_from((None, 0.5))), free=free,
    )
    settled, full = settled_and_full_balls(s, grid)
    score = event_A_free if free else event_A
    assert score(settled, grid) == score(full, grid)


@pytest.mark.parametrize("joined", [False, True], ids=["isolated", "joined"])
def test_a_window_vertex_joined_around_its_window_keeps_the_ball_growing(joined):
    # the window [-3, 3]^2 around the origin is open but for its corner
    # (3, 3), and a detour (3, 0) .. (5, 3), (4, 3) leaves it; at t = 7 the
    # ball's one frontier vertex (5, 2) is outside the window. An isolated
    # corner is settled there by a clean probe; a corner joined to the
    # detour is probed into the frontier, and the ball grows on to reach
    # it at t = 10, a cut-point past the threshold 10 of s = 2.5 at n = 4
    box = BoxSpec(2, 8)
    square = set(itertools.product(range(-3, 4), repeat=2)) - {(3, 3)}
    keep = {
        box.edge_index(v, axis) for v in square for axis in range(2)
        if tuple(c + (k == axis) for k, c in enumerate(v)) in square
    }
    detour = [(3, 0), (4, 0), (5, 0), (5, 1), (5, 2), (5, 3), (4, 3)] + [(3, 3)] * joined
    for a, b in zip(detour, detour[1:]):
        axis = next(k for k in range(2) if a[k] != b[k])
        keep.add(box.edge_index(min(a, b), axis))
    s = all_open(box).with_edges(close_idx=sorted(set(range(box.n_edges)) - keep))
    grid = EventGrid(box, [2.5], [(0.0, 0.0)], 4, alpha=None, free=False)
    settled, full = settled_and_full_balls(s, grid)
    assert full.exhausted and not full.contaminated
    expected = event_A(full, grid)
    assert event_A(settled, grid) == expected
    if joined:
        assert settled.last_time == full.last_time == 10
        assert expected == [EventResult(EventOutcome.HIT, CutPointRecord(10, (3, 3)))]
    else:
        assert (settled.last_time, full.last_time) == (7, 9)
        assert expected == [EventResult(EventOutcome.MISS)]


@pytest.mark.parametrize("box, p, seeds, n, alpha, x_grid, s_grid", [
    # every window leaves the box, far from the origin
    (BoxSpec(2, 5), 0.3, range(40), 8, 0.5, [(0.5, -1.0), (0.0, 1.0), (-1.0, 1.0)], [0.25, 0.5]),
    # off-centre boxes whose face cuts a window near the origin, and
    # samples in which the origin's finite cluster is exhausted inside them
    (BoxSpec(2, 3, (-2, -1)), 0.3, [1054074039], 2, None, [(0.5, 0.5)], [1.0]),
    (BoxSpec(2, 7, (1, -6)), 0.3, [2307915037], 3, None, [(0.0, 0.25)], [0.5]),
])
def test_no_window_is_settled_while_one_leaves_the_box(box, p, seeds, n, alpha, x_grid, s_grid):
    # the finite clusters that the origin ball exhausts without touching a
    # face certify the misses of windows that leave the box, which a ball
    # stopped early could not do
    grid = EventGrid(box, s_grid, x_grid, n, alpha=alpha, free=False)
    assert grid.windows.mask is None and grid.windows.settle(all_open(box)) is None
    misses = 0
    for seed in seeds:
        settled, full = settled_and_full_balls(sample_configuration(box, p, seed), grid)
        expected = event_A(full, grid)
        assert event_A(settled, grid) == expected
        misses += sum(r.outcome is EventOutcome.MISS for r in expected)
    assert misses > 0


def near_origin_grid_d3():
    """A d = 3 grid whose windows lie near the origin of its box."""
    box = BoxSpec(3, 16)
    return EventGrid(box, [0.25, 0.5], [(0.0, 0.0, 0.0), (0.5, 0.0, 0.0)], 4, alpha=None, free=False)


def test_a_ball_stops_once_its_windows_are_settled():
    # the windows near the origin are settled before the face in most
    # samples: those balls stop early, once a probe finds the finite
    # clusters left in the windows, and score every event as the ball grown
    # to the face
    grid = near_origin_grid_d3()
    assert grid.windows.mask is not None
    early = 0
    for seed in range(20):
        s = sample_configuration(grid.box, 0.5, seed)
        settled, full = settled_and_full_balls(s, grid)
        assert event_A(settled, grid) == event_A(full, grid)
        early += settled.last_time < full.last_time
    assert early >= 15


def test_a_settled_ball_is_scored_without_a_probe():
    # the in-loop probe that settled a ball certified every window vertex,
    # so event_A probes none of them again, neither alone nor in lanes; a
    # ball stopped for any other reason is not settled
    grid = near_origin_grid_d3()
    box, origin = grid.box, (0, 0, 0)
    target = box.flat_index((1, 0, 0))
    settled = 0
    for seed in range(20):
        s = sample_configuration(box, 0.5, seed)
        ball, full = settled_and_full_balls(s, grid)
        expected = event_A(full, grid)
        with counted(cutpoints, "grow_ball_flats") as probes, counted(cutpoints, "_lane_probe") as lanes:
            assert event_A(ball, grid) == expected
        if ball.settled:
            settled += 1
            assert not ball.contaminated and probes == lanes == []
        assert not full.settled
        capped = grow_ball(s, origin, t_max=3, settle=grid.windows.settle(s))
        aimed = grow_ball(s, origin, targets=[target], settle=grid.windows.settle(s))
        assert capped.last_time == 3 or capped.exhausted
        assert aimed.dist[target] == aimed.last_time or aimed.exhausted
        assert not capped.settled and not aimed.settled
    assert settled >= 15
    closed = all_closed(box)
    exhausted = grow_ball(closed, origin, stop_at_boundary=True, settle=grid.windows.settle(closed))
    assert exhausted.exhausted and not exhausted.settled


def test_a_grid_refuses_a_direction_of_the_wrong_dimension():
    box = BoxSpec(2, 6)
    x_grid = [(0.0, 0.0), (0.0, 0.0, 0.0), (1.0, 0.0)]
    for free in (False, True):
        with pytest.raises(GeometryError):
            EventGrid(box, [0.25, 0.5], x_grid, 4, alpha=None, free=free)
    # a grid is scored by the event it was built for
    sample = all_open(box)
    ball = origin_ball(sample)
    with pytest.raises(PreconditionError):
        event_A(ball, EventGrid(box, [0.25], x_grid[:1], 4, alpha=None, free=True))
    with pytest.raises(PreconditionError):
        event_A_free(ball, EventGrid(box, [0.25], x_grid[:1], 4, alpha=None, free=False))


@pytest.mark.parametrize("radius", [12, 30])
def test_a_ball_on_another_box_than_the_grid_is_refused(radius):
    # the ball carries its sample, and the grid's windows index its box
    grid_box = BoxSpec(2, 20)
    ball = origin_ball(sample_configuration(BoxSpec(2, radius), 0.6, 3))
    for free in (False, True):
        grid = EventGrid(grid_box, [0.25], [(0.5, 0.0)], 8, alpha=None, free=free)
        with pytest.raises(PreconditionError):
            (event_A_free if free else event_A)(ball, grid)


def test_line_count():
    assert line_count(np.array([(3, 4)]), 0) == 1
    seg = np.array([(0, k) for k in range(5)])
    assert line_count(seg, 1) == 1
    assert line_count(seg, 0) == 5
    rng = np.random.default_rng(3)
    pts = rng.integers(-10, 11, size=(50, 3))
    for axis in range(3):
        oracle = len({tuple(0 if k == axis else p[k] for k in range(3)) for p in pts})
        assert line_count(pts, axis) == oracle


def test_event_A_free_spine_d3():
    box = BoxSpec(3, 12)
    s = open_spine(box, 5)
    # threshold 5 - 3*window < 0 is degenerate; use the spine's own time
    res = score_one(s, 0.25, (0.0, 0.0, 0.0), 20, free=True)
    assert res.outcome is EventOutcome.HIT
    assert res.witness == CutPointRecord(0, (0, 0, 0))


def test_event_A_free_nondegenerate_threshold():
    # n and s chosen so the free threshold s n - 3 floor(n^alpha) is positive
    box = BoxSpec(3, 14)
    s = open_spine(box, 10)
    n = 4
    threshold = 2.6 * n - 3 * math.floor(n ** (1 - 1 / 18))
    assert threshold > 0
    res = score_one(s, 2.6, (0.0, 0.0, 0.0), n, free=True)
    assert res.outcome is EventOutcome.HIT
    assert res.witness.time >= threshold


def test_event_A_free_all_open_miss():
    # box large enough that every window vertex distance is certified
    res = score_one(all_open(BoxSpec(2, 45)), 3.0, (0.0, 0.0), 6, free=True)
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
        ball = origin_ball(s)
        dist = dijkstra_distances(s, (0,) * d)
        singles = ball.singletons()
        coords = s.box.coords_of_flats([flat for _, flat in singles])
        for (t, _), coord in zip(singles, coords):
            w = tuple(int(c) for c in coord)
            ball_set = {
                tuple(int(c) for c in s.box.vertex_coord(f))
                for f in np.flatnonzero(dist <= t)
            }
            for line_cap, volume_cap in itertools.product((1, 2, 3), (6, 20, 10**6)):
                expected = free_verdict_oracle(ball_set, w, line_cap, volume_cap)
                got = cutpoints._free_conditions(ball, t, coord, line_cap, volume_cap)
                assert got == (expected == "accept"), (seed, t, w, line_cap, volume_cap)
                seen.add(expected)
    assert seen == {"volume", "line", "hyperplane", "accept"}


def test_free_implies_relaxed_plain_event():
    # the free witness is a certified singleton layer (or the source at
    # t = 0) at t >= s n - 3 w, within 4 w of n x: the plain event with the
    # relaxed threshold and the 4 w window. At s = 2.5 the threshold is
    # positive, so some witnesses are late singleton layers.
    box, n = BoxSpec(2, 30), 8
    w = math.floor(n ** (1 - 1 / 12))
    for s, x, late in ((0.25, (0.0, 0.0), 0), (2.5, (0.5, 0.0), 1)):
        grid = EventGrid(box, [s], [x], n, alpha=None, free=True)
        times = []
        for seed in range(200):
            sample = sample_configuration(box, 0.7, seed)
            ball = origin_ball(sample)
            free, = event_A_free(ball, grid)
            if free.outcome is not EventOutcome.HIT:
                continue
            t, location = free.witness.time, free.witness.location
            singles = [(t, box.vertex_coord(flat)) for t, flat in ball.singletons()]
            assert (t, location) in [(0, box.vertex_coord(ball.layers[0][0]))] + singles
            assert t >= s * n - 3 * w
            assert max(abs(c - n * a) for c, a in zip(location, x)) <= 4 * w
            times.append(t)
        assert times and min(times) >= late


def test_apply_surgery_basics():
    s = sample_configuration(BoxSpec(2, 5), 0.5, 3)
    same = apply_surgery(s, ())
    assert same == s

    box = s.box
    incident = [e for e, _ in box.incident_edges((0, 0))]
    isolated = apply_surgery(all_open(box), tuple(incident))
    ball = grow_ball(isolated, (0, 0))
    assert [len(l) for l in ball.layers] == [1]


@pytest.mark.parametrize("edge", [-1, -84, 84, 85])
def test_apply_surgery_refuses_an_edge_outside_the_box(edge):
    # BoxSpec(2, 3) has 2 * 6 * 7 = 84 edges; a negative index would
    # otherwise close an edge counted from the end
    s = all_open(BoxSpec(2, 3))
    assert s.box.n_edges == 84
    with pytest.raises(GeometryError, match=f"edge index {edge} out of range"):
        apply_surgery(s, (0, edge))


def test_force_cutpoint_all_open_example():
    box = BoxSpec(2, 20)
    s = all_open(box)
    ball = grow_ball(s, (0, 0))
    plan = force_cutpoint(ball, 3, (3, 0), 49)
    assert len(plan) <= 4 * 2 * math.sqrt(49)
    assert list(plan) == sorted(set(plan))
    after = apply_surgery(s, plan)
    ball2 = grow_ball(after, (0, 0))
    assert [box.vertex_coord(f) for f in ball2.layers[3]] == [(3, 0)]
    assert ball2.dist[box.flat_index((3, 0))] == 3
    assert (ball_dist_array(ball2) >= ball_dist_array(ball)).all()


def test_force_cutpoint_idempotent_on_existing_record():
    box = BoxSpec(2, 15)
    s = open_spine(box, 5)
    ball = grow_ball(s, (0, 0))
    plan = force_cutpoint(ball, 3, (3, 0), 36)
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
        plan = force_cutpoint(ball, t_pick, w, k)
        assert len(plan) <= 4 * 2 * math.sqrt(k)
        after = apply_surgery(s, plan)
        ball2 = grow_ball(after, (0, 0), stop_at_boundary=True)
        assert ball2.resolved_through >= t_pick
        assert [box.vertex_coord(f) for f in ball2.layers[t_pick]] == [w]
        assert (ball_dist_array(ball2) >= ball_dist_array(ball)).all()
        verified += 1
    assert verified == 30


def test_force_cutpoint_preserves_event():
    # closing the plan's (non-witness) edges keeps the event occurring
    box = BoxSpec(2, 26)
    grid = EventGrid(box, [0.25], [(0.0, 0.0)], 8, alpha=None, free=False)
    checked = 0
    for seed in range(400):
        s = sample_configuration(box, 0.7, seed)
        ball = origin_ball(s)
        res, = event_A(ball, grid)
        if res.outcome is not EventOutcome.HIT or res.witness.time == 0:
            continue
        t, w = res.witness.time, res.witness.location
        if ball.ball_sizes[t] > 64:
            continue
        plan = force_cutpoint(ball, t, w, 64)
        after = apply_surgery(s, plan)
        res2 = score_one(after, 0.25, (0.0, 0.0), 8)
        assert res2.outcome is EventOutcome.HIT
        checked += 1
    assert checked > 5


def test_force_cutpoint_preconditions():
    box = BoxSpec(2, 10)
    s = all_open(box)
    ball = grow_ball(s, (0, 0))
    with pytest.raises(PreconditionError):
        force_cutpoint(ball, 3, (2, 0), 49)  # wrong layer
    with pytest.raises(PreconditionError):
        force_cutpoint(ball, 5, (5, 0), 10)  # |B_5| > 10


def upper_tail(sample, n, xi, mu):
    """Upper-tail outcome of D(0, n e1), read as the estimators read it."""
    e1 = (1.0,) + (0.0,) * (sample.box.dimension - 1)
    (dist, _), = target_distances(sample.box, [sample], n, e1)
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
    samples = [sample_configuration(BoxSpec(d, L), p, seed) for seed in range(60)]
    # all 60 target balls grow in one call
    grown = target_distances(BoxSpec(d, L), samples, n, (1.0,) + (0.0,) * (d - 1))
    for s, (dist, _) in zip(samples, grown):
        status, value = certified_distance_oracle(s, origin, target)
        assert dist == value
        if status == "exact":
            expected = EventOutcome.HIT if value > mu * (1 + xi) * n else EventOutcome.MISS
        else:
            expected = EventOutcome(status)
        assert upper_tail(s, n, xi, mu) is expected
        seen.add(expected)
        x, y = (tuple(int(c) for c in rng.integers(-L, L + 1, d)) for _ in range(2))
        (between, _), = grow_targets([s], s.box.flat_index(x), s.box.flat_index(y))
        assert between == certified_distance_oracle(s, x, y)[1]
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
    box = BoxSpec(2, 40)
    w = math.floor(8 ** (11 / 12))
    plain = EventGrid(box, [0.25, 0.5], [(0.0, 0.0)], 8, alpha=None, free=False)
    free = EventGrid(box, [0.25, 0.5], [(0.0, 0.0)], 8, alpha=None, free=True)
    assert plain.window == free.window == w
    assert (plain.radius, free.radius) == (w, 4 * w)
    assert plain.thresholds.tolist() == [2.0, 4.0]
    assert free.thresholds.tolist() == [2.0 - 3 * w, 4.0 - 3 * w]
    assert free.volume_cap == math.floor(8**1.75)
