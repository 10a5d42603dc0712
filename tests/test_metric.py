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
    dijkstra_distances,
    edge_base_flats,
    open_path_sample,
    reference_grow,
)
from percolab import (
    BoxSpec,
    constrained_distance,
    geodesic,
    grow_ball,
    sample_configuration,
)
from percolab import metric
from percolab.errors import EmptyEndpointWarning, GeometryError, UnreachableVertexError
from percolab.harness import cli_dispatch


def test_full_lattice_layers_are_l1_spheres():
    ball = grow_ball(all_open(BoxSpec(2, 5)), (0, 0), t_max=2)
    assert [len(l) for l in ball.layers] == [1, 4, 8]


def test_all_closed_ball():
    box = BoxSpec(2, 3)
    ball = grow_ball(all_closed(box), (0, 0))
    assert [len(l) for l in ball.layers] == [1]
    assert ball.dist[box.flat_index((1, 0))] == INF32
    assert ball.exhausted


def test_dist_matches_dijkstra_oracle():
    s = sample_configuration(BoxSpec(2, 7), 0.6, 3)
    ball = grow_ball(s, (0, 0))
    assert np.array_equal(ball_dist_array(ball), dijkstra_distances(s, (0, 0)))


@pytest.mark.parametrize("d,radius,p,seed", [(2, 6, 0.5, 1), (3, 4, 0.3, 2), (3, 5, 0.75, 9)])
def test_dist_oracle_more_samples(d, radius, p, seed):
    s = sample_configuration(BoxSpec(d, radius), p, seed)
    src = (0,) * d
    ball = grow_ball(s, src)
    assert np.array_equal(ball_dist_array(ball), dijkstra_distances(s, src))


def chemical_distance(sample, x, y):
    return ball_dist_array(grow_ball(sample, x))[sample.box.flat_index(y)]


def test_chemical_distance_straight_path():
    box = BoxSpec(2, 8)
    s = open_path_sample(box, [(k, 0) for k in range(6)])
    assert chemical_distance(s, (0, 0), (5, 0)) == 5
    assert chemical_distance(s, (0, 0), (0, 1)) == math.inf


def test_chemical_distance_symmetric_and_l1_bound():
    for seed in range(5):
        s = sample_configuration(BoxSpec(2, 6), 0.6, seed)
        x, y = (-2, 1), (3, -2)
        dxy = chemical_distance(s, x, y)
        assert dxy == chemical_distance(s, y, x)
        assert dxy == dijkstra_distances(s, x)[s.box.flat_index(y)]
        if dxy != math.inf:
            assert dxy >= abs(x[0] - y[0]) + abs(x[1] - y[1])
    assert chemical_distance(all_open(BoxSpec(2, 6)), (-2, 1), (3, -2)) == 8


def region_mask(box, coords):
    mask = np.zeros(box.n_vertices, dtype=bool)
    mask[[box.flat_index(c) for c in coords]] = True
    return mask


def test_constrained_distance_whole_box_matches_unconstrained():
    s = sample_configuration(BoxSpec(2, 5), 0.6, 11)
    region = np.ones(s.box.n_vertices, dtype=bool)
    d1 = constrained_distance(s, region, [(0, 0)], [(3, 2)])
    assert d1 == chemical_distance(s, (0, 0), (3, 2))


def test_constrained_distance_on_line():
    box = BoxSpec(2, 6)
    s = open_path_sample(box, [(k, 0) for k in range(-2, 5)])
    line = region_mask(box, [(k, 0) for k in range(-6, 7)])
    assert constrained_distance(s, line, [(-2, 0)], [(4, 0)]) == 6
    s2 = all_closed(box)
    assert constrained_distance(s2, line, [(-2, 0)], [(4, 0)]) == math.inf


def test_constrained_distance_slab_matches_induced_oracle():
    s = sample_configuration(BoxSpec(3, 4), 0.7, 5)
    box = s.box
    slab = [box.vertex_coord(f) for f in range(box.n_vertices)
            if box.vertex_coord(f)[2] == 0]
    got = constrained_distance(s, region_mask(box, slab), [(-3, -3, 0)], [(3, 3, 0)])
    # oracle: dijkstra on the induced subgraph (only edges inside the slab)
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import dijkstra

    keep = {box.flat_index(v) for v in slab}
    rows, cols = [], []
    for axis in range(3):
        base = edge_base_flats(box, axis)
        epa = box.edges_per_axis
        mask = s.open_edges[axis * epa : (axis + 1) * epa]
        for lo in base[mask]:
            hi = lo + box.strides[axis]
            if lo in keep and hi in keep:
                rows.append(lo)
                cols.append(hi)
    g = csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(box.n_vertices,) * 2)
    dd = dijkstra(g, directed=False, unweighted=True,
                  indices=[box.flat_index((-3, -3, 0))])[0]
    want = dd[box.flat_index((3, 3, 0))]
    assert (got == math.inf and np.isinf(want)) or got == want


def test_constrained_distance_preconditions():
    s = all_open(BoxSpec(2, 4))
    origin = region_mask(s.box, [(0, 0)])
    with pytest.warns(EmptyEndpointWarning):
        assert constrained_distance(s, origin, [], [(0, 0)]) == math.inf
    with pytest.raises(GeometryError):
        constrained_distance(s, origin, [(1, 1)], [(0, 0)])


def test_constrained_distance_refuses_a_mask_of_the_wrong_length_or_dtype():
    s = all_open(BoxSpec(2, 4))
    n = s.box.n_vertices
    for region in (np.ones(n - 1, dtype=bool), np.ones((1, n), dtype=bool),
                   np.ones(n, dtype=np.int8), np.ones(n, dtype=np.int64)):
        with pytest.raises(GeometryError):
            constrained_distance(s, region, [(0, 0)], [(1, 0)])


def test_geodesic_unique_on_path_graph():
    box = BoxSpec(2, 8)
    s = open_path_sample(box, [(k, 0) for k in range(6)])
    ball = grow_ball(s, (0, 0))
    assert geodesic(ball, (5, 0)) == [(k, 0) for k in range(6)]


def test_geodesic_lexicographic_staircase():
    # all three geodesics to (2,1) exist; the lexicographically-least
    # predecessor rule selects (0,0),(0,1),(1,1),(2,1) (derived by hand)
    ball = grow_ball(all_open(BoxSpec(2, 6)), (0, 0), t_max=4)
    assert geodesic(ball, (2, 1)) == [(0, 0), (0, 1), (1, 1), (2, 1)]


def test_geodesic_length_equals_distance_and_self_avoiding():
    for seed in range(5):
        s = sample_configuration(BoxSpec(2, 7), 0.65, seed)
        ball = grow_ball(s, (0, 0))
        for target in [(3, 2), (-4, 1), (5, -5)]:
            dist = ball.dist[s.box.flat_index(target)]
            if dist == INF32:
                continue
            path = geodesic(ball, target)
            assert len(path) - 1 == dist
            assert len(set(path)) == len(path)
    with pytest.raises(UnreachableVertexError):
        geodesic(grow_ball(all_closed(BoxSpec(2, 3)), (0, 0)), (1, 1))


def _assert_least_predecessors(sample, ball):
    """Brute force over open neighbours: every reached vertex v at distance
    t > 0 has as ``pred_of`` the lexicographically least open neighbour u
    with dist[u] = t - 1; a source has none."""
    box = sample.box
    dist = ball.dist
    reached = np.flatnonzero(dist != INF32)
    for v, pred in zip(reached, ball.pred_of(reached)):
        t = int(dist[v])
        coord = box.vertex_coord(v)
        earlier = [
            nb for e, nb in box.incident_edges(coord)
            if sample.is_edge_open(e) and dist[box.flat_index(nb)] == t - 1
        ]
        if t == 0:
            assert pred == -1
        else:
            assert pred == box.flat_index(min(earlier)), (coord, earlier)


@pytest.mark.parametrize("d, radius, p", [(2, 6, 0.6), (2, 5, 0.8), (3, 3, 0.5)])
def test_predecessor_is_the_least_open_neighbour_one_layer_closer(d, radius, p):
    rng = np.random.default_rng(d * 100 + radius)
    for seed in range(4):
        s = sample_configuration(BoxSpec(d, radius), p, seed)
        box = s.box
        origin = np.array([box.flat_index((0,) * d)])
        region = rng.random(box.n_vertices) < 0.85
        region[origin] = True
        far = box.flat_index((radius - 1,) + (0,) * (d - 1))
        # a ball confined to the region grows in the restricted sample
        inside = s.restricted_to(region)
        for grown_in, kw in ((s, {}), (inside, {}), (s, {"targets": [far]}),
                             (inside, {"targets": [far]}), (s, {"t_max": 3})):
            ball = metric.grow_ball_flats(grown_in, origin, **kw)
            dist, layers = ball.dist, ball.layers
            assert np.array_equal(
                np.sort(np.flatnonzero(dist != INF32)), np.sort(np.concatenate(layers))
            )
            for t, layer in enumerate(layers):
                assert (dist[layer] == t).all() and (np.diff(layer) > 0).all()
            _assert_least_predecessors(s, ball)


@pytest.mark.parametrize(
    "rule", ["t_max", "int_targets", "array_targets", "region", "stop_at_boundary", "exhaustion"]
)
@given(data=st.data())
def test_grow_and_pred_of_match_the_per_move_reference(rule, data):
    # one stop rule per case, optionally inside a random region, which the
    # package grows in the restricted sample and the reference by its own
    # region rule; with no stop rule the growth ends only by exhausting the
    # source clusters
    d = data.draw(st.integers(2, 4), label="d")
    box = BoxSpec(d, data.draw(st.integers(1, {2: 6, 3: 3, 4: 2}[d]), label="radius"))
    n = box.n_vertices
    s = sample_configuration(
        box, data.draw(st.floats(0.15, 0.9), label="p"), data.draw(st.integers(0, 999), label="seed")
    )
    sources = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3, unique=True))
    kw, region = {}, None
    if rule == "t_max":
        kw["t_max"] = data.draw(st.integers(0, 8), label="t_max")
    elif rule.endswith("targets"):
        targets = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=5))
        kw["targets"] = targets if rule == "int_targets" else np.array(targets, dtype=np.int64)
    elif rule == "stop_at_boundary":
        kw["stop_at_boundary"] = True
    if rule == "region" or (rule != "exhaustion" and data.draw(st.booleans(), label="in region")):
        rng = np.random.default_rng(data.draw(st.integers(0, 999), label="region seed"))
        region = rng.random(n) < data.draw(st.floats(0.4, 1.0), label="region density")
        region[sources] = True

    dist, pred, layers, first_boundary, exhausted = reference_grow(
        s, sources, region=region, **kw
    )
    ball = metric.grow_ball_flats(s if region is None else s.restricted_to(region), sources, **kw)
    assert np.array_equal(ball.dist, dist)
    assert len(ball.layers) == len(layers)
    assert all(np.array_equal(a, b) for a, b in zip(ball.layers, layers))
    assert (ball.first_boundary_time, ball.exhausted) == (first_boundary, exhausted)
    assert exhausted or rule != "exhaustion"
    reached = np.flatnonzero(dist != INF32)
    assert np.array_equal(ball.pred_of(reached), pred[reached])


def _reference_target(sample, source, target):
    """(certified distance, singleton times) of the ball around the flat
    ``source`` that ``reference_grow`` grows toward the flat ``target``
    until its first face contact, read as ``metric.grow_targets`` states
    them: the target's distance if reached, inf if the cluster was
    exhausted, else None; and every t >= 1 whose layer is one vertex."""
    dist, _, layers, _, exhausted = reference_grow(
        sample, [source], targets=[target], stop_at_boundary=True
    )
    if dist[target] != INF32:
        value = int(dist[target])
    else:
        value = math.inf if exhausted else None
    return value, [t for t in range(1, len(layers)) if len(layers[t]) == 1]


@given(data=st.data())
def test_target_balls_match_the_reference_grown_alone(data):
    # B samples of one box grown in one call from one source toward one
    # target near it, each ball with its own stop: the target at some
    # layer, its first face contact, or an exhausted cluster (low p); the
    # source lies inside the box or on a face, or is the target itself
    d = data.draw(st.integers(2, 4), label="d")
    box = BoxSpec(d, data.draw(st.integers(1, {2: 6, 3: 3, 4: 2}[d]), label="radius"))
    kind = data.draw(st.sampled_from(["inside", "face", "own target"]), label="source")
    pool = np.flatnonzero(box.face_flat == (kind == "face"))
    source = int(pool[data.draw(st.integers(0, pool.size - 1), label="source")])
    step = data.draw(st.lists(st.integers(-2, 2), min_size=d, max_size=d), label="step")
    if kind == "own target":
        step = [0] * d
    near = np.clip(np.asarray(box.vertex_coord(source)) + step, -box.radius, box.radius)
    target = box.flat_index(tuple(near))
    samples = []
    for b in range(data.draw(st.integers(1, 9), label="B")):
        low = data.draw(st.booleans(), label=f"low p {b}")
        p = data.draw(st.floats(0.1, 0.3) if low else st.floats(0.3, 0.9))
        samples.append(sample_configuration(box, p, data.draw(st.integers(0, 999))))
    assert metric.grow_targets(samples, source, target) == [
        _reference_target(s, source, target) for s in samples
    ]


def test_target_balls_stop_at_their_own_layer_and_for_their_own_reason():
    box = BoxSpec(2, 5)
    origin, target = box.flat_index((0, 0)), box.flat_index((3, 2))
    route = [(0, 0), (1, 0), (2, 0), (3, 0), (3, 1), (3, 2)]
    # the target at layer 5; a line run into the face at layer 5; an
    # isolated origin; a dead end after two layers; and the target reached
    # in the layer that first touches a face, the edge of the horizon
    samples = [
        open_path_sample(box, route),
        open_path_sample(box, [(0, k) for k in range(6)]),
        all_closed(box),
        open_path_sample(box, route[:3]),
        open_path_sample(box, [(0, -k) for k in range(5, 0, -1)] + route),
    ]
    grown = metric.grow_targets(samples, origin, target)
    assert grown == [_reference_target(s, origin, target) for s in samples]
    assert grown == [
        (5, [1, 2, 3, 4, 5]), (None, [1, 2, 3, 4, 5]), (math.inf, []), (math.inf, [1, 2]),
        (5, []),
    ]
    # a source on the face stops at once, unless it is its own target
    corner = box.flat_index((-5, -5))
    assert metric.grow_targets(samples[:2], corner, target) == [(None, [])] * 2
    assert metric.grow_targets(samples[:2], corner, corner) == [(0, [])] * 2
    assert metric.grow_targets(samples[:1], target, target) == [(0, [])]


def test_layers_disjoint_prefix_union():
    for seed in range(4):
        s = sample_configuration(BoxSpec(2, 6), 0.55, seed)
        ball = grow_ball(s, (0, 0))
        seen = set()
        for t, layer in enumerate(ball.layers):
            layer_set = set(layer.tolist())
            assert not (layer_set & seen)
            assert all(ball.dist[f] == t for f in layer)
            seen |= layer_set


def test_closing_edges_never_decreases_distance():
    for seed in range(4):
        s = sample_configuration(BoxSpec(2, 6), 0.7, seed)
        rng = np.random.default_rng(seed)
        close = rng.choice(s.box.n_edges, size=20, replace=False)
        t = s.with_edges(close_idx=close)
        before = ball_dist_array(grow_ball(s, (0, 0)))
        after = ball_dist_array(grow_ball(t, (0, 0)))
        assert (after >= before).all()


def test_boundary_contamination_flag():
    box = BoxSpec(2, 4)
    ball = grow_ball(all_open(box), (0, 0))
    assert ball.contaminated
    assert ball.first_boundary_time == 4
    assert ball.resolved_through >= 4

    small = grow_ball(all_open(box), (0, 0), t_max=2)
    assert not small.contaminated
    assert small.last_time == 2 and not small.exhausted


def test_certified_distance_statuses():
    def certified(sample, target):
        box = sample.box
        (value, _), = metric.grow_targets([sample], box.flat_index((0, 0)), box.flat_index(target))
        return value

    box = BoxSpec(2, 6)
    s = open_path_sample(box, [(k, 0) for k in range(4)])
    assert certified(s, (3, 0)) == 3
    assert certified(s, (0, 3)) == math.inf
    # open line running into the face: cluster truth unknowable
    s2 = open_path_sample(box, [(k, 0) for k in range(-6, 1)])
    assert certified(s2, (0, 3)) is None


@pytest.mark.parametrize("d, radius, p", [(2, 8, 0.55), (3, 4, 0.4)])
def test_targets_as_list_or_array_grow_the_same_ball(d, radius, p, rng):
    box = BoxSpec(d, radius)
    for seed in range(10):
        s = sample_configuration(box, p, seed)
        sources = rng.choice(box.n_vertices, size=3, replace=False)
        targets = rng.choice(box.n_vertices, size=int(rng.integers(1, 40)))
        grown = [
            metric.grow_ball_flats(s, sources, targets=t, stop_at_boundary=stop)
            for stop in (False, True)
            for t in ([int(f) for f in targets], targets.astype(np.int64))
        ]
        for a, b in (grown[:2], grown[2:]):
            assert np.array_equal(a.dist, b.dist)
            reached = np.flatnonzero(a.dist != INF32)
            assert np.array_equal(a.pred_of(reached), b.pred_of(reached))
            assert len(a.layers) == len(b.layers)
            assert all(np.array_equal(x, y) for x, y in zip(a.layers, b.layers))
            assert (a.first_boundary_time, a.exhausted) == (b.first_boundary_time, b.exhausted)


def test_distance_map_csv(tmp_path):
    # the ball command's CSV: one row per vertex, 'inf' where unreached
    path = tmp_path / "closed.bin"
    all_closed(BoxSpec(2, 1)).save(path)
    argv = ["ball", f"--set=sample={path}", "--set=source=0,0"]
    assert cli_dispatch(argv + ["--out-dir", str(tmp_path)]) == 0
    lines = (tmp_path / "dist.csv").read_text().splitlines()
    assert lines[0] == "# percolab-csv dist v1"
    assert lines[1] == "x1,x2,dist"
    assert "0,0,0" in lines
    assert sum(1 for l in lines if l.endswith(",inf")) == 8
