import io
import math

import numpy as np
import pytest

from conftest import (
    all_closed,
    all_open,
    ball_dist_array,
    dijkstra_distances,
    edge_base_flats,
)
from percolab import (
    BoxSpec,
    chemical_distance,
    constrained_distance,
    geodesic,
    grow_ball,
    sample_configuration,
    volume_threshold_time,
)
from percolab.errors import EmptyEndpointWarning, GeometryError, UnreachableVertexError
from percolab.metric import distance_map_csv, resolved_distance


def open_path_sample(box, vertices):
    s = all_closed(box)
    idx = []
    for a, b in zip(vertices, vertices[1:]):
        axis = next(k for k in range(box.dimension) if a[k] != b[k])
        base = a if b[axis] > a[axis] else b
        idx.append(box.edge_index(base, axis))
    return s.with_edges(open_idx=idx)


def test_full_lattice_layers_are_l1_spheres():
    ball = grow_ball(all_open(BoxSpec(2, 5)), (0, 0), t_max=2)
    assert [len(l) for l in ball.layers] == [1, 4, 8]


def test_all_closed_ball():
    box = BoxSpec(2, 3)
    ball = grow_ball(all_closed(box), (0, 0))
    assert [len(l) for l in ball.layers] == [1]
    assert ball.dist_of((1, 0)) == math.inf
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


def test_chemical_distance_straight_path():
    box = BoxSpec(2, 8)
    s = open_path_sample(box, [(k, 0) for k in range(6)])
    assert chemical_distance(s, (0, 0), (5, 0)) == 5
    assert chemical_distance(s, (0, 0), (0, 1)) == math.inf


def test_chemical_distance_floors_real_inputs():
    s = all_open(BoxSpec(2, 6))
    assert chemical_distance(s, (0.9, 0.2), (3.7, 0.0)) == 3  # (0,0) -> (3,0)


def test_chemical_distance_symmetric_and_l1_bound():
    for seed in range(5):
        s = sample_configuration(BoxSpec(2, 6), 0.6, seed)
        x, y = (-2, 1), (3, -2)
        dxy = chemical_distance(s, x, y)
        assert dxy == chemical_distance(s, y, x)
        if dxy != math.inf:
            assert dxy >= abs(x[0] - y[0]) + abs(x[1] - y[1])
    assert chemical_distance(all_open(BoxSpec(2, 6)), (-2, 1), (3, -2)) == 8


def test_constrained_distance_whole_box_matches_unconstrained():
    s = sample_configuration(BoxSpec(2, 5), 0.6, 11)
    box = s.box
    region = [box.vertex_coord(f) for f in range(box.n_vertices)]
    d1 = constrained_distance(s, region, [(0, 0)], [(3, 2)])
    assert d1 == chemical_distance(s, (0, 0), (3, 2))


def test_constrained_distance_on_line():
    box = BoxSpec(2, 6)
    s = open_path_sample(box, [(k, 0) for k in range(-2, 5)])
    line = [(k, 0) for k in range(-6, 7)]
    assert constrained_distance(s, line, [(-2, 0)], [(4, 0)]) == 6
    s2 = all_closed(box)
    assert constrained_distance(s2, line, [(-2, 0)], [(4, 0)]) == math.inf


def test_constrained_distance_slab_matches_induced_oracle():
    s = sample_configuration(BoxSpec(3, 4), 0.7, 5)
    box = s.box
    slab = [box.vertex_coord(f) for f in range(box.n_vertices)
            if box.vertex_coord(f)[2] == 0]
    got = constrained_distance(s, slab, [(-3, -3, 0)], [(3, 3, 0)])
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
    with pytest.warns(EmptyEndpointWarning):
        assert constrained_distance(s, [(0, 0)], [], [(0, 0)]) == math.inf
    with pytest.raises(GeometryError):
        constrained_distance(s, [(0, 0)], [(1, 1)], [(0, 0)])


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
            if ball.dist_of(target) == math.inf:
                continue
            path = geodesic(ball, target)
            assert len(path) - 1 == ball.dist_of(target)
            assert len(set(path)) == len(path)
    with pytest.raises(UnreachableVertexError):
        geodesic(grow_ball(all_closed(BoxSpec(2, 3)), (0, 0)), (1, 1))


def test_volume_threshold_time():
    ball = grow_ball(all_open(BoxSpec(2, 8)), (0, 0), t_max=6)
    assert volume_threshold_time(ball, 1) == 0
    assert volume_threshold_time(ball, 5) == 1  # |B_1| = 5
    assert volume_threshold_time(ball, 10**9) is None
    # prefix-sum oracle on a random sample
    s = sample_configuration(BoxSpec(2, 7), 0.6, 8)
    b = grow_ball(s, (0, 0))
    sizes = np.cumsum([len(l) for l in b.layers])
    for vol in (1, 3, 7, 20, 10**6):
        want = next((t for t, c in enumerate(sizes) if c >= vol), None)
        assert volume_threshold_time(b, vol) == want


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
    assert small.truncated_at == 2


def test_resolved_distance_statuses():
    box = BoxSpec(2, 6)
    s = open_path_sample(box, [(k, 0) for k in range(4)])
    assert resolved_distance(s, (0, 0), (3, 0)) == ("exact", 3)
    status, val = resolved_distance(s, (0, 0), (0, 3))
    assert status == "disconnected" and val == math.inf
    # open line running into the face: cluster truth unknowable
    s2 = open_path_sample(box, [(k, 0) for k in range(-6, 1)])
    assert resolved_distance(s2, (0, 0), (0, 3))[0] == "unknowable"


def test_distance_map_csv():
    ball = grow_ball(all_closed(BoxSpec(2, 1)), (0, 0))
    buf = io.StringIO()
    distance_map_csv(ball, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "# percolab-csv dist v1"
    assert lines[1] == "x1,x2,dist"
    assert "0,0,0" in lines
    assert sum(1 for l in lines if l.endswith(",inf")) == 8
