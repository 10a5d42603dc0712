import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import exterior_boundary_oracle, flood_components
from percolab import combinatorics as comb
from percolab.errors import (
    BundleInvariantError,
    MatchingInvariantError,
    PreconditionError,
    ProjectionBoundError,
    ResourceLimitError,
)


def random_points(rng, d, extent, size):
    pts = rng.integers(-extent, extent + 1, size=(size, d))
    return comb.PointSet.of(map(tuple, np.unique(pts, axis=0)))


def plane_points(rng, d, axis, value, half, m):
    pts = set()
    while len(pts) < m:
        v = [int(c) for c in rng.integers(-half, half + 1, size=d)]
        v[axis] = value
        pts.add(tuple(v))
    return comb.PointSet.of(pts)


# ---------------------------------------------------------------------------
# projections


def test_projection_single_point():
    axis, proj = comb.projection_best(comb.PointSet.of([(3, -1, 2)]))
    assert len(proj) == 1


def test_projection_collinear():
    S = comb.PointSet.of([(k, 0, 0) for k in range(12)])
    axis, proj = comb.projection_best(S)
    assert axis in (1, 2)
    assert len(proj) == 12


def test_projection_random_bound_and_fallback(rng):
    for _ in range(200):
        S = random_points(rng, 3, 20, int(rng.integers(2, 2000)))
        axis, proj = comb.projection_best(S)
        bound = len(S) ** (2 / 3) / 2
        assert len(proj) >= bound - 1e-9
        best = max(
            comb.projection_size(S.array, k) for k in range(3)
        )
        # returned axis always achieves the bound; when it is not the
        # exhaustive argmax the bound must have been met by the recursion
        assert comb.projection_size(S.array, axis) >= bound - 1e-9
        assert best >= comb.projection_size(S.array, axis) - best  # sanity


def test_projection_d2_adversarial_raises():
    grid = comb.PointSet.of([(a, b) for a in range(12) for b in range(12)])
    with pytest.raises(ProjectionBoundError):
        comb.projection_best(grid)


# ---------------------------------------------------------------------------
# distinct-coordinate subsets


def test_distinct_subset_singleton():
    i, j, sub = comb.distinct_coordinate_subset(comb.PointSet.of([(5, 5)]))
    assert len(sub) == 1


def test_distinct_subset_grid_diagonal():
    k = 7
    S = comb.PointSet.of([(a, b) for a in range(k) for b in range(k)])
    i, j, sub = comb.distinct_coordinate_subset(S)
    comb.verify_distinct_subset(S, i, j, sub)
    # a diagonal certifies k; the guarantee is ~k/2
    assert len(sub) >= k**2 / (2 * (k - 1)) - 1e-9
    assert len(sub) <= k


def test_distinct_subset_matching_beats_the_greedy():
    # the greedy keeps (0, 0) and then blocks both other points, below the
    # target 3 / 2; the maximum matching keeps (0, 1) and (1, 0)
    S = comb.PointSet.of([(0, 0), (0, 1), (1, 0)])
    assert comb.subset_size_target(2, len(S), S.diam) == 1.5
    assert comb._pair_greedy(S.points, 0, 1) == [(0, 0)]
    i, j, sub = comb.distinct_coordinate_subset(S)
    comb.verify_distinct_subset(S, i, j, sub)
    assert (i, j) == (0, 1)
    assert set(sub.points) == {(0, 1), (1, 0)}


@pytest.mark.parametrize("D", [4, 6, 9])
def test_distinct_subset_descends_into_the_heavy_slice_of_a_plane(D):
    # the plane where coordinate 1 is 0: on the last two axes (1, 2) every
    # point shares coordinate 1, so the matching keeps one point, below the
    # target ((D + 1)^2 / (4 D))^(1/2) > 1; the descent keeps the heavy
    # slice of axis 1, the whole plane, and matches a diagonal on (0, 2)
    S = comb.PointSet.of([(a, 0, b) for a in range(D + 1) for b in range(D + 1)])
    assert comb.subset_size_target(3, len(S), S.diam) > 1
    i, j, sub = comb.distinct_coordinate_subset(S)
    comb.verify_distinct_subset(S, i, j, sub)
    assert (i, j) == (0, 2)
    assert len(sub) == D + 1


def test_distinct_subset_random_exact(rng):
    for _ in range(200):
        d = int(rng.integers(2, 5))
        S = random_points(rng, d, 15, int(rng.integers(1, 300)))
        i, j, sub = comb.distinct_coordinate_subset(S)
        comb.verify_distinct_subset(S, i, j, sub)
        assert i != j


# ---------------------------------------------------------------------------
# separated matchings


def test_segment_distance_basics():
    assert comb._gap((3, 4), (3, 4)) == 5.0
    assert comb._gap((3, 4), (6, 8)) == 5.0
    assert comb._gap((-1, 1), (1, 1)) == 1.0
    assert comb._gap((0, -2), (0, 2)) == 0.0


def integer_vector_pairs():
    """(u, v) of integer vectors of one length, 1 to 3."""

    def pair(d):
        vec = st.lists(st.integers(-6, 6), min_size=d, max_size=d)
        return st.tuples(vec, vec)

    return st.integers(1, 3).flatmap(pair)


@given(integer_vector_pairs(), st.booleans())
def test_gap_matches_a_dense_grid_of_the_segment(uv, equal):
    # oracle: the smallest |(1 - t) u + t v| over a t-grid of step h and both
    # endpoints, which exceeds the true minimum by at most h/2 |v - u|
    u, v = (np.asarray(c, dtype=np.int64) for c in uv)
    if equal:
        v = u
    h = 1e-4
    t = np.append(np.arange(0.0, 1.0, h), 1.0)[:, None]
    oracle = np.linalg.norm((1 - t) * u + t * v, axis=1).min()
    gap = comb._gap(u, v)
    assert gap <= oracle + 1e-12
    assert oracle <= gap + h / 2 * np.linalg.norm(v - u) + 1e-12


def test_matching_single_pair():
    s1 = comb.PointSet.of([(0, 1, 2)])
    s2 = comb.PointSet.of([(4, -1, 0)])
    m = comb.separated_matching(s1, s2, 4)
    m.verify()
    assert m.sigma == (0,)


def test_matching_parallel_unit_pair():
    K = 5
    s1 = comb.PointSet.of([(0, 0, 0), (0, 1, 0)])
    s2 = comb.PointSet.of([(K, 0, 0), (K, 1, 0)])
    m = comb.separated_matching(s1, s2, K)
    m.verify()
    assert m.certified_min_separation == 1.0
    assert m.certified_min_separation >= 1 / math.sqrt(2)


def test_matching_bruteforce_equality(rng):
    for _ in range(100):
        K = int(rng.integers(3, 15))
        ell = int(rng.integers(1, K + 1))
        m_size = int(rng.integers(2, 6))
        half = K // 2
        s1 = plane_points(rng, 3, 0, 0, half, m_size)
        s2 = plane_points(rng, 3, 0, ell, half, m_size)
        matching = comb.separated_matching(s1, s2, K)
        matching.verify()
        a1, a2 = np.asarray(matching.s1), np.asarray(matching.s2)
        cost = comb._matching_cost_matrix(a1, a2, K)
        brute = min(
            sum(cost[i, p[i]] for i in range(m_size))
            for p in itertools.permutations(range(m_size))
        )
        achieved = sum(cost[i, matching.sigma[i]] for i in range(m_size))
        assert achieved == pytest.approx(brute, abs=1e-9)


def two_swap_local_assignment(cost: np.ndarray) -> list[int]:
    """Assignment locally optimal under transpositions (cross-check path)."""
    m = cost.shape[0]
    sigma = list(range(m))
    improved = True
    while improved:
        improved = False
        for a in range(m):
            for b in range(a + 1, m):
                cur = cost[a, sigma[a]] + cost[b, sigma[b]]
                swp = cost[a, sigma[b]] + cost[b, sigma[a]]
                if swp < cur - 1e-12:
                    sigma[a], sigma[b] = sigma[b], sigma[a]
                    improved = True
    return sigma


def test_two_swap_local_minimum_also_separated(rng):
    # the exchange argument only needs transposition optimality, so a
    # 2-swap local optimum must certify the same separation bound
    for _ in range(60):
        K = int(rng.integers(3, 12))
        ell = int(rng.integers(1, K + 1))
        m_size = int(rng.integers(2, 7))
        s1 = plane_points(rng, 3, 0, 0, K // 2, m_size)
        s2 = plane_points(rng, 3, 0, ell, K // 2, m_size)
        cost = comb._matching_cost_matrix(s1.array, s2.array, K)
        sigma = two_swap_local_assignment(cost)
        local = comb.SeparatedMatching(s1=s1.points, s2=s2.points, sigma=tuple(sigma))
        local.verify()
        assert local.guarantee >= ell / (math.sqrt(2) * K) - 1e-12


# K = l = 3: every bijection has two segments closer than l / (sqrt2 K) in R^3
EUCLIDEAN_COUNTEREXAMPLE = (
    [(0, -1, 1), (0, 0, 1), (0, 1, -1), (0, 1, 0)],
    [(3, -1, -1), (3, -1, 0), (3, 0, -1), (3, 0, 1)],
)


def test_no_bijection_reaches_euclidean_bound():
    # dense sampling of both segments gives an upper bound on their distance
    s1, s2 = (np.asarray(s, dtype=float) for s in EUCLIDEAN_COUNTEREXAMPLE)
    t = np.linspace(0.0, 1.0, 401)[:, None]

    def samples(a, b):
        return a + t * (b - a)

    def closest(p1, q1, p2, q2):
        diff = samples(p1, q1)[:, None, :] - samples(p2, q2)[None, :, :]
        return np.sqrt((diff**2).sum(2)).min()

    for perm in itertools.permutations(range(4)):
        assert any(
            closest(s1[a], s2[perm[a]], s1[b], s2[perm[b]]) < 1 / math.sqrt(2)
            for a, b in itertools.combinations(range(4), 2)
        )


def test_bundle_on_euclidean_counterexample():
    s1, s2 = (comb.PointSet.of(s) for s in EUCLIDEAN_COUNTEREXAMPLE)
    comb.separated_matching(s1, s2, 3).verify()
    bundle = comb.disjoint_path_bundle(s1, s2, 3, 3)
    bundle.verify()
    assert len(bundle.paths) == 4


def test_matching_verify_rejects_crossing_segments():
    s1 = ((0, 0, 0), (0, 1, 0))
    s2 = ((2, 0, 0), (2, 1, 0))
    crossing = comb.SeparatedMatching(s1=s1, s2=s2, sigma=(1, 0))
    assert crossing.certified_min_separation == 0.0
    with pytest.raises(MatchingInvariantError):
        crossing.verify()


def test_transposition_optimal_pairs_exhaustive_oracle():
    # every x_a, x_b on one plane and y_1, y_2 on the other (x_a at the
    # transverse origin, pairwise sup spread <= K): if x_a -> y_1, x_b -> y_2
    # costs no more than the swap, the equal-height gap is >= 1/sqrt2
    for K in range(2, 6):
        r = np.arange(-K, K + 1)
        # one transverse axis: columns x_b, y_1, y_2 (x_a = 0)
        axis = np.stack(np.meshgrid(r, r, r, indexing="ij"), -1).reshape(-1, 3)
        axis = axis[np.maximum(axis.max(1), 0) - np.minimum(axis.min(1), 0) <= K]
        i, j = np.indices((len(axis), len(axis))).reshape(2, -1)
        xb, y1, y2 = (np.column_stack([axis[i, c], axis[j, c]]) for c in range(3))
        xa = np.zeros_like(xb)
        keep = (xb != 0).any(1) & (y1 != y2).any(1)

        def cost(p, q):
            return np.sqrt(K**2 + (p - q) ** 2.0).sum(1)

        optimal = keep & (
            cost(xa, y1) + cost(xb, y2) <= cost(xa, y2) + cost(xb, y1) + 1e-9
        )
        u = (xa - xb)[optimal].astype(float)
        w = (y1 - y2)[optimal] - u
        ww = (w * w).sum(1)
        t = np.clip(-(u * w).sum(1) / np.where(ww > 0, ww, 1.0), 0.0, 1.0)
        gap = np.linalg.norm(u + t[:, None] * w, axis=1)
        assert gap.min() == pytest.approx(1 / math.sqrt(2), abs=1e-12)


def test_matching_hypothesis_checks():
    s1 = comb.PointSet.of([(0, 0, 0)])
    s2 = comb.PointSet.of([(9, 0, 0)])
    with pytest.raises(PreconditionError):
        comb.separated_matching(s1, s2, 4)  # gap exceeds K
    with pytest.raises(PreconditionError):
        comb.separated_matching(
            comb.PointSet.of([(0, 0, 0), (1, 0, 0)]), s2, 9
        )  # s1 not on one hyperplane
    with pytest.raises(PreconditionError):
        comb.separated_matching(
            comb.PointSet.of([(0, 0)]), comb.PointSet.of([(3, 0)]), 4
        )  # d = 2 unsupported


# ---------------------------------------------------------------------------
# path bundles


def test_staircase_properties(rng):
    for _ in range(100):
        d = int(rng.integers(2, 5))
        a = rng.integers(-20, 21, size=d)
        b = rng.integers(-20, 21, size=d)
        path = comb.staircase_path(a, b)
        assert path[0] == tuple(a) and path[-1] == tuple(b)
        assert len(path) - 1 == int(np.abs(b - a).sum())
        # every vertex within sup distance 1 of the segment
        for v in path:
            dist = comb._gap(a - v, b - v)
            assert dist <= math.sqrt(d) + 1e-9


def test_bundle_aligned_pairs():
    s1 = comb.PointSet.of([(0, 0, 0), (0, 4, 0)])
    s2 = comb.PointSet.of([(3, 0, 0), (3, 4, 0)])
    bundle = comb.disjoint_path_bundle(s1, s2, 3, 4)
    bundle.verify()
    assert len(bundle.paths) == 2
    assert bundle.max_multiplicity == 1
    assert bundle.max_length <= 3


def test_bundle_parallel_random(rng):
    for _ in range(60):
        K = int(rng.integers(5, 21))
        ell = int(rng.integers(1, K + 1))
        m = int(rng.integers(2, 12))
        s1 = plane_points(rng, 3, 0, 0, K // 2, m)
        s2 = plane_points(rng, 3, 0, ell, K // 2, m)
        bundle = comb.disjoint_path_bundle(s1, s2, ell, K)
        bundle.verify()
        assert len(bundle.paths) == m
        assert bundle.max_length <= 2 * 3 * K


def test_bundle_dimension_guard():
    s1 = comb.PointSet.of([(0, 0)])
    s2 = comb.PointSet.of([(1, 0)])
    with pytest.raises(PreconditionError):
        comb.disjoint_path_bundle(s1, s2, 1, 1)


# ---------------------------------------------------------------------------
# axis-avoiding paths


def test_axis_avoiding_single():
    xs, ys = [(-2, 3, 1)], [(2, 3, 1)]
    bundle = comb.axis_avoiding_paths(xs, ys)
    bundle.verify()
    assert bundle.max_length <= 8


def test_axis_avoiding_explicit():
    n = 4
    rest = [(-2, 5), (0, 1), (0, 2), (3, -1)]
    xs = [(-2 * n, a, b) for a, b in rest]
    ys = [(2 * n, a, b) for a, b in rest]
    bundle = comb.axis_avoiding_paths(xs, ys)
    bundle.verify()
    assert bundle.max_multiplicity == 1  # pairwise vertex-disjoint
    assert bundle.max_length <= 8 * n
    for p in bundle.paths:
        for v in p:
            assert not (v[0] == 0 and v[1] == 0)  # avoids the axis-3 line


def test_axis_avoiding_random(rng):
    for _ in range(40):
        n = int(rng.integers(1, 12))
        rest = set()
        while len(rest) < n:
            rest.add(tuple(int(c) for c in rng.integers(-n, n + 1, size=2)))
        xs = [(-2 * n,) + r for r in rest]
        ys = [(2 * n,) + r for r in rest]
        bundle = comb.axis_avoiding_paths(xs, ys)
        bundle.verify()
        seen = set()
        for p in bundle.paths:
            assert not (set(p) & seen)
            seen |= set(p)


def test_axis_avoiding_hypothesis_violation():
    with pytest.raises(PreconditionError):
        comb.axis_avoiding_paths([(-4, 0, 0)], [(4, 1, 0)])  # not mirrored
    with pytest.raises(PreconditionError):
        comb.axis_avoiding_paths([(-3, 0, 0)], [(3, 0, 0)])  # wrong plane


# ---------------------------------------------------------------------------
# exterior boundary, isoperimetry, animals


def test_exterior_boundary_single_vertex():
    out = comb.exterior_boundary([(0, 0)])
    assert out.boundary == frozenset({(1, 0), (-1, 0), (0, 1), (0, -1)})
    assert out.star_connected


def test_exterior_boundary_square():
    gamma = [(a, b) for a in range(3) for b in range(3)]
    out = comb.exterior_boundary(gamma)
    assert len(out.boundary) == 12  # the ring without the 4 corners
    assert out.star_connected


def test_exterior_boundary_ring_interior():
    ring = [(a, b) for a in range(-2, 3) for b in range(-2, 3)
            if max(abs(a), abs(b)) == 2]
    out = comb.exterior_boundary(ring)
    inner = {(a, b) for a in range(-1, 2) for b in range(-1, 2)}
    assert exterior_boundary_oracle(ring)[1] == inner
    assert not out.boundary & inner
    assert (3, 0) in out.boundary
    assert (1, 0) not in out.boundary  # enclosed, not connected to infinity


def test_exterior_boundary_guards():
    # the boundary lives in Z^d: no ambient box limits where gamma may lie
    out = comb.exterior_boundary([(5, 5)])
    assert out.boundary == frozenset({(6, 5), (4, 5), (5, 6), (5, 4)})
    with pytest.raises(PreconditionError):
        comb.exterior_boundary([(0, 0), (2, 2)])  # disconnected


def random_connected(rng, d, size):
    cells = {(0,) * d}
    frontier = [(0,) * d]
    while len(cells) < size:
        v = frontier[int(rng.integers(0, len(frontier)))]
        axis = int(rng.integers(0, d))
        sign = 1 if rng.integers(0, 2) else -1
        w = tuple(c + (sign if k == axis else 0) for k, c in enumerate(v))
        if w not in cells:
            cells.add(w)
            frontier.append(w)
    return cells


def test_exterior_boundary_random_star_connected_and_isoperimetry(rng):
    for _ in range(120):
        d = int(rng.integers(2, 4))
        cells = random_connected(rng, d, int(rng.integers(1, 120)))
        out = comb.exterior_boundary(cells)
        assert out.star_connected
        assert comb.isoperimetry_holds(len(cells), len(out.boundary), d)


def test_exterior_boundary_matches_flood_oracle(rng):
    # random connected sets in d = 2, 3, 4; every other one is joined to the
    # shell of a box [0, 2r]^d, whose inside the walk need not fill (r = 1
    # in d = 4 keeps the oracle's arena small)
    holes = 0
    for i in range(45):
        d = 2 + i % 3
        cells = random_connected(rng, d, int(rng.integers(1, 40)))
        if i % 2:
            r = int(rng.integers(1, 3)) if d < 4 else 1
            cube = itertools.product(range(2 * r + 1), repeat=d)
            cells |= {v for v in cube if min(v) == 0 or max(v) == 2 * r}
        boundary, interior, star_connected = exterior_boundary_oracle(cells)
        holes += bool(interior)
        as_array = np.asarray(sorted(cells), dtype=np.int64)
        for gamma in (cells, as_array):
            out = comb.exterior_boundary(gamma)
            assert out.boundary == boundary
            assert out.star_connected == star_connected
    assert holes >= 15


@st.composite
def walk_sites(draw):
    """The sites of a nearest-neighbour walk from the origin in d = 2, 3 or 4:
    a connected set, which encloses holes when the walk loops."""
    d = draw(st.integers(2, 4))
    steps = draw(st.lists(
        st.tuples(st.integers(0, d - 1), st.sampled_from((-1, 1))), max_size=40
    ))
    v = [0] * d
    cells = {tuple(v)}
    for axis, sign in steps:
        v[axis] += sign
        cells.add(tuple(v))
    return cells


@given(walk_sites(), st.lists(st.integers(-1000, 1000), min_size=4, max_size=4))
def test_exterior_boundary_translates_and_separates(cells, shift):
    def moved(vertices):
        return {tuple(a + b for a, b in zip(v, shift)) for v in vertices}

    out = comb.exterior_boundary(cells)
    out_moved = comb.exterior_boundary(moved(cells))
    assert out_moved.boundary == moved(out.boundary)
    assert not cells & out.boundary
    d = len(next(iter(cells)))
    for v in out.boundary:
        assert any(
            v[:axis] + (v[axis] + sign,) + v[axis + 1 :] in cells
            for axis in range(d) for sign in (-1, 1)
        )


def test_label_cells_matches_flood_under_both_adjacencies(rng):
    for d in (2, 3):
        for _ in range(50):
            size = rng.integers(1, 25)
            sites = {tuple(int(c) for c in v) for v in rng.integers(-4, 5, size=(size, d))}
            cells = np.asarray(sorted(sites), dtype=np.int64)
            for star in (False, True):
                labels, count, lo = comb._label_cells(cells, star)
                of_site = labels[tuple((cells - lo).T)]
                assert {
                    frozenset(map(tuple, cells[of_site == k].tolist()))
                    for k in range(1, count + 1)
                } == set(flood_components(sites, star))


def test_count_lattice_animals():
    assert comb.count_lattice_animals(2, 1) == 1
    assert comb.count_lattice_animals(2, 2) == 8
    for k in range(1, 6):
        assert comb.count_lattice_animals(2, k) <= 7 ** (2 * k)
    with pytest.raises(ResourceLimitError):
        comb.count_lattice_animals(3, 6)


def test_count_lattice_animals_bruteforce_oracle():
    # enumerate all star-connected k-subsets of a window containing 0
    for k in (2, 3):
        window = [(a, b) for a in range(-k + 1, k) for b in range(-k + 1, k)]
        count = 0
        for rest in itertools.combinations([c for c in window if c != (0, 0)], k - 1):
            cells = set(rest) | {(0, 0)}
            if len(flood_components(cells, star=True)) == 1:
                count += 1
        assert comb.count_lattice_animals(2, k) == count
