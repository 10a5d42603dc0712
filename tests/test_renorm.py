import io
import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from scipy.sparse.csgraph import shortest_path

from conftest import (
    all_closed,
    all_open,
    flood_fill_labels,
    open_graph,
    open_path_sample,
)
from percolab import (
    BoxSpec,
    MacroLattice,
    classify_boxes,
    dependency_range,
    route_through_good,
    sample_configuration,
    slab_experiment,
)
from percolab import renorm
from percolab.errors import GeometryError, PreconditionError, RoutingError
from percolab.harness import cli_dispatch
from percolab.lattice import MAX_VERTICES, SUPPORTED_DIMENSIONS
from percolab.renorm import _component_diameters, _condition3, _meets_every_subbox


def test_macro_lattice_partition():
    lat = MacroLattice(N=5, dimension=2)
    # every vertex lies in the block [-N, N)^2 + 2iN of exactly one site i,
    # the middle third of that site's enlarged block
    for x in range(-22, 23):
        for y in range(-22, 23):
            site = ((x + 5) // 10, (y + 5) // 10)
            lo = [c + 10 for c in lat.enlarged_low(site)]
            hi = [c - 10 for c in lat.enlarged_high(site)]
            assert lo[0] <= x < hi[0] and lo[1] <= y < hi[1]
            assert hi[0] - lo[0] == hi[1] - lo[1] == 10
    assert lat.enlarged_low((0, 0)) == (-15, -15)
    assert lat.enlarged_high((0, 0)) == (15, 15)
    assert lat.enlarged_low((1, 0)) == (-5, -15)


def test_dependency_range():
    assert dependency_range(1.0, 2) == 20
    assert dependency_range(1.35, 3) == 40


def test_classify_all_open_good():
    s = all_open(BoxSpec(2, 30))
    cls = classify_boxes(s, N=5, epsilon=0.5, mu_hat=1.0)
    assert len(cls.records) == 9
    assert all(r.verdict == "good" for r in cls.records.values())
    # full lattice: distances are exactly the l1 norm
    assert bad_fraction(cls) == 0.0


def test_classify_all_closed_bad_condition1():
    s = all_closed(BoxSpec(2, 30))
    cls = classify_boxes(s, N=5, epsilon=0.5, mu_hat=1.0)
    assert all(r.verdict == "bad" for r in cls.records.values())
    assert {r.failed_condition for r in cls.records.values()} == {1}


def test_classify_requires_eps_N():
    with pytest.raises(PreconditionError):
        classify_boxes(all_open(BoxSpec(2, 20)), N=3, epsilon=0.1, mu_hat=1.0)


def test_classify_csv_schema():
    cls = classify_boxes(all_open(BoxSpec(2, 20)), N=3, epsilon=0.5, mu_hat=1.0)
    buf = io.StringIO()
    cls.to_csv(buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "# percolab-csv classify v1"
    assert lines[1].split(",")[:3] == ["i1", "i2", "verdict"]


def bad_fraction(cls):
    verdicts = [r.verdict for r in cls.records.values()]
    return verdicts.count("bad") / len(verdicts) if verdicts else math.nan


def test_bad_fraction_trend_decreases_in_block_size(monkeypatch):
    # long local detours dominate small blocks, so the bad fraction starts
    # at one and falls once the slack eps*N beats the worst pocket depth;
    # the norm estimate is a generous upper bound so the long-pair part of
    # the distance condition is not the binding constraint
    mu1 = 1.8
    monkeypatch.setattr(renorm, "CONDITION3_SAMPLED_SOURCES", 96)
    fracs = {}
    for N, L, seeds in ((10, 35, 8), (20, 65, 8), (40, 125, 12)):
        per_seed = []
        for seed in range(seeds):
            s = sample_configuration(BoxSpec(2, L), 0.7, 1000 + seed)
            cls = classify_boxes(s, N=N, epsilon=0.5, mu_hat=mu1)
            per_seed.append(bad_fraction(cls))
        fracs[N] = np.asarray(per_seed)
    means = {N: v.mean() for N, v in fracs.items()}
    assert means[10] >= means[20] - 0.2
    assert means[20] >= means[40] - 0.2
    se = math.sqrt(
        fracs[10].var(ddof=1) / len(fracs[10])
        + fracs[40].var(ddof=1) / len(fracs[40])
        + 1e-12
    )
    assert means[10] - means[40] > 3 * se


def meets_every_subbox_oracle(mask, b):
    """Every b-cube of the grid, corner by corner, holds a True (oracle)."""
    corners = itertools.product(*(range(n - b + 1) for n in mask.shape))
    return all(
        mask[tuple(slice(c, c + b) for c in corner)].any() for corner in corners
    )


def test_meets_every_subbox_matches_the_cube_oracle(rng):
    row = np.zeros((5, 5), dtype=bool)
    row[2] = True  # every 3-cube meets row 2; the 2-cubes on rows 0-1 do not
    assert not _meets_every_subbox(row, 2) and _meets_every_subbox(row, 3)
    verdicts = set()
    for d, side in ((2, 7), (3, 5)):
        for _ in range(60):
            shape = tuple(int(n) for n in rng.integers(side - 2, side + 1, size=d))
            mask = rng.random(shape) < rng.uniform(0.05, 0.6)
            for b in range(1, min(shape) + 1):
                expected = meets_every_subbox_oracle(mask, b)
                assert _meets_every_subbox(mask, b) == expected
                verdicts.add((d, expected))
    assert verdicts == {(2, True), (2, False), (3, True), (3, False)}


def test_classify_thin_path_fails_condition2():
    # the only cluster of the one site's enlarged block [-15, 15)^2 is a
    # straight path: unique and long (condition 1), and its distances are
    # exactly l1 (condition 3), but the 2 x 2 sub-boxes off its row miss it
    box = BoxSpec(2, 15)
    s = open_path_sample(box, [(x, 0) for x in range(-15, 15)])
    cls = classify_boxes(s, N=5, epsilon=0.5, mu_hat=1.0)
    assert list(cls.records) == [(0, 0)]
    rec = cls.records[(0, 0)]
    assert (rec.verdict, rec.failed_condition, rec.cluster_size) == ("bad", 2, 30)
    assert rec.cluster_flats is None


def _pair_distances(sample, mask, lo):
    """Mask vertex coordinates and their chemical distances in the whole box,
    from scipy's shortest paths on the open-edge graph (no percolab BFS)."""
    coords = np.argwhere(mask) + np.asarray(lo)
    flats = np.asarray([sample.box.flat_index(tuple(c)) for c in coords])
    dist = shortest_path(
        open_graph(sample), directed=False, unweighted=True, indices=flats
    )
    return coords, dist[:, flats]


def _condition3_oracle(coords, dist, mu1, slack, cutoff, n_sources):
    m = len(coords)
    if m > cutoff:
        picks = np.unique(np.linspace(0, m - 1, n_sources).astype(np.int64))
    else:
        picks = np.arange(m)
    l1 = np.abs(coords[None, :, :] - coords[picks, None, :]).sum(-1)
    return bool((dist[picks] <= mu1 * l1 + slack + 1e-9).all())


def _critical_mu(coords, dist, slack):
    """Least mu1 at which every pair of mask vertices passes condition 3."""
    l1 = np.abs(coords[None, :, :] - coords[:, None, :]).sum(-1)
    far = l1 > 0
    return max(0.0, float(((dist[far] - slack) / l1[far]).max()))


@pytest.mark.parametrize(
    "d, L, p, seed, window, cutoff, n_sources",
    [
        (2, 10, 0.65, 1, 8, 10**6, 64),  # exact path, 4 words of sources
        (2, 10, 0.65, 2, 8, 50, 64),  # sampled path, one word
        (2, 10, 0.7, 3, 8, 50, 70),  # sampled path across a word boundary
        (3, 4, 0.5, 4, 3, 10**6, 64),  # exact path in d = 3
        (3, 4, 0.5, 5, 3, 40, 64),  # sampled path in d = 3
    ],
)
def test_condition3_matches_all_pairs_oracle(
    monkeypatch, d, L, p, seed, window, cutoff, n_sources
):
    # the pair set is the largest box cluster inside a centred window, so
    # some geodesics leave the window
    monkeypatch.setattr(renorm, "CONDITION3_EXACT_CUTOFF", cutoff)
    monkeypatch.setattr(renorm, "CONDITION3_SAMPLED_SOURCES", n_sources)
    s = sample_configuration(BoxSpec(d, L), p, seed)
    labels = flood_fill_labels(s).reshape(s.box.shape)
    biggest = np.bincount(labels.reshape(-1)).argmax()
    inner = (slice(L - window, L + window),) * d
    mask = labels[inner] == biggest
    lo = (-window,) * d
    coords, dist = _pair_distances(s, mask, lo)
    m = len(coords)
    assert m > cutoff or m > 64  # sampled, or exact across a word boundary
    slack = 2.0
    mu_star = _critical_mu(coords, dist, slack)
    verdicts = []
    for mu1 in (0.5 * mu_star, mu_star - 0.05, mu_star, mu_star + 0.05, 100.0):
        if mu1 <= 0:
            continue
        got, sampled = _condition3(s, mask, lo, mu1, slack)
        assert sampled == (m > cutoff)
        assert got == _condition3_oracle(coords, dist, mu1, slack, cutoff, n_sources)
        verdicts.append(got)
    assert True in verdicts and False in verdicts


@st.composite
def condition3_cases(draw):
    """A sample, a window of it, a fractional slack, and an exact source
    set or a sampled one (the cutoff as a share of the pair set's size)."""
    d = draw(st.sampled_from([2, 3]))
    L = draw(st.integers(3, 7 if d == 2 else 4))
    p = draw(st.floats(0.4, 0.9))
    seed = draw(st.integers(0, 2**32 - 1))
    side = draw(st.integers(2, 2 * L + 1))
    lo = tuple(draw(st.integers(-L, L + 1 - side)) for _ in range(d))
    slack = draw(st.floats(0.0, 2.0).filter(lambda x: x != int(x)))
    cutoff_share = draw(st.one_of(st.none(), st.floats(0.0, 1.0)))
    n_sources = draw(st.integers(2, 70))
    return d, L, p, seed, side, lo, slack, cutoff_share, n_sources


@given(condition3_cases(), st.floats(0.01, 0.5), st.floats(0.0, 1.0))
def test_condition3_matches_the_oracle_at_drawn_norms(case, delta, high):
    # the pair set is the largest box cluster inside the window, tried at
    # norms at half the critical mu*, just below, at and just above it,
    # between mu* and 100, and at 100
    d, L, p, seed, side, lo, slack, cutoff_share, n_sources = case
    s = sample_configuration(BoxSpec(d, L), p, seed)
    labels = flood_fill_labels(s).reshape(s.box.shape)
    inner = tuple(slice(c + L, c + L + side) for c in lo)
    window = labels[inner]
    mask = window == np.bincount(window.reshape(-1)).argmax()
    coords, dist = _pair_distances(s, mask, lo)
    m = len(coords)
    cutoff = 10**6 if cutoff_share is None else int(cutoff_share * (m - 1))
    # the mask lies in one box cluster, so mu* is finite
    mu_star = _critical_mu(coords, dist, slack) if m > 1 else 1.0
    norms = [
        mu_star / 2, mu_star - delta, mu_star, mu_star + delta,
        mu_star + high * (100 - mu_star), 100.0,
    ]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(renorm, "CONDITION3_EXACT_CUTOFF", cutoff)
        mp.setattr(renorm, "CONDITION3_SAMPLED_SOURCES", n_sources)
        for mu1 in norms:
            if mu1 <= 0:
                continue
            got, sampled = _condition3(s, mask, lo, mu1, slack)
            assert sampled == (m > cutoff)
            assert got == _condition3_oracle(coords, dist, mu1, slack, cutoff, n_sources)


def test_condition3_disconnected_pair_fails():
    # two open clusters in the pair set: no norm is generous enough, while
    # the half left of the cut passes with the exact l1 distances
    s = all_open(BoxSpec(2, 6))
    s = s.with_edges(close_idx=[s.box.edge_index((-1, y), 0) for y in range(-6, 7)])
    lo = (-4, -4)
    for mask, mu1, expected in (
        (np.ones((8, 8), dtype=bool), 100.0, False),
        (np.ones((4, 8), dtype=bool), 1.0, True),
    ):
        coords, dist = _pair_distances(s, mask, lo)
        assert _condition3_oracle(coords, dist, mu1, 2.0, 256, 64) == expected
        ok, _ = _condition3(s, mask, lo, mu1, 2.0)
        assert ok == expected


def test_condition3_tolerance_at_float_ties():
    # an open segment of 7 vertices: the end pair has distance 6, and
    # 0.7 * 6 + 1.8 rounds to 5.999999999999999, which the 1e-9 tolerance
    # must still accept; a slightly smaller slack must fail
    s = open_path_sample(BoxSpec(2, 5), [(x, 0) for x in range(-3, 4)])
    mask = np.ones((7, 1), dtype=bool)
    lo = (-3, 0)
    coords, dist = _pair_distances(s, mask, lo)
    assert 0.7 * 6 + 1.8 < 6
    for slack, expected in ((1.8, True), (1.79, False)):
        assert _condition3_oracle(coords, dist, 0.7, slack, 256, 64) == expected
        ok, _ = _condition3(s, mask, lo, 0.7, slack)
        assert ok == expected


def test_condition3_passes_when_the_frontier_dies_at_the_farthest_pair():
    # the only open cluster is a 7-vertex segment: every pair is reached at
    # t = 6, the largest l1 distance, and the next layer is empty, so the
    # pass test must run at t = 6 and not one layer later
    s = open_path_sample(BoxSpec(2, 5), [(x, 0) for x in range(-3, 4)])
    mask = np.ones((7, 1), dtype=bool)
    lo = (-3, 0)
    coords, dist = _pair_distances(s, mask, lo)
    assert _condition3_oracle(coords, dist, 100.0, 1.0, 256, 64)
    assert _condition3(s, mask, lo, 100.0, 1.0) == (True, False)


def test_l1_table_fits_int16_on_every_admitted_box():
    # condition 3's l1 entries are at most d (side - 1) on any box BoxSpec
    # admits, with side^d <= MAX_VERTICES
    for d in SUPPORTED_DIMENSIONS:
        side = round(MAX_VERTICES ** (1 / d))
        side -= side**d > MAX_VERTICES
        assert side**d <= MAX_VERTICES < (side + 1) ** d
        assert d * (side - 1) < 2**15


def test_component_diameters_oracle(rng):
    labels = rng.integers(0, 7, size=(9, 11))
    diam = _component_diameters(labels, 7)
    for comp in range(7):
        pts = np.argwhere(labels == comp)
        assert diam[comp] == (pts.max(axis=0) - pts.min(axis=0)).max()


def test_route_single_box_trivial():
    s = all_open(BoxSpec(2, 30))
    cls = classify_boxes(s, N=5, epsilon=0.5, mu_hat=1.0)
    x = s.box.vertex_coord(int(cls.cluster((0, 0))[0]))
    assert route_through_good(s, cls, [(0, 0)], x, x) == [x]


def test_route_two_adjacent_open_boxes():
    s = all_open(BoxSpec(2, 30))
    cls = classify_boxes(s, N=5, epsilon=0.5, mu_hat=1.0)
    box = s.box
    x, y = (-5, 0), (6, 3)
    route = route_through_good(s, cls, [(0, 0), (1, 0)], x, y)
    assert route[0] == x and route[-1] == y
    assert len(route) - 1 <= 2 * 2 * 1.0 * 5 * 2  # 2 d mu N |path| with mu = 1


def test_route_error_cases():
    s = all_open(BoxSpec(2, 30))
    cls = classify_boxes(s, N=5, epsilon=0.5, mu_hat=1.0)
    with pytest.raises(RoutingError):
        route_through_good(s, cls, [(0, 0), (2, 0)], (0, 0), (0, 0))  # not adjacent
    with pytest.raises(RoutingError):
        route_through_good(s, cls, [], (0, 0), (0, 0))
    bad = all_closed(BoxSpec(2, 30))
    cls_bad = classify_boxes(bad, N=5, epsilon=0.5, mu_hat=1.0)
    with pytest.raises(RoutingError):
        route_through_good(bad, cls_bad, [(0, 0)], (0, 0), (0, 0))


def test_route_monte_carlo_good_paths(monkeypatch):
    # random star-paths of good sites are routable within the bound; the
    # norm estimate is deliberately generous so good blocks are plentiful
    # at this scale (strict all-pairs goodness is rare at p = 0.7, N = 20)
    mu1 = 10.0
    s = sample_configuration(BoxSpec(2, 140), 0.7, 42)
    monkeypatch.setattr(renorm, "CONDITION3_SAMPLED_SOURCES", 48)
    cls = classify_boxes(s, N=20, epsilon=0.5, mu_hat=mu1)
    good = {site for site, r in cls.records.items() if r.verdict == "good"}
    assert len(good) >= 10
    rng = np.random.default_rng(0)
    routed_count = 0
    attempts = 0
    while routed_count < 100 and attempts < 400:
        attempts += 1
        # random star-walk over good sites
        path = [list(sorted(good))[int(rng.integers(0, len(good)))]]
        for _ in range(int(rng.integers(0, 9))):
            nbrs = [
                (path[-1][0] + dx, path[-1][1] + dy)
                for dx in (-1, 0, 1)
                for dy in (-1, 0, 1)
                if (dx, dy) != (0, 0)
                and (path[-1][0] + dx, path[-1][1] + dy) in good
            ]
            if not nbrs:
                break
            path.append(nbrs[int(rng.integers(0, len(nbrs)))])
        cl_first = cls.cluster(path[0])
        cl_last = cls.cluster(path[-1])
        x = s.box.vertex_coord(int(cl_first[int(rng.integers(0, len(cl_first)))]))
        y = s.box.vertex_coord(int(cl_last[int(rng.integers(0, len(cl_last)))]))
        route = route_through_good(s, cls, path, x, y)
        assert len(route) - 1 <= 2 * 2 * mu1 * 20 * len(path)  # 2 d mu N |path|
        assert route[0] == x and route[-1] == y
        routed_count += 1
    assert routed_count == 100


def test_good_verdict_monotone_in_p_with_uniqueness_exception(monkeypatch):
    # coupled samples: opening edges can only help conditions 2 and 3; a
    # good -> bad flip at higher p must come from a uniqueness failure
    monkeypatch.setattr(renorm, "CONDITION3_SAMPLED_SOURCES", 48)
    violations = []
    for seed in range(6):
        lo = sample_configuration(BoxSpec(2, 65), 0.62, 500 + seed)
        hi = sample_configuration(BoxSpec(2, 65), 0.72, 500 + seed)
        cls_lo = classify_boxes(lo, N=20, epsilon=0.5, mu_hat=8.0)
        cls_hi = classify_boxes(hi, N=20, epsilon=0.5, mu_hat=8.0)
        for site, rec in cls_lo.records.items():
            if rec.verdict == "good" and cls_hi.verdict(site) == "bad":
                violations.append(cls_hi.records[site].failed_condition)
    assert all(c == 1 for c in violations)


def test_slab_experiment_extremes():
    mu1 = 1.0
    rho = 2
    N = 1
    n = 10
    box = BoxSpec(3, 12, (5, 0, 0))
    s_open = all_open(box)
    outcomes = slab_experiment(s_open, 0.1, 0.3, N, n, mu1, rho=rho)
    eps_n = int(0.1 * n)
    assert outcomes[0].distance == n - 2 * eps_n
    assert outcomes[0].event is False

    s_closed = all_closed(box)
    outcomes = slab_experiment(s_closed, 0.1, 0.3, N, n, mu1, rho=rho)
    assert outcomes[0].distance == math.inf
    assert outcomes[0].event is True


def test_slab_requires_geometry():
    with pytest.raises(PreconditionError):
        slab_experiment(all_open(BoxSpec(2, 10)), 0.1, 0.3, 1, 5, 1.0, rho=1)
    with pytest.raises(GeometryError):
        # thickness (2*5+1)*2 = 22 exceeds the box radius 12
        slab_experiment(all_open(BoxSpec(3, 12)), 0.1, 0.3, 2, 5, 1.0, rho=5)


def test_slab_disjoint_offsets():
    # box wide enough in the thickness axis for three disjoint slabs
    rho, N = 1, 1
    box = BoxSpec(3, 20, (2, 0, 0))
    outcomes = slab_experiment(all_open(box), 0.2, 0.1, N, 4, 1.0, rho=rho)
    offsets = [o.offset for o in outcomes]
    assert (0,) in offsets
    spacing = (2 * rho + 1) * 2 * N
    assert all(off[0] % spacing == 0 for off in offsets)
    assert len(offsets) == len(set(offsets))
    assert len(offsets) >= 3


def test_slab_offsets_of_an_off_centre_box_include_every_fitting_slab():
    # the thickness axis spans [-22, 2]: the slabs centred at 0, -6, -12 and
    # -18 fit, the one at +6 does not, and the first misfit stops no search
    box = BoxSpec(3, 12, (0, 0, -10))
    outcomes = slab_experiment(all_open(box), 0.2, 0.1, 1, 6, 1.2, rho=1)
    assert [o.offset for o in outcomes] == [(0,), (-6,), (-12,), (-18,)]


def test_slab_csv(tmp_path):
    # the slab command's CSV has one row per slab outcome
    argv = ["slab", "--set=d=3", "--set=L=9", "--set=p=0.5", "--set=seed=5",
            "--set=N=1", "--set=n=6", "--set=rho=1", "--set=xi=0.4"]
    assert cli_dispatch(argv + ["--out-dir", str(tmp_path)]) == 0
    lines = (tmp_path / "slab.csv").read_text().splitlines()
    assert lines[0] == "# percolab-csv slab v1"
    assert lines[1] == "n,slab_index,offset,distance,event"
    s = sample_configuration(BoxSpec(3, 9), 0.5, 5)
    outcomes = slab_experiment(s, 0.1, 0.4, 1, 6, 1.0, rho=1)
    assert lines[2:] == [
        f"6,{i},{';'.join(map(str, o.offset))},"
        f"{'inf' if math.isinf(o.distance) else int(o.distance)},{int(o.event)}"
        for i, o in enumerate(outcomes)
    ]


@pytest.mark.parametrize("mu_hat", [0.0, -1.5])
def test_nonpositive_mu_hat_is_refused(mu_hat):
    with pytest.raises(PreconditionError):
        classify_boxes(all_open(BoxSpec(2, 20)), N=3, epsilon=0.5, mu_hat=mu_hat)
    with pytest.raises(PreconditionError):
        slab_experiment(
            all_open(BoxSpec(3, 12, (5, 0, 0))), 0.1, 0.3, 1, 10, mu_hat, rho=2
        )
