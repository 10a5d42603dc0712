"""Exact enumeration: every configuration of a small region against a
plain breadth-first search.

The block is the 3 x 3 block {-1, 0, 1}^2 of BoxSpec(2, 2), strictly
inside the box, with its 12 edges free and every other edge closed. So the
origin's cluster never touches a face, each of the 2^12 configurations is a
finite graph, and the Z^d answer is known exactly. Weighting configuration
k by p^|k| (1 - p)^(12 - |k|), with |k| its open edges, gives the exact law
of every event and distance, against which the pooled Monte Carlo of the
estimators is checked.

The faced region reaches the faces of BoxSpec(2, 2), so balls touch a face
and the box certifies less: a hit needs a singleton layer no later than the
first layer that touches a face, and a miss needs every window vertex
within that layer or in an open cluster that avoids every face and the
ball. A target distance is certified when the target is reached no later
than that layer, and a finite cluster only when it holds no face vertex.

The oracle is a deque BFS over coordinate pairs, written from the
docstrings of ``metric.grow_targets`` and ``cutpoints.event_A``; it shares
no code with the package's growth or event scoring.
"""

import itertools
import math
from collections import deque
from functools import cache

import numpy as np
import pytest

from percolab import BoxSpec, PercolationSample, cutpoints, estimators, lattice
from percolab.cutpoints import EventGrid
from percolab.estimators import (
    CODE_OUTCOMES,
    _paired_replicate,
    _surface_replicate,
    target_distances,
    wilson_interval,
)

BOX = BoxSpec(2, 2)
REGION = list(itertools.product((-1, 0, 1), repeat=2))
EDGES = [
    (v, tuple(c + (k == axis) for k, c in enumerate(v)))
    for v in REGION for axis in range(2)
    if v[axis] < 1
]
# an arm from the origin to the face (2, 0), a loop through (0, 1) and
# (1, 1) with spurs to the faces (0, 2) and (2, 1), a spur to (-1, 2), and
# (0, -1) with a dead end (1, -1)
FACED_EDGES = [
    ((0, 0), (1, 0)), ((1, 0), (2, 0)), ((0, 0), (0, 1)), ((0, 1), (1, 1)),
    ((1, 1), (2, 1)), ((1, 0), (1, 1)), ((-1, 0), (0, 0)), ((-1, 0), (-1, 1)),
    ((-1, 1), (-1, 2)), ((0, 1), (0, 2)), ((0, -1), (0, 0)), ((0, -1), (1, -1)),
]
ORIGIN = (0, 0)
# the plain events at n = 2: w = floor(2^(11/12)) = 1 and thresholds s n = 1, 2, 3
N, W = 2, 1
S_GRID = (0.5, 1.0, 1.5)
X_GRID = [(0.0, 0.0), (0.5, 0.0), (0.0, -0.5), (0.5, 0.5)]


def configurations(edges):
    """(open edges as coordinate pairs, sample) of every configuration of
    ``edges``, configuration k opening edge j when bit j of k is set."""
    index = [BOX.edge_index(a, next(k for k in range(2) if a[k] != b[k])) for a, b in edges]
    out = []
    for bits in range(1 << len(edges)):
        chosen = [e for k, e in enumerate(edges) if bits >> k & 1]
        open_edges = np.zeros(BOX.n_edges, dtype=bool)
        open_edges[[i for k, i in enumerate(index) if bits >> k & 1]] = True
        out.append((chosen, PercolationSample(BOX, 0.5, bits, open_edges)))
    return out


CONFIGURATIONS = configurations(EDGES)


def bfs_distances(open_edges, source):
    """Graph distance from ``source`` to every vertex of its open cluster."""
    neighbours = {}
    for a, b in open_edges:
        neighbours.setdefault(a, []).append(b)
        neighbours.setdefault(b, []).append(a)
    dist = {source: 0}
    queue = deque([source])
    while queue:
        v = queue.popleft()
        for w in neighbours.get(v, ()):
            if w not in dist:
                dist[w] = dist[v] + 1
                queue.append(w)
    return dist


def singleton_layers(dist, horizon):
    """(t, vertex) of every layer 1 <= t <= horizon with one vertex."""
    layers = {}
    for v, t in dist.items():
        layers.setdefault(t, []).append(v)
    return [(t, layers[t][0]) for t in range(1, horizon + 1) if len(layers.get(t, ())) == 1]


def window(x):
    """The vertices within sup distance W of n x."""
    return [
        v for v in itertools.product(range(-2, 3), repeat=2)
        if max(abs(c - N * y) for c, y in zip(v, x)) <= W
    ]


def on_face(v) -> bool:
    return max(map(abs, v)) == 2


def oracle_outcomes(open_edges):
    """The outcome of every event of S_GRID x X_GRID (s-major) on the
    origin ball grown until the first layer that touches a face.

    Without a face in the origin's cluster the ball is the whole finite
    cluster and every window is certified. Otherwise the horizon is that
    first face layer, and a window is certified when each of its vertices
    is within the horizon, or beyond it with an open cluster that holds no
    face vertex and no vertex within the horizon.
    """
    exact = bfs_distances(open_edges, ORIGIN)
    faced = [t for v, t in exact.items() if on_face(v)]
    horizon = min(faced) if faced else max(exact.values())
    singles = singleton_layers(exact, horizon)

    def settled(v):
        if exact.get(v, math.inf) <= horizon:
            return True
        cluster = bfs_distances(open_edges, v)
        return not any(on_face(u) or exact.get(u, math.inf) <= horizon for u in cluster)

    out = []
    for s in S_GRID:
        for x in X_GRID:
            if any(
                t >= s * N and max(abs(c - N * y) for c, y in zip(v, x)) <= W
                for t, v in singles
            ):
                out.append("hit")
            elif not faced or all(map(settled, window(x))):
                out.append("miss")
            else:
                out.append("unknowable")
    return out


@cache
def block_law():
    """Per configuration of the block: its count of open edges, the oracle
    outcome of every plain event, and D(0, (1, 0))."""
    opened, hits, dists = [], [], []
    for open_edges, _ in CONFIGURATIONS:
        opened.append(len(open_edges))
        hits.append([o == "hit" for o in oracle_outcomes(open_edges)])
        dists.append(bfs_distances(open_edges, ORIGIN).get((1, 0), math.inf))
    return np.array(opened), np.array(hits), np.array(dists, dtype=float)


def surface_codes(monkeypatch, configurations):
    """A function of a configuration's index: the outcome names of the
    grid's events on the ball ``_surface_replicate`` grows on it."""
    grid = EventGrid(BOX, S_GRID, X_GRID, N, alpha=None, free=False)
    assert grid.window == W
    monkeypatch.setattr(estimators, "replicate_seed", lambda seed, index: index)
    monkeypatch.setattr(
        estimators, "sample_configuration", lambda box, p, index: configurations[index][1]
    )
    return lambda index: [
        CODE_OUTCOMES[c].value for c in _surface_replicate(index, p=0.5, grid=grid, seed=0)
    ]


@pytest.mark.parametrize("target", [(1, 1), (-1, 0), (1, -1)])
def test_target_distances_are_exact_on_every_configuration(target):
    # n = 1, so the target floor(n x) is x itself; the ball stops at the
    # target, or exhausts the finite cluster: the times run to the distance
    # or to the cluster's last layer
    got = target_distances(BOX, [sample for _, sample in CONFIGURATIONS], 1, target)
    seen = set()
    for (open_edges, _), (dist, singles) in zip(CONFIGURATIONS, got):
        exact = bfs_distances(open_edges, ORIGIN)
        value = exact.get(target, float("inf"))
        horizon = exact[target] if target in exact else max(exact.values())
        assert (dist, singles) == (value, [t for t, _ in singleton_layers(exact, horizon)])
        seen.add(dist == float("inf"))
    assert seen == {True, False}


def oracle_target(open_edges, target):
    """(certified distance, singleton times) of the origin ball grown toward
    ``target`` and stopped after its first face layer: the distance when the
    target is reached no later than that layer, inf when the cluster holds
    no face vertex and misses the target, else None; the times run to the
    layer where the ball stops."""
    exact = bfs_distances(open_edges, ORIGIN)
    faced = min((t for v, t in exact.items() if on_face(v)), default=math.inf)
    stop = min(exact.get(target, math.inf), faced, max(exact.values()))
    if target in exact and exact[target] <= faced:
        value = exact[target]
    else:
        value = math.inf if faced == math.inf else None
    return value, [t for t, _ in singleton_layers(exact, stop)]


FACED = configurations(FACED_EDGES)


@pytest.mark.parametrize("target", [(1, 1), (1, 0), (1, -1)])
def test_target_distances_on_balls_that_touch_a_face_are_exact(target):
    # the target at the face layer or before it, past it (None) or never
    # with no face in the cluster (inf)
    got = target_distances(BOX, [sample for _, sample in FACED], 1, target)
    seen = set()
    for (open_edges, _), pair in zip(FACED, got):
        assert pair == oracle_target(open_edges, target), open_edges
        seen.add(type(pair[0]).__name__ if pair[0] is not None else "None")
    assert seen == {"int", "float", "None"}


def test_upper_tail_cells_on_balls_that_touch_a_face_are_exact(monkeypatch):
    # the upper tail 2 < D(0, e1) < inf at n = 1, mu1 = 1 and xi = 1, paired
    # with a singleton layer at t >= 2: per configuration, and as the
    # experiment's tally with every configuration one replicate
    cells = {}
    for (open_edges, _), (dist, singles) in zip(
        FACED, target_distances(BOX, [sample for _, sample in FACED], 1, (1, 0))
    ):
        value, times = oracle_target(open_edges, (1, 0))
        if value is None:
            upper = "unknowable"
        elif value == math.inf:
            upper = "disconnected"
        else:
            upper = "hit" if value > 2 else "miss"
        late = "hit" if any(t >= 2 for t in times) else "censored" if value is None else "miss"
        assert _paired_replicate(0, dist=dist, singles=singles, threshold=2.0, t_min=2) == (
            upper, late
        ), open_edges
        cells[upper, late] = cells.get((upper, late), 0) + 1
    assert {upper for upper, _ in cells} == {"hit", "miss", "disconnected", "unknowable"}
    assert {late for _, late in cells} == {"hit", "miss", "censored"}
    monkeypatch.setattr(estimators, "replicate_seed", lambda seed, index: index)
    monkeypatch.setattr(estimators, "sample_configuration", lambda box, p, index: FACED[index][1])
    # the experiment's threshold on the configurations' box
    box_of = estimators._upper_tail_box
    monkeypatch.setattr(estimators, "_upper_tail_box", lambda *args: (BOX, box_of(*args)[1]))
    (paired,) = estimators.upper_tail_vs_cutpoint_experiment(
        0.5, 2, 1.0, [1], len(FACED), 0, s=2.0, mu1=1.0, box_factor=1.0, workers=1
    )
    assert paired.counts == cells


def test_plain_events_are_exact_on_every_configuration(monkeypatch):
    # a hit is a singleton layer (t, v) of the whole finite cluster with
    # t >= s n and v within sup distance w of n x; every other event is a
    # miss, since every window lies in the box
    codes = surface_codes(monkeypatch, CONFIGURATIONS)
    seen = set()
    for index, (open_edges, _) in enumerate(CONFIGURATIONS):
        expected = oracle_outcomes(open_edges)
        assert codes(index) == expected, open_edges
        seen.update(enumerate(expected))
    # every event both holds and fails somewhere
    assert len(seen) == 2 * len(S_GRID) * len(X_GRID)


def test_events_on_balls_that_touch_a_face_are_exact_on_every_configuration(monkeypatch):
    # the faced region's balls stop at their first face contact or once
    # their window vertices are settled; the windows that are not settled
    # by the ball's distances go to lane growths, whose verdicts are
    # recorded
    verdicts = []
    lane_probe = cutpoints._lane_probe

    def recording(ball, sources):
        out = lane_probe(ball, sources)
        if len(sources) > 1:
            verdicts.extend(out.tolist())
        return out

    monkeypatch.setattr(cutpoints, "_lane_probe", recording)
    codes = surface_codes(monkeypatch, FACED)
    seen = set()
    for index, (open_edges, _) in enumerate(FACED):
        expected = oracle_outcomes(open_edges)
        assert codes(index) == expected, open_edges
        seen.update(expected)
    assert seen == {"hit", "miss", "unknowable"}
    assert set(verdicts) == {True, False}


def restricted_sampler(box, p, seed):
    """The package's sample on ``box`` with every edge closed but the
    block's: the law that the enumeration weights exactly."""
    block = np.zeros(box.n_vertices, dtype=bool)
    block[box.flats_of_coords(np.array(REGION))] = True
    return lattice.sample_configuration(box, p, seed).restricted_to(block)


def covered(hits, trials, p) -> bool:
    lo, hi = wilson_interval(hits, trials)
    return lo <= p <= hi


def test_pooled_estimates_match_the_exact_law_of_the_block(monkeypatch):
    # the estimators run serially on samples confined to the block, at
    # SEEDS seeds of REPLICATES replicates: each pooled p-hat lies within 4
    # standard errors of its exact probability, the pooled mean distance
    # within 4 sigma, and the per-seed Wilson intervals cover the exact
    # values at least as often as 95% less a binomial allowance
    p, seeds, replicates = 0.6, range(6), 150
    monkeypatch.setattr(estimators, "sample_configuration", restricted_sampler)
    opened, hits, dists = block_law()
    weight = p ** opened * (1 - p) ** (len(EDGES) - opened)
    assert math.isclose(weight.sum(), 1.0)
    event_p = weight @ hits
    connected = np.isfinite(dists)
    p_connected = weight[connected].sum()
    mean_d = weight[connected] @ dists[connected] / p_connected
    var_d = weight[connected] @ (dists[connected] - mean_d) ** 2 / p_connected
    # the upper tail at n = 1, x = e1, mu1 = 1 and xi = 1: 2 < D < inf
    p_tail = weight[connected & (dists > 2)].sum()

    intervals = cover = 0
    pooled = np.zeros(len(event_p))
    tail = mu_sum = mu_count = 0
    for seed in seeds:
        estimates, _ = estimators.scan_rates(
            2, p, S_GRID, X_GRID, N, replicates, seed,
            kind="cutpoint", box_factor=1.0, alpha=None, workers=1,
        )
        for k, (est, exact) in enumerate(zip(estimates, event_p)):
            assert est.resolved == replicates
            pooled[k] += est.tally.hits
            cover += covered(est.tally.hits, replicates, exact)
        (point,) = estimators.estimate_mu(
            p, 2, (1.0, 0.0), [1], replicates, seed, box_factor=1.0, workers=1
        )
        assert point.contaminated == 0
        mu_sum += point.mean * point.connected
        mu_count += point.connected
        (paired,) = estimators.upper_tail_vs_cutpoint_experiment(
            p, 2, 1.0, [1], replicates, seed, s=0.5, mu1=1.0, box_factor=1.0, workers=1
        )
        upper = {}
        for (outcome, _), count in paired.counts.items():
            upper[outcome] = upper.get(outcome, 0) + count
        assert sum(upper.values()) == replicates and "unknowable" not in upper
        tail += upper.get("hit", 0)
        cover += covered(upper.get("hit", 0), replicates, p_tail)
        intervals += len(estimates) + 1

    total = len(seeds) * replicates
    for count, exact in [*zip(pooled, event_p), (tail, p_tail), (mu_count, p_connected)]:
        assert abs(count / total - exact) <= 4 * math.sqrt(exact * (1 - exact) / total)
    assert abs(mu_sum / mu_count - mean_d) <= 4 * math.sqrt(var_d / mu_count)
    allowance = 3 * math.sqrt(intervals * 0.95 * 0.05)
    assert cover >= 0.95 * intervals - allowance
