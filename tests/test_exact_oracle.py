"""Exact enumeration: every configuration of a small region against a
plain breadth-first search.

The region is the 3 x 3 block {-1, 0, 1}^2 of BoxSpec(2, 2), strictly
inside the box, with its 12 edges free and every other edge closed. So the
origin's cluster never touches a face, each of the 2^12 configurations is a
finite graph, and the Z^d answer is known exactly. The oracle is a deque
BFS over coordinate pairs, written from the docstrings of
``metric.grow_targets`` and ``cutpoints.event_A``; it shares no code with
the package's growth or event scoring.
"""

import itertools
from collections import deque

import numpy as np
import pytest

from percolab import BoxSpec, PercolationSample, estimators
from percolab.cutpoints import EventGrid
from percolab.estimators import CODE_OUTCOMES, _surface_replicate, target_distances

BOX = BoxSpec(2, 2)
REGION = list(itertools.product((-1, 0, 1), repeat=2))
EDGES = [
    (v, tuple(c + (k == axis) for k, c in enumerate(v)))
    for v in REGION for axis in range(2)
    if v[axis] < 1
]
ORIGIN = (0, 0)


def configurations():
    """(open edges as coordinate pairs, sample) of every configuration."""
    index = [BOX.edge_index(a, next(k for k in range(2) if a[k] != b[k])) for a, b in EDGES]
    out = []
    for bits in range(1 << len(EDGES)):
        chosen = [e for k, e in enumerate(EDGES) if bits >> k & 1]
        edges = np.zeros(BOX.n_edges, dtype=bool)
        edges[[i for k, i in enumerate(index) if bits >> k & 1]] = True
        out.append((chosen, PercolationSample(BOX, 0.5, bits, edges)))
    return out


CONFIGURATIONS = configurations()


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


@pytest.mark.parametrize("target", [(1, 1), (-1, 0), (1, -1)])
def test_target_distances_are_exact_on_every_configuration(target):
    # n = 1, so the target floor(n x) is x itself; the ball stops at the
    # target, or exhausts the finite cluster: the times run to the distance
    # or to the cluster's last layer
    got = target_distances([sample for _, sample in CONFIGURATIONS], 1, target)
    seen = set()
    for (open_edges, _), (dist, singles) in zip(CONFIGURATIONS, got):
        exact = bfs_distances(open_edges, ORIGIN)
        value = exact.get(target, float("inf"))
        horizon = exact[target] if target in exact else max(exact.values())
        assert (dist, singles) == (value, [t for t, _ in singleton_layers(exact, horizon)])
        seen.add(dist == float("inf"))
    assert seen == {True, False}


def test_plain_events_are_exact_on_every_configuration(monkeypatch):
    # n = 2 gives the window w = floor(2^(11/12)) = 1 and the thresholds
    # s n = 1, 2, 3; every window lies in the box. A hit is a singleton
    # layer (t, v) of the whole finite cluster with t >= s n and v within
    # sup distance w of n x; every other event is a miss
    n, w = 2, 1
    s_grid = (0.5, 1.0, 1.5)
    x_grid = [(0.0, 0.0), (0.5, 0.0), (0.0, -0.5), (0.5, 0.5)]
    grid = EventGrid(BOX, s_grid, x_grid, n, alpha=None, free=False)
    assert grid.window == w
    # _surface_replicate grows and scores configuration ``index``
    monkeypatch.setattr(estimators, "replicate_seed", lambda seed, index: index)
    monkeypatch.setattr(
        estimators, "sample_configuration", lambda box, p, index: CONFIGURATIONS[index][1]
    )
    seen = set()
    for index, (open_edges, _) in enumerate(CONFIGURATIONS):
        exact = bfs_distances(open_edges, ORIGIN)
        singles = singleton_layers(exact, max(exact.values()))
        expected = [
            "hit" if any(
                t >= s * n and max(abs(c - n * y) for c, y in zip(v, x)) <= w
                for t, v in singles
            ) else "miss"
            for s in s_grid for x in x_grid
        ]
        codes = _surface_replicate(index, p=0.5, grid=grid, seed=0)
        assert [CODE_OUTCOMES[c].value for c in codes] == expected, open_edges
        seen.update(enumerate(expected))
    # every event both holds and fails somewhere
    assert len(seen) == 2 * len(s_grid) * len(x_grid)
