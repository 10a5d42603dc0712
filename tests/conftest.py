"""Shared fixtures and independent oracles for the test suite."""

import math

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from percolab import BoxSpec, PercolationSample

INF32 = np.uint32(0xFFFFFFFF)


def all_open(box: BoxSpec, p=0.5, seed=0) -> PercolationSample:
    return PercolationSample(box, p, seed, np.ones(box.n_edges, dtype=bool))


def all_closed(box: BoxSpec, p=0.5, seed=0) -> PercolationSample:
    return PercolationSample(box, p, seed, np.zeros(box.n_edges, dtype=bool))


def edge_base_flats(box: BoxSpec, axis: int) -> np.ndarray:
    """Flat indices of the lower endpoints of the axis edges, in canonical
    edge order (axis-major, then C order of the lower endpoint)."""
    grid = np.arange(box.n_vertices, dtype=np.int64).reshape(box.shape)
    return grid.take(np.arange(box.side - 1), axis=axis).reshape(-1)


def open_graph(sample: PercolationSample) -> csr_matrix:
    """Sparse open-edge graph, built independently of the BFS code."""
    box = sample.box
    rows, cols = [], []
    for axis in range(box.dimension):
        base = edge_base_flats(box, axis)
        epa = box.edges_per_axis
        mask = sample.open_edges[axis * epa : (axis + 1) * epa]
        rows.append(base[mask])
        cols.append(base[mask] + box.strides[axis])
    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    return csr_matrix(
        (np.ones(len(rows)), (rows, cols)),
        shape=(box.n_vertices, box.n_vertices),
    )


def dijkstra_distances(sample: PercolationSample, source) -> np.ndarray:
    """Unit-weight Dijkstra distances from one vertex (oracle)."""
    g = open_graph(sample)
    src = sample.box.flat_index(source)
    return dijkstra(g, directed=False, unweighted=True, indices=[src])[0]


def face_mask(box: BoxSpec) -> np.ndarray:
    """Vertices with a grid index 0 or side - 1 along some axis (oracle)."""
    grid = np.indices(box.shape).reshape(box.dimension, -1)
    return ((grid == 0) | (grid == box.side - 1)).any(axis=0)


def certified_distance_oracle(sample: PercolationSample, source, target):
    """What the box proves about D(source, target) in Z^d (oracle).

    ('exact', D) when D is at most the distance from the source to the
    nearest face vertex, ('disconnected', inf) when the source cluster avoids
    every face, ('unknowable', None) otherwise. Built from Dijkstra distances
    and :func:`face_mask`, not from the package's ball growth.
    """
    dist = dijkstra_distances(sample, source)
    first_face = dist[face_mask(sample.box)].min()
    value = dist[sample.box.flat_index(target)]
    if math.isfinite(value) and value <= first_face:
        return "exact", int(value)
    if math.isinf(first_face):
        return "disconnected", math.inf
    return "unknowable", None


def flood_fill_labels(sample: PercolationSample) -> np.ndarray:
    """DFS flood-fill cluster labels (oracle; no scipy, no union-find)."""
    box = sample.box
    labels = np.full(box.n_vertices, -1, dtype=np.int64)
    adj = [[] for _ in range(box.n_vertices)]
    for axis in range(box.dimension):
        base = edge_base_flats(box, axis)
        epa = box.edges_per_axis
        mask = sample.open_edges[axis * epa : (axis + 1) * epa]
        for lo in base[mask]:
            hi = lo + box.strides[axis]
            adj[lo].append(hi)
            adj[hi].append(lo)
    nxt = 0
    for start in range(box.n_vertices):
        if labels[start] != -1:
            continue
        stack = [start]
        labels[start] = nxt
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if labels[w] == -1:
                    labels[w] = nxt
                    stack.append(w)
        nxt += 1
    return labels


def same_partition(a: np.ndarray, b: np.ndarray) -> bool:
    """Two labelings induce the same partition."""
    seen = {}
    for x, y in zip(a.tolist(), b.tolist()):
        if x in seen:
            if seen[x] != y:
                return False
        else:
            seen[x] = y
    return len(set(seen.values())) == len(seen)


def ball_dist_array(ball) -> np.ndarray:
    out = ball.dist.astype(np.float64)
    out[ball.dist == INF32] = np.inf
    return out


@pytest.fixture
def rng():
    return np.random.default_rng(20260809)
