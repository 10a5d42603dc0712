"""Shared fixtures and independent oracles for the test suite."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import settings
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from percolab import BoxSpec, PercolationSample, cutpoints, grow_ball
from percolab.cutpoints import (
    CutPointRecord,
    EventGrid,
    EventOutcome,
    EventResult,
    event_A,
    event_A_free,
)
from percolab.errors import GeometryError

INF32 = np.uint32(0xFFFFFFFF)
MASK64 = (1 << 64) - 1

# property tests draw the same examples on every run, so that Tier-1 is
# reproducible, and an example is never failed for being slow
settings.register_profile(
    "percolab", derandomize=True, database=None, max_examples=60, deadline=None
)
settings.load_profile("percolab")


def all_open(box: BoxSpec, p=0.5, seed=0) -> PercolationSample:
    return PercolationSample(box, p, seed, np.ones(box.n_edges, dtype=bool))


def all_closed(box: BoxSpec, p=0.5, seed=0) -> PercolationSample:
    return PercolationSample(box, p, seed, np.zeros(box.n_edges, dtype=bool))


def open_path_sample(box: BoxSpec, vertices) -> PercolationSample:
    """All closed except the edges between consecutive path vertices."""
    edges = np.zeros(box.n_edges, dtype=bool)
    for a, b in zip(vertices, vertices[1:]):
        axis = next(k for k in range(box.dimension) if a[k] != b[k])
        base = a if b[axis] > a[axis] else b
        edges[box.edge_index(base, axis)] = True
    return PercolationSample(box, 0.5, 0, edges)


def origin_ball(sample: PercolationSample):
    """The ball grown from the origin until its first face contact, as the
    estimators grow it."""
    return grow_ball(sample, (0,) * sample.box.dimension, stop_at_boundary=True)


def score_one(sample: PercolationSample, s, x, n, free=False) -> EventResult:
    """The plain or free-line event (s, x) at n, with the default window
    exponent, on the origin ball of ``sample``."""
    grid = EventGrid(sample.box, [s], [x], n, alpha=None, free=free)
    return (event_A_free if free else event_A)(origin_ball(sample), grid)[0]


class ReferenceContext:
    """Per-event scan of one ball, the reference for the one-pass scoring:
    its certified singleton layers and each window's certificate cached by
    (centre, radius)."""

    def __init__(self, sample: PercolationSample, ball):
        self.sample = sample
        self.ball = ball
        self.singletons = [
            (t, ball.box.coords_of_flats([flat])[0]) for t, flat in ball.singletons()
        ]
        self.resolved = {}

    def window_resolved(self, center, radius) -> bool:
        key = (center.tobytes(), radius)
        if key not in self.resolved:
            self.resolved[key] = reference_window_resolved(self, center, radius)
        return self.resolved[key]


def reference_window_resolved(ctx: ReferenceContext, center, radius) -> bool:
    """Every vertex of one window is within the certified horizon, or
    unreached with an open cluster that avoids every box face and the ball;
    the window's unreached vertices are probed together, and apart from
    every other window, through ``cutpoints.grow_ball_flats``, stopped at a
    face or at the frontier."""
    ball = ctx.ball
    if ball.exhausted and not ball.contaminated:
        return True
    lo = np.ceil(center - radius).astype(np.int64)
    hi = np.floor(center + radius).astype(np.int64)
    try:
        flats = ball.box.window_flats(lo, hi + 1).reshape(-1)
    except GeometryError:
        return False
    dvals = ball.dist[flats]
    near = dvals <= np.uint32(ball.resolved_through)
    if near.all():
        return True
    unreached = dvals == INF32
    if not (near | unreached).all():
        return False
    probe = cutpoints.grow_ball_flats(
        ctx.sample, flats[unreached], targets=ball.layers[-1], stop_at_boundary=True
    )
    return probe.exhausted and not probe.contaminated


def reference_grow(
    sample: PercolationSample,
    source_flats,
    t_max=None,
    targets=None,
    region=None,
    stop_at_boundary=False,
):
    """(dist, pred, layers, first boundary time, exhausted) of a layered
    BFS that claims each vertex for the first of the 2 d moves, in the order
    +e_1 .. +e_d, -e_d .. -e_1, whose frontier vertex reaches it across an
    open edge, and stores that vertex as its predecessor at once (-1 for a
    source): the per-move kernel that ``metric._grow`` and
    ``BallGrowth.pred_of`` replace, kept as their reference."""
    box = sample.box
    dist = np.full(box.n_vertices, INF32, dtype=np.uint32)
    pred = np.full(box.n_vertices, -1, dtype=np.int64)
    face = box.face_flat
    open_flats = sample.axis_open_flats()
    d = box.dimension
    moves = [(axis, +1) for axis in range(d)] + [(axis, -1) for axis in reversed(range(d))]

    src = np.sort(np.asarray(source_flats, dtype=np.int64))
    if region is not None and not region[src].all():
        raise GeometryError("source vertices must lie inside the region")
    dist[src] = 0
    layers = [src]
    frontier = src
    first_boundary = 0 if face[src].any() else None
    target_set = None if targets is None else np.asarray(targets, dtype=np.int64)

    exhausted = False
    t = 0
    while not (
        (target_set is not None and (dist[target_set] != INF32).any())
        or (stop_at_boundary and first_boundary is not None)
        or (t_max is not None and t >= t_max)
    ):
        t += 1
        parts = []
        for axis, sign in moves:
            st = box.strides[axis]
            op = open_flats[axis]
            if sign > 0:
                ok = op[frontier]
                base = frontier[ok]
                nb = base + st
            else:
                ok = op.take(frontier - st, mode="wrap")
                base = frontier[ok]
                nb = base - st
            fresh = dist[nb] == INF32
            if region is not None:
                fresh &= region[nb]
            nb = nb[fresh]
            dist[nb] = t
            pred[nb] = base[fresh]
            parts.append(nb)
        newly = np.sort(np.concatenate(parts))
        if newly.size == 0:
            exhausted = True
            break
        layers.append(newly)
        frontier = newly
        if first_boundary is None and face[newly].any():
            first_boundary = t
    return dist, pred, layers, first_boundary, exhausted


def reference_event(ctx: ReferenceContext, s, x, n, alpha, free: bool) -> EventResult:
    """The least witness of the plain or free-line event (s, x) at n among
    the source (threshold <= 0) and the singleton layers, else MISS when its
    window is certified and UNKNOWABLE when it is not.

    The window w = floor(n^alpha) (alpha None: 1 - 1/(6d)), the radius (w,
    free: 4 w), the threshold (s n, free: s n - 3 w), the line cap w and
    the volume cap floor(n^(7/4)) are worked out here, from the paper's
    definitions, not by the package.
    """
    ball = ctx.ball
    d = ball.box.dimension
    if alpha is None:
        alpha = 1 - 1 / (6 * d)
    w = math.floor(n**alpha)
    radius, threshold = (4 * w, s * n - 3 * w) if free else (w, s * n)
    center = n * np.asarray(x, dtype=float)
    candidates = []
    if threshold <= 0:
        candidates.append((0, ball.box.coords_of_flats(ball.layers[0][:1])[0]))
    candidates.extend((t, c) for t, c in ctx.singletons if t >= threshold)
    for t, coord in candidates:
        if np.max(np.abs(np.asarray(coord, dtype=float) - center)) > radius:
            continue
        if free and not cutpoints._free_conditions(ball, t, coord, w, math.floor(n**1.75)):
            continue
        return EventResult(EventOutcome.HIT, CutPointRecord(t, tuple(int(c) for c in coord)))
    if ctx.window_resolved(center, radius):
        return EventResult(EventOutcome.MISS)
    return EventResult(EventOutcome.UNKNOWABLE)


def mix64_oracle(x):
    """SplitMix64 finalizer over a uint64 array, written out for the tests."""
    with np.errstate(over="ignore"):
        z = x + np.uint64(0x9E3779B97F4A7C15)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return z ^ (z >> np.uint64(31))


def replicate_seed_oracle(seed: int, indices) -> np.ndarray:
    """Outputs ``indices`` (a uint64 array) of the SplitMix64 stream keyed
    by mix64(seed), in uint64 arithmetic (oracle)."""
    key = mix64_oracle(np.uint64(int(seed) & MASK64))
    with np.errstate(over="ignore"):
        steps = np.asarray(indices, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
        return mix64_oracle(key + steps)


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


def flood_components(cells, star: bool) -> list:
    """Components of a finite vertex set by a set-based DFS flood, under
    nearest-neighbour or (``star``) sup-norm 1 adjacency (oracle)."""
    cells = {tuple(int(c) for c in v) for v in cells}
    d = len(next(iter(cells))) if cells else 0
    offsets = [
        off for off in itertools.product((-1, 0, 1), repeat=d)
        if any(off) and (star or sum(map(abs, off)) == 1)
    ]
    comps = []
    while cells:
        start = cells.pop()
        comp, stack = {start}, [start]
        while stack:
            v = stack.pop()
            for off in offsets:
                w = tuple(a + b for a, b in zip(v, off))
                if w in cells:
                    cells.discard(w)
                    comp.add(w)
                    stack.append(w)
        comps.append(frozenset(comp))
    return comps


def exterior_boundary_oracle(cells):
    """(boundary, interior, star-connected) of a finite vertex set (oracle).

    Floods the complement from a corner of the set's bounding box grown by
    one, through axis neighbours inside that box: the box's shell is off the
    set and connected, so the flood is the part connected to infinity.
    """
    cells = {tuple(int(c) for c in v) for v in cells}
    d = len(next(iter(cells)))
    lo = [min(v[k] for v in cells) - 1 for k in range(d)]
    hi = [max(v[k] for v in cells) + 1 for k in range(d)]
    arena = set(itertools.product(*(range(lo[k], hi[k] + 1) for k in range(d))))
    axis_steps = [
        tuple(sign if k == axis else 0 for k in range(d))
        for axis in range(d) for sign in (-1, 1)
    ]

    def axis_neighbours(v):
        return [tuple(a + b for a, b in zip(v, step)) for step in axis_steps]

    outside, stack = {tuple(lo)}, [tuple(lo)]
    while stack:
        for w in axis_neighbours(stack.pop()):
            if w in arena and w not in cells and w not in outside:
                outside.add(w)
                stack.append(w)
    boundary = {v for v in outside if any(w in cells for w in axis_neighbours(v))}
    interior = arena - cells - outside
    return boundary, interior, len(flood_components(boundary, star=True)) == 1


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
