"""Chemical distance: layered ball growth, geodesics, constrained distances.

The ball around a source is grown one graph-distance layer at a time over
open edges, and every reached vertex keeps only its distance. Its
deterministic predecessor, among all neighbours that could precede it on a
geodesic the one whose coordinate tuple is lexicographically least, follows
from the distances and the open edges, so it is derived on demand
(:meth:`BallGrowth.pred_of`). Growth also records the first time a layer
touched the box face ("boundary contamination"): layers up to and including
that time equal the infinite-lattice layers, later ones may not.

There are two BFS loops, one per job, and they share one layer step,
:func:`_next_layer`: the sweep of the 2 d neighbours of a frontier, the
unreached filter, the sort and the dedupe.

- :func:`_grow` grows one ball, for :func:`grow_ball_flats` and every
  caller of it. It has five stop rules: ``t_max``, a target reached, the
  first face contact (with ``stop_at_boundary``), exhaustion, and the
  caller's predicate ``settle(dist, frontier)``, asked after each layer at
  which the ball is not stopping at a face; a ball stopped by it records
  that it ``settled``. It has no rule that confines growth: a confined ball
  is grown in a sample whose edges out of the allowed vertices are closed
  (``PercolationSample.restricted_to``), as :func:`constrained_distance`
  grows it. What such a ball proves about Z^d is stated on
  :class:`BallGrowth` (``resolved_through``, ``singletons``), and the
  misses of the windowed cut-point events are certified in
  ``cutpoints._windows_resolved``.
- :func:`grow_targets` grows B balls at once, one in each of B samples of
  one box of n vertices, from one source toward one target, and is the one
  place where a target distance is certified. Ball b lives at flats
  b n .. b n + n - 1 of the samples' disjoint union, whose open masks are
  the samples' padded masks one after another
  (``lattice.stacked_open_flats``), so each layer is one step over the
  union's frontier. A ball stops at its target, at its first face contact
  or at exhaustion, and keeps only what it certifies: the distance and the
  times of its singleton layers. No edge joins two boxes, so every ball's
  result equals that of its sample grown alone, whatever B and its
  companions are. The estimators choose B (``estimators._BLOCK_VERTICES``).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import EmptyEndpointWarning, GeometryError, UnreachableVertexError
from .lattice import BoxSpec, PercolationSample, stacked_open_flats

_INF32 = np.uint32(0xFFFFFFFF)


def _move_priority(d: int):
    """Moves +e_1 .. +e_d then -e_d .. -e_1 into v, ordered by their
    predecessors v - e_1 < .. < v - e_d < v + e_d < .. < v + e_1, which
    is lexicographic order."""
    return [(axis, +1) for axis in range(d)] + [(axis, -1) for axis in reversed(range(d))]


@dataclass
class BallGrowth:
    """Layered BFS record of one ball of ``sample``: its distances and
    layers; predecessors come from :meth:`pred_of`. The fields after
    ``sample`` are the tuple of :func:`_grow`, so ``BallGrowth(sample,
    *grown)`` builds the ball. What a grown ball proves about Z^d is stated
    here: its layers through ``resolved_through`` and the singleton layers
    among them (:meth:`singletons`)."""

    sample: PercolationSample
    dist: np.ndarray  # flat uint32, 0xFFFFFFFF = unreached
    first_boundary_time: int | None
    layers: list  # layer t = sorted flat indices at distance t; 0: the sources
    exhausted: bool  # frontier emptied (cluster fully explored in box)
    settled: bool  # stopped by the caller's ``settle`` predicate

    @property
    def box(self) -> BoxSpec:
        return self.sample.box

    @property
    def contaminated(self) -> bool:
        return self.first_boundary_time is not None

    @property
    def last_time(self) -> int:
        return len(self.layers) - 1

    @property
    def resolved_through(self) -> int:
        """Largest t whose layers are certified equal to the Z^d layers."""
        if self.first_boundary_time is None:
            return self.last_time
        return min(self.first_boundary_time, self.last_time)

    @cached_property
    def ball_sizes(self) -> np.ndarray:
        """|B_t| for t = 0 .. last_time (cumulative layer sizes)."""
        return np.cumsum([len(l) for l in self.layers])

    def pred_of(self, flats) -> np.ndarray:
        """The predecessor of each reached vertex v of ``flats`` (-1 for a
        source): the neighbour u of the first move of ``_move_priority``
        with an open edge to v and dist[u] = dist[v] - 1, which is the
        lexicographically least such neighbour."""
        v = np.asarray(flats, dtype=np.int64)
        want = self.dist[v].astype(np.int64) - 1
        pred = np.full_like(v, -1)
        strides, open_flats = self.box.strides, self.sample.axis_open_flats()
        # tried last to first, so that the first move that fits writes last
        for axis, sign in reversed(_move_priority(self.box.dimension)):
            u = v - sign * strides[axis]
            # the edge's lower end, wrapped as in _grow; u leaves the box
            # only where that edge is closed
            ok = open_flats[axis].take(u if sign > 0 else v, mode="wrap")
            ok &= self.dist.take(u, mode="wrap") == want
            np.copyto(pred, u, where=ok)
        return pred

    def singletons(self, t_min: int = 1):
        """(t, flat) of every singleton layer with t >= t_min among the
        certified layers, increasing in t."""
        return [
            (t, int(self.layers[t][0]))
            for t in range(t_min, self.resolved_through + 1)
            if len(self.layers[t]) == 1
        ]


def _next_layer(frontier, steps, dist):
    """The sorted distinct vertices that are unreached in ``dist`` and
    joined by an open edge to a vertex of ``frontier``, where ``steps``
    pairs each axis stride with its padded open mask: the layer step of
    both loops."""
    parts = []
    for st, op in steps:
        parts.append(frontier[op[frontier]] + st)
        # wrapped lookup is safe: slots with grid index side-1 along
        # the axis are always False in the padded mask
        low = frontier - st
        parts.append(low[op.take(low, mode="wrap")])
    nb = np.concatenate(parts)
    nb = nb[dist[nb] == _INF32]
    nb.sort()
    keep = np.ones(nb.size, dtype=bool)
    np.not_equal(nb[1:], nb[:-1], out=keep[1:])
    return nb[keep]


def _grow(
    sample: PercolationSample,
    source_flats,
    t_max=None,
    targets=None,
    stop_at_boundary=False,
    settle=None,
):
    """(dist, first boundary time, layers, exhausted, settled) of the ball
    of :func:`grow_ball_flats`: the single-ball loop."""
    box = sample.box
    face = box.face_flat
    steps = list(zip(box.strides, sample.axis_open_flats()))
    dist = np.full(box.n_vertices, _INF32, dtype=np.uint32)
    frontier = np.sort(np.asarray(source_flats, dtype=np.int64))
    dist[frontier] = 0
    layers = [frontier]
    first = 0 if np.count_nonzero(face[frontier]) else None
    aim = None if targets is None else np.asarray(targets, dtype=np.int64)
    exhausted = settled = False
    t = 0
    while not (
        (t_max is not None and t >= t_max)
        or (aim is not None and np.count_nonzero(dist[aim] != _INF32))
        or (stop_at_boundary and first is not None)
    ):
        frontier = _next_layer(frontier, steps, dist)
        if frontier.size == 0:
            exhausted = True
            break
        t += 1
        dist[frontier] = t
        layers.append(frontier)
        if first is None and np.count_nonzero(face[frontier]):
            first = t
            if stop_at_boundary:
                break
        if settle is not None and settle(dist, frontier):
            settled = True
            break
    return dist, first, layers, exhausted, settled


def grow_targets(samples, source: int, target: int) -> list:
    """Per sample of ``samples``, which share one box, the pair (certified
    distance, certified singleton times) of the ball around the flat
    ``source``, grown toward the flat ``target`` until it reaches it, first
    touches a box face or exhausts its cluster.

    The distance D(source, target) in Z^d is an int when the ball reached
    the target (at or before its first face contact), ``math.inf`` when it
    exhausted its cluster without touching a face (the Z^d cluster is
    finite and misses the target) and None when the box cannot tell. The
    times are every t >= 1 through the ball's last layer whose layer is a
    single vertex, increasing, so none exceeds an int distance. The balls
    grow together (see the module docstring).
    """
    box = samples[0].box
    n, balls = box.n_vertices, len(samples)
    # a lone ball (every large d = 3 box) reuses its sample's cached masks
    # and the box's face mask instead of copying them
    if balls == 1:
        opens, face = samples[0].axis_open_flats(), box.face_flat
    else:
        opens, face = stacked_open_flats(samples), np.tile(box.face_flat, balls)
    steps = list(zip(box.strides, opens))
    dist = np.full(balls * n, _INF32, dtype=np.uint32)
    bounds = np.arange(balls + 1, dtype=np.int64) * n  # ball b: bounds[b] .. bounds[b + 1] - 1
    aims = bounds[:-1] + target
    frontier = bounds[:-1] + source
    dist[frontier] = 0
    cut = list(range(balls + 1))  # ball b's part of layer t: frontier[cut[b] : cut[b + 1]]
    out = [None] * balls
    singles = [[] for _ in range(balls)]
    growing = list(range(balls))
    t = 0
    while True:
        reached = (dist[aims] != _INF32).tolist()
        touched = face[frontier]
        # a set: plain np.unique imports numpy.ma (1.6 MB of resident
        # memory in every worker, numpy 2.4)
        faced = set((frontier[touched] // n).tolist()) if np.count_nonzero(touched) else ()
        kept = []
        for b in growing:
            size = cut[b + 1] - cut[b]
            if size == 0:  # exhausted at t - 1, never touching a face
                out[b] = (math.inf, singles[b])
                continue
            if size == 1 and t:
                singles[b].append(t)
            if reached[b]:
                out[b] = (t, singles[b])
            elif b in faced:
                out[b] = (None, singles[b])
            else:
                kept.append(b)
        if not kept:
            return out
        if len(kept) < len(growing):
            frontier = np.concatenate([frontier[cut[b] : cut[b + 1]] for b in kept])
        growing = kept
        frontier = _next_layer(frontier, steps, dist)
        t += 1
        dist[frontier] = t
        cut = np.searchsorted(frontier, bounds).tolist()


def grow_ball(
    sample: PercolationSample,
    source,
    t_max: int | None = None,
    *,
    targets=None,
    stop_at_boundary: bool = False,
    settle=None,
) -> BallGrowth:
    """Grow the chemical-distance ball around the vertex ``source``."""
    return grow_ball_flats(
        sample, [sample.box.flat_index(source)], t_max=t_max, targets=targets,
        stop_at_boundary=stop_at_boundary, settle=settle,
    )


def grow_ball_flats(
    sample: PercolationSample,
    source_flats,
    *,
    t_max: int | None = None,
    targets=None,
    stop_at_boundary: bool = False,
    settle=None,
) -> BallGrowth:
    """Grow the chemical-distance ball around a set of flat vertex indices.

    Stops at exhaustion, at ``t_max`` layers, when any of ``targets`` (flat
    indices) has been reached, or, with ``stop_at_boundary``, right after the
    first layer that touches a box face (that layer itself is still exact).
    With ``settle``, a predicate ``settle(dist, frontier)`` of the ball's
    distances and its last layer, it also stops after a layer at which the
    predicate holds, and is ``settled`` (see the module docstring).
    """
    return BallGrowth(sample, *_grow(
        sample, source_flats, t_max=t_max, targets=targets,
        stop_at_boundary=stop_at_boundary, settle=settle,
    ))


def constrained_distance(sample: PercolationSample, region, frm, to) -> float:
    """Shortest open path from set ``frm`` to set ``to`` with all vertices in
    ``region``, a bool mask over the box's flats. Endpoint sets must be
    subsets of the region.

    Empty ``frm`` or ``to`` yields ``math.inf`` and an
    :class:`EmptyEndpointWarning`.
    """
    box = sample.box
    frm = list(frm)
    to = list(to)
    if not frm or not to:
        warnings.warn(
            "constrained distance with an empty endpoint set",
            EmptyEndpointWarning,
            stacklevel=2,
        )
        return math.inf
    if region.dtype != bool or region.shape != (box.n_vertices,):
        raise GeometryError("region must be a bool mask over the box's flats")
    f_flats = box.flats_of_coords(np.asarray(frm, dtype=np.int64))
    t_flats = box.flats_of_coords(np.asarray(to, dtype=np.int64))
    if not region[f_flats].all() or not region[t_flats].all():
        raise GeometryError("endpoint sets must be subsets of the region")
    if np.intersect1d(f_flats, t_flats).size:
        return 0
    ball = grow_ball_flats(sample.restricted_to(region), f_flats, targets=t_flats)
    vals = ball.dist[t_flats]
    hit = vals[vals != _INF32]
    return math.inf if hit.size == 0 else int(hit.min())


def geodesic(ball: BallGrowth, target) -> list[tuple[int, ...]]:
    """Deterministic geodesic from the ball source to ``target``.

    Follows :meth:`BallGrowth.pred_of` (lexicographically least at every
    step), so the path is unique given the sample; it is self-avoiding and
    its length equals the chemical distance.
    """
    box = ball.box
    ft = box.flat_index(target)
    if ball.dist[ft] == _INF32:
        raise UnreachableVertexError(f"vertex {tuple(target)} not reached")
    layers = ball.layers[: int(ball.dist[ft]) + 1]
    pred = ball.pred_of(np.concatenate(layers))
    path, stop = [ft], pred.size
    for layer in reversed(layers[1:]):
        stop -= layer.size
        path.append(int(pred[stop + np.searchsorted(layer, path[-1])]))
    path.reverse()
    return [box.vertex_coord(f) for f in path]
