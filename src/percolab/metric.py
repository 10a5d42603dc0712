"""Chemical distance: layered ball growth, geodesics, constrained distances.

The ball around a source is grown one graph-distance layer at a time over
open edges, and every reached vertex keeps only its distance. Its
deterministic predecessor, among all neighbours that could precede it on a
geodesic the one whose coordinate tuple is lexicographically least, follows
from the distances and the open edges, so it is derived on demand
(:meth:`BallGrowth.pred_of`). Growth also records the first time a layer
touched the box face ("boundary contamination"): layers up to and including
that time equal the infinite-lattice layers, later ones may not.

There are two BFS designs, one per job.

- :func:`_grow` grows one ball, for :func:`grow_ball_flats` and every
  caller of it, one :func:`_next_layer` per layer. It has five stop rules:
  ``t_max``, a target reached, the first face contact (with
  ``stop_at_boundary``), exhaustion, and the caller's predicate
  ``settle(dist, frontier)``, asked after each layer at which the ball is
  not stopping at a face; a ball stopped by it records that it
  ``settled``. It has no rule that confines growth: a confined ball is
  grown in a sample whose edges out of the allowed vertices are closed
  (``PercolationSample.restricted_to``), as :func:`constrained_distance`
  grows it. What such a ball proves about Z^d is stated on
  :class:`BallGrowth` (``resolved_through``, ``singletons``), and the
  misses of the windowed cut-point events are certified in
  ``cutpoints._windows_resolved``.
- :func:`_lane_layers` runs up to 64 breadth-first searches as the bits of
  one word per vertex (multi-source BFS, Then et al., *PVLDB* 2014), each
  the search of its sources alone: one sample per lane in
  :func:`grow_targets`, the one place where a target distance is
  certified, and one vertex set of one sample per lane in
  ``cutpoints._lane_probe``.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import EmptyEndpointWarning, GeometryError, UnreachableVertexError
from .lattice import BoxSpec, PercolationSample

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


def _open_words(sample: PercolationSample, out=None) -> np.ndarray:
    """The open words of lane searches in ``sample`` alone, all ones where
    ``sample.axis_open_flats()`` is True, in ``out`` or a new (d, n) array."""
    masks = sample.axis_open_flats()
    out = np.zeros((len(masks), masks[0].size), dtype="<u8") if out is None else out
    np.subtract(0, masks, out=out.view("<i8"))  # -1: all 64 bits set
    return out


def _lane_state(box: BoxSpec, sample: PercolationSample | None = None) -> np.ndarray:
    """The state of :func:`_lane_layers` on ``box``, in one array that keeps a
    worker's heap in place: the open words of ``sample`` (zero without one),
    then the seen and arriving rows, little-endian uint64."""
    state = np.zeros((box.dimension + 2, box.n_vertices), dtype="<u8")
    if sample is not None:
        _open_words(sample, state[:-2])
    return state


def _lane_layers(sources, words, strides, state):
    """Generator of the layers of up to 64 breadth-first searches, lane k
    being bit k of a uint64 word per vertex, from the flats of ``sources``
    whose entry of ``words`` has bit k. ``state`` is a :func:`_lane_state`,
    whose row a < d holds the open words of the axis of stride
    ``strides[a]``: bit k at v says that the edge (v, v + e_a) is open in
    lane k's graph (0 in the far-face slots).

    Each layer t = 0, 1, .. is yielded as its sorted distinct flats and the
    word of the lanes that first reach each; the word sent back names the
    lanes that still spread. A step merges the words arriving at a flat,
    marks them seen and spreads them along all 2 d moves at once, and an
    arrival keeps the lanes that have not seen its flat."""
    seen, arrived = state[-2:]
    # per move +e_0, -e_0, +e_1, ..: its axis, its step and the offset of the
    # edge's lower end, where a negative flat wraps safely as in _next_layer
    axes = np.arange(2 * len(strides))[:, None] // 2
    moves = np.array([[sign * st] for st in strides for sign in (1, -1)])
    lower = np.minimum(moves, 0)
    while True:
        # ufunc.at: a fancy |= would keep one word of a repeated flat
        np.bitwise_or.at(arrived, sources, words)
        sources.sort()
        front = np.concatenate((sources[:1], sources[1:][sources[1:] != sources[:-1]]))
        words = arrived[front]
        arrived[front] = 0
        seen[front] |= words
        spread = state[axes, front + lower] & (words & np.uint64((yield front, words)))
        keep = np.flatnonzero(spread)
        sources, words = (front + moves).reshape(-1)[keep], spread.reshape(-1)[keep]
        words &= ~seen[sources]
        keep = np.flatnonzero(words)
        sources, words = sources[keep], words[keep]


def _lanes_of(mask: int) -> list:
    """The set bits of ``mask``, increasing."""
    return [b for b in range(mask.bit_length()) if mask >> b & 1]


def _packed_lanes(drawn):
    """(box, lane state, lane count) of the next 64 or fewer samples of the
    iterator ``drawn``, sample b as lane b, or None. Each sample's padded
    masks are ORed, as drawn, into bit b % 8 of a byte per slot, which every
    eight samples becomes byte b // 8 of the little-endian words: bit b."""
    state = None
    for byte in range(8):
        plane = None
        for bit, sample in enumerate(itertools.islice(drawn, 8)):
            box, masks = sample.box, sample.box.padded(sample.open_edges).view(np.uint8)
            masks <<= bit
            plane = masks if plane is None else np.bitwise_or(plane, masks, out=plane)
            del sample, masks  # not held while the next one is drawn
        if plane is None:
            break
        state = _lane_state(box) if state is None else state
        state.view(np.uint8).reshape(len(state), -1, 8)[:-2, :, byte] = plane
        lanes = 8 * byte + bit + 1
    return None if state is None else (box, state, lanes)


def grow_targets(samples, source: int, target: int) -> list:
    """Per sample of the iterable ``samples`` of one box, the pair
    (certified distance, certified singleton times) of the ball around the
    flat ``source``, grown toward the flat ``target`` until it reaches it,
    first touches a box face or exhausts its cluster.

    The distance D(source, target) in Z^d is an int when the ball reached
    the target (at or before its first face contact), ``math.inf`` when it
    exhausted its cluster without touching a face (the Z^d cluster is
    finite and misses the target) and None when the box cannot tell. The
    times are every t >= 1 through the ball's last layer whose layer is a
    single vertex, increasing, so none exceeds an int distance.

    Up to 64 samples grow at once, sample b as lane b of
    :func:`_lane_layers`, each packed as it is drawn. A lane reads its layer
    t in this order: empty gives ``inf``; one vertex at t >= 1 appends t;
    the target gives t; a face vertex gives None. A decided lane stops, and
    no lane's result depends on its companions.
    """
    out, drawn = [], iter(samples)
    while packed := _packed_lanes(drawn):
        box, state, lanes = packed
        live = (1 << lanes) - 1
        layers = _lane_layers(np.array([source]), np.array([live], np.uint64), box.strides, state)
        dist, singles = [None] * lanes, [[] for _ in range(lanes)]
        front, words = next(layers)
        for t in itertools.count():
            # the lanes of the layer's words, and those of two or more of them
            acc = np.bitwise_or.accumulate(words)
            once = int(acc[-1]) if acc.size else 0
            twice = int(np.bitwise_or.reduce(acc[:-1] & words[1:]))
            for b in _lanes_of(live & ~once):
                dist[b] = math.inf
            live &= once
            for b in _lanes_of(live & ~twice if t else 0):
                singles[b].append(t)
            hit = live & int(np.bitwise_or.reduce(words[front == target]))
            for b in _lanes_of(hit):
                dist[b] = t
            live &= ~hit & ~int(np.bitwise_or.reduce(words[box.face_flat[front]]))
            if not live:
                break
            front, words = layers.send(live)
        out += zip(dist, singles)
    return out


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
