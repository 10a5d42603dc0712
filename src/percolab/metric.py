"""Chemical distance: layered ball growth, geodesics, constrained distances.

The ball around a source is grown one graph-distance layer at a time over
open edges, and every reached vertex keeps only its distance. Its
deterministic predecessor, among all neighbours that could precede it on a
geodesic the one whose coordinate tuple is lexicographically least, follows
from the distances and the open edges, so it is derived on demand
(:meth:`BallGrowth.pred_of`). Growth also records the first time a layer
touched the box face ("boundary contamination"): layers up to and including
that time equal the infinite-lattice layers, later ones may not.

What a grown ball proves about Z^d is stated once, on :class:`BallGrowth`:
``certified_distance`` gives D(source, y) when the box certifies it (an int,
``math.inf`` for a finite cluster that misses y, None when the box cannot
tell), and ``singletons`` lists the certified single-vertex layers. The
estimators read the distance constant and the upper-tail event from the
first and the cut-point scans from the second; the misses of the windowed
cut-point events are certified in ``cutpoints._windows_resolved``.

There is one BFS loop, :func:`_grow_lockstep`, and it grows B balls at
once, one in each of B samples of one box of n vertices (B = 1 for every
single ball, through :func:`_grow`). Ball b lives at flats b n .. b n + n - 1
of the samples' disjoint union, whose open masks are the samples' padded
masks one after another (``lattice.stacked_open_flats``). Each layer is one
sweep of the 2 d neighbours of the union's frontier, with the numpy calls of
a single ball's layer. The kernel has four stop rules, and each ball keeps
its own: ``t_max``, a target reached, the first face contact (with
``stop_at_boundary``) and exhaustion. A single ball may also stop where its
caller's predicate ``settle(dist, frontier)`` says that the caller's
question is certified; it is asked after each layer at which the ball is
not already leaving, and the ball records that it ``settled``. The kernel
has no rule that confines growth: a confined ball is grown in a sample
whose edges out of the allowed vertices are closed
(``PercolationSample.restricted_to``), as :func:`constrained_distance`
grows it. Each union layer is cut at the balls' bounds as it is swept; a
ball whose part is empty was exhausted one layer earlier. A ball's end is
decided there or at its stop, once, and then it leaves the frontier and the
targets. After the loop the layers are only sliced. No edge joins two
boxes, so every ball's distances, layers, first face contact and exhaustion
equal those of its sample grown alone, whatever B and its companions are.
The estimators choose B (``estimators._BLOCK_VERTICES``).
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
    ``sample`` are the kernel's tuple, so ``BallGrowth(sample, *grown)``
    builds the ball."""

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

    def dist_of(self, coord) -> float:
        v = self.dist[self.box.flat_index(coord)]
        return math.inf if v == _INF32 else int(v)

    def certified_distance(self, target):
        """D(source, target) in Z^d as far as this ball certifies it.

        An int when the target was reached within the certified layers;
        ``math.inf`` when the ball exhausted its cluster without touching a
        box face (the Z^d cluster is finite and misses the target); None when
        the box cannot tell.
        """
        v = self.dist_of(target)
        if v <= self.resolved_through:
            return v
        if self.exhausted and not self.contaminated:
            return math.inf
        return None

    def singletons(self, t_min: int = 1, t_max=None):
        """(t, flat) of every singleton layer with t_min <= t <= t_max among
        the certified layers, increasing in t."""
        horizon = self.resolved_through if t_max is None else min(
            t_max, self.resolved_through
        )
        return [
            (t, int(self.layers[t][0]))
            for t in range(t_min, horizon + 1)
            if len(self.layers[t]) == 1
        ]


def _grow(
    sample: PercolationSample,
    source_flats,
    t_max=None,
    targets=None,
    stop_at_boundary=False,
    settle=None,
):
    """(dist, first boundary time, layers, exhausted, settled) of the ball
    of :func:`grow_ball_flats`: the one-ball call of :func:`_grow_lockstep`."""
    return _grow_lockstep(
        [sample], [source_flats], t_max=t_max,
        targets=None if targets is None else [targets],
        stop_at_boundary=stop_at_boundary, settle=settle,
    )[0]


def _grow_lockstep(
    samples, sources, t_max=None, targets=None, stop_at_boundary=False, settle=None
):
    """Per ball b, (dist, first boundary time, layers, exhausted, settled)
    of the ball of the flats ``sources[b]`` in ``samples[b]``, grown as
    :func:`grow_ball_flats` grows it with the targets ``targets[b]`` (None:
    no ball has targets) and the shared ``t_max``, ``stop_at_boundary`` and
    ``settle`` (one ball only). One sweep of the 2 d neighbours per layer
    serves every ball (see the module docstring)."""
    box = samples[0].box
    n, balls = box.n_vertices, len(samples)
    face = box.face_flat
    # The one-ball branches (masks, tiling, frontier, targets, cuts and
    # result) spare a lone ball the copies and the layer cuts of the union.
    # Without them, the masks still cached, 150 surface-d2 replicates took
    # 0.705 -> 0.862 s of process time (medians, slower in 9 of 10
    # alternating pairs, 2-vCPU host) and 20 rate-d3 replicates 0.294 ->
    # 0.312 s (7 of 10).
    if balls == 1:
        opens = samples[0].axis_open_flats()
    else:
        opens = stacked_open_flats(samples)
        face = np.tile(face, balls)
    steps = list(zip(box.strides, opens))
    dist = np.full(balls * n, _INF32, dtype=np.uint32)

    srcs = [np.sort(np.asarray(s, dtype=np.int64)) for s in sources]
    first = [0 if np.count_nonzero(face[src]) else None for src in srcs]
    frontier = srcs[0] if balls == 1 else np.concatenate(
        [src + b * n for b, src in enumerate(srcs)]
    )
    dist[frontier] = 0
    layers = [frontier]  # the union's layers
    bounds = np.arange(balls + 1) * n
    cuts = []  # per union layer t >= 1, where each ball's part of it starts
    end = [None] * balls  # the last layer of each ball
    exhausted = [False] * balls
    settled = False  # one ball, stopped by ``settle``
    growing = set(range(balls))
    leaving = {b for b in growing if stop_at_boundary and first[b] is not None}
    pending = first.count(None)  # growing balls yet to touch a face
    if targets is not None:  # union flats: target a is ball a // n's
        aim = np.asarray(targets[0], dtype=np.int64) if balls == 1 else np.concatenate(
            [np.asarray(a, dtype=np.int64).reshape(-1) + b * n for b, a in enumerate(targets)]
        )

    t = 0
    while True:
        if targets is not None:
            hit = dist[aim] != _INF32
            if np.count_nonzero(hit):
                leaving.update((aim[hit] // n).tolist())
        if t_max is not None and t >= t_max:
            leaving.update(growing)
        if leaving:
            # a ball stops at t unless it was exhausted at t - 1; either
            # way it leaves the frontier and the targets
            for b in leaving:
                if end[b] is None:
                    end[b] = t
            growing -= leaving
            if not growing:
                break
            gone = np.fromiter(leaving, dtype=np.int64)
            frontier = frontier[~np.isin(frontier // n, gone)]
            if targets is not None:
                aim = aim[~np.isin(aim // n, gone)]
            pending = sum(first[b] is None for b in growing)
            leaving = set()
        t += 1
        parts = []
        for st, op in steps:
            parts.append(frontier[op[frontier]] + st)
            # wrapped lookup is safe: slots with grid index side-1 along
            # the axis are always False in the padded mask
            low = frontier - st
            parts.append(low[op.take(low, mode="wrap")])
        nb = np.concatenate(parts)
        nb = nb[dist[nb] == _INF32]
        if nb.size == 0:  # every growing ball's part of layer t is empty
            for b in growing:
                end[b], exhausted[b] = t - 1, True
            break
        nb.sort()
        keep = np.ones(nb.size, dtype=bool)
        np.not_equal(nb[1:], nb[:-1], out=keep[1:])
        frontier = nb[keep]
        dist[frontier] = t
        layers.append(frontier)
        if balls > 1:
            # ball b's part of layer t is frontier[cut[b] : cut[b + 1]]; an
            # empty part means its cluster was exhausted at t - 1
            cut = np.searchsorted(frontier, bounds).tolist()
            cuts.append(cut)
            for b in growing:
                if cut[b] == cut[b + 1]:
                    end[b], exhausted[b] = t - 1, True
                    leaving.add(b)
        if pending:
            touched = face[frontier]
            if np.count_nonzero(touched):
                # a set: plain np.unique imports numpy.ma (1.6 MB of
                # resident memory in every worker, numpy 2.4)
                for b in set((frontier[touched] // n).tolist()):
                    if first[b] is None:
                        first[b] = t
                        pending -= 1
                        if stop_at_boundary:
                            leaving.add(b)
        if settle is not None and not leaving and settle(dist, frontier):
            leaving.add(0)
            settled = True

    if balls == 1:
        return [(dist, first[0], layers, exhausted[0], settled)]
    for layer in layers[1:]:
        np.remainder(layer, n, out=layer)
    out = []
    for b in range(balls):
        own = [flats[c[b] : c[b + 1]] for c, flats in zip(cuts[: end[b]], layers[1:])]
        out.append((dist[b * n : (b + 1) * n], first[b], [srcs[b]] + own, exhausted[b], False))
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


def grow_balls(
    samples, source_flats, *, targets=None, stop_at_boundary: bool = False
) -> list[BallGrowth]:
    """One ball per sample of ``samples``, which share one box, grown in
    lock-step: ball b from the flats ``source_flats[b]``, stopped at
    ``targets[b]`` (None: no targets for any ball), at exhaustion and, with
    ``stop_at_boundary``, as :func:`grow_ball_flats` stops. Ball b equals
    ``grow_ball_flats(samples[b], source_flats[b], targets=targets[b], ...)``.
    """
    grown = _grow_lockstep(
        samples, source_flats, targets=targets, stop_at_boundary=stop_at_boundary
    )
    return [BallGrowth(sample, *one) for sample, one in zip(samples, grown)]


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
