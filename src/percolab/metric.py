"""Chemical distance: layered ball growth, geodesics, constrained distances.

The ball around a source is grown one graph-distance layer at a time over
open edges. Every vertex keeps its distance and a deterministic predecessor:
among all neighbours that could precede it on a geodesic, the one whose
coordinate tuple is lexicographically least. Growth also records the first
time a layer touched the box face ("boundary contamination"): layers up to
and including that time equal the infinite-lattice layers, later ones may
not.

What a grown ball proves about Z^d is stated once, on :class:`BallGrowth`:
``certified_distance`` gives D(source, y) when the box certifies it (finite
or infinite), and ``singletons`` lists the certified single-vertex layers.
The distance-constant, upper-tail and cut-point scans map over these two.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import EmptyEndpointWarning, GeometryError, UnreachableVertexError
from .lattice import BoxSpec, PercolationSample

_INF32 = np.uint32(0xFFFFFFFF)


def _move_priority(d: int):
    """Moves ordered so the first producer is the lexicographically least
    predecessor: +e_1 .. +e_d then -e_d .. -e_1."""
    return [(axis, +1) for axis in range(d)] + [(axis, -1) for axis in reversed(range(d))]


@dataclass
class BallGrowth:
    """Layered BFS record of one ball."""

    box: BoxSpec
    source: tuple[int, ...]
    layers: list  # layer t = sorted flat indices at distance exactly t
    dist: np.ndarray  # flat uint32, 0xFFFFFFFF = unreached
    pred: np.ndarray  # flat int64 predecessor, -1 = none
    first_boundary_time: int | None
    truncated_at: int | None  # t_max or early stop, None if ran to exhaustion
    exhausted: bool  # frontier emptied (cluster fully explored in box)

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

    def layer_vertices(self, t: int) -> np.ndarray:
        """(m, d) coordinates of layer t."""
        return self.box.coords_of_flats(self.layers[t])


def _grow(
    sample: PercolationSample,
    source_flats: np.ndarray,
    t_max=None,
    targets=None,
    region=None,
    stop_at_boundary=False,
):
    box = sample.box
    n = box.n_vertices
    dist = np.full(n, _INF32, dtype=np.uint32)
    pred = np.full(n, -1, dtype=np.int64)
    face = box.face_flat
    open_flats = sample.axis_open_flats()
    strides = box.strides
    moves = _move_priority(box.dimension)

    src = np.sort(np.asarray(source_flats, dtype=np.int64))
    if region is not None:
        if not region[src].all():
            raise GeometryError("source vertices must lie inside the region")
    dist[src] = 0
    layers = [src]
    frontier = src
    first_boundary = 0 if face[src].any() else None

    target_set = None
    if targets is not None:
        target_set = np.asarray(list(targets), dtype=np.int64)

    truncated_at = None
    exhausted = False
    t = 0
    while True:
        if target_set is not None and (dist[target_set] != _INF32).any():
            truncated_at = t
            break
        if stop_at_boundary and first_boundary is not None:
            truncated_at = t
            break
        if t_max is not None and t >= t_max:
            truncated_at = t
            break
        t += 1
        parts = []
        for axis, sign in moves:
            st = strides[axis]
            op = open_flats[axis]
            if sign > 0:
                ok = op[frontier]
                base = frontier[ok]
                nb = base + st
            else:
                # wrapped lookup is safe: slots with grid index side-1 along
                # the axis are always False in the padded mask
                ok = op.take(frontier - st, mode="wrap")
                base = frontier[ok]
                nb = base - st
            if nb.size == 0:
                continue
            fresh = (dist[nb] == _INF32) & (pred[nb] == -1)
            if region is not None:
                fresh &= region[nb]
            if fresh.any():
                nb = nb[fresh]
                pred[nb] = base[fresh]
                parts.append(nb)
        if not parts:
            exhausted = True
            break
        newly = np.sort(np.concatenate(parts))
        dist[newly] = t
        layers.append(newly)
        frontier = newly
        if first_boundary is None and face[newly].any():
            first_boundary = t

    return dist, pred, layers, first_boundary, truncated_at, exhausted


def grow_ball(
    sample: PercolationSample,
    source,
    t_max: int | None = None,
    *,
    targets=None,
    region=None,
    stop_at_boundary: bool = False,
) -> BallGrowth:
    """Grow the chemical-distance ball around the vertex ``source``."""
    return grow_ball_flats(
        sample, [sample.box.flat_index(source)], t_max=t_max, targets=targets,
        region=region, stop_at_boundary=stop_at_boundary,
    )


def grow_ball_flats(
    sample: PercolationSample,
    source_flats,
    *,
    t_max: int | None = None,
    targets=None,
    region=None,
    stop_at_boundary: bool = False,
) -> BallGrowth:
    """Grow the chemical-distance ball around a set of flat vertex indices.

    Stops at exhaustion, at ``t_max`` layers, when any of ``targets`` (flat
    indices) has been reached, or, with ``stop_at_boundary``, right after the
    first layer that touches a box face (that layer itself is still exact).
    The first source names the ball.
    """
    src = np.asarray(source_flats, dtype=np.int64)
    dist, pred, layers, fb, trunc, exhausted = _grow(
        sample, src, t_max=t_max, targets=targets, region=region,
        stop_at_boundary=stop_at_boundary,
    )
    return BallGrowth(
        box=sample.box,
        source=sample.box.vertex_coord(int(src[0])),
        layers=layers,
        dist=dist,
        pred=pred,
        first_boundary_time=fb,
        truncated_at=trunc,
        exhausted=exhausted,
    )


def _floor_vertex(v):
    return tuple(int(math.floor(float(c))) for c in v)


def chemical_distance(sample: PercolationSample, x, y) -> float:
    """Length of a shortest open path between x and y inside the box.

    Real-valued inputs are floored componentwise. Returns ``math.inf`` when
    the endpoints are not connected within the box.
    """
    xv, yv = _floor_vertex(x), _floor_vertex(y)
    return grow_ball(sample, xv, targets=[sample.box.flat_index(yv)]).dist_of(yv)


def resolved_distance(sample: PercolationSample, x, y):
    """Distance with finite-box honesty: ('exact', D), ('disconnected', inf)
    or ('unknowable', None), from :meth:`BallGrowth.certified_distance` of a
    ball that stops at its first face contact."""
    xv, yv = _floor_vertex(x), _floor_vertex(y)
    dist = grow_ball(
        sample, xv, targets=[sample.box.flat_index(yv)], stop_at_boundary=True
    ).certified_distance(yv)
    if dist is None:
        return "unknowable", None
    return ("disconnected" if dist == math.inf else "exact"), dist


def constrained_distance(sample: PercolationSample, region, frm, to) -> float:
    """Shortest open path from set ``frm`` to set ``to`` with all vertices in
    ``region``. Endpoint sets must be subsets of the region.

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
    region_mask = _region_mask(box, region)
    f_flats = box.flats_of_coords(np.asarray(frm, dtype=np.int64))
    t_flats = box.flats_of_coords(np.asarray(to, dtype=np.int64))
    if not region_mask[f_flats].all() or not region_mask[t_flats].all():
        raise GeometryError("endpoint sets must be subsets of the region")
    if np.intersect1d(f_flats, t_flats).size:
        return 0
    ball = grow_ball_flats(sample, f_flats, targets=t_flats, region=region_mask)
    vals = ball.dist[t_flats]
    hit = vals[vals != _INF32]
    return math.inf if hit.size == 0 else int(hit.min())


def _region_mask(box: BoxSpec, region) -> np.ndarray:
    if isinstance(region, np.ndarray) and region.dtype == bool:
        if region.shape == (box.n_vertices,):
            return region
        raise GeometryError("region mask has wrong length")
    mask = np.zeros(box.n_vertices, dtype=bool)
    coords = np.asarray(list(region), dtype=np.int64)
    mask[box.flats_of_coords(coords)] = True
    return mask


def geodesic(ball: BallGrowth, target) -> list[tuple[int, ...]]:
    """Deterministic geodesic from the ball source to ``target``.

    Follows stored predecessors (lexicographically least at every step), so
    the path is unique given the sample; it is self-avoiding and its length
    equals the chemical distance.
    """
    box = ball.box
    ft = box.flat_index(target)
    if ball.dist[ft] == _INF32:
        raise UnreachableVertexError(f"vertex {tuple(target)} not reached")
    path = [ft]
    while ball.pred[path[-1]] != -1:
        path.append(int(ball.pred[path[-1]]))
    path.reverse()
    assert len(path) - 1 == int(ball.dist[ft])
    return [box.vertex_coord(f) for f in path]


def volume_threshold_time(ball: BallGrowth, volume: int):
    """Least t with |B_t| >= volume over the grown layers, None if never."""
    sizes = ball.ball_sizes
    hit = np.flatnonzero(sizes >= volume)
    return int(hit[0]) if hit.size else None


def distance_map_csv(ball: BallGrowth, fh) -> None:
    """Dump the distance map: columns x1..xd then dist ('inf' if unreached)."""
    box = ball.box
    writer = csv.writer(fh, lineterminator="\n")
    fh.write(f"# percolab-csv dist v1\n")
    writer.writerow([f"x{k + 1}" for k in range(box.dimension)] + ["dist"])
    coords = box.coords_of_flats(np.arange(box.n_vertices))
    for flat in range(box.n_vertices):
        v = ball.dist[flat]
        writer.writerow(
            [int(c) for c in coords[flat]] + ["inf" if v == _INF32 else int(v)]
        )
