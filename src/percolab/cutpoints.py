"""Space-time cut-points: detection, windowed events, edge surgery.

A space-time cut-point of a ball grown from the origin is a pair (t, w)
whose distance-t layer is the single vertex w: every path leaving B_t goes
through w. The windowed event asks for such a pair with t >= s*n and w
within sup-distance floor(n^alpha) of n*x; the free-line refinement
additionally demands an axis line meeting the ball only at w, thin line
counts through w's hyperplane, and a volume cap floor(n^(7/4)).

A grid of specs is scored on one ball in one pass. :class:`EventGrid` holds
what depends only on the specs and the box (window centres, radii, time
thresholds and the index of distinct windows), so it is built once and
shared by every replicate on that box. ``event_A(ctx, grid)`` and
``event_A_free(ctx, grid)`` then return one result per spec for the ball of
a :class:`BallEventContext`: the ball grown from the origin until its first
face contact, with its candidate witnesses. The witnesses come from one mask
over (spec, candidate) pairs; the windows of the specs without one are
certified together.

Event evaluation is honest about the finite box: an outcome is only
reported as a hit or miss when the grown layers certify it for the infinite
lattice; otherwise it is unknowable.

A miss on a face-contaminated ball needs every window vertex resolved: within
the certified horizon, or unreached with an open cluster that avoids every
box face. One gather of the ball's distances per window extent settles most
windows. The unreached vertices of each remaining window are probed together
by a second growth that stops at a face or at the ball's frontier
``layers[-1]``: an open edge from an unreached vertex into the ball lands in
its last layer, so reaching the frontier proves the vertex joins the source
cluster, which touches a face. Each vertex's verdict (in a finite cluster,
or joined to a face) is exact, so :class:`BallEventContext` keeps it for
every later window of that ball.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ContaminatedBallError,
    GeometryError,
    PreconditionError,
    SurgeryPlanError,
)
from .lattice import BoxSpec, PercolationSample
from .metric import BallGrowth, _INF32, geodesic, grow_ball_flats


def alpha_default(d: int) -> float:
    """Default window exponent 1 - 1/(6d)."""
    return 1.0 - 1.0 / (6 * d)


@dataclass(frozen=True)
class CutPointRecord:
    """Singleton layer: B_t minus B_(t-1) = {location}.

    time 0 (the source itself, B_(-1) empty) appears only as the degenerate
    witness of events with threshold <= 0; scans start at t >= 1.
    """

    time: int
    location: tuple[int, ...]


@dataclass(frozen=True)
class EventSpec:
    """Parameters (s, x, n) of a windowed cut-point event."""

    s: float
    x: tuple[float, ...]
    n: int
    alpha: float | None = None  # None: use the dimension default

    def alpha_for(self, d: int) -> float:
        return self.alpha if self.alpha is not None else alpha_default(d)

    def window(self, d: int) -> int:
        return int(self.n ** self.alpha_for(d))

    def window_free(self, d: int) -> int:
        return 4 * self.window(d)

    def time_threshold(self) -> float:
        return self.s * self.n

    def time_threshold_free(self, d: int) -> float:
        return self.s * self.n - 3 * self.window(d)

    def volume_cap(self) -> int:
        return int(self.n ** 1.75)

    def center(self, d: int) -> np.ndarray:
        x = np.asarray(self.x, dtype=float)
        if x.shape != (d,):
            raise GeometryError("event direction has wrong dimension")
        return self.n * x


class EventOutcome(enum.Enum):
    HIT = "hit"
    MISS = "miss"
    DISCONNECTED = "disconnected"
    UNKNOWABLE = "unknowable"


@dataclass
class EventResult:
    outcome: EventOutcome
    witness: CutPointRecord | None = None


def detect_cutpoints(ball: BallGrowth, t_min: int):
    """All certified singleton layers with t >= t_min, increasing in t."""
    if t_min < 1:
        raise PreconditionError("t_min must be >= 1")
    return [
        CutPointRecord(time=t, location=ball.box.vertex_coord(flat))
        for t, flat in ball.singletons(t_min)
    ]


# verdicts of unreached vertices on one ball; 0 means not probed yet
_FINITE = np.int8(1)  # open cluster is finite and avoids every box face
_JOINED = np.int8(2)  # open path to a box face or to the ball's frontier


class BallEventContext:
    """The event candidates of one ball and the window verdicts settled on
    it, shared by every grid scored on that ball.

    ``times`` and ``coords`` list the candidate witnesses in increasing t:
    the source at t = 0 (a witness only of a threshold <= 0), then every
    certified singleton layer. The verdict of every unreached vertex that a
    window probe has settled is kept for later windows of the same ball.
    """

    def __init__(self, sample: PercolationSample, ball: BallGrowth):
        self.sample = sample
        self.ball = ball
        singles = ball.singletons()
        self.times = np.array([0] + [t for t, _ in singles], dtype=np.int64)
        self.coords = ball.box.coords_of_flats(
            [ball.box.flat_index(ball.source)] + [flat for _, flat in singles]
        )
        self._verdict: np.ndarray | None = None  # int8 per vertex, from the first probe


class _Windows:
    """The distinct integer windows [ceil(c - r), floor(c + r)] of a list
    of centres c and radii r on one box.

    ``of[i]`` is the window of centre i, among ``count`` windows. A window
    k inside the box is listed in the group of its extent, whose flat
    offsets added to ``base[k]`` give its flats: a half-integer centre
    coordinate gives the window one vertex fewer along that axis, so the
    windows of one grid can differ in extent. A window that leaves the box
    is in no group.
    """

    def __init__(self, box: BoxSpec, centers: np.ndarray, radii: np.ndarray):
        d = box.dimension
        lo = np.ceil(centers - radii[:, None]).astype(np.int64)
        hi = np.floor(centers + radii[:, None]).astype(np.int64)
        bounds, of = np.unique(np.hstack([lo, hi]), axis=0, return_inverse=True)
        self.of = of.reshape(-1)
        self.count = len(bounds)
        lo, hi = bounds[:, :d], bounds[:, d:]
        low = np.asarray(box.low_corner, dtype=np.int64)
        inside = (lo >= low).all(axis=1) & (hi <= np.asarray(box.high_corner)).all(axis=1)
        self.base = (lo - low) @ np.asarray(box.strides, dtype=np.int64)
        ids = np.flatnonzero(inside)
        extents, group = np.unique((hi - lo + 1)[ids], axis=0, return_inverse=True)
        self.groups = [
            (ids[group.reshape(-1) == g], box.window_flats(low, low + extent).reshape(-1))
            for g, extent in enumerate(extents)
        ]


class EventGrid:
    """A spec sequence with the geometry of its plain or free-line windows
    on one box, ``box``.

    The geometry depends only on the specs and the box, so it is computed
    once and shared by every ball scored on that box: per spec the window
    centre n x, its radius and time threshold, the free-line caps, and the
    index of distinct windows. A spec whose direction does not have the
    box's dimension raises GeometryError.
    """

    def __init__(self, specs, box: BoxSpec, free: bool):
        d = box.dimension
        specs = list(specs)
        self.box = box
        self.free = free
        self.centers = np.array([sp.center(d) for sp in specs]).reshape(len(specs), d)
        if free:
            radii = [sp.window_free(d) for sp in specs]
            thresholds = [sp.time_threshold_free(d) for sp in specs]
        else:
            radii = [sp.window(d) for sp in specs]
            thresholds = [sp.time_threshold() for sp in specs]
        self.radii = np.array(radii, dtype=np.int64)
        self.thresholds = np.array(thresholds, dtype=float)
        self.line_caps = [sp.window(d) for sp in specs]
        self.volume_caps = [sp.volume_cap() for sp in specs]
        self.windows = _Windows(box, self.centers, self.radii)


def event_A(ctx: BallEventContext, grid: EventGrid) -> list:
    """Windowed cut-point event of every spec of a plain grid, in order.

    A witness is a certified singleton layer (t, w) with t >= s n and w
    within sup-distance floor(n^alpha) of n x. Each result holds the least
    witness when the event holds; the scan stops at the ball's certified
    horizon ``resolved_through``.
    """
    if grid.free:
        raise PreconditionError("event_A scores a grid built with free=False")
    return _score(ctx, grid)


def event_A_free(ctx: BallEventContext, grid: EventGrid) -> list:
    """Free-line refinement of the windowed cut-point event, for every
    spec of a free grid, in order.

    A witness (t, w) needs, besides a singleton layer with t >= s n - 3 w0
    and w within 4 w0 of n x (w0 = floor(n^alpha)): an axis line through w
    meeting B_t only at w; some axis j with all line counts through w's
    j-hyperplane slice of B_t at most w0; and |B_t| <= floor(n^(7/4)).
    """
    if not grid.free:
        raise PreconditionError("event_A_free scores a grid built with free=True")
    return _score(ctx, grid)


def _score(ctx: BallEventContext, grid: EventGrid) -> list:
    """One EventResult per spec: the least witness, else MISS when the
    spec's window is certified and UNKNOWABLE when it is not.

    One mask of (spec, candidate) pairs gives the witnesses; a free-line
    spec checks its passing pairs in increasing t. The windows of the
    specs without a witness are certified together, probed in the order
    of their first such spec.
    """
    ok = (ctx.times >= grid.thresholds[:, None]) & (
        np.abs(ctx.coords - grid.centers[:, None, :]).max(axis=2) <= grid.radii[:, None]
    )
    first = np.where(ok.any(axis=1), ok.argmax(axis=1), -1)
    if grid.free:
        for i in np.flatnonzero(first >= 0):
            first[i] = next((
                j for j in np.flatnonzero(ok[i])
                if _free_conditions(
                    ctx.ball, int(ctx.times[j]), ctx.coords[j],
                    grid.line_caps[i], grid.volume_caps[i],
                )
            ), -1)
    of = grid.windows.of
    certified = np.zeros(grid.windows.count, dtype=bool)
    missed = of[first < 0]
    if missed.size:
        _, at = np.unique(missed, return_index=True)
        needed = missed[np.sort(at)]
        certified[needed] = _windows_resolved(ctx, grid.windows, needed)
    results = []
    for j, window in zip(first.tolist(), of.tolist()):
        if j >= 0:
            witness = CutPointRecord(int(ctx.times[j]), tuple(map(int, ctx.coords[j])))
            results.append(EventResult(EventOutcome.HIT, witness))
        elif certified[window]:
            results.append(EventResult(EventOutcome.MISS))
        else:
            results.append(EventResult(EventOutcome.UNKNOWABLE))
    return results


def _windows_resolved(ctx: BallEventContext, windows: _Windows, needed) -> np.ndarray:
    """Whether every possible witness location of each window ``needed[k]``
    has a certified status.

    With no contamination the grown cluster is the full Z^d cluster of the
    source, so every vertex is resolved (finite or truly infinite). With
    contamination a window vertex is resolved when its distance is within
    the certified horizon, or when it is unreached and its own open cluster
    avoids every box face (then it truly never joins the source cluster).
    A window that leaves the box is not resolved.

    One gather of the ball's distances per window extent settles every
    window whose vertices are all within the horizon, or some reached past
    it. The rest go to :func:`_probe_resolved` in the order of ``needed``.
    """
    ball = ctx.ball
    if not ball.contaminated:
        return np.ones(len(needed), dtype=bool)
    wanted = np.zeros(windows.count, dtype=bool)
    wanted[needed] = True
    resolved = np.zeros(windows.count, dtype=bool)
    unsettled = {}
    horizon = np.uint32(ball.resolved_through)
    for ids, offsets in windows.groups:
        ids = ids[wanted[ids]]
        if ids.size == 0:
            continue
        flats = windows.base[ids, None] + offsets
        dvals = ball.dist[flats]
        near = dvals <= horizon
        unreached = dvals == _INF32
        resolved[ids] = near.all(axis=1)
        unsure = ~resolved[ids] & (near | unreached).all(axis=1)
        for k in np.flatnonzero(unsure):
            unsettled[int(ids[k])] = flats[k][unreached[k]]
    for k in map(int, needed):
        if k in unsettled:
            resolved[k] = _probe_resolved(ctx, unsettled[k])
    return resolved[needed]


def _probe_resolved(ctx: BallEventContext, pending: np.ndarray) -> bool:
    """Whether the open clusters of the unreached vertices ``pending`` all
    avoid every box face.

    The vertices without a verdict are probed together, stopping at a face
    or at the frontier ``ball.layers[-1]``. A clean probe marks every
    vertex it reached finite; a failed one marks the predecessor path from
    each face or frontier vertex it reached back to its source joined. A
    later window with a joined unreached vertex fails without a probe.
    """
    ball = ctx.ball
    if ctx._verdict is not None:
        status = ctx._verdict[pending]
        if (status == _JOINED).any():
            return False
        pending = pending[status == 0]
        if pending.size == 0:
            return True
    probe = grow_ball_flats(
        ctx.sample, pending, targets=ball.layers[-1], stop_at_boundary=True
    )
    clean = probe.exhausted and not probe.contaminated
    if clean:
        marked = np.concatenate(probe.layers)
    else:
        # the probe stopped right after its first layer with a face or
        # frontier vertex, so every such vertex it reached is in that layer
        last = probe.layers[-1]
        ends = last[ball.box.face_flat[last] | (ball.dist[last] == np.uint32(ball.last_time))]
        path = []
        while ends.size:  # merging paths repeat vertices, never grow in number
            path.append(ends)
            ends = probe.pred[ends]
            ends = ends[ends >= 0]
        marked = np.concatenate(path)
    # the verdicts are allocated once the probe's arrays are freed, so that
    # they do not raise the peak memory of a one-window ball
    del probe
    if ctx._verdict is None:
        ctx._verdict = np.zeros(ball.box.n_vertices, dtype=np.int8)
    ctx._verdict[marked] = _FINITE if clean else _JOINED
    return clean


def _free_conditions(ball: BallGrowth, t: int, coord, line_cap: int, volume_cap) -> bool:
    """|B_t| <= volume_cap, some axis line through coord meets B_t only at
    coord, and for some other axis j every line count of coord's
    j-hyperplane slice of B_t is at most line_cap."""
    box = ball.box
    d = box.dimension
    if int(ball.ball_sizes[t]) > volume_cap:
        return False
    wf = box.flat_index(coord)
    gi = box.grid_index(coord)
    tt = np.uint32(t)

    free_axes = []
    for axis in range(d):
        start = wf - gi[axis] * box.strides[axis]
        line = start + np.arange(box.side, dtype=np.int64) * box.strides[axis]
        if int((ball.dist[line] <= tt).sum()) == 1:  # only w itself
            free_axes.append(axis)
    if not free_axes:
        return False

    coords = box.coords_of_flats(np.concatenate(ball.layers[: t + 1]))
    for j in range(d):
        if free_axes == [j]:
            continue
        slab = coords[coords[:, j] == coord[j]]
        if all(line_count(slab, k) <= line_cap for k in range(d) if k != j):
            return True
    return False


def line_count(points, axis: int) -> int:
    """Number of distinct axis lines meeting the point set."""
    arr = np.asarray(list(points) if not isinstance(points, np.ndarray) else points)
    if arr.size == 0:
        return 0
    arr = arr.reshape(len(arr), -1).copy()
    arr[:, axis] = 0
    return len(np.unique(arr, axis=0))


# ---------------------------------------------------------------------------
# surgery


@dataclass(frozen=True)
class SurgeryPlan:
    """Edges to force closed and open; the two sets must not overlap."""

    close_edges: tuple
    open_edges: tuple = ()

    def __post_init__(self):
        close = tuple(sorted(set(int(e) for e in self.close_edges)))
        open_ = tuple(sorted(set(int(e) for e in self.open_edges)))
        if set(close) & set(open_):
            raise SurgeryPlanError("close and open sets overlap")
        object.__setattr__(self, "close_edges", close)
        object.__setattr__(self, "open_edges", open_)

    @property
    def size(self) -> int:
        return len(self.close_edges) + len(self.open_edges)


def apply_surgery(sample: PercolationSample, plan: SurgeryPlan) -> PercolationSample:
    """New sample with the plan applied; the input is untouched."""
    ne = sample.box.n_edges
    for e in plan.close_edges + plan.open_edges:
        if not 0 <= e < ne:
            raise SurgeryPlanError(f"edge index {e} out of range")
    return sample.with_edges(plan.close_edges, plan.open_edges)


def force_cutpoint(
    sample: PercolationSample,
    ball: BallGrowth,
    t: int,
    w,
    k: int,
) -> SurgeryPlan:
    """Closing plan that turns (t, w) into a cut-point of the regrown ball.

    Requires w in layer t and |B_t| <= k. Picks the largest r in
    (t - floor(sqrt k) - 1, t] whose layer has at most floor(sqrt k)
    vertices (for t < floor(sqrt k) the window reaches layer 0, a
    singleton, which only shrinks the plan), then closes every non-geodesic
    edge incident to the geodesic tail past B_(r-1) together with every
    non-geodesic edge from layer r back to B_(r-1). The plan closes at most
    4 d sqrt(k) edges and never opens any, so no distance can decrease.
    """
    box = sample.box
    wt = tuple(int(c) for c in w)
    ft = box.flat_index(wt)
    if t < 0 or t > ball.last_time:
        raise PreconditionError(f"time {t} outside the grown ball")
    if ball.contaminated and t > ball.resolved_through:
        raise ContaminatedBallError("target time is past the certified layers")
    if ball.dist[ft] != np.uint32(t):
        raise PreconditionError("w is not in layer t")
    if int(ball.ball_sizes[t]) > k:
        raise PreconditionError(f"|B_t| = {int(ball.ball_sizes[t])} exceeds k = {k}")
    root_k = math.isqrt(k)

    r = None
    for cand in range(t, max(-1, t - root_k - 1), -1):
        if len(ball.layers[cand]) <= root_k:
            r = cand
            break
    if r is None:
        raise PreconditionError("no thin layer found below t (|B_t| > k?)")

    gamma = geodesic(ball, wt)
    gamma_edges = set()
    for u, v in zip(gamma, gamma[1:]):
        axis = next(i for i in range(box.dimension) if u[i] != v[i])
        base = u if v[axis] > u[axis] else v
        gamma_edges.add(box.edge_index(base, axis))

    close = set()
    # edges hanging off the geodesic tail past B_(r-1)
    for v in gamma[r:]:
        for eidx, _ in box.incident_edges(v):
            if eidx not in gamma_edges:
                close.add(eidx)
    # edges from layer r back into B_(r-1)
    if r >= 1:
        rm1 = np.uint32(r - 1)
        for flat in ball.layers[r]:
            coord = box.vertex_coord(flat)
            for eidx, nb in box.incident_edges(coord):
                if ball.dist[box.flat_index(nb)] <= rm1 and eidx not in gamma_edges:
                    close.add(eidx)
    return SurgeryPlan(close_edges=tuple(sorted(close)))


def upper_tail_outcome(distance, threshold: float) -> EventOutcome:
    """Outcome of the tri-state upper-tail event threshold < D < inf for a
    distance from :meth:`BallGrowth.certified_distance` (None: unknowable)."""
    if distance is None:
        return EventOutcome.UNKNOWABLE
    if distance == math.inf:
        return EventOutcome.DISCONNECTED
    return EventOutcome.HIT if distance > threshold else EventOutcome.MISS

