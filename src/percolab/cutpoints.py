"""Space-time cut-points: detection, windowed events, edge surgery.

A space-time cut-point of a ball grown from the origin is a pair (t, w)
whose distance-t layer is the single vertex w: every path leaving B_t goes
through w. The windowed event asks for such a pair with t >= s*n and w
within sup-distance floor(n^alpha) of n*x; the free-line refinement
additionally demands an axis line meeting the ball only at w, thin line
counts through w's hyperplane, and a volume cap floor(n^(7/4)).

Both events are scored by ``event_A(ctx, spec)`` and
``event_A_free(ctx, spec)`` on a :class:`BallEventContext`: the ball grown
from the origin until its first face contact, with its certified singleton
layers and window verdicts shared by every spec evaluated on it.

Event evaluation is honest about the finite box: an outcome is only
reported as a hit or miss when the grown layers certify it for the infinite
lattice; otherwise it is unknowable.

A miss on a face-contaminated ball needs every window vertex resolved: within
the certified horizon, or unreached with an open cluster that avoids every
box face. The unreached ones are probed together by a second growth that
stops at a face or at the ball's frontier ``layers[-1]``: an open edge from
an unreached vertex into the ball lands in its last layer, so reaching the
frontier proves the vertex joins the source cluster, which touches a face.
Each vertex's verdict (in a finite cluster, or joined to a face) is exact,
so :class:`BallEventContext` keeps it for every later window of that ball.
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
from .lattice import PercolationSample
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
    """Caches shared work when many specs are evaluated on one ball: its
    certified singleton layers, each window's certificate, and the verdict
    of every vertex a window probe has settled."""

    def __init__(self, sample: PercolationSample, ball: BallGrowth):
        self.sample = sample
        self.ball = ball
        self.singletons = [
            (t, ball.box.coords_of_flats([flat])[0]) for t, flat in ball.singletons()
        ]
        self._resolved: dict = {}
        self._verdict: np.ndarray | None = None  # int8 per vertex, from the first probe

    def window_resolved(self, center: np.ndarray, radius: int) -> bool:
        key = (center.tobytes(), radius)
        hit = self._resolved.get(key)
        if hit is None:
            hit = _window_resolved(self, center, radius)
            self._resolved[key] = hit
        return hit


def _window_resolved(ctx: BallEventContext, center: np.ndarray, radius: int) -> bool:
    """Every possible witness location has a certified status.

    With no contamination the grown cluster is the full Z^d cluster of the
    source, so every vertex is resolved (finite or truly infinite). With
    contamination a window vertex is resolved when its distance is within
    the certified horizon, or when it is unreached and its own open cluster
    avoids every box face (then it truly never joins the source cluster).

    The unreached vertices without a verdict are probed together, stopping
    at a face or at the frontier ``ball.layers[-1]``. A clean probe marks
    every vertex it reached finite; a failed one marks the predecessor path
    from each face or frontier vertex it reached back to its source joined.
    A later window with a joined unreached vertex fails without a probe.
    """
    ball = ctx.ball
    if not ball.contaminated:
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
    unreached = dvals == _INF32
    if not (near | unreached).all():
        return False
    pending = flats[unreached]
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


def _in_window(coord, center: np.ndarray, radius: int) -> bool:
    return bool(np.max(np.abs(np.asarray(coord, dtype=float) - center)) <= radius)


def event_A(ctx: BallEventContext, spec: EventSpec) -> EventResult:
    """Windowed cut-point event on the context's ball.

    A witness is a certified singleton layer (t, w) with t >= s n and w
    within sup-distance floor(n^alpha) of n x. Returns the least witness
    time when the event holds; the scan stops at the ball's certified
    horizon ``resolved_through``.
    """
    return _eval_windowed(ctx, spec, free=False)


def event_A_free(ctx: BallEventContext, spec: EventSpec) -> EventResult:
    """Free-line refinement of the windowed cut-point event.

    A witness (t, w) needs, besides a singleton layer with t >= s n - 3 w0
    and w within 4 w0 of n x (w0 = floor(n^alpha)): an axis line through w
    meeting B_t only at w; some axis j with all line counts through w's
    j-hyperplane slice of B_t at most w0; and |B_t| <= floor(n^(7/4)).
    """
    return _eval_windowed(ctx, spec, free=True)


def _eval_windowed(ctx: BallEventContext, spec: EventSpec, free: bool) -> EventResult:
    """The least witness of the plain or free-line event, else MISS when
    the window is certified and UNKNOWABLE when it is not."""
    ball = ctx.ball
    d = ball.box.dimension
    center = spec.center(d)
    if free:
        radius, threshold = spec.window_free(d), spec.time_threshold_free(d)
    else:
        radius, threshold = spec.window(d), spec.time_threshold()
    candidates = []
    if threshold <= 0:
        candidates.append((0, np.asarray(ball.source, dtype=np.int64)))
    candidates.extend((t, c) for t, c in ctx.singletons if t >= threshold)
    for t, coord in candidates:
        if not _in_window(coord, center, radius):
            continue
        if free and not _free_conditions(
            ball, t, coord, spec.window(d), spec.volume_cap()
        ):
            continue
        return EventResult(
            outcome=EventOutcome.HIT,
            witness=CutPointRecord(t, tuple(int(c) for c in coord)),
        )
    if ctx.window_resolved(center, radius):
        return EventResult(outcome=EventOutcome.MISS)
    return EventResult(outcome=EventOutcome.UNKNOWABLE)


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

