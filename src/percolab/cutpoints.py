"""Space-time cut-points: detection, windowed events, edge surgery.

A space-time cut-point of a ball grown from the origin is a pair (t, w)
whose distance-t layer is the single vertex w: every path leaving B_t goes
through w. The windowed event asks for such a pair with t >= s*n and w
within sup-distance floor(n^alpha) of n*x; the free-line refinement
additionally demands an axis line meeting the ball only at w, thin line
counts through w's hyperplane, and a volume cap floor(n^(7/4)).

Event evaluation is honest about the finite box: an outcome is only
reported as a hit or miss when the grown layers certify it for the infinite
lattice; otherwise it is unknowable.
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
from .metric import (
    BallGrowth,
    _INF32,
    geodesic,
    grow_ball,
    grow_ball_flats,
)


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
    axes: tuple[int, int] | None = None  # free-line / hyperplane axes
    cap_time: int | None = None  # scan horizon actually certified


def detect_cutpoints(ball: BallGrowth, t_min: int, t_max: int | None = None):
    """All singleton layers with t_min <= t (<= t_max), increasing in t.

    Raises when the requested range extends past the certified layers of a
    boundary-contaminated ball.
    """
    if t_min < 1:
        raise PreconditionError("t_min must be >= 1")
    if t_max is not None and min(t_max, ball.last_time) > ball.resolved_through:
        raise ContaminatedBallError(
            f"layers beyond t={ball.resolved_through} are not certified"
        )
    return [
        CutPointRecord(time=t, location=ball.box.vertex_coord(flat))
        for t, flat in ball.singletons(t_min, t_max)
    ]


class BallEventContext:
    """Caches shared work when many specs are evaluated on one ball."""

    def __init__(self, sample: PercolationSample, ball: BallGrowth):
        self.sample = sample
        self.ball = ball
        self.singletons = [
            (t, ball.box.coords_of_flats([flat])[0]) for t, flat in ball.singletons()
        ]
        self._resolved: dict = {}

    def window_resolved(self, center: np.ndarray, radius: int) -> bool:
        key = (center.tobytes(), radius)
        hit = self._resolved.get(key)
        if hit is None:
            hit = _window_resolved(self.sample, self.ball, center, radius)
            self._resolved[key] = hit
        return hit


def _window_resolved(sample, ball: BallGrowth, center: np.ndarray, radius: int) -> bool:
    """Every possible witness location has a certified status.

    With no contamination the grown cluster is the full Z^d cluster of the
    source, so every vertex is resolved (finite or truly infinite). With
    contamination a window vertex is resolved when its distance is within
    the certified horizon, or when it is unreached and its own open cluster
    avoids every box face (then it truly never joins the source cluster).
    """
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
    # unreached vertices are certified never-witnesses when their own open
    # clusters avoid every face; probe them together, stopping at a face
    probe = grow_ball_flats(sample, flats[unreached], stop_at_boundary=True)
    return probe.exhausted and not probe.contaminated


def _in_window(coord, center: np.ndarray, radius: int) -> bool:
    return bool(np.max(np.abs(np.asarray(coord, dtype=float) - center)) <= radius)


def _boundary_stat_ok(ball: BallGrowth, t: int, cap: float) -> bool:
    """Sufficient check for the enclosing-contour event: the exterior vertex
    boundary of B_t has at most ``cap`` vertices."""
    from .combinatorics import exterior_boundary

    flats = np.concatenate(ball.layers[: t + 1])
    coords = ball.box.coords_of_flats(flats)
    bnd = exterior_boundary(map(tuple, coords))
    return len(bnd.boundary) <= cap


def event_A(
    sample: PercolationSample,
    spec: EventSpec,
    K: float | None = None,
    *,
    ball: BallGrowth | None = None,
    window: int | None = None,
) -> EventResult:
    """Windowed cut-point event for the ball grown from the lattice origin.

    Returns the least witness time when the event holds. With ``K`` given,
    a witness additionally needs an exterior ball boundary of size <= K*n.
    The scan is capped at ball exhaustion (recorded in ``cap_time``).
    """
    box = sample.box
    d = box.dimension
    ctx = _as_context(sample, ball)
    w_rad = spec.window(d) if window is None else window
    center = spec.center(d)
    threshold = spec.time_threshold()
    return _eval_windowed(
        ctx, center, w_rad, threshold, K,
        n=spec.n, free=False, alpha_window=spec.window(d),
        volume_cap=spec.volume_cap(),
    )


def event_A_free(
    sample: PercolationSample,
    spec: EventSpec,
    K: float | None = None,
    *,
    ball: BallGrowth | None = None,
) -> EventResult:
    """Free-line refinement of the windowed cut-point event.

    A witness (t, w) needs, besides a singleton layer with t >= s n - 3 w0
    and w within 4 w0 of n x (w0 = floor(n^alpha)): an axis line through w
    meeting B_t only at w; some axis j with all line counts through w's
    j-hyperplane slice of B_t at most w0; and |B_t| <= floor(n^(7/4)).
    """
    d = sample.box.dimension
    ctx = _as_context(sample, ball)
    return _eval_windowed(
        ctx, spec.center(d), spec.window_free(d),
        spec.time_threshold_free(d), K,
        n=spec.n, free=True, alpha_window=spec.window(d),
        volume_cap=spec.volume_cap(),
    )


def _as_context(sample, ball):
    if isinstance(ball, BallEventContext):
        return ball
    if ball is None:
        origin = (0,) * sample.box.dimension
        ball = grow_ball(sample, origin, stop_at_boundary=True)
    return BallEventContext(sample, ball)


def _eval_windowed(
    ctx: BallEventContext, center, w_rad, threshold, K, *, n, free,
    alpha_window, volume_cap,
):
    ball = ctx.ball
    horizon = ball.resolved_through
    candidates = []
    if threshold <= 0:
        candidates.append((0, np.asarray(ball.source, dtype=np.int64)))
    candidates.extend((t, c) for t, c in ctx.singletons if t >= threshold)
    for t, coord in candidates:
        if not _in_window(coord, center, w_rad):
            continue
        if K is not None and not _boundary_stat_ok(ball, t, K * n):
            continue
        if free:
            ok, axes = _free_conditions(ball, t, coord, alpha_window, volume_cap)
            if not ok:
                continue
            return EventResult(
                outcome=EventOutcome.HIT,
                witness=CutPointRecord(t, tuple(int(c) for c in coord)),
                axes=axes,
                cap_time=horizon,
            )
        return EventResult(
            outcome=EventOutcome.HIT,
            witness=CutPointRecord(t, tuple(int(c) for c in coord)),
            cap_time=horizon,
        )
    if ctx.window_resolved(center, w_rad):
        return EventResult(outcome=EventOutcome.MISS, cap_time=horizon)
    return EventResult(outcome=EventOutcome.UNKNOWABLE, cap_time=horizon)


def _free_conditions(ball: BallGrowth, t: int, coord, line_cap: int, volume_cap):
    box = ball.box
    d = box.dimension
    if int(ball.ball_sizes[t]) > volume_cap:
        return False, None
    wf = box.flat_index(coord)
    gi = box.grid_index(coord)
    tt = np.uint32(t)

    line_ok = []
    for axis in range(d):
        start = wf - gi[axis] * box.strides[axis]
        line = start + np.arange(box.side, dtype=np.int64) * box.strides[axis]
        inside = ball.dist[line] <= tt
        line_ok.append(int(inside.sum()) == 1)  # only w itself
    if not any(line_ok):
        return False, None

    ball_flats = np.concatenate(ball.layers[: t + 1])
    coords = box.coords_of_flats(ball_flats)
    hyper_ok = []
    for j in range(d):
        sel = coords[:, j] == coord[j]
        slab = coords[sel]
        ok = True
        for k in range(d):
            if k == j:
                continue
            if line_count(slab, k) > line_cap:
                ok = False
                break
        hyper_ok.append(ok)
    for i in range(d):
        if not line_ok[i]:
            continue
        for j in range(d):
            if j != i and hyper_ok[j]:
                return True, (i, j)
    return False, None


def line_count(points, axis: int) -> int:
    """Number of distinct axis lines meeting the point set."""
    arr = np.asarray(list(points) if not isinstance(points, np.ndarray) else points)
    if arr.size == 0:
        return 0
    arr = arr.reshape(len(arr), -1).copy()
    arr[:, axis] = 0
    return len(np.unique(arr, axis=0))


def evaluate_event_grid(
    sample: PercolationSample,
    specs,
    K: float | None = None,
    *,
    free: bool = False,
):
    """Evaluate several event specs against one shared ball (coupled)."""
    ctx = _as_context(sample, None)
    fn = event_A_free if free else event_A
    return [fn(sample, spec, K, ball=ctx) for spec in specs]


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


def upper_tail_event(
    sample: PercolationSample,
    n: int,
    xi: float,
    mu_hat: float,
    x=None,
) -> EventResult:
    """Tri-state upper-tail event mu_hat (1+xi) n < D(0, floor(n x)) < inf.

    Default direction is the first coordinate vector. The witness field
    carries (D, target) when the distance is certified finite.
    """
    d = sample.box.dimension
    if x is None:
        x = (1.0,) + (0.0,) * (d - 1)
    target = tuple(int(math.floor(n * float(c))) for c in x)
    dist = grow_ball(
        sample, (0,) * d,
        targets=[sample.box.flat_index(target)], stop_at_boundary=True,
    ).certified_distance(target)
    outcome = upper_tail_outcome(dist, mu_hat * (1.0 + xi) * n)
    finite = outcome in (EventOutcome.HIT, EventOutcome.MISS)
    return EventResult(outcome, CutPointRecord(dist, target) if finite else None)
