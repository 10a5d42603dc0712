"""Space-time cut-points: detection, windowed events, edge surgery.

A space-time cut-point of a ball grown from the origin is a pair (t, w)
whose distance-t layer is the single vertex w: every path leaving B_t goes
through w. The windowed event asks for such a pair with t >= s*n and w
within sup-distance floor(n^alpha) of n*x; the free-line refinement
additionally demands an axis line meeting the ball only at w, thin line
counts through w's hyperplane, and a volume cap floor(n^(7/4)).

A grid of events is the product s_grid x x_grid at one n and one window
exponent alpha, so every event of it has the same window w = floor(n^alpha)
(:func:`window_radius`). :class:`EventGrid` holds what depends only on the
grid and the box: per event (s-major) its window centre n x and time
threshold, once per grid the window radius and the free-line caps, and the
index of distinct windows. It is built once and shared by every replicate
on that box, which ``estimators._event_grid`` sizes by the plain window w:
a free-line window, of radius 4 w, may leave it, and then a miss of that
event cannot be certified on a face-contaminated ball.

``event_A(ball, grid)`` and ``event_A_free(ball, grid)`` return one result
per event for the ball grown from the origin until its first face contact,
or stopped earlier by the predicate ``grid.windows.settle(sample)`` once
the grid's window vertices are settled (:meth:`_Windows.settle`); both
balls give every event the same outcome and the same least witness. The
ball is the one handle on its sample (``BallGrowth.sample``), and it must
be on the grid's box. The witnesses come from one mask over (event,
candidate) pairs, the candidates being the ball's certified singleton
layers; the windows of the events without one are certified together.

Event evaluation is honest about the finite box: an outcome is only
reported as a hit or miss when the grown layers certify it for the infinite
lattice; otherwise it is unknowable.

A miss on any ball but an exhausted or settled one that never touched a
face needs every window vertex resolved: within the certified horizon, or
unreached with an open cluster that avoids every box face and the ball. One
gather of the ball's distances per window extent settles most windows. The
unreached vertices of each remaining window are one set, and every set is
probed by a growth that stops at a face or at the ball: an open edge from an
unreached vertex into the ball lands in its frontier ``layers[-1]``, so
reaching the ball proves the set joins the source cluster past the
certified horizon. Up to 64 sets share one growth, each carried as one bit
of a word per vertex and searched alone (:func:`_lane_probe`), so a
window's verdict depends on no other window.

Surgery only closes edges: :func:`force_cutpoint` returns the sorted tuple
of edges to close, and :func:`apply_surgery` closes them in a copy of the
sample. Closing edges cannot shorten any path, so no distance falls.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import ContaminatedBallError, GeometryError, PreconditionError
from .lattice import BoxSpec, PercolationSample
from .metric import BallGrowth, _INF32, geodesic, grow_ball_flats


def window_radius(d: int, n: int, alpha: float | None) -> int:
    """The window floor(n^alpha) of the events at n; alpha None is the
    dimension default 1 - 1/(6d), whose floor is worked out in integers:
    the largest w with w^(6d) <= n^(6d - 1)."""
    if alpha is not None:
        return int(n ** alpha)
    k = 6 * d
    w = round(n ** (1 - 1 / k))
    return w if w ** k <= n ** (k - 1) else w - 1


@dataclass(frozen=True)
class CutPointRecord:
    """Singleton layer: B_t minus B_(t-1) = {location}.

    time 0 (the source itself, B_(-1) empty) appears only as the degenerate
    witness of events with threshold <= 0; scans start at t >= 1.
    """

    time: int
    location: tuple[int, ...]


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


class _Windows:
    """The distinct integer windows [ceil(c - r), floor(c + r)] of a list
    of centres c and one radius r on one box.

    ``of[i]`` is the window of centre i, among ``count`` windows. A window
    k inside the box is listed in the group of its extent, whose flat
    offsets added to ``base[k]`` give its flats: a half-integer centre
    coordinate gives the window one vertex fewer along that axis, so the
    windows of one grid can differ in extent. A window that leaves the box
    is in no group.

    ``mask`` and ``flats`` hold every vertex of every window, as a bool
    mask over the box's flats and as sorted flats; both are None when some
    window leaves the box.
    """

    def __init__(self, box: BoxSpec, centers: np.ndarray, radius: int):
        d = box.dimension
        lo = np.ceil(centers - radius).astype(np.int64)
        hi = np.floor(centers + radius).astype(np.int64)
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
        self.mask = self.flats = None
        if self.count and inside.all():
            self.mask = np.zeros(box.n_vertices, dtype=bool)
            for ids, offsets in self.groups:
                self.mask[self.base[ids, None] + offsets] = True
            self.flats = np.flatnonzero(self.mask)

    def settle(self, sample):
        """The predicate ``settle(dist, frontier)`` with which the kernel
        stops the origin ball of ``sample`` once every window vertex is
        settled: reached, or in an open cluster that is finite, avoids every
        box face and misses the ball. A witness is a singleton layer {w}
        with w in a window, and a miss of the ball grown to its first face
        contact means that its unreached window vertices are settled too, so
        both balls give every event the same outcome and least witness, and
        :func:`_windows_resolved` takes the settled ball's windows as
        resolved without a probe. None when some window leaves the box: only
        an exhausted ball that never touched a face certifies such a window.

        One :func:`_probe` from the unreached window vertices checks the
        second case; any open edge into the ball from outside lands in the
        frontier, where the probe stops. It is tried at a layer that reaches
        no window vertex, if it has no more sources than the layer has
        vertices, and after a failed one only once a window vertex was
        reached. Settled vertices stay settled, so this schedule decides only
        where a settled ball stops, not what it certifies.
        """
        if self.mask is None:
            return None
        unsettled, due = self.flats, True  # due: a probe may find them settled

        def settled(dist, frontier) -> bool:
            nonlocal unsettled, due
            if np.count_nonzero(self.mask[frontier]):
                due = True
            elif due:
                unsettled = unsettled[dist[unsettled] == _INF32]
                if unsettled.size <= frontier.size:
                    due = False
                    return _probe(sample, unsettled, frontier)
            return False

        return settled


class EventGrid:
    """The events (s, x) of ``s_grid`` x ``x_grid`` at one n and one window
    exponent, s-major, with the geometry of their plain or free-line
    windows on one box, ``box``.

    Every event has the window w = floor(n^alpha) of :func:`window_radius`,
    so the grid holds once ``window`` w (also the free-line line cap),
    ``radius`` (w, or 4 w for a free-line event) and ``volume_cap``
    floor(n^(7/4)); and per event its (s, x) in ``events``, its window
    centre n x in ``centers`` and its time threshold s n (s n - 3 w for a
    free-line event) in ``thresholds``. The geometry is computed once and
    shared by every ball scored on that box. A direction that does not have
    the box's dimension raises GeometryError.
    """

    def __init__(self, box: BoxSpec, s_grid, x_grid, n: int, *, alpha, free: bool):
        d = box.dimension
        if any(len(x) != d for x in x_grid):
            raise GeometryError("event direction has wrong dimension")
        self.box = box
        self.free = free
        self.events = [(s, x) for s in s_grid for x in x_grid]
        self.window = window_radius(d, n, alpha)
        self.radius = 4 * self.window if free else self.window
        self.volume_cap = int(n ** 1.75)
        self.centers = n * np.array([x for _, x in self.events], dtype=float).reshape(-1, d)
        times = np.array([s for s, _ in self.events], dtype=float) * n
        self.thresholds = times - 3 * self.window if free else times
        self.windows = _Windows(box, self.centers, self.radius)


def event_A(ball: BallGrowth, grid: EventGrid) -> list:
    """Windowed cut-point event of every event of a plain grid, in order,
    on ``ball``, grown from the origin until its first face contact or
    until the grid's window vertices are settled (``grow_ball(sample, ...,
    settle=grid.windows.settle(sample))``).

    A witness is a certified singleton layer (t, w) with t >= s n and w
    within sup-distance floor(n^alpha) of n x. Each result holds the least
    witness when the event holds; the scan stops at the ball's certified
    horizon ``resolved_through``.
    """
    if grid.free:
        raise PreconditionError("event_A scores a grid built with free=False")
    return _score(ball, grid)


def event_A_free(ball: BallGrowth, grid: EventGrid) -> list:
    """Free-line refinement of the windowed cut-point event, for every
    event of a free grid, in order, on ``ball`` as in :func:`event_A`.

    A witness (t, w) needs, besides a singleton layer with t >= s n - 3 w0
    and w within 4 w0 of n x (w0 = floor(n^alpha)): an axis line through w
    meeting B_t only at w; some axis j with all line counts through w's
    j-hyperplane slice of B_t at most w0; and |B_t| <= floor(n^(7/4)).
    """
    if not grid.free:
        raise PreconditionError("event_A_free scores a grid built with free=True")
    return _score(ball, grid)


def _score(ball: BallGrowth, grid: EventGrid) -> list:
    """One EventResult per event: the least witness, else MISS when the
    event's window is certified and UNKNOWABLE when it is not. A ball on
    another box than the grid's raises PreconditionError.

    The candidate witnesses, in increasing t, are the source ``layers[0]``
    at t = 0 (a witness only of a threshold <= 0) and every certified
    singleton layer. One mask of (event, candidate) pairs gives the
    witnesses; a free-line event checks its passing pairs in increasing t.
    The windows of the events without a witness are certified together.
    """
    box = ball.box
    if box != grid.box:
        raise PreconditionError(f"a ball on {box} scored on a grid on {grid.box}")
    singles = ball.singletons()
    times = np.array([0] + [t for t, _ in singles], dtype=np.int64)
    coords = box.coords_of_flats([int(ball.layers[0][0])] + [flat for _, flat in singles])
    ok = (times >= grid.thresholds[:, None]) & (
        np.abs(coords - grid.centers[:, None, :]).max(axis=2) <= grid.radius
    )
    first = np.where(ok.any(axis=1), ok.argmax(axis=1), -1)
    if grid.free:
        for i in np.flatnonzero(first >= 0):
            first[i] = next((
                j for j in np.flatnonzero(ok[i])
                if _free_conditions(
                    ball, int(times[j]), coords[j], grid.window, grid.volume_cap
                )
            ), -1)
    of = grid.windows.of
    certified = np.zeros(grid.windows.count, dtype=bool)
    missed = of[first < 0]
    certified[missed] = _windows_resolved(ball, grid.windows, missed)
    results = []
    for j, window in zip(first.tolist(), of.tolist()):
        if j >= 0:
            witness = CutPointRecord(int(times[j]), tuple(map(int, coords[j])))
            results.append(EventResult(EventOutcome.HIT, witness))
        elif certified[window]:
            results.append(EventResult(EventOutcome.MISS))
        else:
            results.append(EventResult(EventOutcome.UNKNOWABLE))
    return results


def _windows_resolved(ball: BallGrowth, windows: _Windows, needed) -> np.ndarray:
    """Whether every possible witness location of each window ``needed[k]``
    has a certified status.

    An exhausted ball that never touched a face is the full Z^d cluster of
    the source, and a settled one (``grid.windows.settle(sample)``)
    certified every window vertex as it stopped, so every window is
    resolved. On any other ball, stopped at a face, at ``t_max`` or at a
    target, a window vertex is resolved when its distance is within the
    certified horizon, or when it is unreached and its own open cluster
    avoids every box face and the ball (then it truly never joins the
    source cluster). A window that leaves the box is not resolved.

    One gather of the ball's distances per window extent settles every
    window whose vertices are all within the horizon, or some reached past
    it. The unreached vertices of each other window are one set, and
    :func:`_lane_probe` gives the verdict of up to 64 sets per growth.
    """
    if (ball.exhausted or ball.settled) and not ball.contaminated:
        return np.ones(len(needed), dtype=bool)
    wanted = np.zeros(windows.count, dtype=bool)
    wanted[needed] = True
    resolved = np.zeros(windows.count, dtype=bool)
    unsure, sources = [], []
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
        for k in np.flatnonzero(~resolved[ids] & (near | unreached).all(axis=1)):
            unsure.append(int(ids[k]))
            sources.append(flats[k][unreached[k]])
    for at in range(0, len(sources), 64):
        resolved[unsure[at : at + 64]] = _lane_probe(ball, sources[at : at + 64])
    return resolved[needed]


def _lane_probe(ball: BallGrowth, sources) -> np.ndarray:
    """Whether each of the (at most 64) sets ``sources`` of unreached
    vertices of ``ball`` is clean: its open clusters are finite and avoid
    every box face and the ball. A lone set is one :func:`_probe`.

    Set k is lane k, bit k of a uint64 word per vertex, and its bits are
    the breadth-first search of that set alone in ``ball.sample``. A lane
    is joined at its first layer with a face or ball vertex, where the
    probe of that set alone stops, and a lane that dies out is clean. Each
    layer merges the words arriving at a vertex, marks them seen and
    spreads them along open edges as ``metric._next_layer`` does; an
    arrival keeps only the lanes still searching that have not seen its
    vertex. An unreached vertex enters the ball only through its frontier,
    so stopping at a ball vertex is stopping at the frontier.
    """
    if len(sources) == 1:
        return np.array([_probe(ball.sample, sources[0], ball.layers[-1])])
    box = ball.box
    steps = list(zip(box.strides, ball.sample.axis_open_flats()))
    seen, arrived = np.zeros((2, box.n_vertices), dtype=np.uint64)
    lanes = np.arange(len(sources), dtype=np.uint64)
    front = np.concatenate(sources)
    bits = np.uint64(1) << lanes
    words = np.repeat(bits, [len(flats) for flats in sources])
    joined, every = np.uint64(0), np.bitwise_or.reduce(bits)
    while front.size and joined != every:
        # ufunc.at: a fancy |= would keep one word of a repeated vertex
        np.bitwise_or.at(arrived, front, words)
        front.sort()
        front = front[np.concatenate(([True], front[1:] != front[:-1]))]
        words = arrived[front]
        arrived[front] = 0
        seen[front] |= words
        stop = box.face_flat[front] | (ball.dist[front] != _INF32)
        if np.count_nonzero(stop):
            joined |= np.bitwise_or.reduce(words[stop])
        moves = []
        for st, op in steps:
            # a negative flat wraps, which is safe as in metric._next_layer
            low = front - st
            up, down = np.flatnonzero(op[front]), np.flatnonzero(op[low])
            moves += [(front[up] + st, words[up]), (low[down], words[down])]
        front, words = (np.concatenate(part) for part in zip(*moves))
        words &= ~(seen[front] | joined)  # the searching lanes that have not seen it
        live = np.flatnonzero(words)
        front, words = front[live], words[live]
    return (joined >> lanes) & np.uint64(1) == 0


def _probe(sample: PercolationSample, flats, frontier) -> bool:
    """Whether the growth in ``sample`` from the unreached vertices
    ``flats`` of a ball whose last layer is ``frontier``, stopped at a face
    or at the frontier, is clean: exhausted without touching either, so
    their open clusters are finite and avoid every face and the ball."""
    probe = grow_ball_flats(sample, flats, targets=frontier, stop_at_boundary=True)
    return probe.exhausted and not probe.contaminated


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


def line_count(points: np.ndarray, axis: int) -> int:
    """Number of distinct axis lines meeting the non-empty (m, d) point
    array."""
    arr = points.copy()
    arr[:, axis] = 0
    return len(np.unique(arr, axis=0))


# ---------------------------------------------------------------------------
# surgery


def apply_surgery(sample: PercolationSample, close_edges) -> PercolationSample:
    """New sample with the edges ``close_edges`` (canonical indexes)
    closed; the input is untouched. An index outside the box's edges
    raises GeometryError."""
    ne = sample.box.n_edges
    for e in close_edges:
        if not 0 <= e < ne:
            raise GeometryError(f"edge index {e} out of range [0, {ne})")
    return sample.with_edges(close_edges)


def force_cutpoint(ball: BallGrowth, t: int, w, k: int) -> tuple:
    """The sorted edges whose closing turns (t, w) into a cut-point of
    ``ball`` regrown in :func:`apply_surgery` of its sample and them.

    Requires w in layer t and |B_t| <= k. Picks the largest r in
    (t - floor(sqrt k) - 1, t] whose layer has at most floor(sqrt k)
    vertices (for t < floor(sqrt k) the window reaches layer 0, a
    singleton, which only shrinks the plan), then closes every non-geodesic
    edge incident to the geodesic tail past B_(r-1) together with every
    non-geodesic edge from layer r back to B_(r-1). The plan closes at most
    4 d sqrt(k) edges; surgery only closes edges, so no distance can
    decrease.
    """
    box = ball.box
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
    return tuple(sorted(close))


def upper_tail_outcome(distance, threshold: float) -> EventOutcome:
    """Outcome of the tri-state upper-tail event threshold < D < inf for a
    certified distance D from ``metric.grow_targets``: an int, ``math.inf``
    (the finite cluster misses the target: DISCONNECTED) or None (the box
    cannot tell: UNKNOWABLE)."""
    if distance is None:
        return EventOutcome.UNKNOWABLE
    if distance == math.inf:
        return EventOutcome.DISCONNECTED
    return EventOutcome.HIT if distance > threshold else EventOutcome.MISS

