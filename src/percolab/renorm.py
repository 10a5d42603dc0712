"""Macroscopic block analysis: good/bad boxes, routing, slab experiments.

The macroscopic lattice of half-side N tiles Z^d with the half-open blocks
[-N, N)^d + 2iN. A site is good (at tolerance epsilon) when its
3x-enlarged block has a unique open cluster of diameter at least N/2, that
cluster meets every sub-box of side floor(eps N), and distances inside the
cluster stay within eps N of mu(x - y). The norm estimate is
mu(v) = mu_hat |v|_1, where the float ``mu_hat`` stands for mu(e1).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import GeometryError, PreconditionError, RoutingError
from .lattice import BoxSpec, PercolationSample
from .metric import _open_words, constrained_distance, geodesic, grow_ball
from .metric import _grow  # noqa: F401  (perfbench wraps renorm._grow)

CONDITION3_EXACT_CUTOFF = 256
CONDITION3_SAMPLED_SOURCES = 64
_PAIR_CHUNK = 1 << 16  # (vertex, source) pairs per unreached-pair scan chunk


def dependency_range(mu_hat: float, d: int) -> int:
    """floor(10 d mu(e1)): sites farther apart in sup norm are independent."""
    return int(10 * d * mu_hat)


@dataclass(frozen=True)
class MacroLattice:
    """Partition of Z^d into half-open blocks [-N, N)^d + 2iN."""

    N: int
    dimension: int

    def enlarged_low(self, site) -> tuple[int, ...]:
        return tuple(2 * int(i) * self.N - 3 * self.N for i in site)

    def enlarged_high(self, site) -> tuple[int, ...]:
        return tuple(2 * int(i) * self.N + 3 * self.N for i in site)


@dataclass
class SiteRecord:
    failed_condition: int | None  # 1, 2 or 3 for bad sites, None for good
    cluster_size: int  # dominant cluster size (0 if none)
    cluster_flats: np.ndarray | None  # global flat indices, good sites only
    condition3_sampled: bool = False

    @property
    def verdict(self) -> str:
        return "good" if self.failed_condition is None else "bad"


@dataclass
class MacroClassification:
    lattice: MacroLattice
    records: dict  # site tuple -> SiteRecord

    def verdict(self, site) -> str:
        return self.records[tuple(site)].verdict

    def cluster(self, site) -> np.ndarray:
        rec = self.records.get(tuple(site))
        if rec is None:
            raise RoutingError(f"site {tuple(site)} not classified")
        if rec.cluster_flats is None:
            raise RoutingError(f"site {tuple(site)} has no dominant cluster")
        return rec.cluster_flats

    def to_csv(self, fh) -> None:
        writer = csv.writer(fh, lineterminator="\n")
        fh.write("# percolab-csv classify v1\n")
        d = self.lattice.dimension
        writer.writerow(
            [f"i{k + 1}" for k in range(d)]
            + ["verdict", "failed_condition", "cluster_size", "sampled"]
        )
        for site in sorted(self.records):
            r = self.records[site]
            writer.writerow(
                list(site)
                + [
                    r.verdict,
                    "" if r.failed_condition is None else r.failed_condition,
                    r.cluster_size,
                    int(r.condition3_sampled),
                ]
            )


def _interior_sites(box: BoxSpec, lattice: MacroLattice):
    """Sites whose enlarged block lies inside the sample box."""
    N, d = lattice.N, lattice.dimension
    lo, hi = box.low_corner, box.high_corner
    ranges = []
    for k in range(d):
        i_lo = math.ceil((lo[k] + 3 * N) / (2 * N))
        i_hi = math.floor((hi[k] + 1 - 3 * N) / (2 * N))
        if i_hi < i_lo:
            return []
        ranges.append(range(i_lo, i_hi + 1))
    out = [()]
    for r in ranges:
        out = [s + (i,) for s in out for i in r]
    return out


def window_components(sample: PercolationSample, lo, hi):
    """Open clusters of the subgraph induced on the coordinate window
    [lo, hi) (exclusive upper): (component id per window vertex, shaped like
    the window; size per component id; flat index per window vertex).

    Components are found with numpy alone, by min-root hooking and pointer
    jumping (Shiloach and Vishkin 1982): every round hooks the larger root
    of each edge whose ends still have different roots onto the smaller
    one, then flattens the forest, so every root is its component's least
    window vertex (C order). A component's id is the rank of that vertex
    among the roots, the numbering of scipy's ``connected_components``."""
    flats = sample.box.window_flats(lo, hi)
    shape = flats.shape
    vertex = np.arange(flats.size)
    local = vertex.reshape(shape)
    lows, highs = [], []
    for axis, open_flat in enumerate(sample.axis_open_flats()):
        inner = [slice(None)] * len(shape)
        inner[axis] = slice(0, shape[axis] - 1)
        base = local[tuple(inner)][open_flat[flats[tuple(inner)]]]
        lows.append(base)
        highs.append(base + int(np.prod(shape[axis + 1 :])))
    lows, highs = np.concatenate(lows), np.concatenate(highs)
    root = vertex.copy()
    while lows.size:
        np.minimum.at(root, highs, lows)
        while True:
            up = root[root]
            if np.array_equal(up, root):
                break
            root = up
        lows, highs = root[lows], root[highs]
        apart = lows != highs
        lows, highs = lows[apart], highs[apart]
        lows, highs = np.minimum(lows, highs), np.maximum(lows, highs)
    labels = (np.cumsum(root == vertex) - 1)[root]
    return labels.reshape(shape), np.bincount(labels), flats


# classify_boxes labels each enlarged block through this module-level name,
# so that perfbench can time it as the "renorm.label" layer
_induced_components = window_components


def _component_diameters(labels: np.ndarray, n_comp: int) -> np.ndarray:
    d = labels.ndim
    diam = np.zeros(n_comp, dtype=np.int64)
    flat = labels.reshape(-1)
    for axis in range(d):
        axis_shape = [1] * d
        axis_shape[axis] = labels.shape[axis]
        coord = np.arange(labels.shape[axis], dtype=np.int64).reshape(axis_shape)
        coord = np.broadcast_to(coord, labels.shape).reshape(-1)
        lo = np.full(n_comp, np.iinfo(np.int64).max, dtype=np.int64)
        hi = np.full(n_comp, np.iinfo(np.int64).min, dtype=np.int64)
        np.minimum.at(lo, flat, coord)
        np.maximum.at(hi, flat, coord)
        diam = np.maximum(diam, hi - lo)
    return diam


def _meets_every_subbox(mask: np.ndarray, b: int) -> bool:
    """True when every axis-aligned b-cube inside the grid contains a True."""
    counts = mask.astype(np.int64)
    for axis in range(mask.ndim):
        c = np.cumsum(counts, axis=axis)
        pad_shape = list(c.shape)
        pad_shape[axis] = 1
        c = np.concatenate([np.zeros(pad_shape, dtype=np.int64), c], axis=axis)
        lead = [slice(None)] * mask.ndim
        lag = [slice(None)] * mask.ndim
        lead[axis] = slice(b, None)
        lag[axis] = slice(0, c.shape[axis] - b)
        counts = c[tuple(lead)] - c[tuple(lag)]
    return bool((counts > 0).all())


def classify_boxes(
    sample: PercolationSample,
    N: int,
    epsilon: float,
    mu_hat: float,
) -> MacroClassification:
    """Classify every macroscopic site whose enlarged block fits in the box.

    Condition 3 takes every dominant-cluster vertex as a source and
    measures distances in the whole sample box; above
    ``CONDITION3_EXACT_CUTOFF`` cluster vertices only
    ``CONDITION3_SAMPLED_SOURCES`` evenly spaced sources are used and the
    record is flagged as sampled. All sources of a site grow in one
    bit-parallel BFS that stops as soon as the verdict is certain (see
    :func:`_condition3`).
    """
    box = sample.box
    d = box.dimension
    if epsilon * N < 1:
        raise PreconditionError("need epsilon * N >= 1")
    if not mu_hat > 0:
        raise PreconditionError("mu_hat must be positive")
    lattice = MacroLattice(N=N, dimension=d)
    sub_side = int(epsilon * N)
    records = {}

    for site in _interior_sites(box, lattice):
        lo = lattice.enlarged_low(site)
        hi = lattice.enlarged_high(site)
        labels, sizes, global_flat = _induced_components(sample, lo, hi)
        diam = _component_diameters(labels, len(sizes))
        big = np.flatnonzero(2 * diam >= N)
        failed, size, flats, sampled = 1, 0, None, False
        if big.size == 1:
            mask = labels == big[0]
            size = int(sizes[big[0]])
            if not _meets_every_subbox(mask, sub_side):
                failed = 2
            else:
                ok3, sampled = _condition3(sample, mask, lo, mu_hat, epsilon * N)
                if ok3:
                    failed, flats = None, np.sort(global_flat[mask].reshape(-1))
                else:
                    failed = 3
        records[tuple(site)] = SiteRecord(failed, size, flats, sampled)
    return MacroClassification(lattice=lattice, records=records)


def _condition3(sample, mask, lo, mu_hat, slack):
    """Distances within the dominant cluster stay below mu(x-y) + slack,
    with mu(v) = mu_hat |v|_1.

    The pair set is the dominant cluster of the enlarged block, but
    distances are measured in the whole sample box (a geodesic may leave
    the block). A pair fails when its distance exceeds mu(x - y) + slack
    (with a 1e-9 tolerance) or when it is not connected in the box. Box
    truncation can only overestimate, so a pass is sound.

    All k sources grow together in one bit-parallel BFS: each vertex carries
    ceil(k / 64) uint64 words with one bit per source, and a layer is one
    masked shift of the whole box per axis and direction. The BFS stops as
    soon as the verdict is certain: it passes once every (source, cluster
    vertex) pair is reached, and fails once an unreached pair is past its
    deadline or the frontier dies out.

    A pair at l1 distance r has the deadline
    due(r) = min(floor(mu_hat r + slack + 1e-9), n), where n, the number of
    box vertices, exceeds every BFS distance and so stands for "no
    deadline"; as mu_hat > 0, due never decreases in r. The l1 distances
    sit in an (m, k) int16 table: an entry is at most d (side - 1), which
    side^d <= MAX_VERTICES keeps at or below 19,998 < 2^15. Three rules
    skip the checks that cannot change the verdict:
    - the pass test starts at t = ``farthest``, the largest l1 entry, as
      no box path is shorter than its l1 distance;
    - the first deadline check is at t = due(1), without a scan, as at
      t = 0 only the pairs of a source with itself (l1 = 0) are reached;
    - each later check is at due of the least l1 distance among the
      unreached pairs, the earliest deadline they can miss.
    """
    box = sample.box
    local_flats = np.flatnonzero(mask.reshape(-1))
    coords = np.stack(np.unravel_index(local_flats, mask.shape), axis=-1)
    window_flats = box.flats_of_coords(coords + np.asarray(lo, dtype=np.int64))

    m = len(window_flats)
    sampled = m > CONDITION3_EXACT_CUTOFF
    if sampled:
        # sorted: dropping adjacent repeats dedupes them without the plain
        # np.unique, which imports numpy.ma (numpy 2.4)
        picks = np.linspace(0, m - 1, CONDITION3_SAMPLED_SOURCES).astype(np.int64)
        picks = picks[np.r_[True, picks[1:] != picks[:-1]]]
    else:
        picks = np.arange(m)
    k = len(picks)
    n = box.n_vertices

    def due(r):
        return math.floor(min(mu_hat * r + slack + 1e-9, n))

    # a negative deadline fails even at distance 0, and the loop below only
    # inspects the deadlines of pairs that are still unreached
    if due(0) < 0:
        return False, sampled

    # l1[j, i]: l1 distance from source i to window vertex j, built one
    # axis at a time in int16 (the bound is in the docstring)
    coords = coords.astype(np.int16)
    l1 = np.zeros((m, k), dtype=np.int16)
    diff = np.empty_like(l1)
    for axis in range(coords.shape[1]):
        c = coords[:, axis]
        np.subtract(c[:, None], c[picks][None, :], out=diff)
        np.abs(diff, out=diff)
        l1 += diff
    del diff

    n_words = -(-k // 64)
    word, bit = np.divmod(np.arange(k), 64)
    full = np.asarray(
        [(1 << min(64, k - 64 * w)) - 1 for w in range(n_words)], dtype=np.uint64
    )[:, None]
    front = np.zeros((n_words, n), dtype=np.uint64)
    front[word, window_flats[picks]] = np.uint64(1) << bit.astype(np.uint64)
    unseen = ~front
    nxt = np.empty_like(front)
    tmp = np.empty_like(front)
    # (stride, all-ones word where the edge (v, v + e_axis) is open), last
    # axis first: its unit stride lets the first shift of a layer write nxt
    # directly and leave only one column to clear
    shifts = list(zip(box.strides, _open_words(sample)))[::-1]

    t = 0
    farthest = int(l1.max())
    next_check = due(1)
    while True:
        if t >= farthest or t >= next_check:
            missing = np.take(unseen, window_flats, axis=1) & full
            if not missing.any():
                return True, sampled
            if t >= next_check:
                next_check = due(_nearest_unreached(missing, l1))
                if next_check <= t:
                    return False, sampled
        for a, (st, op) in enumerate(shifts):
            if a == 0:
                np.bitwise_and(front[:, :-st], op[:-st], out=nxt[:, st:])
                nxt[:, :st] = 0
            else:
                np.bitwise_and(front[:, :-st], op[:-st], out=tmp[:, st:])
                nxt[:, st:] |= tmp[:, st:]
            np.bitwise_and(front[:, st:], op[:-st], out=tmp[:, :-st])
            nxt[:, :-st] |= tmp[:, :-st]
        nxt &= unseen
        if not nxt.any():
            return False, sampled
        unseen ^= nxt
        front, nxt = nxt, front
        t += 1


def _nearest_unreached(missing, l1) -> int:
    """Least l1 distance among the (window vertex, source) pairs not reached.

    Bit i % 64 of ``missing[i // 64, j]`` is set when source i has not yet
    reached window vertex j. Rows are scanned in chunks so that the unpacked
    bits stay small.
    """
    m, k = l1.shape
    words = np.ascontiguousarray(missing.T, dtype="<u8")
    step = max(1, _PAIR_CHUNK // k)
    nearest = np.iinfo(np.int32).max
    for r0 in range(0, m, step):
        bits = np.unpackbits(
            words[r0 : r0 + step].view(np.uint8), axis=1, bitorder="little"
        )
        pending = l1[r0 : r0 + step][bits[:, :k].view(bool)]
        if pending.size:
            nearest = min(nearest, int(pending.min()))
    return nearest


# ---------------------------------------------------------------------------
# routing through good blocks


def route_through_good(
    sample: PercolationSample,
    classification: MacroClassification,
    macro_path,
    x,
    y,
) -> list:
    """Vertices of an open microscopic path from x to y along a star-path
    of good sites.

    Consecutive dominant clusters of good star-neighbours always intersect
    (the shared enlarged-block window contains a diameter >= N/2 piece of
    each). The route chains in-block geodesics between such shared vertices,
    and every edge of it is checked to be open.
    """
    box = sample.box
    d = box.dimension
    lattice = classification.lattice
    sites = [tuple(s) for s in macro_path]
    if not sites:
        raise RoutingError("empty macroscopic path")
    for s in sites:
        if classification.records.get(s) is None:
            raise RoutingError(f"site {s} not classified")
        if classification.verdict(s) != "good":
            raise RoutingError(f"site {s} is not good")
    for a, b in zip(sites, sites[1:]):
        if max(abs(a[k] - b[k]) for k in range(d)) > 1:
            raise RoutingError(f"sites {a} and {b} are not star-adjacent")

    fx = box.flat_index(x)
    fy = box.flat_index(y)
    if fx not in classification.cluster(sites[0]):
        raise RoutingError("start vertex outside the first dominant cluster")
    if fy not in classification.cluster(sites[-1]):
        raise RoutingError("end vertex outside the last dominant cluster")

    if fx == fy:
        return [tuple(x)]

    waypoints = [fx]
    for a, b in zip(sites, sites[1:]):
        # each cluster holds distinct flats (sorted at classification)
        shared = np.intersect1d(
            classification.cluster(a), classification.cluster(b), assume_unique=True
        )
        if shared.size == 0:
            raise RoutingError(f"dominant clusters of {a} and {b} do not meet")
        cur = box.coords_of_flats(np.asarray([waypoints[-1]]))[0]
        cand = box.coords_of_flats(shared)
        l1 = np.abs(cand - cur).sum(axis=1)
        waypoints.append(int(shared[np.lexsort((shared, l1))[0]]))
    waypoints.append(fy)

    vertices = [tuple(int(c) for c in box.coords_of_flats([fx])[0])]
    for block, (fa, fb) in zip(sites, zip(waypoints, waypoints[1:])):
        if fa == fb:
            continue
        region = np.zeros(box.n_vertices, dtype=bool)
        lo, hi = lattice.enlarged_low(block), lattice.enlarged_high(block)
        region[box.window_flats(lo, hi)] = True
        ball = grow_ball(
            sample.restricted_to(region), box.vertex_coord(fa), targets=[fb]
        )
        seg = geodesic(ball, box.vertex_coord(fb))
        vertices.extend(seg[1:])

    _assert_open_path(sample, vertices)
    return vertices


def _assert_open_path(sample: PercolationSample, vertices) -> None:
    box = sample.box
    for u, v in zip(vertices, vertices[1:]):
        diff = [v[k] - u[k] for k in range(box.dimension)]
        axis = next(k for k, c in enumerate(diff) if c != 0)
        base = u if diff[axis] == 1 else v
        if not sample.is_edge_open(box.edge_index(base, axis)):
            raise RoutingError("routed path crosses a closed edge")


# ---------------------------------------------------------------------------
# slab experiments


@dataclass
class SlabOutcome:
    offset: tuple[int, ...]  # macroscopic offset of the slab, in block units
    distance: float
    event: bool  # constrained distance exceeded (mu + xi) n


def slab_experiment(
    sample: PercolationSample,
    epsilon: float,
    xi: float,
    N: int,
    n: int,
    mu_hat: float,
    *,
    rho: int | None = None,
) -> list:
    """One SlabOutcome per slab: constrained box-to-box distances inside
    thickened coordinate slabs.

    The central slab spans all of the first two axes and the blocks within
    sup-norm rho of zero in the remaining axes. The experiment reports, for
    every disjoint parallel slab fitting in the box (offsets spaced 2 rho + 1
    blocks apart), whether the slab-constrained distance between the two
    endpoint boxes exceeds (mu(e1) + xi) n.
    """
    box = sample.box
    d = box.dimension
    if d < 3:
        raise PreconditionError("slab experiments need dimension >= 3")
    if not mu_hat > 0:
        raise PreconditionError("mu_hat must be positive")
    if rho is None:
        rho = dependency_range(mu_hat, d)
    if rho < 1:
        raise PreconditionError("dependency range must be >= 1")
    half_thick = (2 * rho + 1) * N  # slab half-thickness, exclusive upper
    lo, hi = box.low_corner, box.high_corner
    for k in range(2, d):
        if lo[k] > -half_thick or hi[k] < half_thick - 1:
            raise GeometryError(
                "box does not contain the slab thickness range "
                f"[-{half_thick}, {half_thick}) on axis {k + 1}"
            )

    eps_n = int(epsilon * n)
    threshold = (mu_hat + xi) * n

    def endpoint_coords(shift, anchor):
        rng = [range(-eps_n + anchor[0], eps_n + 1 + anchor[0]),
               range(-eps_n + anchor[1], eps_n + 1 + anchor[1])]
        for k in range(2, d):
            rng.append(range(-rho * N + shift[k - 2], rho * N + 1 + shift[k - 2]))
        grid = np.meshgrid(*[np.asarray(list(r)) for r in rng], indexing="ij")
        return np.stack([g.reshape(-1) for g in grid], axis=-1)

    # every disjoint parallel slab fitting in the box: per axis, every
    # multiple c of the spacing, of either sign, whose thickness range
    # [c - half_thick, c + half_thick) lies inside [lo, hi]
    step = (2 * rho + 1) * 2 * N
    offsets = [()]
    for k in range(2, d):
        first = -(-(lo[k] + half_thick) // step)  # ceiling division
        last = (hi[k] + 1 - half_thick) // step
        offsets = [o + (j * step,) for o in offsets for j in range(first, last + 1)]
    offsets.sort(key=lambda o: (max(map(abs, o)) if o else 0, o))

    outcomes = []
    for off in offsets:
        region = _slab_region(box, half_thick, off)
        a = endpoint_coords(off, (0, 0))
        b = endpoint_coords(off, (n, 0))
        dist = constrained_distance(sample, region, a, b)
        outcomes.append(
            SlabOutcome(offset=off, distance=dist, event=dist > threshold)
        )
    return outcomes


def _slab_region(box: BoxSpec, half_thick: int, offset) -> np.ndarray:
    d = box.dimension
    mask = np.ones(box.shape, dtype=bool)
    lo = box.low_corner
    for k in range(2, d):
        coords = lo[k] + np.arange(box.side)
        sel = (coords >= offset[k - 2] - half_thick) & (
            coords < offset[k - 2] + half_thick
        )
        shape = [1] * d
        shape[k] = box.side
        mask &= sel.reshape(shape)
    return mask.reshape(-1)
