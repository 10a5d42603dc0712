"""Macroscopic block analysis: good/bad boxes, routing, slab experiments.

The macroscopic lattice of half-side N tiles Z^d with the half-open blocks
[-N, N)^d + 2iN. A site is good (at tolerance epsilon, against a supplied
norm estimate) when its 3x-enlarged block has a unique open cluster of
diameter at least N/2, that cluster meets every sub-box of side floor(eps N),
and distances inside the cluster stay within eps N of the norm estimate.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import GeometryError, PreconditionError, RoutingError
from .lattice import BoxSpec, PercolationSample, window_components
from .metric import geodesic, grow_ball
from .metric import _grow  # noqa: F401  (perfbench wraps renorm._grow)

# classify_boxes labels each enlarged block through this module-level name,
# so that perfbench can time it as the "renorm.label" layer
_induced_components = window_components

DEFAULT_EPSILON = 0.5
CONDITION3_EXACT_CUTOFF = 256
CONDITION3_SAMPLED_SOURCES = 64
_PAIR_CHUNK = 1 << 16  # (vertex, source) pairs per deadline scan chunk


class ScaledL1Norm:
    """Norm estimate proportional to the l1 norm: mu(v) = unit * |v|_1."""

    def __init__(self, unit: float):
        if unit <= 0:
            raise PreconditionError("norm unit must be positive")
        self.unit = float(unit)

    def __call__(self, vec):
        arr = np.asarray(vec, dtype=float)
        return self.unit * np.abs(arr).sum(axis=-1)


def as_norm(mu_hat) -> ScaledL1Norm:
    if isinstance(mu_hat, (int, float)):
        return ScaledL1Norm(float(mu_hat))
    return mu_hat


def dependency_range(mu_hat, d: int) -> int:
    """floor(10 d mu(e1)): sites farther apart in sup norm are independent."""
    mu = as_norm(mu_hat)
    e1 = np.zeros(d)
    e1[0] = 1.0
    return int(10 * d * float(mu(e1)))


@dataclass(frozen=True)
class MacroLattice:
    """Partition of Z^d into half-open blocks [-N, N)^d + 2iN."""

    N: int
    dimension: int

    def site_of(self, coord) -> tuple[int, ...]:
        return tuple((int(c) + self.N) // (2 * self.N) for c in coord)

    def block_low(self, site) -> tuple[int, ...]:
        return tuple(2 * int(i) * self.N - self.N for i in site)

    def block_high(self, site) -> tuple[int, ...]:
        """Exclusive upper corner."""
        return tuple(2 * int(i) * self.N + self.N for i in site)

    def enlarged_low(self, site) -> tuple[int, ...]:
        return tuple(2 * int(i) * self.N - 3 * self.N for i in site)

    def enlarged_high(self, site) -> tuple[int, ...]:
        return tuple(2 * int(i) * self.N + 3 * self.N for i in site)


@dataclass
class SiteRecord:
    site: tuple[int, ...]
    verdict: str  # 'good' | 'bad' | 'unclassifiable'
    failed_condition: int | None  # 1, 2 or 3 for bad sites
    cluster_size: int  # dominant cluster size (0 if none)
    cluster_flats: np.ndarray | None  # global flat indices, good sites only
    condition3_sampled: bool = False


@dataclass
class MacroClassification:
    box: BoxSpec
    lattice: MacroLattice
    epsilon: float
    mu_unit: float
    records: dict  # site tuple -> SiteRecord

    def verdict(self, site) -> str:
        return self.records[tuple(site)].verdict

    @property
    def classified_sites(self):
        return [s for s, r in self.records.items() if r.verdict != "unclassifiable"]

    @property
    def good_sites(self):
        return [s for s, r in self.records.items() if r.verdict == "good"]

    @property
    def bad_sites(self):
        return [s for s, r in self.records.items() if r.verdict == "bad"]

    def bad_fraction(self) -> float:
        cls = self.classified_sites
        if not cls:
            return math.nan
        return len(self.bad_sites) / len(cls)

    def cluster(self, site) -> np.ndarray:
        rec = self.records[tuple(site)]
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
    mu_hat,
    *,
    condition3_cutoff: int = CONDITION3_EXACT_CUTOFF,
    condition3_sources: int = CONDITION3_SAMPLED_SOURCES,
) -> MacroClassification:
    """Classify every macroscopic site whose enlarged block fits in the box.

    Condition 3 takes every dominant-cluster vertex as a source and
    measures distances in the whole sample box; above ``condition3_cutoff``
    cluster vertices only ``condition3_sources`` evenly spaced sources are
    used and the record is flagged as sampled. All sources of a site grow
    in one bit-parallel BFS that stops as soon as the verdict is certain
    (see :func:`_condition3`).
    """
    box = sample.box
    d = box.dimension
    if epsilon * N < 1:
        raise PreconditionError("need epsilon * N >= 1")
    mu = as_norm(mu_hat)
    lattice = MacroLattice(N=N, dimension=d)
    sub_side = int(epsilon * N)
    records = {}

    for site in _interior_sites(box, lattice):
        lo = lattice.enlarged_low(site)
        hi = lattice.enlarged_high(site)
        labels, sizes, global_flat = _induced_components(sample, lo, hi)
        diam = _component_diameters(labels, len(sizes))
        big = np.flatnonzero(2 * diam >= N)
        if big.size != 1:
            records[tuple(site)] = SiteRecord(
                site=tuple(site), verdict="bad", failed_condition=1,
                cluster_size=0, cluster_flats=None,
            )
            continue
        comp = int(big[0])
        mask = labels == comp
        if not _meets_every_subbox(mask, sub_side):
            records[tuple(site)] = SiteRecord(
                site=tuple(site), verdict="bad", failed_condition=2,
                cluster_size=int(sizes[comp]), cluster_flats=None,
            )
            continue
        ok3, sampled = _condition3(
            sample, mask, lo, mu, epsilon * N,
            cutoff=condition3_cutoff, n_sources=condition3_sources,
        )
        if not ok3:
            records[tuple(site)] = SiteRecord(
                site=tuple(site), verdict="bad", failed_condition=3,
                cluster_size=int(sizes[comp]), cluster_flats=None,
                condition3_sampled=sampled,
            )
            continue
        records[tuple(site)] = SiteRecord(
            site=tuple(site), verdict="good", failed_condition=None,
            cluster_size=int(sizes[comp]),
            cluster_flats=np.sort(global_flat[mask].reshape(-1)),
            condition3_sampled=sampled,
        )
    e1 = np.zeros(d)
    e1[0] = 1.0
    return MacroClassification(
        box=box, lattice=lattice, epsilon=epsilon,
        mu_unit=float(mu(e1)), records=records,
    )


def _condition3(sample, mask, lo, mu, slack, *, cutoff, n_sources):
    """Distances within the dominant cluster stay below mu(x-y) + slack.

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
    deadline floor(mu(x - y) + slack + 1e-9) or the frontier dies out.
    Deadlines are only inspected when the layer count reaches the smallest
    deadline among the pairs still unreached.
    """
    box = sample.box
    local_flats = np.flatnonzero(mask.reshape(-1))
    coords_local = np.stack(
        np.unravel_index(local_flats, mask.shape), axis=-1
    ).astype(np.int64)
    coords = coords_local + np.asarray(lo, dtype=np.int64)
    window_flats = box.flats_of_coords(coords)

    m = len(window_flats)
    sampled = m > cutoff
    if sampled:
        picks = np.unique(np.linspace(0, m - 1, n_sources).astype(np.int64))
    else:
        picks = np.arange(m)
    k = len(picks)
    n = box.n_vertices

    # deadline[j, i]: largest distance allowed from source i to window
    # vertex j. A BFS distance is below n, so n stands for "no deadline".
    deadline = np.empty((m, k), dtype=np.int32)
    for col, i in enumerate(picks):
        allowed = mu(coords - coords[i]) + slack
        deadline[:, col] = np.minimum(np.floor(allowed + 1e-9), n)
    # a negative deadline fails even at distance 0, and the loop below only
    # inspects the deadlines of pairs that are still unreached
    if deadline.min() < 0:
        return False, sampled

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
    # all-ones word where the edge (v, v + e_axis) is open, zero elsewhere
    opens = [
        (-op.astype(np.int64)).view(np.uint64) for op in sample.axis_open_flats()
    ]

    t = 0
    next_check = 0
    while True:
        missing = np.take(unseen, window_flats, axis=1) & full
        if not missing.any():
            return True, sampled
        if t >= next_check:
            next_check = _earliest_deadline(missing, deadline)
            if next_check <= t:
                return False, sampled
        nxt.fill(0)
        for st, op in zip(box.strides, opens):
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


def _earliest_deadline(missing, deadline) -> int:
    """Smallest deadline among the (window vertex, source) pairs not reached.

    Bit i % 64 of ``missing[i // 64, j]`` is set when source i has not yet
    reached window vertex j. Rows are scanned in chunks so that the unpacked
    bits stay small.
    """
    m, k = deadline.shape
    words = np.ascontiguousarray(missing.T, dtype="<u8")
    step = max(1, _PAIR_CHUNK // k)
    due = np.iinfo(np.int32).max
    for r0 in range(0, m, step):
        bits = np.unpackbits(
            words[r0 : r0 + step].view(np.uint8), axis=1, bitorder="little"
        )
        pending = deadline[r0 : r0 + step][bits[:, :k].view(bool)]
        if pending.size:
            due = min(due, int(pending.min()))
    return due


# ---------------------------------------------------------------------------
# bad clusters


@dataclass
class BadClusterReport:
    """Connected components of bad sites under both adjacencies."""

    z_components: list  # nearest-neighbour adjacency
    star_components: list  # sup-norm-1 adjacency

    def sizes(self, star: bool = False):
        comps = self.star_components if star else self.z_components
        return sorted((len(c) for c in comps), reverse=True)


def _site_components(sites, offsets):
    remaining = set(sites)
    comps = []
    while remaining:
        start = min(remaining)
        comp = {start}
        stack = [start]
        remaining.discard(start)
        while stack:
            v = stack.pop()
            for off in offsets:
                w = tuple(v[k] + off[k] for k in range(len(off)))
                if w in remaining:
                    remaining.discard(w)
                    comp.add(w)
                    stack.append(w)
        comps.append(frozenset(comp))
    return sorted(comps, key=lambda c: (-len(c), sorted(c)))


def bad_clusters(classification: MacroClassification) -> BadClusterReport:
    """Components of bad sites; both plain and star adjacency are reported."""
    from .combinatorics import _axis_offsets, _star_offsets

    d = classification.lattice.dimension
    bad = classification.bad_sites
    return BadClusterReport(
        z_components=_site_components(bad, _axis_offsets(d)),
        star_components=_site_components(bad, _star_offsets(d)),
    )


# ---------------------------------------------------------------------------
# routing through good blocks


@dataclass
class RoutedPath:
    vertices: list
    length: int
    length_bound: float

    @property
    def within_bound(self) -> bool:
        return self.length <= self.length_bound


def route_through_good(
    sample: PercolationSample,
    classification: MacroClassification,
    macro_path,
    x,
    y,
) -> RoutedPath:
    """Open microscopic path from x to y along a star-path of good sites.

    Consecutive dominant clusters of good star-neighbours always intersect
    (the shared enlarged-block window contains a diameter >= N/2 piece of
    each). The route chains in-block geodesics between such shared vertices;
    its length is checked against 2 d mu(e1) N |path|.
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

    bound = 2 * d * classification.mu_unit * lattice.N * len(sites)
    if fx == fy:
        return RoutedPath(vertices=[tuple(x)], length=0, length_bound=bound)

    waypoints = [fx]
    for a, b in zip(sites, sites[1:]):
        shared = np.intersect1d(
            classification.cluster(a), classification.cluster(b)
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
            sample, box.vertex_coord(fa), region=region, targets=[fb]
        )
        seg = geodesic(ball, box.vertex_coord(fb))
        vertices.extend(seg[1:])

    length = len(vertices) - 1
    _assert_open_path(sample, vertices)
    return RoutedPath(vertices=vertices, length=length, length_bound=bound)


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


@dataclass
class SlabExperimentRecord:
    n: int
    N: int
    rho: int
    epsilon: float
    xi: float
    threshold: float
    outcomes: list

    @property
    def main_event(self) -> bool:
        return self.outcomes[0].event

    def to_csv(self, fh) -> None:
        writer = csv.writer(fh, lineterminator="\n")
        fh.write("# percolab-csv slab v1\n")
        writer.writerow(["n", "slab_index", "offset", "distance", "event"])
        for i, o in enumerate(self.outcomes):
            dist = "inf" if math.isinf(o.distance) else int(o.distance)
            writer.writerow(
                [self.n, i, ";".join(map(str, o.offset)), dist, int(o.event)]
            )


def slab_experiment(
    sample: PercolationSample,
    epsilon: float,
    xi: float,
    N: int,
    n: int,
    mu_hat,
    *,
    rho: int | None = None,
) -> SlabExperimentRecord:
    """Constrained box-to-box distances inside thickened coordinate slabs.

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
    mu = as_norm(mu_hat)
    e1 = np.zeros(d)
    e1[0] = 1.0
    mu1 = float(mu(e1))
    if rho is None:
        rho = dependency_range(mu, d)
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
    threshold = (mu1 + xi) * n

    def endpoint_coords(shift, anchor):
        rng = [range(-eps_n + anchor[0], eps_n + 1 + anchor[0]),
               range(-eps_n + anchor[1], eps_n + 1 + anchor[1])]
        for k in range(2, d):
            rng.append(range(-rho * N + shift[k - 2], rho * N + 1 + shift[k - 2]))
        grid = np.meshgrid(*[np.asarray(list(r)) for r in rng], indexing="ij")
        return np.stack([g.reshape(-1) for g in grid], axis=-1)

    # enumerate disjoint parallel slabs fitting in the box
    offsets = [()]
    for k in range(2, d):
        span = []
        j = 0
        while True:
            centre = j * (2 * rho + 1) * 2 * N
            if lo[k] <= centre - half_thick and centre + half_thick - 1 <= hi[k]:
                span.append(centre)
                if j > 0:
                    neg = -centre
                    if lo[k] <= neg - half_thick and neg + half_thick - 1 <= hi[k]:
                        span.append(neg)
                j += 1
            else:
                break
        span.sort(key=abs)
        offsets = [o + (s,) for o in offsets for s in span]
    offsets.sort(key=lambda o: (max(map(abs, o)) if o else 0, o))

    from .metric import constrained_distance

    outcomes = []
    for off in offsets:
        region = _slab_region(box, half_thick, off)
        a = endpoint_coords(off, (0, 0))
        b = endpoint_coords(off, (n, 0))
        dist = constrained_distance(sample, region, a, b)
        outcomes.append(
            SlabOutcome(offset=off, distance=dist, event=dist > threshold)
        )
    return SlabExperimentRecord(
        n=n, N=N, rho=rho, epsilon=epsilon, xi=xi,
        threshold=threshold, outcomes=outcomes,
    )


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
