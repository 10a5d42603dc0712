"""Exact lattice-geometry constructions with self-verifying outputs.

Each constructive routine returns an object carrying a ``verify`` method
that asserts exactly the guarantee the construction promises (projection
size, coordinate distinctness, segment separation, path length and
multiplicity caps, exterior-boundary star-connectivity). Tests call these
on randomized instances.

Segment separation is measured at equal heights: two matched segments
between the hyperplanes x_0 = c and x_0 = c + l are compared at the same
axis-0 coordinate, and their transverse gap there must be >= 1/sqrt2 (see
``separated_matching`` for the proof). The Euclidean distance between the
segments is only bounded by the corollary l / sqrt(2 (l^2 + (d-1) K^2)); no
bijection need reach l / (sqrt2 K) in Euclidean distance.

Finite vertex sets are labelled by one helper, ``_label_cells``: it puts
the set on a boolean grid over its bounding box and calls
``scipy.ndimage.label`` under nearest-neighbour or star (sup-norm 1)
adjacency. ``exterior_boundary`` goes through it for its connectivity check,
the complement component that reaches infinity and the star-connectivity of
the boundary. Its cost is linear in the volume of the bounding box, not in
the size of the set.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_bipartite_matching

from .errors import (
    BundleInvariantError,
    GeometryError,
    MatchingInvariantError,
    PreconditionError,
    ProjectionBoundError,
    ResourceLimitError,
)

SEPARATION_TOLERANCE = 1e-9
MAX_ANIMAL_WORK = 14  # cap on dimension * animal size


# ---------------------------------------------------------------------------
# point sets


@dataclass(frozen=True)
class PointSet:
    """Finite set of integer points with cached per-axis extents."""

    dimension: int
    points: tuple

    @classmethod
    def of(cls, pts) -> "PointSet":
        pts = tuple(sorted(tuple(int(c) for c in p) for p in pts))
        if not pts:
            raise PreconditionError("point set must be nonempty")
        d = len(pts[0])
        if any(len(p) != d for p in pts):
            raise GeometryError("inconsistent point dimensions")
        return cls(d, pts)

    def __len__(self) -> int:
        return len(self.points)

    @cached_property
    def array(self) -> np.ndarray:
        return np.asarray(self.points, dtype=np.int64)

    def diam_axis(self, axis: int) -> int:
        col = self.array[:, axis]
        return int(col.max() - col.min())

    @cached_property
    def diam(self) -> int:
        # max over axes of the per-axis extent
        return max(self.diam_axis(k) for k in range(self.dimension))


def projection_size(points: np.ndarray, axis: int) -> int:
    """Number of distinct images when coordinate ``axis`` is collapsed."""
    proj = np.delete(points, axis, axis=1)
    return len(np.unique(proj, axis=0))


def projection_best(S: PointSet):
    """Axis whose hyperplane projection keeps at least |S|^(2/3)/2 points.

    Follows the fiber-splitting case analysis (big first projection, many
    large fibers, or one huge double fiber), then falls back to the best
    axis over all of them. For d = 2 an adversarial set (a large square
    grid) admits no such axis; that raises :class:`ProjectionBoundError`.
    """
    pts = S.array
    n = len(S)
    bound = n ** (2.0 / 3.0) / 2.0 - SEPARATION_TOLERANCE

    candidate = None
    if projection_size(pts, 0) >= bound:
        candidate = 0
    else:
        # group by the axis-0 projection and look at fiber sizes
        proj0 = np.delete(pts, 0, axis=1)
        _, inverse, counts = np.unique(
            proj0, axis=0, return_inverse=True, return_counts=True
        )
        big = counts >= n ** (1.0 / 3.0)
        if big.any() and S.dimension >= 3:
            members = big[inverse]
            # distinct images of the large-fiber points under the second
            # collapse decide between "many fibers" and "one huge fiber"
            n_two = len(np.unique(np.delete(proj0[members], 0, axis=1), axis=0))
            candidate = 1 if n_two >= n ** (1.0 / 3.0) else 2
    if candidate is not None and projection_size(pts, candidate) >= bound:
        axis = candidate
    else:
        sizes = [projection_size(pts, k) for k in range(S.dimension)]
        axis = int(np.argmax(sizes))
        if sizes[axis] < bound:
            raise ProjectionBoundError(
                f"no axis reaches |S|^(2/3)/2 = {bound + SEPARATION_TOLERANCE:.3f} "
                f"(best {sizes[axis]}); possible only for d=2"
            )
    projected = pts.copy()
    projected[:, axis] = 0
    return axis, frozenset(map(tuple, projected))


# ---------------------------------------------------------------------------
# doubly-distinct coordinate subsets


def _pair_greedy(points, i, j):
    """Scan in sorted order, keeping points with fresh i- and j-coordinates."""
    used_i, used_j, out = set(), set(), []
    for p in sorted(points):
        if p[i] not in used_i and p[j] not in used_j:
            used_i.add(p[i])
            used_j.add(p[j])
            out.append(p)
    return out


def _pair_matching(points, i, j):
    """Maximum subset with pairwise distinct i- and j-coordinates.

    Equivalent to a maximum bipartite matching between the i-values and
    j-values, with one representative point per matched value pair.
    """
    pairs = {}
    for p in sorted(points):
        pairs.setdefault((p[i], p[j]), p)
    keys = sorted(pairs)
    ivals = sorted({a for a, _ in keys})
    jvals = sorted({b for _, b in keys})
    imap = {v: k for k, v in enumerate(ivals)}
    jmap = {v: k for k, v in enumerate(jvals)}
    rows = [imap[a] for a, _ in keys]
    cols = [jmap[b] for _, b in keys]
    graph = csr_matrix(
        (np.ones(len(keys), dtype=np.int8), (rows, cols)),
        shape=(len(ivals), len(jvals)),
    )
    match = maximum_bipartite_matching(graph, perm_type="column")
    out = []
    for r, c in enumerate(match):
        if c >= 0:
            out.append(pairs[(ivals[r], jvals[c])])
    return out


def subset_size_target(d: int, size: int, diam: int) -> float:
    """Guaranteed subset size (size / (2^(d-1) diam))^(1/(d-1)); inf at diam 0
    is treated by callers as the degenerate single-point case."""
    if diam == 0:
        return 1.0
    return (size / (2 ** (d - 1) * diam)) ** (1.0 / (d - 1))


def distinct_coordinate_subset(S: PointSet):
    """Axes i != j and a subset whose i- and j-coordinates are all distinct.

    The subset has at least T = (|P| / (2^(k-1) D))^(1/(k-1)) points, for
    the set P on k active axes of extent D (first P = S, k = d, D = Diam S).
    The greedy on the last two active axes is upgraded to a maximum matching
    when it falls short; when the matching still has m < T points, the
    descent recurses on the heaviest coordinate slice P' of those two axes.
    This always meets the target:

    - By Konig's theorem m coordinate slices cover P, so the heaviest slice
      P' holds more than |P| / T points.
    - With D' <= D, the target of P' on k - 1 axes is then at least
      (2 T^(k-2))^(1/(k-2)) = 2^(1/(k-2)) T > T: the targets only rise
      along the descent.
    - On two axes every line holds at most D + 1 points, so the matching
      reaches |P| / (D + 1) >= |P| / (2D), the two-axis target.

    The final check and :func:`verify_distinct_subset` certify the result.
    """
    d = S.dimension
    pts = list(S.points)
    if len(pts) == 1 or S.diam == 0:
        return 0, 1, PointSet.of(pts[:1])

    target = subset_size_target(d, len(pts), S.diam)
    i, j, chosen = _descend(pts, list(range(d)))
    if len(chosen) < target:
        raise PreconditionError(
            f"no doubly-distinct subset of size {target:.2f} found "
            f"(best {len(chosen)})"
        )
    return i, j, PointSet.of(chosen)


def _descend(pts, axes):
    """Greedy pick on the last two active axes, else recurse on a heavy slice."""
    i, j = axes[-2], axes[-1]
    sub = PointSet.of(pts)
    active_diam = max(sub.diam_axis(a) for a in axes)
    if active_diam == 0:
        return i, j, [pts[0]]
    target = subset_size_target(len(axes), len(pts), active_diam)
    chosen = _pair_greedy(pts, i, j)
    if len(chosen) < target:
        upgraded = _pair_matching(pts, i, j)
        if len(upgraded) > len(chosen):
            chosen = upgraded
    if len(axes) == 2 or len(chosen) >= target:
        return i, j, chosen
    # heaviest single-coordinate slice through one of the two scan axes
    best_axis, best_val, best_count = i, None, -1
    for axis in (i, j):
        vals, counts = np.unique(
            np.asarray([p[axis] for p in pts]), return_counts=True
        )
        k = int(np.argmax(counts))
        if counts[k] > best_count:
            best_axis, best_val, best_count = axis, int(vals[k]), int(counts[k])
    slice_pts = [p for p in pts if p[best_axis] == best_val]
    remaining = [a for a in axes if a != best_axis]
    return _descend(slice_pts, remaining)


def verify_distinct_subset(S: PointSet, i: int, j: int, subset: PointSet) -> None:
    pts = subset.points
    if len({p[i] for p in pts}) != len(pts) or len({p[j] for p in pts}) != len(pts):
        raise PreconditionError("subset coordinates are not pairwise distinct")
    if not set(pts) <= set(S.points):
        raise PreconditionError("subset is not contained in the input set")
    target = subset_size_target(S.dimension, len(S), S.diam)
    if len(pts) + SEPARATION_TOLERANCE < target:
        raise PreconditionError(
            f"subset size {len(pts)} below target {target:.3f}"
        )


# ---------------------------------------------------------------------------
# separated segment matchings


def segment_distance(p1, q1, p2, q2) -> float:
    """Euclidean distance between segments [p1,q1] and [p2,q2].

    Clamped closest-point parameterization; robust for parallel and
    degenerate (zero-length) segments.
    """
    p1 = np.asarray(p1, dtype=float)
    q1 = np.asarray(q1, dtype=float)
    p2 = np.asarray(p2, dtype=float)
    q2 = np.asarray(q2, dtype=float)
    d1 = q1 - p1
    d2 = q2 - p2
    r = p1 - p2
    a = float(d1 @ d1)
    e = float(d2 @ d2)
    f = float(d2 @ r)
    tiny = 1e-12

    if a <= tiny and e <= tiny:
        return float(np.linalg.norm(r))
    if a <= tiny:
        t = min(1.0, max(0.0, f / e))
        return float(np.linalg.norm(p1 - (p2 + t * d2)))
    c = float(d1 @ r)
    if e <= tiny:
        s = min(1.0, max(0.0, -c / a))
        return float(np.linalg.norm(p1 + s * d1 - p2))

    b = float(d1 @ d2)
    denom = a * e - b * b
    s = min(1.0, max(0.0, (b * f - c * e) / denom)) if denom > tiny else 0.0
    t = (b * s + f) / e
    if t < 0.0:
        t = 0.0
        s = min(1.0, max(0.0, -c / a))
    elif t > 1.0:
        t = 1.0
        s = min(1.0, max(0.0, (b - c) / a))
    return float(np.linalg.norm(p1 + s * d1 - (p2 + t * d2)))


@dataclass
class SeparatedMatching:
    """Bijection between two hyperplane point sets with separated segments.

    ``s1`` lies on one hyperplane orthogonal to axis 0 and ``s2`` on a
    parallel one; point ``s1[a]`` is joined to ``s2[sigma[a]]`` by a
    straight segment. The separation of two segments is their smallest
    transverse gap at equal axis-0 height: with u = s1[a] - s1[b] and
    v = s2[sigma[a]] - s2[sigma[b]] restricted to axes 1..d-1, it is
    min over t in [0, 1] of |(1 - t) u + t v|, the distance from the origin
    to the segment [u, v]. ``verify`` checks that every pair reaches
    ``guarantee``.
    """

    s1: tuple
    s2: tuple
    sigma: tuple  # index into s2 for each index of s1
    guarantee: float  # promised pairwise equal-height separation

    @cached_property
    def certified_min_separation(self) -> float:
        """Smallest equal-height transverse gap over all pairs of segments."""
        x = np.asarray(self.s1)[:, 1:]
        y = np.asarray(self.s2)[list(self.sigma), 1:]
        origin = np.zeros(x.shape[1])
        return min(
            (
                segment_distance(origin, origin, x[a] - x[b], y[a] - y[b])
                for a, b in itertools.combinations(range(len(x)), 2)
            ),
            default=math.inf,
        )

    def verify(self) -> None:
        if sorted(self.sigma) != list(range(len(self.s1))):
            raise MatchingInvariantError("sigma is not a bijection")
        if self.certified_min_separation < self.guarantee - SEPARATION_TOLERANCE:
            raise MatchingInvariantError(
                f"separation {self.certified_min_separation:.6g} below "
                f"guarantee {self.guarantee:.6g}"
            )


def _matching_cost_matrix(a1: np.ndarray, a2: np.ndarray, gap: float) -> np.ndarray:
    """Sum over transverse axes of hypot(gap, coordinate difference).

    This is the two-axis-plane projected length after the configuration is
    stretched along the separating axis so the hyperplane gap equals the
    transverse spread bound.
    """
    diffs = a1[:, None, 1:] - a2[None, :, 1:]
    return np.hypot(float(gap), diffs.astype(float)).sum(axis=2)


def separated_matching(S1: PointSet, S2: PointSet, K: int) -> SeparatedMatching:
    """Min-cost bijection whose segments are >= 1/sqrt2 apart at equal heights.

    S1 and S2 must sit on two hyperplanes orthogonal to axis 0 at axis
    offsets l apart (1 <= l <= K), have equal sizes, and pairwise sup-norm
    spread at most K. The assignment minimising the sum over transverse
    axes of hypot(K, coordinate difference) is solved exactly.

    Proof of the separation. Take two pairs and let u = x_a - x_b and
    v = y_sigma(a) - y_sigma(b) on the transverse axes; both are nonzero
    integer vectors. At height t l the two segments are (1 - t) u + t v
    apart. Swapping the partners changes the cost axis by axis, and since
    hypot(K, .) is strictly convex the swap lowers axis k's cost if
    u_k v_k < 0, raises it if u_k v_k > 0 and leaves it if u_k v_k = 0.
    An optimum admits no improving swap, so either some axis has
    u_k v_k > 0, and that coordinate of the gap is >= 1 at every height, or
    u is orthogonal to v, and the gap is >= |u| |v| / sqrt(|u|^2 + |v|^2)
    >= 1/sqrt2. Only transposition optimality is used, so ties and 2-swap
    local optima are covered too. Since l <= K this implies the bound
    l / (sqrt2 K). The Euclidean distance between the segments is at least
    l / sqrt(2 (l^2 + (d-1) K^2)): a height offset s moves a segment by at
    most s sqrt(d-1) K / l transversally, and minimising
    s^2 + (1/sqrt2 - s sqrt(d-1) K / l)^2 over s gives that bound.
    """
    d = S1.dimension
    if d < 3:
        raise PreconditionError("separated matching requires dimension >= 3")
    if S2.dimension != d:
        raise GeometryError("dimension mismatch")
    if len(S1) != len(S2):
        raise PreconditionError("point sets must have equal size")
    a1, a2 = S1.array, S2.array
    if len(np.unique(a1[:, 0])) != 1 or len(np.unique(a2[:, 0])) != 1:
        raise PreconditionError("each set must lie on a single axis-0 hyperplane")
    ell = int(a2[0, 0] - a1[0, 0])
    if not 1 <= ell <= K:
        raise PreconditionError(f"hyperplane gap {ell} outside [1, K={K}]")
    spread = _pairwise_sup_spread(a1, a2)
    if spread > K:
        raise PreconditionError(f"pairwise sup-norm spread {spread} exceeds K={K}")

    rows, cols = linear_sum_assignment(_matching_cost_matrix(a1, a2, K))
    sigma = [0] * len(S1)
    for r, c in zip(rows, cols):
        sigma[r] = int(c)
    return SeparatedMatching(
        s1=S1.points,
        s2=S2.points,
        sigma=tuple(sigma),
        guarantee=1 / math.sqrt(2.0),
    )


def _pairwise_sup_spread(a1: np.ndarray, a2: np.ndarray) -> int:
    hi = np.maximum(a1.max(axis=0) - a2.min(axis=0), a2.max(axis=0) - a1.min(axis=0))
    return int(hi.max())


# ---------------------------------------------------------------------------
# lattice paths


def staircase_path(a, b) -> list[tuple[int, ...]]:
    """Z^d path from a to b hugging the straight segment [a, b].

    Every vertex stays within sup-norm distance 1 of the segment and the
    length equals the l1 distance between the endpoints exactly.
    """
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    delta = b - a
    m = int(np.abs(delta).max())
    if m == 0:
        return [tuple(int(c) for c in a)]
    way = [a]
    for jj in range(1, m + 1):
        w = np.floor(a + (jj / m) * delta + 0.5).astype(np.int64)
        if not np.array_equal(w, way[-1]):
            way.append(w)
    path = [way[0]]
    for w in way[1:]:
        cur = path[-1].copy()
        for axis in range(len(cur)):
            while cur[axis] != w[axis]:
                cur = cur.copy()
                cur[axis] += 1 if w[axis] > cur[axis] else -1
                path.append(cur)
    return [tuple(int(c) for c in v) for v in path]


def straight_path(a, b) -> list[tuple[int, ...]]:
    """Axis-parallel straight segment as a vertex path (a, b colinear)."""
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    delta = b - a
    if np.count_nonzero(delta) > 1:
        raise GeometryError("endpoints are not on one axis line")
    return staircase_path(a, b)


def concat_paths(*paths) -> list[tuple[int, ...]]:
    out = list(paths[0])
    for p in paths[1:]:
        if p[0] != out[-1]:
            raise GeometryError("paths do not share junction vertices")
        out.extend(p[1:])
    return out


@dataclass
class PathBundle:
    """Family of lattice paths with declared caps, self-verifiable."""

    paths: list
    source_set: frozenset
    target_set: frozenset
    length_bound: float
    multiplicity_bound: float

    @cached_property
    def multiplicity(self) -> dict:
        counts = {}
        for p in self.paths:
            for v in set(p):
                counts[v] = counts.get(v, 0) + 1
        return counts

    @property
    def max_length(self) -> int:
        return max(len(p) - 1 for p in self.paths)

    @property
    def max_multiplicity(self) -> int:
        return max(self.multiplicity.values())

    def verify(self) -> None:
        if not self.paths:
            raise BundleInvariantError("empty bundle")
        for p in self.paths:
            if p[0] not in self.source_set or p[-1] not in self.target_set:
                raise BundleInvariantError("path endpoints outside declared sets")
            for u, v in zip(p, p[1:]):
                if sum(abs(a - b) for a, b in zip(u, v)) != 1:
                    raise BundleInvariantError("not a nearest-neighbour path")
        if self.max_length > self.length_bound:
            raise BundleInvariantError(
                f"length {self.max_length} exceeds bound {self.length_bound}"
            )
        if self.max_multiplicity > self.multiplicity_bound:
            raise BundleInvariantError(
                f"multiplicity {self.max_multiplicity} exceeds bound "
                f"{self.multiplicity_bound}"
            )


def default_multiplicity_constant(d: int) -> int:
    return (2 * d) ** (2 * d)


@dataclass(frozen=True)
class ParallelGeometry:
    """Sets on hyperplanes x_axis = 0 and x_axis = ell, spread at most K."""

    axis: int
    ell: int
    spread: int


@dataclass(frozen=True)
class PerpendicularGeometry:
    """Sets on x_axis_i = 0 and x_axis_j = 0 inside [-K, K]^d."""

    axis_i: int
    axis_j: int
    spread: int


def _permute(points: np.ndarray, perm) -> np.ndarray:
    return points[:, perm]


def disjoint_path_bundle(S1: PointSet, S2: PointSet, geometry) -> PathBundle:
    """Almost-disjoint short path families between hyperplane point sets.

    Parallel case: min(|S1|, |S2|) paths of length <= 2dK, each vertex shared
    by at most chi_d (K/ell)^(d-1) paths, chi_d = (2d)^(2d). Perpendicular
    case: ceil(min/2) paths of length <= 2dK with the composition cap
    chi_d 2^(d-1) + 4^d. Requires d >= 3.
    """
    d = S1.dimension
    if d < 3:
        raise PreconditionError("path bundles require dimension >= 3")
    if S2.dimension != d:
        raise GeometryError("dimension mismatch")
    if isinstance(geometry, ParallelGeometry):
        return _parallel_bundle(S1, S2, geometry)
    if isinstance(geometry, PerpendicularGeometry):
        return _perpendicular_bundle(S1, S2, geometry)
    raise PreconditionError(f"unknown geometry {geometry!r}")


def _axis_to_front(d: int, *axes):
    rest = [k for k in range(d) if k not in axes]
    perm = list(axes) + rest
    inv = [0] * d
    for pos, ax in enumerate(perm):
        inv[ax] = pos
    return perm, inv


def _parallel_bundle(S1: PointSet, S2: PointSet, g: ParallelGeometry) -> PathBundle:
    d = S1.dimension
    perm, inv = _axis_to_front(d, g.axis)
    a1 = _permute(S1.array, perm)
    a2 = _permute(S2.array, perm)
    if (a1[:, 0] != 0).any() or (a2[:, 0] != g.ell).any():
        raise PreconditionError("sets must lie on the two declared hyperplanes")
    m0 = min(len(a1), len(a2))
    p1 = PointSet.of(a1[np.lexsort(a1.T[::-1])][:m0])
    p2 = PointSet.of(a2[np.lexsort(a2.T[::-1])][:m0])
    matching = separated_matching(p1, p2, g.spread)
    matching.verify()
    paths = []
    for idx, x in enumerate(matching.s1):
        y = matching.s2[matching.sigma[idx]]
        raw = staircase_path(x, y)
        paths.append([tuple(np.asarray(v)[inv]) for v in raw])
    chi = default_multiplicity_constant(d)
    return PathBundle(
        paths=paths,
        source_set=frozenset(S1.points),
        target_set=frozenset(S2.points),
        length_bound=2 * d * g.spread,
        multiplicity_bound=chi * (g.spread / g.ell) ** (d - 1),
    )


def _perpendicular_bundle(
    S1: PointSet, S2: PointSet, g: PerpendicularGeometry
) -> PathBundle:
    d = S1.dimension
    K = g.spread
    if g.axis_i == g.axis_j:
        raise PreconditionError("perpendicular geometry needs two distinct axes")
    perm, inv = _axis_to_front(d, g.axis_i, g.axis_j)
    a1 = _permute(S1.array, perm)  # axis i -> 0, axis j -> 1
    a2 = _permute(S2.array, perm)
    if (a1[:, 0] != 0).any() or (a2[:, 1] != 0).any():
        raise PreconditionError("sets must lie on the two declared hyperplanes")
    if max(np.abs(a1).max(), np.abs(a2).max()) > K:
        raise PreconditionError("sets must be contained in [-K, K]^d")

    # reflections making the relevant halves majorities
    flip_j = 1 if 2 * int((a1[:, 1] >= 0).sum()) >= len(a1) else -1
    flip_i = 1 if 2 * int((a2[:, 0] >= 0).sum()) >= len(a2) else -1
    r1 = a1.copy()
    r2 = a2.copy()
    r1[:, 1] *= flip_j
    r2[:, 1] *= flip_j
    r1[:, 0] *= flip_i
    r2[:, 0] *= flip_i

    m0 = min(len(r1), len(r2))
    m_half = (m0 + 1) // 2
    h1 = r1[r1[:, 1] >= 0]
    h2 = r2[r2[:, 0] >= 0]
    if len(h1) < m_half or len(h2) < m_half:
        raise PreconditionError("reflection halves too small (inconsistent input)")
    h1 = h1[np.lexsort(h1.T[::-1])][:m_half]
    h2 = h2[np.lexsort(h2.T[::-1])][:m_half]

    # diagonal lift of the second set onto the hyperplane x_i = K
    lifted = h2.copy()
    t = K - h2[:, 0]
    lifted[:, 0] += t
    lifted[:, 1] += t
    diag_paths = [staircase_path(z, y) for z, y in zip(h2, lifted)]

    matching = separated_matching(
        PointSet.of(h1), PointSet.of(lifted), 2 * K
    )
    matching.verify()
    chi = default_multiplicity_constant(d)
    paths = []
    for idx in range(m_half):
        x = matching.s1[idx]
        y = matching.s2[matching.sigma[idx]]
        lift_pos = [tuple(q) for q in lifted].index(y)
        joined = concat_paths(staircase_path(x, y), diag_paths[lift_pos][::-1])
        arr = np.asarray(joined, dtype=np.int64)
        arr[:, 0] *= flip_i
        arr[:, 1] *= flip_j
        paths.append([tuple(v[inv]) for v in arr])
    return PathBundle(
        paths=paths,
        source_set=frozenset(S1.points),
        target_set=frozenset(S2.points),
        length_bound=2 * d * K,
        multiplicity_bound=chi * 2 ** (d - 1) + 4**d,
    )


def axis_avoiding_paths(x_list, y_list) -> PathBundle:
    """Pairwise disjoint detour paths between mirror points on x_1 = -2n, +2n.

    Input: n pairs with x^i = (-2n, rest), y^i = (2n, same rest). Output: n
    vertex-disjoint paths, each of length at most 8n, avoiding the axis-3
    line through the origin, with all interior vertices strictly inside the
    slab -2n < x_1 < 2n.
    """
    xs = [tuple(int(c) for c in v) for v in x_list]
    ys = [tuple(int(c) for c in v) for v in y_list]
    n = len(xs)
    if n == 0 or len(ys) != n:
        raise PreconditionError("need equally many source and target points")
    d = len(xs[0])
    if d < 3:
        raise PreconditionError("axis-avoiding paths require dimension >= 3")
    if len(set(xs)) != n:
        raise PreconditionError("source points must be distinct")
    for x, y in zip(xs, ys):
        if x[0] != -2 * n or y[0] != 2 * n or x[1:] != y[1:]:
            raise PreconditionError(
                "pairs must mirror across x_1 = 0 at offsets -2n, +2n"
            )

    order = sorted(range(n), key=lambda t: (xs[t][1],) + xs[t][2:])
    paths = [None] * n
    for rank, t in enumerate(order, start=1):
        x = np.asarray(xs[t], dtype=np.int64)
        y = np.asarray(ys[t], dtype=np.int64)
        if x[1] < 0:
            paths[t] = straight_path(x, y)
            continue
        inset = max(2 * (n - rank), 1)
        e1 = np.zeros(d, dtype=np.int64)
        e1[0] = 1
        e2 = np.zeros(d, dtype=np.int64)
        e2[1] = 1
        a = x + inset * e1
        b = y - inset * e1
        paths[t] = concat_paths(
            straight_path(x, a),
            straight_path(a, a + e2),
            straight_path(a + e2, b + e2),
            straight_path(b + e2, b),
            straight_path(b, y),
        )

    bundle = PathBundle(
        paths=paths,
        source_set=frozenset(xs),
        target_set=frozenset(ys),
        length_bound=8 * n,
        multiplicity_bound=1,
    )
    for p in bundle.paths:
        for v in p:
            if all(v[k] == 0 for k in range(d) if k != 2):
                raise BundleInvariantError("path touches the avoided axis line")
        for v in p[1:-1]:
            if not -2 * n < v[0] < 2 * n:
                raise BundleInvariantError("interior vertex leaves the open slab")
    return bundle


# ---------------------------------------------------------------------------
# exterior boundaries and animals


@dataclass
class ExteriorBoundary:
    """Outer vertex boundary of a connected set."""

    boundary: frozenset
    star_connected: bool


def _star_offsets(d: int):
    return [
        off
        for off in itertools.product((-1, 0, 1), repeat=d)
        if any(off)
    ]


def _label_cells(cells, star: bool = False, pad: int = 0):
    """Components of a finite vertex set, labelled on a boolean grid.

    ``cells`` is an (m, d) integer array. The grid spans the bounding box of
    ``cells`` grown by ``pad`` on every side, with the box's low corner
    ``lo`` at index 0. Returns ``(labels, count, lo)``: ``labels[v - lo]`` is
    the component number (1..count) of each vertex v of ``cells`` and 0 off
    them. Adjacency is nearest-neighbour, or sup-norm 1 when ``star``. The
    cost is linear in the volume of the grid.
    """
    # imported here, not at module level: no benchmark workload labels
    # vertex sets, and every process importing the package would pay for it
    from scipy import ndimage

    lo = cells.min(axis=0) - pad
    grid = np.zeros(tuple(cells.max(axis=0) + pad + 1 - lo), dtype=bool)
    grid[tuple((cells - lo).T)] = True
    structure = ndimage.generate_binary_structure(grid.ndim, grid.ndim if star else 1)
    labels, count = ndimage.label(grid, structure)
    return labels, count, lo


def exterior_boundary(gamma) -> ExteriorBoundary:
    """Vertices of Z^d off Gamma, adjacent to it, and connected to infinity
    off it.

    ``gamma`` is an iterable of points or an (m, d) integer array. Gamma,
    its complement and the boundary are each labelled once by
    ``_label_cells`` in Gamma's bounding box grown by one. That box's shell
    avoids Gamma and is connected, so the complement component holding the
    shell is the one reaching infinity, and the result is exact in Z^d. The
    cost is linear in the volume of the bounding box. Also reports whether
    the boundary is star-connected.
    """
    cells = np.asarray(
        gamma if isinstance(gamma, np.ndarray) else list(gamma), dtype=np.int64
    )
    if cells.size == 0:
        raise PreconditionError("gamma must be nonempty")
    labels, count, lo = _label_cells(cells, pad=1)
    if count != 1:
        raise PreconditionError("gamma must be Z^d-connected")
    inside = labels > 0
    off, _, _ = _label_cells(np.argwhere(~inside))
    outside = off == off.flat[0]  # index 0 is a shell corner
    # the shell of the grid is off Gamma, so np.roll wraps in no Gamma vertex
    near = np.zeros_like(inside)
    for axis in range(inside.ndim):
        near |= np.roll(inside, 1, axis) | np.roll(inside, -1, axis)
    boundary = np.argwhere(outside & near)
    return ExteriorBoundary(
        boundary=frozenset(map(tuple, (boundary + lo).tolist())),
        star_connected=_label_cells(boundary, star=True)[1] == 1,
    )


def isoperimetry_holds(gamma_size: int, boundary_size: int, d: int) -> bool:
    """|Gamma| <= |dGamma|^(d/(d-1)), the isoperimetric bound with constant
    1. That constant is safe: the largest axis projection of Gamma injects
    into the exterior boundary, and by Loomis-Whitney it is at least
    |Gamma|^((d-1)/d)."""
    return gamma_size <= boundary_size ** (d / (d - 1)) + SEPARATION_TOLERANCE


def count_lattice_animals(d: int, k: int) -> int:
    """Exact number of star-connected k-sets containing the origin; by
    translation invariance, the number containing any fixed site.

    Enumeration work is capped at d*k <= 14. The count never exceeds 7^(dk),
    which is asserted.
    """
    if d * k > MAX_ANIMAL_WORK:
        raise ResourceLimitError(
            f"d*k = {d * k} exceeds enumeration cap {MAX_ANIMAL_WORK}"
        )
    if k < 1:
        raise PreconditionError("animal size must be >= 1")
    root = (0,) * d
    if k == 1:
        return 1
    offsets = _star_offsets(d)

    def neighbours(v):
        return [tuple(v[i] + o[i] for i in range(d)) for o in offsets]

    used = {root}
    initial = sorted(neighbours(root))
    used.update(initial)

    def rec(size, untried):
        cnt = 0
        untried = list(untried)
        while untried:
            c = untried.pop(0)
            if size + 1 == k:
                cnt += 1
                continue
            newly = [w for w in neighbours(c) if w not in used]
            used.update(newly)
            cnt += rec(size + 1, untried + newly)
            used.difference_update(newly)
        return cnt

    count = rec(1, initial)
    assert count <= 7 ** (d * k)
    return count
