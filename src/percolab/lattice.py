"""Finite boxes of Z^d with seeded Bernoulli bond configurations.

Vertices are the integer points of ``origin_offset + [-L, L]^d``. Edges join
nearest neighbours inside the box; edges that would leave the box do not
exist (free boundary). Edge states are a pure function of
``(box, p, seed)``: every edge index is hashed together with the seed into a
uniform in [0, 1) and the edge is open iff that uniform is below ``p``. The
same uniforms are reused for every ``p``, which yields the monotone coupling
``open(p) subset-of open(p')`` for ``p < p'`` under a shared seed.

The uniform of edge ``i`` is ``k * 2**-53`` with ``k = z >> 11`` and
``z = mix64(i ^ mix64(seed))`` (the SplitMix64 finalizer). It is never
formed as a float: since ``k < 2**53`` and scaling by ``2**53`` is exact,
``k * 2**-53 < p`` iff ``k < p * 2**53`` iff ``k < ceil(p * 2**53)`` iff
``z < ceil(p * 2**53) * 2**11``, an integer threshold below ``2**64`` for
``p < 1``. The hash is counter-based, so it is computed in cache-sized
chunks of edge indices.

Scratch memory is per process: the chunk buffers of the hash are allocated
once, at import, and every sample reuses them. A buffer allocated per call
would cross glibc's default mmap threshold (128 KiB), so each sample would
map fresh pages and fault on them, unless some unrelated import had raised
that threshold. The buffers make sampling non-reentrant: one thread samples
at a time; forked workers each get their own copy.

Canonical edge indexing (also the serialized order) is axis-major: all edges
parallel to axis 0 first, then axis 1, and so on. Within one axis family the
edges are ordered by the C-order (row-major) position of their lower
endpoint, whose coordinate along the edge axis ranges over [-L, L-1].
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import GeometryError, ResourceLimitError

SUPPORTED_DIMENSIONS = (2, 3, 4, 5, 6)
MAX_VERTICES = 100_000_000

_MAGIC = b"PLB1"
_FORMAT_VERSION = 1

_MASK64 = 0xFFFFFFFFFFFFFFFF
_SPLIT = (0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB)
_SPLIT_INC, _SPLIT_M1, _SPLIT_M2 = (np.uint64(c) for c in _SPLIT)
_CHUNK = 1 << 15  # edges hashed per pass: three uint64 buffers fit in L2

# per-process scratch of _open_edges (see the module docstring): the chunk's
# edge offsets, read-only, and the hash and shift buffers
_BASE = np.arange(_CHUNK, dtype=np.uint64)
_BASE.flags.writeable = False
_Z = np.empty(_CHUNK, dtype=np.uint64)
_TMP = np.empty(_CHUNK, dtype=np.uint64)


def _mix64(x: int) -> int:
    """SplitMix64 finalizer of one 64-bit Python int, in masked integer
    arithmetic (``_open_edges`` takes the same steps on uint64 arrays)."""
    inc, m1, m2 = _SPLIT
    z = (x + inc) & _MASK64
    z = ((z ^ (z >> 30)) * m1) & _MASK64
    z = ((z ^ (z >> 27)) * m2) & _MASK64
    return z ^ (z >> 31)


def _hash_threshold(p: float) -> int:
    """The least z with (z >> 11) * 2**-53 >= p, for 0 < p < 1."""
    return math.ceil(p * 2.0**53) << 11


def _open_edges(seed: int, n_edges: int, p: float) -> np.ndarray:
    """Edge i is open iff mix64(i ^ mix64(seed)) < _hash_threshold(p),
    computed _CHUNK edges at a time in the module's scratch buffers."""
    out = np.empty(n_edges, dtype=bool)
    key = np.uint64(_mix64(seed & _MASK64))
    below = np.uint64(_hash_threshold(p))
    for start in range(0, n_edges, _CHUNK):
        m = min(_CHUNK, n_edges - start)
        zc, tc = _Z[:m], _TMP[:m]
        np.add(_BASE[:m], np.uint64(start), out=zc)
        np.bitwise_xor(zc, key, out=zc)
        np.add(zc, _SPLIT_INC, out=zc)
        for shift, mult in ((30, _SPLIT_M1), (27, _SPLIT_M2)):
            np.right_shift(zc, np.uint64(shift), out=tc)
            np.bitwise_xor(zc, tc, out=zc)
            np.multiply(zc, mult, out=zc)
        np.right_shift(zc, np.uint64(31), out=tc)
        np.bitwise_xor(zc, tc, out=zc)
        np.less(zc, below, out=out[start : start + m])
    return out


@dataclass(frozen=True)
class BoxSpec:
    """Axis-aligned box of Z^d: integer points of offset + [-L, L]^d."""

    dimension: int
    radius: int
    origin_offset: tuple[int, ...] = ()

    def __post_init__(self):
        if self.dimension not in SUPPORTED_DIMENSIONS:
            raise ResourceLimitError(
                f"dimension {self.dimension} outside supported range "
                f"{SUPPORTED_DIMENSIONS[0]}..{SUPPORTED_DIMENSIONS[-1]}"
            )
        if self.radius < 1:
            raise ResourceLimitError("radius must be >= 1")
        off = self.origin_offset or (0,) * self.dimension
        if len(off) != self.dimension:
            raise GeometryError("origin_offset length must equal dimension")
        object.__setattr__(self, "origin_offset", tuple(int(c) for c in off))
        if self.side**self.dimension > MAX_VERTICES:
            raise ResourceLimitError(
                f"box would hold {self.side ** self.dimension} vertices "
                f"(cap {MAX_VERTICES})"
            )

    @property
    def side(self) -> int:
        return 2 * self.radius + 1

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.side,) * self.dimension

    @property
    def n_vertices(self) -> int:
        return self.side**self.dimension

    @property
    def edges_per_axis(self) -> int:
        return 2 * self.radius * self.side ** (self.dimension - 1)

    @property
    def n_edges(self) -> int:
        return self.dimension * self.edges_per_axis

    @property
    def strides(self) -> tuple[int, ...]:
        # C-order strides in units of elements
        s = [1] * self.dimension
        for k in range(self.dimension - 2, -1, -1):
            s[k] = s[k + 1] * self.side
        return tuple(s)

    @property
    def low_corner(self) -> tuple[int, ...]:
        return tuple(o - self.radius for o in self.origin_offset)

    @property
    def high_corner(self) -> tuple[int, ...]:
        return tuple(o + self.radius for o in self.origin_offset)

    def contains(self, coord) -> bool:
        if len(coord) != self.dimension:
            raise GeometryError(
                f"vertex {tuple(coord)} has {len(coord)} coordinates, "
                f"not {self.dimension}"
            )
        lo, hi = self.low_corner, self.high_corner
        return all(lo[k] <= coord[k] <= hi[k] for k in range(self.dimension))

    def grid_index(self, coord) -> tuple[int, ...]:
        if not self.contains(coord):
            raise GeometryError(f"vertex {tuple(coord)} outside box")
        lo = self.low_corner
        return tuple(int(coord[k]) - lo[k] for k in range(self.dimension))

    def flat_index(self, coord) -> int:
        gi = self.grid_index(coord)
        return int(sum(g * s for g, s in zip(gi, self.strides)))

    def vertex_coord(self, flat: int) -> tuple[int, ...]:
        gi = np.unravel_index(int(flat), self.shape)
        lo = self.low_corner
        return tuple(int(g) + lo[k] for k, g in enumerate(gi))

    def coords_of_flats(self, flats: np.ndarray) -> np.ndarray:
        """(m, d) lattice coordinates for an array of flat indices."""
        gi = np.unravel_index(np.asarray(flats, dtype=np.int64), self.shape)
        out = np.stack(gi, axis=-1).astype(np.int64)
        return out + np.asarray(self.low_corner, dtype=np.int64)

    def flats_of_coords(self, coords: np.ndarray) -> np.ndarray:
        arr = np.asarray(coords, dtype=np.int64)
        gi = arr - np.asarray(self.low_corner, dtype=np.int64)
        if (gi < 0).any() or (gi >= self.side).any():
            raise GeometryError("some vertices fall outside the box")
        return np.ravel_multi_index(tuple(gi.T), self.shape).astype(np.int64)

    def window_flats(self, lo, hi) -> np.ndarray:
        """Flat indices of the coordinate window [lo, hi) (exclusive upper),
        shaped like the window grid."""
        g_lo = np.subtract(lo, self.low_corner)
        g_hi = np.subtract(hi, self.low_corner)
        if (g_lo < 0).any() or (g_hi > self.side).any():
            raise GeometryError("window leaves the box")
        axes = np.ix_(*(np.arange(a, b) for a, b in zip(g_lo, g_hi)))
        return np.ravel_multi_index(axes, self.shape).astype(np.int64)

    @property
    def face_flat(self) -> np.ndarray:
        """Boolean mask (len n_vertices) of vertices on any box face."""
        return _face_flat(self.dimension, self.radius)

    def edge_index(self, coord, axis: int) -> int:
        """Canonical index of the edge from coord to coord + e_axis."""
        gi = list(self.grid_index(coord))
        if gi[axis] >= self.side - 1:
            raise GeometryError("edge leaves the box")
        rshape = list(self.shape)
        rshape[axis] = self.side - 1
        inner = int(np.ravel_multi_index(tuple(gi), tuple(rshape)))
        return axis * self.edges_per_axis + inner

    def incident_edges(self, coord):
        """(edge_index, neighbour_coord) pairs for all box edges at coord."""
        gi = self.grid_index(coord)
        out = []
        for axis in range(self.dimension):
            if gi[axis] < self.side - 1:
                nb = tuple(c + (1 if k == axis else 0) for k, c in enumerate(coord))
                out.append((self.edge_index(coord, axis), nb))
            if gi[axis] > 0:
                nb = tuple(c - (1 if k == axis else 0) for k, c in enumerate(coord))
                out.append((self.edge_index(nb, axis), nb))
        return out


@lru_cache(maxsize=32)
def _face_flat(dimension: int, radius: int) -> np.ndarray:
    side = 2 * radius + 1
    shape = (side,) * dimension
    mask = np.zeros(shape, dtype=bool)
    for axis in range(dimension):
        sl_lo = [slice(None)] * dimension
        sl_lo[axis] = 0
        mask[tuple(sl_lo)] = True
        sl_hi = [slice(None)] * dimension
        sl_hi[axis] = side - 1
        mask[tuple(sl_hi)] = True
    mask.flags.writeable = False
    return mask.reshape(-1)


@dataclass
class PercolationSample:
    """One bond configuration on a box. Immutable by convention.

    ``open_edges`` is indexed by the canonical edge index. Samples produced
    by :func:`sample_configuration` are a pure function of (box, p, seed);
    surgered samples carry the parent's p and seed but modified edges.
    """

    box: BoxSpec
    p: float
    seed: int
    open_edges: np.ndarray
    _axis_open: list = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        self.open_edges = np.asarray(self.open_edges, dtype=bool)
        if self.open_edges.shape != (self.box.n_edges,):
            raise GeometryError("open_edges length must equal box.n_edges")

    def __eq__(self, other):
        if not isinstance(other, PercolationSample):
            return NotImplemented
        return (
            self.box == other.box
            and self.p == other.p
            and self.seed == other.seed
            and np.array_equal(self.open_edges, other.open_edges)
        )

    def axis_view(self, axis: int) -> np.ndarray:
        """Edge states of one axis family, shaped like the base-vertex grid."""
        epa = self.box.edges_per_axis
        shape = list(self.box.shape)
        shape[axis] = self.box.side - 1
        return self.open_edges[axis * epa : (axis + 1) * epa].reshape(shape)

    def axis_open_flats(self) -> list[np.ndarray]:
        """Per-axis full-grid masks: entry at v says edge (v, v+e_k) is open.

        Slots whose edge would leave the box are False, which lets BFS index
        by flat vertex id without bound checks.
        """
        if self._axis_open is None:
            d = self.box.dimension
            side = self.box.side
            masks = []
            for axis in range(d):
                full = np.zeros(self.box.shape, dtype=bool)
                sl = [slice(None)] * d
                sl[axis] = slice(0, side - 1)
                full[tuple(sl)] = self.axis_view(axis)
                masks.append(full.reshape(-1))
            self._axis_open = masks
        return self._axis_open

    def is_edge_open(self, edge_index: int) -> bool:
        return bool(self.open_edges[int(edge_index)])

    def with_edges(self, close_idx=(), open_idx=()) -> "PercolationSample":
        """Copy with the given canonical edge indexes forced closed/open."""
        edges = self.open_edges.copy()
        if len(close_idx):
            edges[np.asarray(close_idx, dtype=np.int64)] = False
        if len(open_idx):
            edges[np.asarray(open_idx, dtype=np.int64)] = True
        return PercolationSample(self.box, self.p, self.seed, edges)

    # -- serialization -----------------------------------------------------

    def to_bytes(self) -> bytes:
        b = self.box
        head = _MAGIC + struct.pack("<HHI", _FORMAT_VERSION, b.dimension, b.radius)
        head += struct.pack(f"<{b.dimension}q", *b.origin_offset)
        head += struct.pack("<dQ", self.p, self.seed & 0xFFFFFFFFFFFFFFFF)
        bits = np.packbits(self.open_edges.view(np.uint8), bitorder="little")
        return head + bits.tobytes()

    @classmethod
    def from_bytes(cls, blob: bytes) -> "PercolationSample":
        if blob[:4] != _MAGIC:
            raise GeometryError("not a percolab sample (bad magic)")
        ver, d, radius = struct.unpack_from("<HHI", blob, 4)
        if ver != _FORMAT_VERSION:
            raise GeometryError(f"unsupported sample format version {ver}")
        off = struct.unpack_from(f"<{d}q", blob, 12)
        p, seed = struct.unpack_from("<dQ", blob, 12 + 8 * d)
        box = BoxSpec(d, radius, off)
        payload = np.frombuffer(blob, dtype=np.uint8, offset=12 + 8 * d + 16)
        bits = np.unpackbits(payload, bitorder="little")[: box.n_edges]
        return cls(box, p, int(seed), bits.astype(bool))

    def save(self, path) -> None:
        with open(path, "wb") as fh:
            fh.write(self.to_bytes())

    @classmethod
    def load(cls, path) -> "PercolationSample":
        with open(path, "rb") as fh:
            return cls.from_bytes(fh.read())


def sample_configuration(box: BoxSpec, p: float, seed: int) -> PercolationSample:
    """Draw a bond configuration, deterministically in (box, p, seed)."""
    if not 0.0 < p < 1.0:
        raise ResourceLimitError("p must lie strictly inside (0, 1)")
    open_edges = _open_edges(int(seed), box.n_edges, float(p))
    return PercolationSample(box, float(p), int(seed), open_edges)
