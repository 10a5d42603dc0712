import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from conftest import (
    MASK64,
    all_closed,
    all_open,
    edge_base_flats,
    flood_fill_labels,
    mix64_oracle,
    same_partition,
)
from percolab import BoxSpec, PercolationSample, sample_configuration
from percolab.errors import GeometryError, ResourceLimitError
from percolab.estimators import replicate_seed
from percolab.lattice import _CHUNK, _hash_threshold, _open_edges
from percolab.renorm import window_components


def _open_oracle(seed, n_edges, p):
    """Edge i is open iff its uniform ((mix64(i ^ mix64(seed)) >> 11) * 2**-53)
    is below p, formed as a float over the whole index range at once."""
    key = mix64_oracle(np.uint64(seed & MASK64))
    z = mix64_oracle(np.arange(n_edges, dtype=np.uint64) ^ key)
    return (z >> np.uint64(11)).astype(np.float64) * 2.0**-53 < p


def test_determinism():
    box = BoxSpec(2, 5)
    a = sample_configuration(box, 0.5, 7)
    b = sample_configuration(box, 0.5, 7)
    assert np.array_equal(a.open_edges, b.open_edges)
    assert a == b


EDGE_PROBABILITIES = [
    0.5, 0.25, 0.4, 0.7, np.nextafter(0.0, 1.0), np.nextafter(1.0, 0.0),
    np.nextafter(0.5, 0.0), np.nextafter(0.5, 1.0),
]
EDGE_SEEDS = [0, 7, 2**63, 2**64 - 1, 2**64 + 5, -1, -(2**63), -123456789]


@pytest.mark.parametrize(
    "n_edges", [1, 100, _CHUNK - 1, _CHUNK, _CHUNK + 1, 3 * _CHUNK + 17]
)
def test_chunked_edge_states_equal_the_float_uniform_formula(n_edges):
    for seed in EDGE_SEEDS:
        for p in EDGE_PROBABILITIES:
            assert np.array_equal(
                _open_edges(seed, n_edges, float(p)), _open_oracle(seed, n_edges, p)
            ), (seed, p)


@pytest.mark.parametrize("seed", EDGE_SEEDS)
def test_sample_configuration_equals_the_float_uniform_formula(seed):
    # 12 edges, and 669,780 edges: 20 chunks plus a remainder
    for box in (BoxSpec(2, 1), BoxSpec(3, 30)):
        for p in (0.5, 0.25, 0.4, np.nextafter(1.0, 0.0)):
            s = sample_configuration(box, p, seed)
            assert np.array_equal(s.open_edges, _open_oracle(seed, box.n_edges, p))


def test_hash_threshold_splits_uniforms_exactly_at_p():
    rng = np.random.default_rng(5)
    ps = [0.5, 0.25, 2.0**-53, 1.0 - 2.0**-53, *EDGE_PROBABILITIES[4:]]
    ps += list(rng.random(200))
    for p in ps:
        below = _hash_threshold(float(p))
        assert below % 2048 == 0 and below < 2**64
        k = below >> 11  # least k whose uniform k * 2**-53 is not below p
        for kk in (k - 2, k - 1, k, k + 1):
            if 0 <= kk < 2**53:
                # every z with z >> 11 == kk falls on the same side
                for z in (kk << 11, (kk << 11) | 2047):
                    assert (z < below) == (kk * 2.0**-53 < p), (p, kk)


def test_coordinate_of_another_dimension_is_refused():
    box = BoxSpec(2, 5)
    for coord in ((0, 0, 99), (0,)):
        with pytest.raises(GeometryError):
            box.contains(coord)
        with pytest.raises(GeometryError):
            box.flat_index(coord)


def test_near_one_probability_almost_all_open():
    box = BoxSpec(2, 3)
    s = sample_configuration(box, 0.999999, 123)
    assert box.n_edges == 84
    assert s.open_edges.mean() >= 0.99


def test_open_fraction_binomial_concentration():
    # d=3, L=10: E = 3 * 20 * 21^2 edges, fraction within 5 sigma of p
    box = BoxSpec(3, 10)
    assert box.n_edges == 3 * 2 * 10 * 21**2
    s = sample_configuration(box, 0.7, 1)
    sigma = np.sqrt(0.7 * 0.3 / box.n_edges)
    assert abs(s.open_edges.mean() - 0.7) < 5 * sigma


@settings(max_examples=40, deadline=None)
@given(
    d=st.integers(2, 3),
    radius=st.integers(1, 5),
    seed=st.integers(0, 2**63 - 1),
    p_pair=st.tuples(st.floats(0.05, 0.95), st.floats(0.05, 0.95)),
)
def test_monotone_coupling(d, radius, seed, p_pair):
    p_lo, p_hi = sorted(p_pair)
    box = BoxSpec(d, radius)
    lo = sample_configuration(box, p_lo, seed)
    hi = sample_configuration(box, p_hi, seed)
    assert (~lo.open_edges | hi.open_edges).all()


# ---------------------------------------------------------------------------
# the law of the edge field
#
# These checks hold for any sampler of independent Bernoulli(p) edges,
# whatever its hash, so they outlive a change of how edges are keyed, which
# moves every byte pin. Every z-score below is standard normal under that
# law; a check passes when each |z| of its family stays below the two-sided
# Bonferroni bound at family-wise level LAW_ALPHA. The seeds are fixed, so
# every check is deterministic.

LAW_ALPHA = 1e-3
LAW_BOXES = (BoxSpec(2, 40), BoxSpec(3, 12))
LAW_P = (0.3, 0.6)
LAW_SEEDS = (3, 2**63 + 11)


def _law_samples():
    for box in LAW_BOXES:
        for p in LAW_P:
            for seed in LAW_SEEDS:
                yield sample_configuration(box, p, seed)


def _z_count(states, p):
    """z-score of the open count of ``states``."""
    return (states.sum() - states.size * p) / np.sqrt(states.size * p * (1 - p))


def _z_pairs(a, b, p):
    """z-score of sum (a - p)(b - p) over paired states: for independent
    states its terms are uncorrelated, each of variance (p (1 - p))^2, also
    when the pairs overlap."""
    terms = (a - p) * (b - p)
    return terms.sum() / (np.sqrt(terms.size) * p * (1 - p))


def assert_within_bonferroni(zs):
    zs = np.abs(zs)
    bound = norm.isf(LAW_ALPHA / (2 * len(zs)))
    assert zs.max() < bound, (int(zs.argmax()), float(zs.max()), bound)


def test_open_frequency_per_axis_and_parity_class():
    # the class of an edge is the parity vector of its lower endpoint
    zs = []
    for s in _law_samples():
        d = s.box.dimension
        for axis in range(d):
            states = s.axis_view(axis)
            parity = np.indices(states.shape) % 2
            classes = np.ravel_multi_index(tuple(parity), (2,) * d)
            zs += [_z_count(states[classes == c], s.p) for c in range(2**d)]
    assert len(zs) == 4 * (2 * 4 + 3 * 8)
    assert_within_bonferroni(zs)


def test_lag_one_correlation_along_each_axis():
    # an edge and its translate by one step along each axis, and edges i
    # and i + 1 of the canonical order
    zs = []
    for s in _law_samples():
        d = s.box.dimension
        for axis in range(d):
            states = s.axis_view(axis).astype(float)
            for lag in range(d):
                size = states.shape[lag]
                zs.append(_z_pairs(
                    np.take(states, np.arange(size - 1), axis=lag),
                    np.take(states, np.arange(1, size), axis=lag), s.p,
                ))
        edges = s.open_edges.astype(float)
        zs.append(_z_pairs(edges[:-1], edges[1:], s.p))
    assert_within_bonferroni(zs)


def test_neighbouring_replicates_and_seeds_are_uncorrelated_edge_by_edge():
    # replicates i and i + 1 of one run, and run seeds one apart or apart in
    # the top bit, compared at every edge of one box
    zs = []
    for box in LAW_BOXES:
        for p in LAW_P:
            for seed in LAW_SEEDS:
                states = [
                    sample_configuration(box, p, s).open_edges.astype(float)
                    for s in [replicate_seed(seed, i) for i in range(4)]
                    + [seed, seed + 1, seed ^ (1 << 63)]
                ]
                zs += [_z_pairs(a, b, p) for a, b in zip(states[:3], states[1:4])]
                zs += [_z_pairs(states[4], b, p) for b in states[5:]]
    assert_within_bonferroni(zs)


def test_resource_guards():
    with pytest.raises(ResourceLimitError):
        BoxSpec(1, 5)
    with pytest.raises(ResourceLimitError):
        BoxSpec(7, 5)
    with pytest.raises(ResourceLimitError):
        BoxSpec(2, 0)
    with pytest.raises(ResourceLimitError):
        sample_configuration(BoxSpec(2, 3), 0.0, 1)
    with pytest.raises(ResourceLimitError):
        sample_configuration(BoxSpec(2, 3), 1.0, 1)


def test_edge_index_follows_the_canonical_order():
    # edge e of axis k has as lower endpoint entry e - k * edges_per_axis of
    # the oracle's axis-major, C-ordered list, for a centred and a shifted box
    for box in (BoxSpec(3, 2), BoxSpec(2, 3, (10, -4))):
        for axis in range(box.dimension):
            for j, base in enumerate(edge_base_flats(box, axis)):
                coord = box.vertex_coord(base)
                assert box.edge_index(coord, axis) == axis * box.edges_per_axis + j


def test_offset_box_contains_and_flats():
    box = BoxSpec(2, 3, (10, -4))
    assert box.contains((13, -1))
    assert not box.contains((14, 0))
    flat = box.flat_index((10, -4))
    assert box.vertex_coord(flat) == (10, -4)


def test_incident_edges_interior_and_corner():
    box = BoxSpec(2, 2)
    assert len(box.incident_edges((0, 0))) == 4
    assert len(box.incident_edges((2, 2))) == 2


def restricted(sample, sub):
    """The edges of ``sample`` that lie inside the sub-box ``sub``, as a
    sample on ``sub``."""
    idx = []
    for axis in range(sub.dimension):
        for base in sub.coords_of_flats(edge_base_flats(sub, axis)):
            idx.append(sample.box.edge_index(tuple(base), axis))
    return PercolationSample(sub, sample.p, sample.seed, sample.open_edges[idx])


# the whole box and an interior window of BoxSpec(d, 4)
WINDOWS = [BoxSpec(2, 4), BoxSpec(2, 2, (1, -1)), BoxSpec(3, 4), BoxSpec(3, 1, (2, 0, -1))]


def components(sample, sub):
    return window_components(sample, sub.low_corner, np.add(sub.high_corner, 1))


@pytest.mark.parametrize("sub", WINDOWS, ids=lambda b: f"d{b.dimension}-r{b.radius}")
def test_window_components_extremes(sub):
    box = BoxSpec(sub.dimension, 4)
    labels, sizes, flats = components(all_open(box), sub)
    assert labels.shape == flats.shape == sub.shape
    assert len(sizes) == 1
    assert sizes[0] == sub.n_vertices

    labels, sizes, _ = components(all_closed(box), sub)
    assert len(sizes) == sub.n_vertices
    assert (sizes == 1).all()


@pytest.mark.parametrize("sub", WINDOWS, ids=lambda b: f"d{b.dimension}-r{b.radius}")
def test_window_components_matches_flood_fill_oracle(sub):
    # a window's clusters use only the open edges inside it
    box = BoxSpec(sub.dimension, 4)
    for seed in range(8):
        s = sample_configuration(box, 0.5, seed)
        labels, sizes, flats = components(s, sub)
        oracle = flood_fill_labels(restricted(s, sub))
        assert same_partition(labels.reshape(-1), oracle)
        assert sorted(sizes) == sorted(np.bincount(oracle))
        coords = sub.coords_of_flats(np.arange(sub.n_vertices))
        assert np.array_equal(flats.reshape(-1), box.flats_of_coords(coords))


def test_serialization_roundtrip_bitexact(tmp_path):
    s = sample_configuration(BoxSpec(3, 4, (5, -2, 0)), 0.37, 99)
    blob = s.to_bytes()
    t = PercolationSample.from_bytes(blob)
    assert t == s
    assert t.to_bytes() == blob

    path = tmp_path / "sample.bin"
    s.save(path)
    assert PercolationSample.load(path) == s


def test_with_edges_does_not_mutate():
    s = sample_configuration(BoxSpec(2, 3), 0.5, 4)
    before = s.open_edges.copy()
    s.with_edges(close_idx=[0, 1], open_idx=[2])
    assert np.array_equal(s.open_edges, before)
