import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import all_closed, all_open, flood_fill_labels, same_partition
from percolab import (
    BoxSpec,
    PercolationSample,
    infinite_cluster_proxy,
    label_clusters,
    sample_configuration,
)
from percolab.errors import GeometryError, ResourceLimitError


def test_determinism():
    box = BoxSpec(2, 5)
    a = sample_configuration(box, 0.5, 7)
    b = sample_configuration(box, 0.5, 7)
    assert np.array_equal(a.open_edges, b.open_edges)
    assert a == b


def test_near_one_probability_almost_all_open():
    box = BoxSpec(2, 3)
    s = sample_configuration(box, 0.999999, 123)
    assert box.n_edges == 84
    assert s.open_fraction >= 0.99


def test_open_fraction_binomial_concentration():
    # d=3, L=10: E = 3 * 20 * 21^2 edges, fraction within 5 sigma of p
    box = BoxSpec(3, 10)
    assert box.n_edges == 3 * 2 * 10 * 21**2
    s = sample_configuration(box, 0.7, 1)
    sigma = np.sqrt(0.7 * 0.3 / box.n_edges)
    assert abs(s.open_fraction - 0.7) < 5 * sigma


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


def test_edge_indexing_bijection():
    box = BoxSpec(3, 2)
    seen = set()
    for e in range(box.n_edges):
        a, b = box.edge_endpoints(e)
        axis = next(k for k in range(3) if a[k] != b[k])
        assert b[axis] == a[axis] + 1
        assert box.edge_index(a, axis) == e
        seen.add((a, b))
    assert len(seen) == box.n_edges


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


def test_label_clusters_extremes():
    box = BoxSpec(2, 4)
    lab = label_clusters(all_open(box))
    assert lab.n_components == 1
    assert lab.sizes[0] == box.n_vertices

    lab2 = label_clusters(all_closed(box))
    assert lab2.n_components == box.n_vertices
    assert (lab2.sizes == 1).all()


def test_label_clusters_matches_flood_fill_oracle():
    for seed in range(8):
        s = sample_configuration(BoxSpec(2, 4), 0.5, seed)
        lab = label_clusters(s)
        oracle = flood_fill_labels(s)
        assert same_partition(lab.labels, oracle)
        assert lab.sizes.sum() == s.box.n_vertices


def test_infinite_cluster_proxy_extremes():
    box = BoxSpec(2, 4)
    assert infinite_cluster_proxy(label_clusters(all_open(box))) == 0
    assert infinite_cluster_proxy(label_clusters(all_closed(box))) is None


def test_infinite_cluster_proxy_supercritical_frequency():
    # p = 0.7 > 1/2 = critical point in d=2: the spanning proxy should
    # exist in nearly every sample
    box = BoxSpec(2, 30)
    found = 0
    for seed in range(100):
        lab = label_clusters(sample_configuration(box, 0.7, seed))
        if infinite_cluster_proxy(lab) is not None:
            found += 1
    assert found >= 95


def test_proxy_requires_all_faces():
    # an open straight line spans two opposite faces only: no proxy
    box = BoxSpec(2, 3)
    s = all_closed(box)
    line = [box.edge_index((x, 0), 0) for x in range(-3, 3)]
    s = s.with_edges(open_idx=line)
    lab = label_clusters(s)
    assert infinite_cluster_proxy(lab) is None


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
