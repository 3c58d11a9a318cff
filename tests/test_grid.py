import numpy as np
import pytest

from fracback.grid import build_interval_mesh, build_square_mesh, restrict_nodal


def test_interval_counts():
    m = build_interval_mesh(2)
    assert m.num_nodes == 3
    assert m.num_elements == 2
    assert np.allclose(m.nodes.ravel(), [0.0, 0.5, 1.0])
    assert m.num_interior == 1

    m4 = build_interval_mesh(4)
    assert m4.num_nodes == 5
    assert m4.num_elements == 4
    assert m4.num_interior == 3


def test_interval_rejects_small_n():
    with pytest.raises(ValueError):
        build_interval_mesh(1)


def test_square_counts():
    m = build_square_mesh(2)
    assert m.num_nodes == 9
    assert m.num_elements == 8
    assert m.num_interior == 1

    m3 = build_square_mesh(3)
    assert m3.num_nodes == 16
    assert m3.num_elements == 18
    assert m3.num_interior == 4


def test_square_rejects_small_n():
    with pytest.raises(ValueError):
        build_square_mesh(1)


def test_square_area_partition():
    m = build_square_mesh(7)
    assert abs(m.element_measures().sum() - 1.0) < 1e-14


@pytest.mark.parametrize("n", [2, 3, 5, 8, 13])
def test_measures_sum_to_one(n):
    for m in (build_interval_mesh(n), build_square_mesh(n)):
        meas = m.element_measures()
        assert np.all(meas > 0.0), "positive orientation"
        assert abs(meas.sum() - 1.0) < 1e-13


@pytest.mark.parametrize("n", [2, 4, 6, 10])
def test_refinement_nesting(n):
    for build in (build_interval_mesh, build_square_mesh):
        coarse = build(n)
        fine = build(2 * n)
        fine_set = {tuple(p) for p in fine.nodes}
        assert all(tuple(p) in fine_set for p in coarse.nodes)


def test_boundary_classification():
    m = build_square_mesh(4)
    on_edge = np.any((m.nodes == 0.0) | (m.nodes == 1.0), axis=1)
    assert np.array_equal(m.boundary_mask, on_edge)
    assert m.num_interior == 9


def test_restrict_nodal_roundtrip():
    fine = build_square_mesh(12)
    coarse = build_square_mesh(4)
    vals = np.sin(2 * np.pi * fine.nodes[:, 0]) * fine.nodes[:, 1]
    got = restrict_nodal(fine, coarse, vals)
    want = np.sin(2 * np.pi * coarse.nodes[:, 0]) * coarse.nodes[:, 1]
    assert np.allclose(got, want, atol=1e-14)


def test_restrict_nodal_rejects_non_nested():
    with pytest.raises(ValueError):
        restrict_nodal(build_interval_mesh(10), build_interval_mesh(4), np.zeros(11))


def test_mesh_meta():
    m = build_square_mesh(5)
    meta = m.meta()
    assert meta == {"dim": 2, "n": 5, "h": 0.2, "num_nodes": 36, "num_elements": 50}
