import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from fracback import fem
from fracback.fem import (
    GridFunction,
    NumericalFailure,
    UnsupportedSize,
    assemble,
    assemble_full,
    conjugate_gradient,
    l2_error,
    l2_norm,
    l2_project,
    load_nonlinear,
    write_field_csv,
)
from fracback.forward import get_nonlinearity
from fracback.grid import Mesh, build_interval_mesh, build_square_mesh


@pytest.fixture(scope="module")
def sys1d():
    return assemble(build_interval_mesh(4))


@pytest.fixture(scope="module")
def sys2d():
    return assemble(build_square_mesh(8))


def test_interval_stencils(sys1d, sys2d):
    h = 0.25
    M = sys1d.M.toarray()
    K = sys1d.K.toarray()
    assert np.allclose(np.diag(M), 4 * h / 6)
    assert np.allclose(np.diag(M, 1), h / 6)
    assert np.allclose(np.diag(K), 2 / h)
    assert np.allclose(np.diag(K, 1), -1 / h)
    # symmetric local matrices and at most two contributions per
    # off-diagonal entry: the assembled matrices are symmetric bit for bit
    for sys in (sys1d, sys2d):
        for A in (sys.M, sys.K):
            assert (A != A.T).nnz == 0


def test_full_stiffness_kills_linear_function(sys1d):
    Mf, Kf = assemble_full(sys1d.mesh)
    x = sys1d.mesh.nodes[:, 0]
    assert np.allclose((Kf @ x)[sys1d.interior_ids], 0.0, atol=1e-13)


def _simplex_mesh(nodes, elements):
    """A mesh of separate elements given by hand (no shared vertices needed)."""
    nodes = np.asarray(nodes, dtype=np.float64)
    return Mesh(dim=nodes.shape[1], n=1, nodes=nodes,
                elements=np.asarray(elements, dtype=np.int64),
                boundary_mask=np.zeros(nodes.shape[0], dtype=bool))


def _local_blocks(mesh):
    """Per-element (M_loc, K_loc) read back from the full matrices of a mesh
    whose elements share no vertex."""
    Mf, Kf = assemble_full(mesh)
    return [(Mf[e][:, e].toarray(), Kf[e][:, e].toarray()) for e in mesh.elements]


# counterclockwise triangles of varied shape: obtuse, thin, large, off-origin
_TRIANGLES = [
    [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)],
    [(0.1, 0.2), (0.9, 0.35), (0.3, 0.8)],
    [(-1.0, 0.5), (2.0, 0.4), (1.9, 0.47)],
    [(3.0, -2.0), (3.5, 4.0), (-7.0, 1.0)],
    [(0.25, 0.25), (0.5, 0.25), (0.5, 0.5)],
]


def test_interval_element_matches_textbook():
    for a, b in [(0.0, 1.0), (0.3, 0.7), (-2.0, 5.5), (1e-3, 1.0 + 1e-3)]:
        (m_loc, k_loc), = _local_blocks(_simplex_mesh([[a], [b]], [[0, 1]]))
        h = b - a
        assert np.allclose(k_loc, np.array([[1.0, -1.0], [-1.0, 1.0]]) / h, rtol=1e-14, atol=0)
        assert np.allclose(m_loc, h / 6 * np.array([[2.0, 1.0], [1.0, 2.0]]), rtol=1e-14, atol=0)


def test_reference_triangle_matches_textbook():
    mesh = _simplex_mesh(_TRIANGLES[0], [[0, 1, 2]])
    assert mesh.element_measures() == pytest.approx([0.5], rel=1e-15)
    (m_loc, k_loc), = _local_blocks(mesh)
    assert np.allclose(k_loc, 0.5 * np.array([[2.0, -1.0, -1.0], [-1.0, 1.0, 0.0],
                                              [-1.0, 0.0, 1.0]]), rtol=0, atol=1e-15)
    assert np.allclose(m_loc, (np.ones((3, 3)) + np.eye(3)) / 24, rtol=1e-15, atol=0)


def test_triangle_element_under_rotation_and_scaling():
    tris = np.array(_TRIANGLES)
    nodes = tris.reshape(-1, 2)
    elements = np.arange(nodes.shape[0]).reshape(-1, 3)
    mesh = _simplex_mesh(nodes, elements)
    base = _local_blocks(mesh)
    area = mesh.element_measures()
    # shoelace areas, positive for counterclockwise vertices
    e1, e2 = tris[:, 1] - tris[:, 0], tris[:, 2] - tris[:, 0]
    assert np.allclose(area, 0.5 * (e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]),
                       rtol=1e-14, atol=0)
    for theta, scale in [(0.7, 1.0), (2.9, 3.5), (-1.3, 0.01)]:
        c, s = np.cos(theta), np.sin(theta)
        moved = scale * nodes @ np.array([[c, s], [-s, c]])
        mesh = _simplex_mesh(moved, elements)
        assert np.allclose(mesh.element_measures(), scale ** 2 * area, rtol=1e-13, atol=0)
        for (_, k0), (m1, k1), a in zip(base, _local_blocks(mesh), area):
            # K_loc is invariant in 2D; M_loc scales with the area
            assert np.max(np.abs(k1 - k0)) <= 1e-14 * max(1.0, np.max(np.abs(k0)))
            assert np.allclose(m1, a * scale ** 2 * (np.ones((3, 3)) + np.eye(3)) / 12,
                               rtol=1e-13, atol=0)


def test_full_stiffness_kills_constants():
    triangles = _simplex_mesh(np.reshape(_TRIANGLES, (-1, 2)), np.arange(15).reshape(-1, 3))
    for mesh in (build_interval_mesh(33), build_square_mesh(17), triangles):
        _, Kf = assemble_full(mesh)
        ones = np.ones(mesh.num_nodes)
        assert np.max(np.abs(Kf @ ones)) <= 1e-13 * abs(Kf).max()


@pytest.mark.parametrize("n", [2, 14, 17, 66, 70])
def test_square_mesh_diagonal_couplings_are_exact_zeros(n):
    # the split diagonal of a Friedrichs-Keller cell is the hypotenuse of
    # two right triangles: its stiffness coupling vanishes exactly
    mesh = build_square_mesh(n)
    _, Kf = assemble_full(mesh)
    iy, ix = np.divmod(np.arange((n + 1) * n), n + 1)
    keep = ix < n
    a = (iy * (n + 1) + ix)[keep]
    assert np.all(np.asarray(Kf[a, a + n + 2]).ravel() == 0.0)
    assert np.all(mesh.element_measures() > 0.0)


def test_spd(sys2d):
    rng = np.random.default_rng(3)
    for _ in range(5):
        v = rng.standard_normal(sys2d.num_dofs)
        assert v @ (sys2d.M @ v) > 0.0
        assert v @ (sys2d.K @ v) > 0.0


def test_lowest_eigenvalue_1d():
    sys = assemble(build_interval_mesh(64))
    lam, _ = sys.eigenpairs()
    assert lam[0] == pytest.approx(9.8696, abs=0.01)
    assert np.all(lam > 0.0)
    assert lam.size == sys.num_dofs


def test_lowest_eigenvalue_2d():
    sys = assemble(build_square_mesh(16))
    lam, _ = sys.eigenpairs()
    assert lam[0] == pytest.approx(2 * np.pi ** 2, rel=0.02)


@pytest.mark.parametrize("dim, n", [(1, 2), (1, 3), (1, 7), (1, 40), (2, 2), (2, 3), (2, 6), (2, 16)])
def test_lowest_discrete_eigenvalue_bounds_continuous(dim, n):
    # Rayleigh-Ritz on conforming P1 with the consistent mass: lam_1h >= lam_1
    # = dim pi^2; the series F^N relies on it for its interval
    sys = assemble(build_interval_mesh(n) if dim == 1 else build_square_mesh(n))
    lam, _ = sys.eigenpairs()
    assert lam[0] >= dim * np.pi ** 2


def test_eigen_threshold(monkeypatch):
    sys = assemble(build_interval_mesh(64))
    monkeypatch.setattr(fem, "DENSE_CAP", 10)
    with pytest.raises(UnsupportedSize):
        sys.eigenpairs()


@pytest.mark.parametrize("dim, n", [(1, 64), (2, 14), (2, 29)])
def test_eigenpairs_match_copying_eigh_bitwise(dim, n):
    # the in-place solve runs the same dsygvd on the same data as the
    # copying call, and leaves the sparse K and M as they were
    sys = assemble(build_interval_mesh(n) if dim == 1 else build_square_mesh(n))
    before = [(A.data.copy(), A.indices.copy(), A.indptr.copy()) for A in (sys.K, sys.M)]
    lam_ref, phi_ref = scipy.linalg.eigh(sys.K.toarray(), sys.M.toarray())
    lam, phi = sys.eigenpairs()
    assert np.array_equal(lam, lam_ref)
    assert np.array_equal(phi, phi_ref)
    for A, arrays in zip((sys.K, sys.M), before):
        for got, want in zip((A.data, A.indices, A.indptr), arrays):
            assert np.array_equal(got, want)


def test_eigenpairs_peak_memory():
    # dense K and M, overwritten by Φ and the Cholesky factor, plus dsygvd's
    # 2 d² workspace: 4 d² doubles, where copying both matrices reads 6
    sys = assemble(build_square_mesh(29))
    d = sys.num_dofs
    tracemalloc.start()
    try:
        sys.eigenpairs()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4.1 * 8 * d * d


def test_project_zero(sys2d):
    g = l2_project(sys2d, lambda x, y: np.zeros_like(x))
    assert np.allclose(g.values, 0.0)


def test_project_sine_1d():
    sys = assemble(build_interval_mesh(128))
    g = l2_project(sys, lambda x: np.sin(np.pi * x))
    exact = np.sin(np.pi * sys.interior_coords()[:, 0])
    assert np.max(np.abs(g.values - exact)) < 1e-4


def test_project_reproduces_p1(sys2d):
    # the projection is idempotent on P1 data: with the exact load M v the
    # mass solve must return v itself within solver tolerance
    rng = np.random.default_rng(5)
    v = rng.standard_normal(sys2d.num_dofs)
    load = sys2d.M @ v
    x, _ = conjugate_gradient(lambda w: sys2d.M @ w, load, tol=1e-12, maxiter=200)
    assert np.max(np.abs(x - v)) < 1e-10


@pytest.mark.parametrize("dim", [1, 2])
def test_subdivided_rule_is_the_refinement_centroids(dim):
    # one point per cell of the 4-fold refinement, at its centroid: the rule
    # integrates linear functions exactly, whatever the vertex order
    w, bary = fem._subdivided_rule(dim)
    assert len({tuple(b) for b in np.round(bary, 12)}) == len(w) == 16
    assert np.allclose(w @ bary, 1.0 / (dim + 1), rtol=0, atol=1e-15)


def test_project_checkerboard_integral():
    # the indicator integrates to 1/2; its projection onto the zero-trace
    # space loses an O(h) boundary strip (the indicator is 1 on half of
    # the boundary), so the integral approaches 1/2 at first order in h
    from fracback.bench import get_initial_data
    data = get_initial_data("checkerboard", 2)
    gaps = []
    for n in (16, 32):
        sys = assemble(build_square_mesh(n))
        g = l2_project(sys, data.func, subdivide=True)
        # the load of the constant 1: M 1 inside plus the boundary trace's b_d
        integral = float(g.values @ (sys.M @ np.ones(sys.num_dofs) + sys.b_d))
        gap = abs(integral - 0.5)
        assert gap < sys.mesh.h
        gaps.append(gap)
    assert gaps[1] < 0.6 * gaps[0]
    # 1D, 1 on [0, 1/2]: with P the projection, (P chi, 1) = (chi, P 1), and
    # P 1 = 1 - r^i at node i with r = sqrt(3) - 2, so the strip loses
    # h (1/2 + r / (1 - r)) = h / (2 sqrt(3)) up to terms of size |r|^(n/2).
    # The subdivided rule integrates chi exactly; Simpson's would count
    # chi(1/2) = 1 on both sides of x = 1/2 and miss this value.
    data = get_initial_data("checkerboard", 1)
    for n in (16, 32):
        sys = assemble(build_interval_mesh(n))
        g = l2_project(sys, data.func, subdivide=True)
        integral = float(g.values @ (sys.M @ np.ones(sys.num_dofs) + sys.b_d))
        assert 0.5 - integral == pytest.approx(sys.mesh.h / (2 * np.sqrt(3)), rel=1e-6)


def test_load_nonlinear_zero(sys2d):
    u = GridFunction(sys2d, np.zeros(sys2d.num_dofs))
    out = load_nonlinear(sys2d, u, get_nonlinearity("zero"))
    assert np.allclose(out, 0.0)


def test_load_nonlinear_constant_source(sys2d):
    # f(0) = 1 loads every interior basis integral, total (1-h)^2
    u = GridFunction(sys2d, np.zeros(sys2d.num_dofs))
    out = load_nonlinear(sys2d, u, get_nonlinearity("one_minus_u3"))
    h = sys2d.mesh.h
    assert out.sum() == pytest.approx((1.0 - h) ** 2, abs=1e-12)


def test_load_nonlinear_linear_f(sys2d):
    rng = np.random.default_rng(11)
    u = GridFunction(sys2d, rng.standard_normal(sys2d.num_dofs))
    out = load_nonlinear(sys2d, u, get_nonlinearity("identity"))
    assert np.allclose(out, sys2d.M @ u.values, atol=1e-14)


@pytest.mark.parametrize("name", ["zero", "identity", "sqrt1pu2", "one_minus_u3",
                                  "allen_cahn", "L_sqrt1pu2:0.5"])
@pytest.mark.parametrize("mesh", [build_interval_mesh(9), build_square_mesh(7)],
                         ids=["1d", "2d"])
def test_load_nonlinear_matches_full_node_product(mesh, name):
    # M f(u) + f(0) b_d is the interior rows of the full mass matrix applied
    # to f of the nodal values, zero on the boundary
    sys = assemble(mesh)
    f = get_nonlinearity(name)
    u = GridFunction(sys, np.random.default_rng(5).standard_normal(sys.num_dofs))
    M_full, _ = assemble_full(mesh)
    u_full = np.zeros(mesh.num_nodes)
    u_full[sys.interior_ids] = u.values
    expected = M_full[sys.interior_ids] @ f(u_full)
    np.testing.assert_allclose(load_nonlinear(sys, u, f), expected, rtol=1e-13, atol=1e-15)


def test_l2_norm_sine():
    sys = assemble(build_interval_mesh(256))
    u = GridFunction(sys, np.sin(np.pi * sys.interior_coords()[:, 0]))
    assert l2_norm(sys, u) == pytest.approx(np.sqrt(0.5), abs=1e-3)


def test_l2_norm_zero(sys2d):
    assert l2_norm(sys2d, GridFunction(sys2d, np.zeros(sys2d.num_dofs))) == 0.0


def test_l2_error_self(sys2d):
    rng = np.random.default_rng(2)
    u = GridFunction(sys2d, rng.standard_normal(sys2d.num_dofs))
    assert l2_error(sys2d, u, u) == 0.0


def test_l2_error_zero_reference(sys2d):
    u = GridFunction(sys2d, np.ones(sys2d.num_dofs))
    zero = GridFunction(sys2d, np.zeros(sys2d.num_dofs))
    with pytest.raises(ValueError):
        l2_error(sys2d, u, zero, relative=True)


def test_cg_zero_rhs():
    x, it = conjugate_gradient(lambda v: v, np.zeros(5))
    assert it == 0 and np.allclose(x, 0.0)


def test_cg_reports_failure():
    A = np.diag([1.0, 1e8])
    with pytest.raises(NumericalFailure):
        conjugate_gradient(lambda v: A @ v, np.array([1.0, 1.0]), tol=1e-14, maxiter=1)


def test_field_csv_roundtrip(tmp_path, sys1d):
    u = GridFunction(sys1d, np.arange(1.0, sys1d.num_dofs + 1.0))
    path = tmp_path / "f.csv"
    write_field_csv(u, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "x,value"
    assert len(lines) == sys1d.mesh.num_nodes + 1
    first = lines[1].split(",")
    assert float(first[1]) == 0.0   # boundary zero included
