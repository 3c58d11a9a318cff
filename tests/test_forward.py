import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.sparse.linalg import splu

from fracback.cq import cq_weights, scalar_terminal_factor, truncate_series
from fracback.fem import GridFunction, NumericalFailure, assemble, l2_norm, load_nonlinear
from fracback.forward import (
    BandCholesky,
    Nonlinearity,
    TimeGrid,
    apply_F,
    apply_F_series,
    apply_S,
    get_nonlinearity,
    resolvent_bound,
    solve_forward,
    terminal_series,
)
from fracback.grid import build_interval_mesh, build_square_mesh
from fracback.mlf import mittag_leffler


@pytest.fixture(scope="module")
def sys16():
    return assemble(build_interval_mesh(16))


def gf(sys, values):
    return GridFunction(sys, np.asarray(values, dtype=float))


def test_nonlinearity_registry():
    for name in ("zero", "sqrt1pu2", "one_minus_u3", "L_sqrt1pu2", "allen_cahn"):
        f = get_nonlinearity(name)
        assert callable(f)
    f = get_nonlinearity("L_sqrt1pu2:0.5")
    assert f(np.array([0.0]))[0] == pytest.approx(0.5)
    assert get_nonlinearity("allen_cahn")(np.array([2.0]))[0] == pytest.approx(-6.0)
    with pytest.raises(ValueError):
        get_nonlinearity("nope")


def test_time_grid_validation():
    with pytest.raises(ValueError):
        TimeGrid(T=0.0, N=10, alpha=0.5)
    with pytest.raises(ValueError):
        TimeGrid(T=1.0, N=0, alpha=0.5)
    with pytest.raises(ValueError):
        TimeGrid(T=1.0, N=10, alpha=1.0)
    assert TimeGrid(T=2.0, N=8, alpha=0.3).tau == 0.25


def test_zero_data_zero_source_stays_zero(sys16):
    grid = TimeGrid(T=1.0, N=20, alpha=0.4)
    hist = solve_forward(sys16, grid, gf(sys16, np.zeros(sys16.num_dofs)),
                         get_nonlinearity("zero"))
    assert np.allclose(hist, 0.0)


def test_zero_fixed_point_nonlinear(sys16):
    # f(0) = 0 keeps the zero state exactly
    grid = TimeGrid(T=1.0, N=20, alpha=0.4)
    hist = solve_forward(sys16, grid, gf(sys16, np.zeros(sys16.num_dofs)),
                         get_nonlinearity("allen_cahn"))
    assert np.allclose(hist[-1], 0.0)


def test_eigenmode_matches_scalar_recurrence():
    sys = assemble(build_interval_mesh(256))
    lam, phi = sys.eigenpairs()
    grid = TimeGrid(T=1.0, N=512, alpha=0.5)
    v = GridFunction(sys, phi[:, 0].copy())
    out = apply_F(sys, grid, v)
    rN = scalar_terminal_factor(0.5, 1.0, 512, lam[0])[0]
    ratio = l2_norm(sys, out) / l2_norm(sys, v)
    assert abs(ratio - rN) < 1e-12


def test_temporal_order_against_ml_oracle(sys16):
    lam, phi = sys16.eigenpairs()
    v = GridFunction(sys16, phi[:, 0].copy())
    exact = mittag_leffler(0.5, 1.0, -lam[0])
    errs = []
    for N in (32, 64, 128):
        out = apply_F(sys16, TimeGrid(T=1.0, N=N, alpha=0.5), v)
        coeff = phi[:, 0] @ (sys16.M @ out.values)
        errs.append(abs(coeff - exact))
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert all(0.8 <= o <= 1.2 for o in orders)


def test_apply_f_zero(sys16):
    grid = TimeGrid(T=1.0, N=16, alpha=0.7)
    out = apply_F(sys16, grid, gf(sys16, np.zeros(sys16.num_dofs)))
    assert np.allclose(out.values, 0.0)


def test_apply_f_linearity(sys16):
    grid = TimeGrid(T=1.0, N=32, alpha=0.6)
    rng = np.random.default_rng(21)
    v1 = rng.standard_normal(sys16.num_dofs)
    v2 = rng.standard_normal(sys16.num_dofs)
    a, b = 1.7, -0.4
    lhs = apply_F(sys16, grid, gf(sys16, a * v1 + b * v2)).values
    rhs = a * apply_F(sys16, grid, gf(sys16, v1)).values \
        + b * apply_F(sys16, grid, gf(sys16, v2)).values
    assert np.max(np.abs(lhs - rhs)) / np.max(np.abs(rhs)) < 1e-10


def test_apply_f_dense_spectral_equivalence(sys16):
    grid = TimeGrid(T=1.0, N=64, alpha=0.5)
    lam, phi = sys16.eigenpairs()
    rN = scalar_terminal_factor(0.5, 1.0, 64, lam)
    rng = np.random.default_rng(33)
    for _ in range(5):
        v = rng.standard_normal(sys16.num_dofs)
        ref = phi @ (rN * (phi.T @ (sys16.M @ v)))
        got = apply_F(sys16, grid, gf(sys16, v)).values
        assert np.max(np.abs(got - ref)) < 1e-10 * max(1.0, np.max(np.abs(ref)))


def test_stability_contraction(sys16):
    rng = np.random.default_rng(17)
    for alpha in (0.2, 0.5, 0.8):
        grid = TimeGrid(T=1.0, N=40, alpha=alpha)
        for _ in range(3):
            v = gf(sys16, rng.standard_normal(sys16.num_dofs))
            out = apply_F(sys16, grid, v)
            assert l2_norm(sys16, out) <= l2_norm(sys16, v) * (1 + 1e-12)


def test_determinism(sys16):
    grid = TimeGrid(T=1.0, N=25, alpha=0.45)
    u0 = gf(sys16, np.sin(2 * np.pi * sys16.interior_coords()[:, 0]))
    f = get_nonlinearity("sqrt1pu2")
    assert np.array_equal(solve_forward(sys16, grid, u0, f), solve_forward(sys16, grid, u0, f))


def test_solve_returns_the_history_and_operators_copy_out(sys16):
    grid = TimeGrid(T=1.0, N=40, alpha=0.5)
    u0 = gf(sys16, np.sin(np.pi * sys16.interior_coords()[:, 0]))
    f = get_nonlinearity("sqrt1pu2")
    hist = solve_forward(sys16, grid, u0, f)
    assert hist.shape == (grid.N + 1, sys16.num_dofs)
    assert hist.dtype == np.float64 and hist.flags.c_contiguous
    assert np.array_equal(hist[0], u0.values)
    # U^N is copied out, so no operator result keeps the history alive
    s_out = apply_S(sys16, grid, u0, f)
    f_out = apply_F(sys16, grid, u0)
    assert s_out.values.base is None and f_out.values.base is None
    assert np.array_equal(s_out.values, hist[-1])


def naive_solve(sys, grid, u0, f):
    """Reference stepper: the history sum as a fresh GEMV at every step."""
    tau_a = grid.tau ** (-grid.alpha)
    lu = splu((tau_a * sys.M + sys.K).tocsc())
    w = cq_weights(grid.alpha, grid.N)
    s = np.cumsum(w)
    hist = np.empty((grid.N + 1, sys.num_dofs))
    hist[0] = u0.values
    for n in range(1, grid.N + 1):
        conv = w[n:0:-1] @ hist[:n] - s[n] * hist[0]
        rhs = -tau_a * (sys.M @ conv) + load_nonlinear(sys, GridFunction(sys, hist[n - 1]), f)
        hist[n] = lu.solve(rhs)
    return hist


def step_matrix(sys, alpha):
    grid = TimeGrid(T=1.0, N=50, alpha=alpha)
    return grid.tau ** (-grid.alpha) * sys.M + sys.K


@pytest.mark.parametrize("alpha", [0.1, 0.9])
@pytest.mark.parametrize("dim, n", [(1, 16), (1, 512), (2, 5), (2, 28), (2, 66)])
def test_band_factor_matches_superlu(dim, n, alpha):
    sys = assemble(build_interval_mesh(n) if dim == 1 else build_square_mesh(n))
    mat = step_matrix(sys, alpha)
    b = np.random.default_rng(n).standard_normal(sys.num_dofs)
    x = BandCholesky(mat).solve(b)
    ref = splu(mat.tocsc()).solve(b)
    # relative residual as a normwise backward error, in the max norm
    scale = abs(mat).sum(axis=1).max() * np.abs(x).max() + np.abs(b).max()
    assert np.abs(mat @ x - b).max() <= 1e-13 * scale
    assert l2_norm(sys, gf(sys, x - ref)) <= 1e-12 * l2_norm(sys, gf(sys, ref))


def test_band_factor_is_invariant_to_renumbering():
    sys = assemble(build_square_mesh(28))
    mat = step_matrix(sys, 0.5).tocsr()
    rng = np.random.default_rng(11)
    p = rng.permutation(sys.num_dofs)
    b = rng.standard_normal(sys.num_dofs)
    x = BandCholesky(mat).solve(b)
    shuffled = BandCholesky(mat[p][:, p])
    assert np.abs(shuffled.solve(b[p]) - x[p]).max() <= 1e-12 * np.abs(x).max()
    rows, cols = mat.nonzero()
    assert shuffled.kd <= np.abs(rows - cols).max()


def test_band_factor_rejects_indefinite_matrix(sys16):
    # lam_1h ~ pi^2 < 100 < lam_max,h, so K - 100 M has eigenvalues of both signs
    with pytest.raises(NumericalFailure, match="not positive definite"):
        BandCholesky(sys16.K - 100.0 * sys16.M)


def test_blocked_solve_matches_naive_stepper(sys16):
    # N = 70 crosses two block boundaries of the history kernel
    grid = TimeGrid(T=1.0, N=70, alpha=0.3)
    u0 = gf(sys16, np.sin(np.pi * sys16.interior_coords()[:, 0]))
    f = get_nonlinearity("sqrt1pu2")
    got = solve_forward(sys16, grid, u0, f)
    ref = naive_solve(sys16, grid, u0, f)
    assert np.max(np.abs(got - ref)) <= 1e-13 * max(1.0, np.max(np.abs(ref)))


def test_non_finite_step_raises_past_first_block(sys16):
    # the source is evaluated once per step, so step 40 is the first non-finite one
    calls = []

    def blow_up(u):
        calls.append(1)
        return np.full_like(u, np.inf) if len(calls) >= 40 else np.sqrt(1.0 + u * u)

    u0 = gf(sys16, np.sin(np.pi * sys16.interior_coords()[:, 0]))
    with pytest.raises(NumericalFailure, match=r"forward step 40 produced non-finite"):
        solve_forward(sys16, TimeGrid(T=1.0, N=60, alpha=0.5), u0,
                      Nonlinearity("blow_up", blow_up))


def test_solve_memory_is_the_history_array():
    sys = assemble(build_square_mesh(48))
    grid = TimeGrid(T=1.0, N=200, alpha=0.5)
    u0 = gf(sys, np.ones(sys.num_dofs))
    f = get_nonlinearity("sqrt1pu2")
    solve_forward(sys, grid, u0, f)   # warm the step factor
    tracemalloc.start()
    try:
        solve_forward(sys, grid, u0, f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    hist_bytes = 8 * (grid.N + 1) * sys.num_dofs
    assert peak <= hist_bytes + 2**20


def test_temporal_self_convergence_semilinear(sys16):
    # Richardson ratio ~ 2 for a first-order scheme
    u0 = gf(sys16, np.sin(np.pi * sys16.interior_coords()[:, 0]))
    f = get_nonlinearity("sqrt1pu2")
    terminals = {}
    for N in (40, 80, 160):
        terminals[N] = solve_forward(sys16, TimeGrid(T=1.0, N=N, alpha=0.5), u0, f)[-1]
    d1 = l2_norm(sys16, gf(sys16, terminals[40] - terminals[80]))
    d2 = l2_norm(sys16, gf(sys16, terminals[80] - terminals[160]))
    assert 1.7 <= d1 / d2 <= 2.3


def test_apply_s_zero_source_equals_apply_f(sys16):
    grid = TimeGrid(T=1.0, N=30, alpha=0.35)
    rng = np.random.default_rng(2)
    v = gf(sys16, rng.standard_normal(sys16.num_dofs))
    s_out = apply_S(sys16, grid, v, get_nonlinearity("zero"))
    f_out = apply_F(sys16, grid, v)
    assert np.array_equal(s_out.values, f_out.values)


def test_apply_s_zero_state(sys16):
    grid = TimeGrid(T=1.0, N=30, alpha=0.35)
    out = apply_S(sys16, grid, gf(sys16, np.zeros(sys16.num_dofs)),
                  get_nonlinearity("allen_cahn"))
    assert np.allclose(out.values, 0.0)


def test_apply_s_linear_source_scalar_oracle(sys16):
    # f(u) = u acts mode-by-mode; compare against the scalar recurrence
    grid = TimeGrid(T=1.0, N=50, alpha=0.5)
    lam, phi = sys16.eigenpairs()
    v = GridFunction(sys16, phi[:, 2].copy())
    out = apply_S(sys16, grid, v, get_nonlinearity("identity"))
    ref = scalar_terminal_factor(0.5, 1.0, 50, lam[2], u0=1.0,
                                 source=lambda u: u)[0]
    coeff = phi[:, 2] @ (sys16.M @ out.values)
    assert coeff == pytest.approx(ref, rel=1e-11, abs=0)


def test_one_minus_u3_positive_terminal(sys16):
    # constant source 1 from zero data drives the state positive everywhere
    grid = TimeGrid(T=1.0, N=60, alpha=0.5)
    out = apply_S(sys16, grid, gf(sys16, np.zeros(sys16.num_dofs)),
                  get_nonlinearity("one_minus_u3"))
    assert np.all(out.values > 0.0)


def test_solver_rejects_foreign_function(sys16):
    other = assemble(build_interval_mesh(8))
    u0 = GridFunction(other, np.zeros(other.num_dofs))
    with pytest.raises(ValueError):
        solve_forward(sys16, TimeGrid(T=1.0, N=4, alpha=0.5), u0,
                      get_nonlinearity("zero"))


_SERIES_SYSTEMS = {}


def _series_system(dim, n):
    if (dim, n) not in _SERIES_SYSTEMS:
        mesh = build_interval_mesh(n) if dim == 1 else build_square_mesh(n)
        _SERIES_SYSTEMS[dim, n] = assemble(mesh)
    return _SERIES_SYSTEMS[dim, n]


@settings(max_examples=40, deadline=None)
@given(alpha=st.floats(0.05, 0.95), N=st.integers(2, 120), T=st.sampled_from([1.0, 10.0]),
       mesh=st.sampled_from([(1, 8), (1, 33), (2, 5), (2, 12)]),
       tol=st.sampled_from([1e-4, 1e-8, 1e-13]), seed=st.integers(0, 2 ** 16))
def test_series_matches_stepping_within_recorded_bound(alpha, N, T, mesh, tol, seed):
    # F^N = r_N(A) with spec(A) in (0, mu_max], so a Chebyshev head with
    # dropped tail b misses apply_F by at most b ||v||_M, plus rounding
    sys = _series_system(*mesh)
    grid = TimeGrid(T=T, N=N, alpha=alpha)
    coeffs, bound = truncate_series(terminal_series(sys, grid), tol)
    assert bound < tol
    v = np.random.default_rng(seed).standard_normal(sys.num_dofs)
    got = apply_F_series(sys, grid, gf(sys, v), coeffs).values
    ref = apply_F(sys, grid, gf(sys, v)).values
    err = l2_norm(sys, gf(sys, got - ref))
    assert err <= (bound + 1e-13) * l2_norm(sys, gf(sys, v))


def test_series_matches_dense_spectral(sys16):
    # against the exact symbol in the eigenbasis, as criterion 5 does for
    # stepping; every coefficient kept
    grid = TimeGrid(T=1.0, N=64, alpha=0.3)
    lam, phi = sys16.eigenpairs()
    assert 1.0 / (grid.tau ** -grid.alpha + lam.min()) <= resolvent_bound(sys16, grid)
    v = np.sin(3.0 * np.arange(sys16.num_dofs))
    got = apply_F_series(sys16, grid, gf(sys16, v), terminal_series(sys16, grid)).values
    ref = phi @ (scalar_terminal_factor(0.3, 1.0, 64, lam) * (phi.T @ (sys16.M @ v)))
    assert l2_norm(sys16, gf(sys16, got - ref)) <= 1e-10 * l2_norm(sys16, gf(sys16, v))


def test_series_non_finite_raises(sys16):
    grid = TimeGrid(T=1.0, N=30, alpha=0.6)
    v = np.zeros(sys16.num_dofs)
    v[3] = np.inf
    # inf - inf inside the recurrence is the point of this input
    with np.errstate(invalid="ignore"), pytest.raises(NumericalFailure, match="series"):
        apply_F_series(sys16, grid, gf(sys16, v), terminal_series(sys16, grid)[:5])
