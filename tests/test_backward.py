import math
import pickle

import numpy as np
import pytest

from fracback import backward, fem
from fracback.backward import (
    BackwardConfig,
    ParameterRangeError,
    Propagator,
    convergence_order,
    fixed_point_reconstruct,
    select_parameters,
    solve_linear_regularized,
)
from fracback.cq import scalar_terminal_factor
from fracback.fem import (
    GridFunction,
    NumericalFailure,
    UnsupportedSize,
    assemble,
    l2_error,
    l2_norm,
)
from fracback.forward import TimeGrid, apply_F, apply_S, get_nonlinearity
from fracback.grid import build_interval_mesh


@pytest.fixture(scope="module")
def sys16():
    return assemble(build_interval_mesh(16))


@pytest.fixture(scope="module")
def grid():
    return TimeGrid(T=1.0, N=64, alpha=0.5)


def test_config_validation():
    with pytest.raises(ValueError):
        BackwardConfig(gamma=0.0)
    with pytest.raises(ValueError):
        BackwardConfig(gamma=1e-3, fp_tol=-1.0)
    with pytest.raises(ValueError):
        BackwardConfig(gamma=1e-3, fast_path="maybe")
    with pytest.raises(ValueError):
        BackwardConfig(gamma=1e-3, fast_path="on")


def test_zero_rhs_zero_iterations(sys16, grid):
    cfg = BackwardConfig(gamma=1e-3)
    out = solve_linear_regularized(sys16, grid, GridFunction(sys16, np.zeros(sys16.num_dofs)), cfg)
    assert np.allclose(out.values, 0.0)


@pytest.mark.parametrize("fast_path", ["off", "auto"])
def test_regularized_solve_matches_spectral_inverse(sys16, grid, fast_path):
    gamma = 1e-3
    lam, phi = sys16.eigenpairs()
    rN = scalar_terminal_factor(grid.alpha, grid.T, grid.N, lam)
    rng = np.random.default_rng(7)
    rhs = rng.standard_normal(sys16.num_dofs)
    cfg = BackwardConfig(gamma=gamma, fast_path=fast_path)
    x = solve_linear_regularized(sys16, grid, GridFunction(sys16, rhs), cfg)
    ref = phi @ ((phi.T @ (sys16.M @ rhs)) / (gamma + rN))
    assert np.max(np.abs(x.values - ref)) / np.max(np.abs(ref)) < 1e-8


def test_dense_cap_is_honoured(monkeypatch, grid):
    # 15 dofs: "auto" is dense-spectral at a cap of 15 and takes the series
    # at a cap of 14, where the eigensolve and the spectral mode refuse
    sys = assemble(build_interval_mesh(16))
    cfg = BackwardConfig(gamma=1e-3)
    monkeypatch.setattr(fem, "DENSE_CAP", sys.num_dofs)
    assert Propagator.for_config(sys, grid, cfg).mode == "spectral"
    monkeypatch.setattr(fem, "DENSE_CAP", sys.num_dofs - 1)
    assert Propagator.for_config(sys, grid, cfg).mode == "series"
    with pytest.raises(UnsupportedSize):
        sys.eigenpairs()
    with pytest.raises(UnsupportedSize):
        Propagator(sys, grid, "spectral")


def test_propagator_falls_back_to_stepping(monkeypatch, grid):
    # 15 dofs above a cap of 10: "auto" takes the series when gamma * cg_tol
    # is reachable with fewer than N terms, stepping when it is not
    monkeypatch.setattr(fem, "DENSE_CAP", 10)
    sys = assemble(build_interval_mesh(16))
    v = np.linspace(-1.0, 1.0, sys.num_dofs)
    stepped = apply_F(sys, grid, GridFunction(sys, v)).values
    series = Propagator.for_config(sys, grid, BackwardConfig(gamma=1e-3))
    assert series.mode == "series" and series.degree < grid.N
    assert 0.0 < series.bound < 1e-3 * 1e-10
    for cfg in (BackwardConfig(gamma=1e-5, cg_tol=1e-12),
                BackwardConfig(gamma=1e-3, fast_path="off")):
        prop = Propagator.for_config(sys, grid, cfg)
        assert prop.describe() == {"mode": "stepping", "degree": grid.N, "bound": 0.0}
        assert np.array_equal(prop.apply_values(v), stepped)
    # a tolerance no tail falls below keeps all N + 1 terms: stepping
    assert Propagator(sys, grid, "series", series_tol=0.0).mode == "stepping"
    with pytest.raises(ValueError, match="series_tol"):
        Propagator(sys, grid, "series")
    assert set(sys._derived) == {("step", grid), ("series", grid)}


def test_series_reconstruction_matches_stepping(monkeypatch, sys16, grid):
    monkeypatch.setattr(fem, "DENSE_CAP", 10)
    f = get_nonlinearity("L_sqrt1pu2:0.5")
    x = sys16.interior_coords()[:, 0]
    truth = GridFunction(sys16, np.sin(2 * np.pi * x))
    g = apply_S(sys16, grid, truth, f)
    runs = {}
    for fast_path in ("auto", "off"):
        cfg = BackwardConfig(gamma=1e-3, fast_path=fast_path)
        runs[fast_path] = fixed_point_reconstruct(sys16, grid, g, f, cfg, truth=truth)
    series, stepping = runs["auto"], runs["off"]
    assert series.propagator["mode"] == "series"
    assert stepping.propagator["mode"] == "stepping"
    assert series.outer_iters == stepping.outer_iters
    assert series.cg_iter_counts == stepping.cg_iter_counts
    e_series = l2_error(sys16, series.u0_hat, truth, relative=True)
    e_stepping = l2_error(sys16, stepping.u0_hat, truth, relative=True)
    assert abs(e_series - e_stepping) <= 1e-9 * e_stepping


def test_update_ratios_are_recorded(sys16, grid):
    f = get_nonlinearity("L_sqrt1pu2:0.5")
    g = apply_F(sys16, grid, GridFunction(sys16, np.ones(sys16.num_dofs)))
    res = fixed_point_reconstruct(sys16, grid, g, f, BackwardConfig(gamma=1e-4))
    e = [h["update_norm"] for h in res.history]
    assert res.update_ratios == [b / a for a, b in zip(e, e[1:])]
    assert res.propagator == {"mode": "spectral", "degree": grid.N, "bound": 0.0}


def test_system_keeps_one_symbol_per_grid(monkeypatch, grid):
    sys = assemble(build_interval_mesh(12))
    calls = []
    symbol = backward.scalar_terminal_factor

    def counted(*args, **kwargs):
        calls.append(args[:3])
        return symbol(*args, **kwargs)

    monkeypatch.setattr(backward, "scalar_terminal_factor", counted)
    rhs = GridFunction(sys, np.ones(sys.num_dofs))
    for T in (1.0, 1.0, 2.0):
        solve_linear_regularized(sys, TimeGrid(T=T, N=grid.N, alpha=grid.alpha), rhs,
                                 BackwardConfig(gamma=1e-3))
    assert len(calls) == 2 and set(sys._derived) == {
        "eig", ("symbol", TimeGrid(T=1.0, N=grid.N, alpha=grid.alpha)),
        ("symbol", TimeGrid(T=2.0, N=grid.N, alpha=grid.alpha))}
    Propagator(sys, grid, "series", series_tol=1e-13)
    coeffs = sys._derived["series", grid]
    assert coeffs.shape == (grid.N + 1,)
    Propagator(sys, TimeGrid(T=grid.T, N=grid.N, alpha=grid.alpha), "series", series_tol=1e-8)
    assert sys._derived["series", grid] is coeffs
    copy = pickle.loads(pickle.dumps(sys))
    assert copy._derived == {} and len(sys._derived) == 4
    assert np.array_equal(copy.M.toarray(), sys.M.toarray())


def test_huge_gamma_limit(sys16, grid):
    gamma = 1e8
    rng = np.random.default_rng(8)
    rhs = rng.standard_normal(sys16.num_dofs)
    cfg = BackwardConfig(gamma=gamma)
    x = solve_linear_regularized(sys16, grid, GridFunction(sys16, rhs), cfg)
    assert np.max(np.abs(x.values - rhs / gamma)) / np.max(np.abs(rhs / gamma)) < 1e-6


def test_cg_budget_failure(sys16, grid):
    cfg = BackwardConfig(gamma=1e-8, cg_max=1, cg_tol=1e-14)
    rng = np.random.default_rng(9)
    rhs = GridFunction(sys16, rng.standard_normal(sys16.num_dofs))
    with pytest.raises(NumericalFailure):
        solve_linear_regularized(sys16, grid, rhs, cfg)


def test_operator_m_symmetry(sys16, grid):
    # <F v, w>_M == <v, F w>_M: the propagator is M-self-adjoint
    rng = np.random.default_rng(10)
    M = sys16.M
    for _ in range(4):
        v = rng.standard_normal(sys16.num_dofs)
        w = rng.standard_normal(sys16.num_dofs)
        Fv = apply_F(sys16, grid, GridFunction(sys16, v)).values
        Fw = apply_F(sys16, grid, GridFunction(sys16, w)).values
        a = Fv @ (M @ w)
        b = v @ (M @ Fw)
        assert abs(a - b) / max(abs(a), abs(b)) < 1e-10


def test_fixed_point_linear_two_iterations(sys16, grid):
    lam, phi = sys16.eigenpairs()
    truth = GridFunction(sys16, phi[:, 0].copy())
    g = apply_F(sys16, grid, truth)
    cfg = BackwardConfig(gamma=1e-6)
    res = fixed_point_reconstruct(sys16, grid, g, get_nonlinearity("zero"), cfg, truth=truth)
    assert res.converged and not res.diverged
    assert res.outer_iters == 2
    assert res.history[-1]["update_norm"] < 1e-10


def test_fixed_point_semilinear_contracts(sys16, grid):
    f = get_nonlinearity("L_sqrt1pu2:0.5")
    x = sys16.interior_coords()[:, 0]
    truth = GridFunction(sys16, np.sin(2 * np.pi * x))
    g = apply_S(sys16, grid, truth, f)
    cfg = BackwardConfig(gamma=1e-5)
    res = fixed_point_reconstruct(sys16, grid, g, f, cfg, truth=truth)
    assert res.converged
    updates = [h["update_norm"] for h in res.history]
    # geometric decrease after the first correction
    for a, b in zip(updates[1:-1], updates[2:]):
        assert b < 0.95 * a
    assert l2_error(sys16, res.u0_hat, truth, relative=True) < 0.05


def test_fixed_point_divergence_flag(sys16):
    # strong enough nonlinearity over a long horizon breaks the
    # contraction; the flag must be set and the run must stop early
    grid_long = TimeGrid(T=10.0, N=100, alpha=0.5)
    f = get_nonlinearity("L_sqrt1pu2:30")
    x = sys16.interior_coords()[:, 0]
    truth = GridFunction(sys16, np.sin(2 * np.pi * x))
    g = apply_S(sys16, grid_long, truth, f)
    cfg = BackwardConfig(gamma=1e-5, fp_max=60)
    res = fixed_point_reconstruct(sys16, grid_long, g, f, cfg, truth=truth)
    assert res.diverged and not res.converged
    assert res.outer_iters < 60


def test_random_init_mode(sys16, grid):
    g = apply_F(sys16, grid, GridFunction(sys16, np.ones(sys16.num_dofs)))
    cfg = BackwardConfig(gamma=1e-4, random_init_seed=5)
    res = fixed_point_reconstruct(sys16, grid, g, get_nonlinearity("zero"), cfg)
    assert res.converged
    cfg2 = BackwardConfig(gamma=1e-4, random_init_seed=5)
    res2 = fixed_point_reconstruct(sys16, grid, g, get_nonlinearity("zero"), cfg2)
    assert np.array_equal(res.u0_hat.values, res2.u0_hat.values)


def test_gamma_rate_linear(sys16, grid):
    # noise-free reconstruction error scales ~ gamma for smooth data
    lam, phi = sys16.eigenpairs()
    truth = GridFunction(sys16, phi[:, 1].copy())
    g = apply_F(sys16, grid, truth)
    errs = []
    for gamma in (1e-2, 1e-3, 1e-4):
        cfg = BackwardConfig(gamma=gamma)
        res = fixed_point_reconstruct(sys16, grid, g, get_nonlinearity("zero"), cfg)
        errs.append(l2_error(sys16, res.u0_hat, truth, relative=True))
    orders = [math.log10(errs[i] / errs[i + 1]) for i in range(2)]
    assert all(0.7 <= o <= 1.3 for o in orders)


def test_select_parameters_presets():
    p1 = select_parameters(0.0125, preset="paper-ex1")
    assert p1["gamma"] == pytest.approx(0.0014907, rel=1e-4)
    assert p1["tau"] == pytest.approx(0.022361, rel=1e-4)
    assert p1["h"] == pytest.approx(0.069877, rel=1e-4)

    p2 = select_parameters(1.0 / 400.0, preset="paper-ex2")
    assert p2["gamma"] == pytest.approx((1.0 / 400.0) ** 0.8 / 10.0, rel=1e-12)
    assert p2["tau"] == pytest.approx((1.0 / 400.0) ** 0.2 / 10.0, rel=1e-12)
    assert p2["h"] == pytest.approx(5.0 * math.sqrt(1.0 / 400.0) / 6.0, rel=1e-12)


def test_select_parameters_power_law():
    a = select_parameters(1e-3, q=2.0, mu=1.0)
    b = select_parameters(5e-4, q=2.0, mu=1.0)
    assert b["gamma"] / a["gamma"] == pytest.approx(2.0 ** (-0.5), rel=1e-12)


def test_select_parameters_solves_relations():
    delta, q, mu = 1e-4, 1.5, 0.5
    p = select_parameters(delta, q=q, mu=mu, c_h=1.0, c_tau=1.0)
    h, tau = p["h"], p["tau"]
    assert h * h * abs(math.log(h)) == pytest.approx(delta, rel=1e-8)
    target = delta ** (q / (q + 2.0)) / h ** min(q - mu, 0.0)
    assert tau * math.log(tau) ** 2 == pytest.approx(target, rel=1e-8)


def test_select_parameters_out_of_range():
    with pytest.raises(ParameterRangeError):
        select_parameters(0.9, q=2.0, mu=1.0, c_h=10.0)
    with pytest.raises(ValueError):
        select_parameters(1.5)
    with pytest.raises(ValueError):
        select_parameters(1e-3, preset="nope")


def test_convergence_order_power_law():
    orders = convergence_order([(1e-2, 1e-1), (0.25e-2, 0.5e-1)])
    assert orders[0] == pytest.approx(0.5, rel=1e-12)


def test_convergence_order_constant():
    orders = convergence_order([(1e-2, 0.3), (1e-3, 0.3)])
    assert orders[0] == pytest.approx(0.0, abs=1e-14)


def test_convergence_order_paper_row():
    orders = convergence_order([(1.0 / 80, 3.551e-1), (1.0 / 160, 2.532e-1)])
    assert orders[0] == pytest.approx(0.4879, abs=2e-4)


def test_convergence_order_validation():
    with pytest.raises(ValueError):
        convergence_order([(1e-2, 0.1)])
    with pytest.raises(ValueError):
        convergence_order([(1e-2, 0.1), (2e-2, 0.05)])
    with pytest.raises(ValueError):
        convergence_order([(1e-2, 0.1), (1e-3, -0.05)])
