import math

import numpy as np
import pytest

from fracback import backward, fem, forward
from fracback.backward import (
    BackwardConfig,
    ParameterRangeError,
    Propagator,
    convergence_order,
    fixed_point_reconstruct,
    select_parameters,
)
from fracback.cq import scalar_terminal_factor
from fracback.fem import (
    GridFunction,
    NumericalFailure,
    UnsupportedSize,
    assemble,
    conjugate_gradient,
    l2_error,
    l2_norm,
)
from fracback.forward import TimeGrid, apply_F, apply_S, get_nonlinearity
from fracback.grid import build_interval_mesh, build_square_mesh


@pytest.fixture(scope="module")
def sys16():
    return assemble(build_interval_mesh(16))


@pytest.fixture(scope="module")
def grid():
    return TimeGrid(T=1.0, N=64, alpha=0.5)


ZERO = get_nonlinearity("zero")


def test_config_validation():
    with pytest.raises(ValueError):
        BackwardConfig(gamma=0.0)
    with pytest.raises(ValueError):
        BackwardConfig(gamma=1e-3, fp_tol=-1.0)
    with pytest.raises(ValueError):
        BackwardConfig(gamma=1e-3, fast_path="maybe")
    with pytest.raises(ValueError):
        BackwardConfig(gamma=1e-3, fast_path="on")
    for caps in ({"fp_max": 0}, {"fp_max": -1}, {"cg_max": 0}, {"cg_max": -1}):
        with pytest.raises(ValueError, match="iteration caps"):
            BackwardConfig(gamma=1e-3, **caps)
    # NaN and infinities pass a plain "<= 0" test; they are refused too
    for bad in (math.nan, math.inf, -math.inf):
        for fields in ({"gamma": bad}, {"gamma": 1e-3, "fp_tol": bad},
                       {"gamma": 1e-3, "cg_tol": bad}):
            with pytest.raises(ValueError, match="positive and finite"):
                BackwardConfig(**fields)


def test_zero_rhs_zero_iterations(sys16, grid):
    cfg = BackwardConfig(gamma=1e-3)
    res = fixed_point_reconstruct(sys16, grid, GridFunction(sys16, np.zeros(sys16.num_dofs)),
                                  ZERO, cfg)
    assert np.allclose(res.u0_hat.values, 0.0)
    assert res.cg_iter_counts == [0]


@pytest.mark.parametrize("fast_path", ["off", "auto"])
def test_regularized_solve_matches_spectral_inverse(sys16, grid, fast_path):
    gamma = 1e-3
    lam, phi = sys16.eigenpairs()
    rN = scalar_terminal_factor(grid.alpha, grid.T, grid.N, lam)
    rng = np.random.default_rng(7)
    rhs = rng.standard_normal(sys16.num_dofs)
    cfg = BackwardConfig(gamma=gamma, fast_path=fast_path)
    x = fixed_point_reconstruct(sys16, grid, GridFunction(sys16, rhs), ZERO, cfg).u0_hat
    ref = phi @ ((phi.T @ (sys16.M @ rhs)) / (gamma + rN))
    assert np.max(np.abs(x.values - ref)) / np.max(np.abs(ref)) < 1e-8


@pytest.mark.parametrize("dim, n", [(1, 40), (2, 12)])
@pytest.mark.parametrize("alpha", [0.1, 0.9])
def test_spectral_solve_matches_closed_form_and_nodal_cg(dim, n, alpha):
    # the spectral propagator solves gamma I + F^N by dividing by
    # gamma + r_N(lam_h) in the eigenbasis; the nodal CG in the mass inner
    # product, as the dense path ran before, is the reference
    sys = assemble(build_interval_mesh(n) if dim == 1 else build_square_mesh(n))
    grid = TimeGrid(T=1.0, N=40, alpha=alpha)
    cfg = BackwardConfig(gamma=1e-3)
    prop = Propagator.for_config(sys, grid, cfg)
    assert prop.mode == "spectral"
    lam, phi = sys.eigenpairs()
    rN = scalar_terminal_factor(alpha, grid.T, grid.N, lam)
    M = sys.M
    rhs = np.random.default_rng(11).standard_normal(sys.num_dofs)
    exact = phi @ ((phi.T @ (M @ rhs)) / (cfg.gamma + rN))

    nodal, _ = conjugate_gradient(
        lambda v: cfg.gamma * v + phi @ (rN * (phi.T @ (M @ v))), rhs,
        tol=cfg.cg_tol, maxiter=cfg.cg_max, dot=lambda u, v: float(u @ (M @ v)))
    x, it = prop.solve(rhs, cfg)
    assert it == 0
    scale = np.max(np.abs(exact))
    assert np.max(np.abs(x - exact)) / scale < 1e-12
    assert np.max(np.abs(x - nodal)) / scale < 1e-8


def test_dense_reconstruction_runs_no_cg(monkeypatch, sys16, grid):
    # F^N is applied once per pass (the f_term); the regularized solves take
    # no CG iteration and never call the CG routine
    calls = []
    apply_values = Propagator.apply_values

    def counted(self, v):
        calls.append(1)
        return apply_values(self, v)

    def no_cg(*args, **kwargs):
        raise AssertionError("CG ran on the dense path")

    monkeypatch.setattr(Propagator, "apply_values", counted)
    monkeypatch.setattr(backward, "conjugate_gradient", no_cg)
    f = get_nonlinearity("L_sqrt1pu2:0.5")
    truth = GridFunction(sys16, np.sin(2 * np.pi * sys16.interior_coords()[:, 0]))
    res = fixed_point_reconstruct(sys16, grid, apply_S(sys16, grid, truth, f), f,
                                  BackwardConfig(gamma=1e-3), truth=truth)
    assert res.converged and res.propagator["mode"] == "spectral"
    assert len(calls) == res.outer_iters > 1
    assert res.cg_iter_counts == [0] * res.outer_iters


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


def test_propagator_keeps_series_above_dense_cap(monkeypatch, grid):
    # 15 dofs above a cap of 10: "auto" always takes the series, keeping all
    # N + 1 terms when no shorter head meets gamma * cg_tol; only
    # fast_path="off" steps
    monkeypatch.setattr(fem, "DENSE_CAP", 10)
    sys = assemble(build_interval_mesh(16))
    v = np.linspace(-1.0, 1.0, sys.num_dofs)
    stepped = apply_F(sys, grid, GridFunction(sys, v)).values
    norm_v = l2_norm(sys, GridFunction(sys, v))
    series = Propagator.for_config(sys, grid, BackwardConfig(gamma=1e-3))
    assert series.mode == "series" and series.degree < grid.N
    assert 0.0 < series.bound < 1e-3 * 1e-10
    full = Propagator.for_config(sys, grid, BackwardConfig(gamma=1e-5, cg_tol=1e-12))
    assert full.mode == "series"
    for prop in (series, full):
        err = l2_norm(sys, GridFunction(sys, prop.apply_values(v) - stepped))
        assert err <= (prop.bound + 1e-13) * norm_v
    prop = Propagator.for_config(sys, grid, BackwardConfig(gamma=1e-3, fast_path="off"))
    assert prop.describe() == {"mode": "stepping", "degree": grid.N, "bound": 0.0}
    assert np.array_equal(prop.apply_values(v), stepped)
    # a tolerance no tail falls below keeps all N + 1 terms
    prop = Propagator(sys, grid, "series", series_tol=0.0)
    assert prop.describe() == {"mode": "series", "degree": grid.N, "bound": 0.0}
    with pytest.raises(ValueError, match="series_tol"):
        Propagator(sys, grid, "series")
    assert set(sys._derived) == {("step", grid), ("series", grid)}


@pytest.mark.parametrize("gamma, cg_tol", [(1e-3, 1e-10), (1e-5, 1e-12)],
                         ids=["truncated", "full_series"])
def test_series_reconstruction_matches_stepping(monkeypatch, sys16, grid, gamma, cg_tol):
    # "full_series": gamma * cg_tol = 1e-17 lies below the rounding of the
    # coefficients, so the series keeps all N + 1 terms
    monkeypatch.setattr(fem, "DENSE_CAP", 10)
    f = get_nonlinearity("L_sqrt1pu2:0.5")
    x = sys16.interior_coords()[:, 0]
    truth = GridFunction(sys16, np.sin(2 * np.pi * x))
    g = apply_S(sys16, grid, truth, f)
    runs = {}
    for fast_path in ("auto", "off"):
        cfg = BackwardConfig(gamma=gamma, cg_tol=cg_tol, fast_path=fast_path)
        runs[fast_path] = fixed_point_reconstruct(sys16, grid, g, f, cfg, truth=truth)
    series, stepping = runs["auto"], runs["off"]
    assert series.propagator["mode"] == "series"
    assert stepping.propagator["mode"] == "stepping"
    assert series.outer_iters == stepping.outer_iters
    # a CG solve stops on a relative residual that rounding decides (the
    # first solve's 9th reads 4e-11 to 6e-10 against cg_tol = 1e-10 across
    # step factors agreeing to 1e-14), so a pass may take one more iteration
    assert all(abs(a - b) <= 1 for a, b in
               zip(series.cg_iter_counts, stepping.cg_iter_counts, strict=True))
    # each final CG solve of (gamma I + F^N) x = rhs leaves an M-norm error
    # of at most cg_tol ||rhs||_M / gamma, with ||rhs||_M <= (gamma + 1) ||x||_M
    # as ||F^N|| <= 1; both runs' errors, carried through a fixed-point map
    # that contracts by q, bound the distance between their iterates
    q = max(stepping.update_ratios)
    norm_u = l2_norm(sys16, stepping.u0_hat)
    bound = 2.0 * cfg.cg_tol * (1.0 + cfg.gamma) / cfg.gamma * norm_u / (1.0 - q)
    diff = GridFunction(sys16, series.u0_hat.values - stepping.u0_hat.values)
    assert l2_norm(sys16, diff) <= bound
    e_series = l2_error(sys16, series.u0_hat, truth, relative=True)
    e_stepping = l2_error(sys16, stepping.u0_hat, truth, relative=True)
    assert abs(e_series - e_stepping) <= 1e-9 * e_stepping


@pytest.mark.parametrize("mode, dense_cap, fast_path", [
    ("spectral", fem.DENSE_CAP, "auto"), ("series", 10, "auto"), ("stepping", fem.DENSE_CAP, "off")])
def test_forward_solves_counts_n_step_solves(monkeypatch, sys16, grid, mode, dense_cap,
                                             fast_path):
    f_semi = get_nonlinearity("L_sqrt1pu2:0.5")
    g = apply_S(sys16, grid, GridFunction(sys16, np.ones(sys16.num_dofs)), f_semi)
    monkeypatch.setattr(fem, "DENSE_CAP", dense_cap)
    calls = []
    solve = forward.solve_forward

    def counted(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(forward, "solve_forward", counted)
    for f in (f_semi, ZERO):
        calls.clear()
        res = fixed_point_reconstruct(sys16, grid, g, f,
                                      BackwardConfig(gamma=1e-3, fast_path=fast_path))
        assert res.propagator["mode"] == mode
        # one S^N per pass; F^N by stepping adds one per pass and one per CG
        # iteration.  f = 0 runs one pass with neither S^N nor the extra F^N
        passes = 0 if f.is_zero else res.outer_iters
        want = passes
        if mode == "stepping":
            want += passes + sum(res.cg_iter_counts)
        assert res.forward_solves == len(calls) == want
        assert res.history[-1]["forward_solves"] == want
    assert res.outer_iters == 1 and (want > 0) == (mode == "stepping")


@pytest.mark.parametrize("mode, dense_cap, fast_path", [
    ("spectral", fem.DENSE_CAP, "auto"), ("series", 10, "auto"), ("stepping", fem.DENSE_CAP, "off")])
def test_linear_reconstruction_is_one_regularized_solve(monkeypatch, sys16, grid, mode,
                                                        dense_cap, fast_path):
    # f = 0: one pass, whose iterate is the propagator's solve, bit for bit
    monkeypatch.setattr(fem, "DENSE_CAP", dense_cap)
    rhs = np.random.default_rng(12).standard_normal(sys16.num_dofs)
    cfg = BackwardConfig(gamma=1e-3, fast_path=fast_path)
    res = fixed_point_reconstruct(sys16, grid, GridFunction(sys16, rhs), ZERO, cfg)
    prop = Propagator.for_config(sys16, grid, cfg)
    x, it = prop.solve(rhs, cfg)
    assert prop.mode == res.propagator["mode"] == mode
    assert res.converged and not res.diverged and res.outer_iters == 1
    assert res.cg_iter_counts == [it] and (it > 0) == (mode != "spectral")
    assert np.array_equal(res.u0_hat.values, x)


def test_reconstruction_refuses_observation_on_another_system(sys16, grid):
    other = assemble(build_interval_mesh(16))
    g = GridFunction(other, np.ones(other.num_dofs))
    with pytest.raises(ValueError, match="different system"):
        fixed_point_reconstruct(sys16, grid, g, ZERO, BackwardConfig(gamma=1e-3))


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
        fixed_point_reconstruct(sys, TimeGrid(T=T, N=grid.N, alpha=grid.alpha), rhs, ZERO,
                                BackwardConfig(gamma=1e-3))
    assert len(calls) == 2 and set(sys._derived) == {
        "eig", ("symbol", TimeGrid(T=1.0, N=grid.N, alpha=grid.alpha)),
        ("symbol", TimeGrid(T=2.0, N=grid.N, alpha=grid.alpha))}
    Propagator(sys, grid, "series", series_tol=1e-13)
    coeffs = sys._derived["series", grid]
    assert coeffs.shape == (grid.N + 1,)
    Propagator(sys, TimeGrid(T=grid.T, N=grid.N, alpha=grid.alpha), "series", series_tol=1e-8)
    assert sys._derived["series", grid] is coeffs


def test_huge_gamma_limit(sys16, grid):
    gamma = 1e8
    rng = np.random.default_rng(8)
    rhs = rng.standard_normal(sys16.num_dofs)
    cfg = BackwardConfig(gamma=gamma)
    x = fixed_point_reconstruct(sys16, grid, GridFunction(sys16, rhs), ZERO, cfg).u0_hat
    assert np.max(np.abs(x.values - rhs / gamma)) / np.max(np.abs(rhs / gamma)) < 1e-6


def test_cg_budget_failure(sys16, grid):
    # the CG budget bounds the nodal paths; the dense path runs no CG
    cfg = BackwardConfig(gamma=1e-8, cg_max=1, cg_tol=1e-14, fast_path="off")
    rng = np.random.default_rng(9)
    rhs = GridFunction(sys16, rng.standard_normal(sys16.num_dofs))
    with pytest.raises(NumericalFailure):
        fixed_point_reconstruct(sys16, grid, rhs, ZERO, cfg)


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


def test_fixed_point_linear_one_pass(sys16, grid):
    # with f = 0 the first regularized solve is the reconstruction; its
    # iterate is the dense closed form (gamma I + F)^-1 g, F = Phi R Phi^T M
    lam, phi = sys16.eigenpairs()
    x = sys16.interior_coords()[:, 0]
    truth = GridFunction(sys16, np.sin(np.pi * x) + 0.3 * np.sin(3 * np.pi * x))
    g = apply_F(sys16, grid, truth)
    gamma = 1e-6
    res = fixed_point_reconstruct(sys16, grid, g, get_nonlinearity("zero"),
                                  BackwardConfig(gamma=gamma), truth=truth)
    assert res.converged and not res.diverged
    assert res.outer_iters == 1 and len(res.history) == 1
    assert res.update_ratios == []
    r = scalar_terminal_factor(grid.alpha, grid.T, grid.N, lam)
    F = phi @ (r[:, None] * (phi.T @ sys16.M.toarray()))
    want = np.linalg.solve(gamma * np.eye(sys16.num_dofs) + F, g.values)
    assert np.max(np.abs(res.u0_hat.values - want)) <= 1e-10 * np.max(np.abs(want))


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
    p = select_parameters(delta, q=q, mu=mu)
    h, tau = p["h"], p["tau"]
    assert h * h * abs(math.log(h)) == pytest.approx(delta, rel=1e-8)
    target = delta ** (q / (q + 2.0)) / h ** min(q - mu, 0.0)
    assert tau * math.log(tau) ** 2 == pytest.approx(target, rel=1e-8)


def test_select_parameters_out_of_range():
    with pytest.raises(ParameterRangeError):
        select_parameters(0.9, q=2.0, mu=1.0)
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
