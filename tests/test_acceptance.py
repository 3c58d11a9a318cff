"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Criteria 7-9 drive the full reconstruction pipeline at desk scale with
pinned seeds; criterion 10 re-runs them and byte-compares the CSVs.
"""

import filecmp
import math
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.special import gammaln, gamma as gamma_fn

from fracback.backward import BackwardConfig, convergence_order, fixed_point_reconstruct, solve_linear_regularized
from fracback.bench import ExperimentSpec, NoiseSpec, run_table
from fracback.cq import cq_weights, scalar_terminal_factor
from fracback.fem import GridFunction, assemble, l2_error
from fracback.forward import TimeGrid, apply_F, apply_S, get_nonlinearity
from fracback.grid import build_interval_mesh
from fracback.mlf import SpectralField, mittag_leffler, sample_on_mesh, spectral_forward_linear

_ARTIFACTS = {}


def report(num, ok, budget, elapsed, detail):
    mark = "PASS" if ok else "FAIL"
    print(f"[{mark}] criterion {num}: {detail} ({elapsed:.1f}s of {budget:.0f}s budget)")


def test_criterion_01_cq_weights():
    t0 = time.perf_counter()
    worst_w = worst_s = 0.0
    for alpha in (0.1, 0.3, 0.5, 0.7, 0.9):
        N = 2000
        w = cq_weights(alpha, N)
        j = np.arange(1, N + 1, dtype=np.float64)
        ref = np.empty(N + 1)
        ref[0] = 1.0
        ref[1:] = -np.sin(np.pi * alpha) / np.pi * np.exp(
            gammaln(alpha + 1.0) + gammaln(j - alpha) - gammaln(j + 1.0))
        worst_w = max(worst_w, float(np.max(np.abs(w - ref) / np.maximum(1.0, np.abs(ref)))))
        s_ref = math.exp(gammaln(N + 1 - alpha) - gammaln(N + 1.0) - gammaln(1.0 - alpha))
        worst_s = max(worst_s, abs(np.cumsum(w)[-1] - s_ref) / s_ref)
    elapsed = time.perf_counter() - t0
    ok = worst_w < 1e-12 and worst_s < 1e-11 and elapsed < 1.0
    report(1, ok, 1, elapsed, f"weights rel {worst_w:.1e} (<1e-12), partial sum rel {worst_s:.1e} (<1e-11)")
    assert ok


def test_criterion_02_mittag_leffler():
    t0 = time.perf_counter()
    worst_exp = max(abs(mittag_leffler(1.0, 1.0, x) - math.exp(x))
                    for x in np.linspace(-50, 0, 200))
    worst_cos = max(abs(mittag_leffler(2.0, 1.0, -x * x) - math.cos(x))
                    for x in np.linspace(0, 10, 101))
    bounds_ok = True
    for alpha in np.linspace(0.02, 0.98, 50):
        for x in np.concatenate([[0.0], np.geomspace(1e-3, 50.0, 49)]):
            val = mittag_leffler(alpha, 1.0, -x)
            lo = 1.0 / (1.0 + gamma_fn(1.0 - alpha) * x)
            hi = 1.0 / (1.0 + x / gamma_fn(1.0 + alpha))
            if not (lo - 1e-9 <= val <= hi + 1e-9) or mittag_leffler(alpha, alpha, -x) < -1e-12:
                bounds_ok = False
    elapsed = time.perf_counter() - t0
    ok = worst_exp < 1e-10 and worst_cos < 1e-10 and bounds_ok and elapsed < 5.0
    report(2, ok, 5, elapsed,
           f"|E11-exp| {worst_exp:.1e}, |E21-cos| {worst_cos:.1e} (<1e-10), bounds on 50x50 grid: {bounds_ok}")
    assert ok


def test_criterion_03_temporal_order():
    t0 = time.perf_counter()
    sys = assemble(build_interval_mesh(256))
    x = sys.interior_coords()[:, 0]
    u0 = GridFunction(sys, np.sin(np.pi * x))
    all_orders = []
    for alpha in (0.3, 0.5, 0.7):
        oracle = sample_on_mesh(
            spectral_forward_linear(SpectralField("interval", np.array([1.0 / np.sqrt(2.0)])),
                                    alpha, 1.0), sys)
        errs = []
        for N in (40, 80, 160, 320):
            out = apply_F(sys, TimeGrid(T=1.0, N=N, alpha=alpha), u0)
            errs.append(l2_error(sys, out, oracle))
        orders = [np.log2(errs[i] / errs[i + 1]) for i in range(3)]
        all_orders.extend(orders)
    elapsed = time.perf_counter() - t0
    ok = all(0.8 <= o <= 1.2 for o in all_orders) and elapsed < 60.0
    report(3, ok, 60, elapsed,
           "temporal orders " + ", ".join(f"{o:.2f}" for o in all_orders) + " in [0.8, 1.2]")
    assert ok


def test_criterion_04_spatial_order():
    t0 = time.perf_counter()
    alpha, N = 0.5, 2000
    rN = scalar_terminal_factor(alpha, 1.0, N, np.pi ** 2)[0]
    errs = []
    for n in (16, 32, 64, 128):
        sys = assemble(build_interval_mesh(n))
        x = sys.interior_coords()[:, 0]
        u0 = GridFunction(sys, np.sin(np.pi * x))
        out = apply_F(sys, TimeGrid(T=1.0, N=N, alpha=alpha), u0)
        ref = GridFunction(sys, rN * np.sin(np.pi * x))
        errs.append(l2_error(sys, out, ref, relative=True))
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(3)]
    elapsed = time.perf_counter() - t0
    ok = all(1.7 <= o <= 2.3 for o in orders) and elapsed < 60.0
    report(4, ok, 60, elapsed,
           "spatial orders " + ", ".join(f"{o:.2f}" for o in orders) + " in [1.7, 2.3]")
    assert ok


def test_criterion_05_operator_equivalence():
    t0 = time.perf_counter()
    sys = assemble(build_interval_mesh(16))
    grid = TimeGrid(T=1.0, N=64, alpha=0.5)
    lam, phi = sys.eigenpairs()
    rN = scalar_terminal_factor(grid.alpha, grid.T, grid.N, lam)
    rng = np.random.default_rng(5150)
    worst_f = 0.0
    for _ in range(20):
        v = rng.standard_normal(sys.num_dofs)
        ref = phi @ (rN * (phi.T @ (sys.M @ v)))
        got = apply_F(sys, grid, GridFunction(sys, v)).values
        worst_f = max(worst_f, float(np.max(np.abs(got - ref)) / max(1.0, np.max(np.abs(ref)))))
    gamma = 1e-3
    cfg = BackwardConfig(gamma=gamma, fast_path="off", cg_tol=1e-12, cg_max=600)
    rhs = rng.standard_normal(sys.num_dofs)
    sol = solve_linear_regularized(sys, grid, GridFunction(sys, rhs), cfg).values
    ref = phi @ ((phi.T @ (sys.M @ rhs)) / (gamma + rN))
    worst_inv = float(np.max(np.abs(sol - ref)) / np.max(np.abs(ref)))
    elapsed = time.perf_counter() - t0
    ok = worst_f < 1e-10 and worst_inv < 1e-8 and elapsed < 10.0
    report(5, ok, 10, elapsed,
           f"apply_F vs spectral {worst_f:.1e} (<1e-10), CG vs spectral inverse {worst_inv:.1e} (<1e-8)")
    assert ok


def test_criterion_06_regularization_rate():
    t0 = time.perf_counter()
    sys = assemble(build_interval_mesh(64))
    grid = TimeGrid(T=1.0, N=128, alpha=0.5)
    x = sys.interior_coords()[:, 0]
    truth = GridFunction(sys, np.sin(2.0 * np.pi * x))
    g = apply_F(sys, grid, truth)
    errs = []
    for gamma in (1e-2, 1e-3, 1e-4):
        cfg = BackwardConfig(gamma=gamma, cg_tol=1e-12, cg_max=1000)
        res = fixed_point_reconstruct(sys, grid, g, get_nonlinearity("zero"), cfg)
        errs.append(l2_error(sys, res.u0_hat, truth, relative=True))
    orders = [math.log10(errs[i] / errs[i + 1]) for i in range(2)]
    elapsed = time.perf_counter() - t0
    ok = all(0.7 <= o <= 1.3 for o in orders) and elapsed < 60.0
    report(6, ok, 60, elapsed,
           "gamma-orders " + ", ".join(f"{o:.2f}" for o in orders) + " in [0.7, 1.3]")
    assert ok


def _table1_spec(out_dir):
    return ExperimentSpec(
        alpha=0.1, T=1.0, nonlinearity="sqrt1pu2", initial_data="smooth_sine",
        noise=NoiseSpec(delta=1.0 / 80, mode="paper_pointwise", seed=42),
        dim=2, n_ref=128, N_ref=500, preset="paper-ex1",
        output_dir=str(out_dir), repetitions=3)


def _table3_spec(out_dir):
    return ExperimentSpec(
        alpha=0.2, T=1.0, nonlinearity="sqrt1pu2", initial_data="checkerboard",
        noise=NoiseSpec(delta=1.0 / 400, mode="paper_pointwise", seed=2024),
        dim=2, n_ref=128, N_ref=500, preset="paper-ex2",
        output_dir=str(out_dir), repetitions=3)


def test_criterion_07_table1_scaled(tmp_path_factory):
    t0 = time.perf_counter()
    out = tmp_path_factory.mktemp("table1")
    spec = _table1_spec(out)
    table = run_table(spec, deltas=[1.0 / 80, 1.0 / 160, 1.0 / 320], alphas=[0.1, 0.5])
    _ARTIFACTS["table1"] = (spec, out)
    mean_order = float(np.mean([o for row in table["orders"] for o in row]))
    cell_01, cell_05 = table["errors"][0][0], table["errors"][1][0]
    in_band_01 = 0.65 * 0.3551 <= cell_01 <= 1.35 * 0.3551
    in_band_05 = 0.65 * 0.4642 <= cell_05 <= 1.35 * 0.4642
    order_ok = 0.35 <= mean_order <= 0.70
    elapsed = time.perf_counter() - t0
    ok = order_ok and in_band_01 and in_band_05 and elapsed < 900.0
    report(7, ok, 900, elapsed,
           f"mean order {mean_order:.3f} (band [0.35,0.70]); K=80 cells "
           f"{cell_01:.4f} vs 0.3551+-35% ({'ok' if in_band_01 else 'OUT'}), "
           f"{cell_05:.4f} vs 0.4642+-35% ({'ok' if in_band_05 else 'OUT'})")
    if not ok:
        pytest.fail(
            "criterion 7 bands missed: split on the same pipeline at delta=1/80 "
            "(n=14, N=45, n_ref=126, gamma=1.49e-3), noise-free data give "
            "e_u 0.105 (alpha=0.1) and 0.172 (alpha=0.5), while the three "
            "noisy repetitions give 0.484, 0.491, 0.514 and 0.596, 0.627, "
            "0.569; the excess comes from the per-node noise at its full "
            "variance delta*sup g. Whether the pipeline or the band is wrong "
            "depends on the paper's noise recipe and grid transfer, which "
            "the repository does not record. "
            f"mean_order={mean_order:.3f}, K80 cells=({cell_01:.4f}, {cell_05:.4f})")


def test_criterion_08_table3_scaled(tmp_path_factory):
    t0 = time.perf_counter()
    out = tmp_path_factory.mktemp("table3")
    spec = _table3_spec(out)
    table = run_table(spec, deltas=[1.0 / 400, 1.0 / 800, 1.0 / 1200], alphas=[0.2, 0.6])
    _ARTIFACTS["table3"] = (spec, out)
    mean_order = float(np.mean([o for row in table["orders"] for o in row]))
    elapsed = time.perf_counter() - t0
    ok = 0.12 <= mean_order <= 0.30 and elapsed < 1200.0
    report(8, ok, 1200, elapsed, f"mean order {mean_order:.3f} in [0.12, 0.30]")
    assert ok


def _criterion9_system():
    return assemble(build_interval_mesh(100))


def _criterion9_run(L, T, alpha=0.5, gamma=1e-4, seed=314):
    sys = _criterion9_system()
    grid = TimeGrid(T=T, N=100, alpha=alpha)
    f = get_nonlinearity(f"L_sqrt1pu2:{L}")
    x = sys.interior_coords()[:, 0]
    truth = GridFunction(sys, np.sin(2.0 * np.pi * x))
    g = apply_S(sys, grid, truth, f)
    rng = np.random.default_rng(seed)
    m = max(float(g.values.max()), 0.0)
    g_noisy = GridFunction(sys, g.values + 1e-4 * m * rng.standard_normal(sys.num_dofs))
    cfg = BackwardConfig(gamma=gamma, cg_tol=1e-12, cg_max=3000, fp_max=60)
    return fixed_point_reconstruct(sys, grid, g_noisy, f, cfg, truth=truth)


def test_criterion_09a_fixed_point_contraction():
    t0 = time.perf_counter()
    res = _criterion9_run(L=0.5, T=1.0)
    _ARTIFACTS["crit9a"] = res
    ups = [h["update_norm"] for h in res.history]
    ratios = [ups[i + 1] / ups[i] for i in range(1, len(ups) - 1)]
    ratios_ok = all(r < 0.95 for r in ratios)
    elapsed = time.perf_counter() - t0
    ok = res.converged and ratios_ok and elapsed < 300.0
    report("9a", ok, 300, elapsed,
           f"converged={res.converged} in {res.outer_iters} iters, "
           f"max ratio after iter 2: {max(ratios) if ratios else 0.0:.2e} (<0.95)")
    assert ok


def _settled_ratio(res):
    """Last ratio e_{j+1}/e_j of update norms above the divergence floor.

    The floor is the one ``fixed_point_reconstruct`` uses, 100 * fp_tol;
    below it the update norms rattle at the inner-solver noise.
    """
    floor = 100.0 * BackwardConfig.fp_tol
    ups = [h["update_norm"] for h in res.history]
    ratios = [ups[i + 1] / ups[i] for i in range(len(ups) - 1) if ups[i + 1] > floor]
    return ratios[-1]


def test_criterion_09b_fixed_point_divergence():
    """Necessity of the contraction assumption: past it the iteration diverges.

    The outer map is u -> (gamma + F)^{-1} (g - (S u - F u)).  Linearised
    about the solution and restricted to the lowest discrete mode (the
    smallest eigenvalue lam1 of (K, M)), it multiplies the error by

        (E_a(-(lam1 - l) T^a) - E_a(-lam1 T^a)) / (gamma + E_a(-lam1 T^a)),

    where l is the slope f'(u) along the solution, not the global Lipschitz
    constant L.  For large T, E_a(-z T^a) ~ 1 / (z T^a Gamma(1 - a)), and
    gamma = 1e-5 is small against E_a(-lam1 T^a) ~ 0.02, so the ratio tends
    to l / (lam1 - l).  For f = L sqrt(1 + u^2) the one-mode steady state
    lam1 a = L sqrt(1 + a^2) gives a = L / sqrt(lam1^2 - L^2) and
    l = L a / sqrt(1 + a^2) = L^2 / lam1, hence

        q(L) = L^2 / (lam1^2 - L^2),

    which exceeds 1 once L > lam1 / sqrt(2), about 6.98 on this mesh (the
    steady state itself exists only for L < lam1, about 9.87).  So L = 8
    (q about 1.9) must be flagged divergent and L = 5 (q about 0.35) must
    converge; both must contract or expand at q within 10%.  The two cases
    were chosen from this derivation; the repository does not record the
    paper's own parameters for this example.
    """
    t0 = time.perf_counter()
    lam1 = float(_criterion9_system().eigenpairs()[0][0])
    threshold = lam1 / math.sqrt(2.0)

    def predicted(L):
        return L * L / (lam1 * lam1 - L * L)

    res_div = _criterion9_run(L=8.0, T=10.0, gamma=1e-5)
    res_con = _criterion9_run(L=5.0, T=10.0, gamma=1e-5)
    _ARTIFACTS["crit9b"] = res_div
    q_div, q_con = predicted(8.0), predicted(5.0)
    r_div, r_con = _settled_ratio(res_div), _settled_ratio(res_con)
    tol = 0.10
    div_ok = q_div > 1.0 and res_div.diverged and abs(r_div / q_div - 1.0) <= tol
    con_ok = (q_con < 1.0 and res_con.converged and not res_con.diverged
              and abs(r_con / q_con - 1.0) <= tol)
    elapsed = time.perf_counter() - t0
    ok = div_ok and con_ok and elapsed < 300.0
    report("9b", ok, 300, elapsed,
           f"threshold lam1/sqrt(2) = {threshold:.2f}; L=8: diverged={res_div.diverged} "
           f"after {res_div.outer_iters} iters, ratio {r_div:.3f} vs predicted {q_div:.3f}; "
           f"L=5: converged={res_con.converged} in {res_con.outer_iters} iters, "
           f"ratio {r_con:.3f} vs predicted {q_con:.3f} (within {tol:.0%})")
    if not ok:
        pytest.fail(
            f"criterion 9b: the fixed-point map contracts at L^2/(lam1^2 - L^2), so "
            f"divergence must set in past the threshold lam1/sqrt(2) = {threshold:.2f} "
            f"(the steady state exists only for L < lam1 = {lam1:.2f}); expected "
            f"L=8 flagged divergent at ratio {q_div:.3f} and L=5 converging at "
            f"ratio {q_con:.3f}, each within {tol:.0%}; got diverged={res_div.diverged}, "
            f"ratio {r_div:.3f} and converged={res_con.converged}, ratio {r_con:.3f}")


def test_criterion_10_determinism(tmp_path_factory):
    t0 = time.perf_counter()
    assert "table1" in _ARTIFACTS and "table3" in _ARTIFACTS, \
        "criteria 7 and 8 must run first"
    identical = True
    for key, deltas, alphas in (
            ("table1", [1.0 / 80, 1.0 / 160, 1.0 / 320], [0.1, 0.5]),
            ("table3", [1.0 / 400, 1.0 / 800, 1.0 / 1200], [0.2, 0.6])):
        spec, first_dir = _ARTIFACTS[key]
        redo = tmp_path_factory.mktemp(f"{key}_redo")
        spec2 = ExperimentSpec.from_dict({**spec.to_dict(), "output_dir": str(redo)})
        run_table(spec2, deltas=deltas, alphas=alphas)
        for f in sorted(Path(first_dir).glob("*.csv")):
            g = Path(redo) / f.name
            if not (g.exists() and filecmp.cmp(f, g, shallow=False)):
                identical = False
    res1 = _criterion9_run(L=0.5, T=1.0)
    res2 = _criterion9_run(L=0.5, T=1.0)
    hist_same = all(a["update_norm"] == b["update_norm"]
                    for a, b in zip(res1.history, res2.history))
    elapsed = time.perf_counter() - t0
    ok = identical and hist_same and elapsed < 900.0
    report(10, ok, 900, elapsed,
           f"table CSV bytes identical: {identical}; criterion-9 histories identical: {hist_same}")
    assert ok
