import cmath
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.special import erfcx, gamma as gamma_fn, rgamma

import fracback
from fracback.fem import assemble, l2_norm
from fracback.grid import build_interval_mesh, build_square_mesh
from fracback.mlf import (
    MlParams,
    SpectralField,
    mittag_leffler,
    sample_on_mesh,
    spectral_backward_linear,
    spectral_forward_linear,
)


def test_value_at_zero():
    for alpha in (0.2, 0.7, 1.0, 1.6):
        assert mittag_leffler(alpha, 1.0, 0.0) == pytest.approx(1.0, abs=1e-15)
    assert mittag_leffler(0.5, 2.0, 0.0) == pytest.approx(1.0 / gamma_fn(2.0))


def test_exponential_identity():
    for x in np.linspace(-50, 0, 200):
        assert abs(mittag_leffler(1.0, 1.0, x) - math.exp(x)) < 1e-10


def test_cosine_identity():
    for x in np.linspace(0, 10, 101):
        assert abs(mittag_leffler(2.0, 1.0, -x * x) - math.cos(x)) < 1e-10


def test_erfc_identity_point():
    want = math.e * math.erfc(1.0)
    assert mittag_leffler(0.5, 1.0, -1.0) == pytest.approx(want, rel=1e-10, abs=0)
    assert mittag_leffler(0.5, 1.0, -1.0) == pytest.approx(0.4275836, abs=5e-8)


def test_erfcx_identity_wide_range():
    # E_{1/2,1}(-x) = erfcx(x), an independent scipy implementation
    for x in np.geomspace(1e-3, 1e6, 120):
        got = mittag_leffler(0.5, 1.0, -x)
        assert got == pytest.approx(float(erfcx(x)), rel=2e-12, abs=0)


def test_rejects_positive_argument():
    with pytest.raises(ValueError):
        mittag_leffler(0.5, 1.0, 0.1)


def test_rejects_bad_orders():
    with pytest.raises(ValueError):
        MlParams(0.0, 1.0)
    with pytest.raises(ValueError):
        MlParams(2.5, 1.0)
    with pytest.raises(ValueError):
        MlParams(0.5, 0.0)


def test_lemma_bounds_grid():
    # 1/(1+G(1-a)x) <= E_a1(-x) <= 1/(1+x/G(1+a)), and E_aa(-x) >= 0
    alphas = np.linspace(0.02, 0.98, 50)
    xs = np.concatenate([[0.0], np.geomspace(1e-3, 50.0, 49)])
    for alpha in alphas:
        for x in xs:
            val = mittag_leffler(alpha, 1.0, -x)
            lo = 1.0 / (1.0 + gamma_fn(1.0 - alpha) * x)
            hi = 1.0 / (1.0 + x / gamma_fn(1.0 + alpha))
            assert lo - 1e-9 <= val <= hi + 1e-9
            assert mittag_leffler(alpha, alpha, -x) >= -1e-12


def test_monotone_decreasing():
    xs = np.linspace(0.0, 80.0, 200)
    for alpha in (0.1, 0.5, 0.9):
        vals = [mittag_leffler(alpha, 1.0, -x) for x in xs]
        assert np.all(np.diff(vals) < 0.0)


def test_multiprecision_reference_band():
    # adaptive-precision Taylor series as an independent check
    import mpmath

    def ref(alpha, beta, x):
        s = (-x) ** (1.0 / alpha)
        dps = 30 + int(0.6 * s)
        with mpmath.workdps(dps):
            am, bm = mpmath.mpf(alpha), mpmath.mpf(beta)
            xm = mpmath.mpf(x)
            tot = mpmath.mpf(0)
            term = mpmath.mpf(1)
            tol = mpmath.mpf(10) ** (-dps)
            k = 0
            low = 0
            while k < 100000:
                t = term / mpmath.gamma(am * k + bm)
                tot += t
                term *= xm
                k += 1
                if abs(t) < tol * max(abs(tot), mpmath.mpf(1)):
                    low += 1
                    if low > 3:
                        break
                else:
                    low = 0
            return float(tot)

    cases = [(alpha, beta, -(s ** alpha))
             for alpha in (0.05, 0.3, 0.5, 0.9, 0.98, 1.2, 1.5, 1.9)
             for beta in (0.3, alpha, 1.0, 2.5, 4.0)
             for s in (1e-3, 0.05, *np.geomspace(0.5, 60.0, 7))]
    # a point of criterion 2's grid (s = 34.19) and two tiny orders
    cases += [(0.98, 0.98, -np.geomspace(1e-3, 50.0, 49)[46]),
              (0.015, 0.015, -(34.0 ** 0.015)), (0.005, 1.0, -(34.0 ** 0.005))]
    for alpha, beta, x in cases:
        assert mittag_leffler(alpha, beta, x) == pytest.approx(
            ref(alpha, beta, x), rel=2e-12, abs=0.0)


def test_large_argument_expansion_above_alpha_one():
    # E_{a,b}(x) = -sum_k x^-k / Gamma(b - a k) + (1/a) sum_+- s*^(1-b) e^s*
    # with s* = |x|^(1/a) e^(+-i pi/a); the k > 15 terms are below 1e-50 here
    k = np.arange(1, 16, dtype=np.float64)
    for alpha in (1.2, 1.5, 1.8):
        for beta in (1.0, alpha, 2.5):
            for x in (-5.2e3, -3.2e4, -2e5):
                star = cmath.rect((-x) ** (1.0 / alpha), math.pi / alpha)
                want = (-float(np.sum(x ** -k * rgamma(beta - alpha * k)))
                        + 2.0 / alpha * (star ** (1.0 - beta) * cmath.exp(star)).real)
                assert abs(mittag_leffler(alpha, beta, x) - want) <= 1e-13


def test_criterion_2_grid_does_not_load_mpmath():
    code = (
        "import sys\n"
        "import numpy as np\n"
        "from fracback.mlf import mittag_leffler\n"
        "for alpha in np.linspace(0.02, 0.98, 50):\n"
        "    for x in np.concatenate([[0.0], np.geomspace(1e-3, 50.0, 49)]):\n"
        "        mittag_leffler(alpha, 1.0, -x)\n"
        "        mittag_leffler(alpha, alpha, -x)\n"
        "assert 'mpmath' not in sys.modules\n")
    src = os.path.dirname(os.path.dirname(fracback.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    subprocess.run([sys.executable, "-c", code], check=True, timeout=120,
                   env={**os.environ, "PYTHONPATH": path})


# ---------------------------------------------------------------------------
# spectral oracle

def test_forward_tiny_time_is_identity():
    # the decay factor is 1 - O(lam T^alpha); with alpha = 0.5 the
    # argument scale is sqrt(T), so T = 1e-20 puts it below 1e-8
    field = SpectralField("interval", np.array([1.0, -0.5, 0.25]))
    out = spectral_forward_linear(field, 0.5, 1e-20)
    assert np.allclose(out.coeffs, field.coeffs, atol=1e-8)
    out12 = spectral_forward_linear(field, 0.5, 1e-12)
    assert np.allclose(out12.coeffs, field.coeffs, atol=1e-4)


def test_forward_heat_kernel_limit():
    field = SpectralField("interval", np.array([1.0]))
    out = spectral_forward_linear(field, 1.0, 0.3)
    assert out.coeffs[0] == pytest.approx(math.exp(-np.pi ** 2 * 0.3), rel=1e-12, abs=0)


def test_forward_matches_pointwise_ml():
    field = SpectralField("interval", np.array([1.0]))
    out = spectral_forward_linear(field, 0.5, 1.0)
    assert out.coeffs[0] == pytest.approx(
        mittag_leffler(0.5, 1.0, -np.pi ** 2), rel=1e-12, abs=0)


def test_backward_inverts_forward():
    rng = np.random.default_rng(9)
    field = SpectralField("square", rng.standard_normal((6, 6)))
    fwd = spectral_forward_linear(field, 0.4, 1.0)
    back = spectral_backward_linear(fwd, 0.4, 1.0, gamma=0.0)
    assert np.allclose(back.coeffs, field.coeffs, rtol=1e-9)


def test_backward_large_gamma_damps():
    field = SpectralField("interval", np.ones(4))
    out = spectral_backward_linear(field, 0.5, 1.0, gamma=1e8)
    assert np.all(np.abs(out.coeffs) < 1.1e-8)


def test_backward_modewise_error_identity():
    # gamma-regularized inversion of clean data: error = gamma c_k/(gamma+E_k)
    alpha, T, gamma = 0.6, 1.0, 1e-2
    field = SpectralField("interval", np.array([0.8, -0.3, 0.1]))
    fwd = spectral_forward_linear(field, alpha, T)
    rec = spectral_backward_linear(fwd, alpha, T, gamma)
    lam = field.eigenvalues()
    E = np.array([mittag_leffler(alpha, 1.0, -l * T ** alpha) for l in lam])
    want = gamma * np.abs(field.coeffs) / (gamma + E)
    assert np.allclose(np.abs(field.coeffs - rec.coeffs), want, rtol=1e-10)


def test_sample_zero_field():
    field = SpectralField("interval", np.zeros(3))
    gf = sample_on_mesh(field, build_interval_mesh(8))
    assert np.allclose(gf.values, 0.0)


def test_sample_single_mode_values():
    field = SpectralField("interval", np.array([1.0]))
    gf = sample_on_mesh(field, build_interval_mesh(8))
    x = gf.system.interior_coords()[:, 0]
    assert np.allclose(gf.values, np.sqrt(2.0) * np.sin(np.pi * x), atol=1e-14)


def test_sample_2d_mode_values():
    field = SpectralField("square", np.zeros((2, 2)))
    field.coeffs[1, 0] = 1.0   # mode (k=2, l=1)
    sys = assemble(build_square_mesh(6))
    gf = sample_on_mesh(field, sys)
    pts = sys.interior_coords()
    want = 2.0 * np.sin(2 * np.pi * pts[:, 0]) * np.sin(np.pi * pts[:, 1])
    assert np.allclose(gf.values, want, atol=1e-13)


def test_parseval_on_fine_mesh():
    rng = np.random.default_rng(4)
    coeffs = rng.standard_normal(8) * np.exp(-np.arange(8))
    field = SpectralField("interval", coeffs)
    sys = assemble(build_interval_mesh(256))
    gf = sample_on_mesh(field, sys)
    assert l2_norm(sys, gf) == pytest.approx(field.norm(), rel=0.01)


def test_domain_mismatch_rejected():
    field = SpectralField("square", np.zeros((2, 2)))
    with pytest.raises(ValueError):
        sample_on_mesh(field, build_interval_mesh(4))
