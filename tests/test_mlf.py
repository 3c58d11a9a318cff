import math

import numpy as np
import pytest
from scipy.special import erfcx, gamma as gamma_fn, gammaln, rgamma

from fracback.fem import assemble, l2_norm
from fracback import mlf
from fracback.grid import build_interval_mesh, build_square_mesh
from fracback.mlf import (
    MlParams,
    SpectralField,
    _asymptotic,
    _coefficients,
    _taylor_f64,
    _taylor_mp,
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
    assert mittag_leffler(0.5, 1.0, -1.0) == pytest.approx(want, rel=1e-10)
    assert mittag_leffler(0.5, 1.0, -1.0) == pytest.approx(0.4275836, abs=5e-8)


def test_erfcx_identity_wide_range():
    # E_{1/2,1}(-x) = erfcx(x), an independent scipy implementation
    for x in np.geomspace(1e-3, 1e6, 120):
        got = mittag_leffler(0.5, 1.0, -x)
        assert got == pytest.approx(float(erfcx(x)), rel=2e-12)


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


def test_region_crossover_continuity():
    # methods agree to far better than 1e-9 where they hand over
    for alpha in np.linspace(0.05, 0.99, 20):
        x_lo = -(5.0 ** alpha)
        assert abs(_taylor_f64(alpha, 1.0, x_lo)
                   - _taylor_mp(alpha, 1.0, x_lo, 5.0)) < 1e-9
        x_hi = -(34.0 ** alpha)
        asym = _asymptotic(alpha, 1.0, x_hi)
        assert asym is not None
        assert abs(asym - _taylor_mp(alpha, 1.0, x_hi, 34.0)) < 1e-9


def _taylor_kahan(alpha, beta, x, terms=700):
    """The float64 Taylor series summed by a Kahan-compensated loop; also
    returns the sum of the terms' magnitudes."""
    k = np.arange(1, terms + 1, dtype=np.float64)
    with np.errstate(under="ignore"):
        mags = np.exp(k * np.log(-x) - gammaln(alpha * k + beta))
    total = float(rgamma(beta))
    comp = 0.0
    for t in np.where(k % 2 == 0, mags, -mags):
        y = t - comp
        s = total + y
        comp = (s - total) - y
        total = s
    return total, abs(float(rgamma(beta))) + float(mags.sum())


def test_taylor_sum_matches_kahan_reference():
    # Kahan errs by at most ~2u sum|t_k| and an exactly rounded sum by u|S|,
    # so the two agree to 4u sum|t_k| (u = 2^-53) over the Taylor region
    u = 2.0 ** -53
    for alpha in np.linspace(0.05, 1.95, 20):
        for beta in (1.0, alpha, 0.5):
            for s in np.geomspace(1e-3, 5.0, 12):
                x = -(s ** alpha)
                ref, magnitude = _taylor_kahan(alpha, beta, x)
                assert abs(_taylor_f64(alpha, beta, x) - ref) <= 4.0 * u * magnitude


def _taylor_f64_per_call(alpha, beta, x):
    """The float64 Taylor regime as it was before its tables were cached:
    every call forms every coefficient."""
    X = -x
    k = np.arange(1, 700 + 1, dtype=np.float64)
    with np.errstate(under="ignore"):
        mags = np.exp(k * np.log(X) - gammaln(alpha * k + beta))
    terms = np.where(k % 2 == 0, mags, -mags)
    return math.fsum([float(rgamma(beta)), *terms.tolist()])


def _asymptotic_per_call(alpha, beta, x):
    """The asymptotic regime as it was before its tables were cached."""
    X = -x
    lnX = np.log(X)
    k = np.arange(1, 1600 + 1, dtype=np.float64)
    y = beta - alpha * k
    ln_env = np.where(
        y > 0.5,
        -k * lnX - gammaln(np.maximum(y, 0.5)),
        -k * lnX + gammaln(np.maximum(1.0 - y, 0.5)) - np.log(np.pi),
    )
    kstar = int(np.argmin(ln_env)) + 1
    if ln_env[kstar - 1] > ln_env[0] - 13.0 * np.log(10.0):
        return None
    kk = k[:kstar]
    yy = y[:kstar]
    pos = yy > 0
    with np.errstate(under="ignore", divide="ignore"):
        sin_y = np.sin(np.pi * yy)
        ln_mag = np.where(
            pos,
            -kk * lnX - gammaln(np.where(pos, yy, 1.0)),
            -kk * lnX + np.log(np.abs(sin_y)) + gammaln(np.where(pos, 1.0, 1.0 - yy))
            - np.log(np.pi),
        )
        sign = np.where(pos, 1.0, np.sign(sin_y))
        terms = np.where(kk % 2 == 1, 1.0, -1.0) * sign * np.exp(ln_mag)
    return float(np.sum(terms))


def test_tabulated_regimes_match_per_call_reference(monkeypatch):
    # same expressions in the same order, so equal to the last bit, on both
    # sides of the Taylor (s = 5) and asymptotic (s = 34) gauges; alpha =
    # 0.005 and 0.01 add orders whose asymptotic series gives up (None)
    taylor_s = (1e-3, 0.5, 2.0, 4.9, 5.0, 5.1, 6.0)
    asym_s = (20.0, 33.0, 34.0, 35.0, 60.0, 1e3, 1e6)
    fallbacks = 0
    for alpha in (0.005, 0.01, *np.linspace(0.02, 0.98, 50)):
        for beta in (1.0, alpha):
            for s in taylor_s:
                x = -(s ** alpha)
                assert _taylor_f64(alpha, beta, x) == _taylor_f64_per_call(alpha, beta, x)
            for s in asym_s:
                x = -(s ** alpha)
                want = _asymptotic_per_call(alpha, beta, x)
                assert _asymptotic(alpha, beta, x) == want
                fallbacks += s >= 34.0 and want is None
    assert fallbacks > 0
    # where it gives up past s = 34, mittag_leffler takes the multiprecision
    # series (stubbed: at this order it sums ~10^4 terms, about a second)
    x = -(34.0 ** 0.01)
    assert _asymptotic(0.01, 1.0, x) is None
    monkeypatch.setattr(mlf, "_taylor_mp", lambda alpha, beta, x, s: ("mp", alpha, beta, x))
    assert mittag_leffler(0.01, 1.0, x) == ("mp", 0.01, 1.0, x)


def test_coefficient_tables_are_independent_and_read_only():
    # Taylor and asymptotic arguments, three orders beta per alpha
    cases = [(alpha, beta, -(s ** alpha))
             for alpha, gauges in ((0.1, (0.3, 4.0, 40.0, 1e4)), (0.5, (4.0, 1e4)),
                                   (0.9, (0.3, 40.0)), (1.5, (0.3, 4.0)))
             for beta in (1.0, alpha, 2.0)
             for s in gauges]
    _coefficients.cache_clear()
    forwards = [mittag_leffler(*case) for case in cases]
    _coefficients.cache_clear()
    backwards = [mittag_leffler(*case) for case in reversed(cases)]
    assert forwards == backwards[::-1]
    tables = vars(_coefficients(0.5, 1.0))
    arrays = [a for a in tables.values() if isinstance(a, np.ndarray)]
    assert len(arrays) >= 5
    arrays += [mlf._TAYLOR_K, mlf._TAYLOR_EVEN, mlf._ASYM_K]
    for a in arrays:
        with pytest.raises(ValueError):
            a[0] = 1.0


def test_multiprecision_reference_band():
    # adaptive-precision series as an independent check inside the band
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

    for alpha, s in ((0.3, 9.0), (0.6, 14.0), (0.9, 21.0)):
        for beta in (1.0, alpha):
            x = -(s ** alpha)
            assert mittag_leffler(alpha, beta, x) == pytest.approx(
                ref(alpha, beta, x), rel=1e-11)


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
    assert out.coeffs[0] == pytest.approx(math.exp(-np.pi ** 2 * 0.3), rel=1e-12)


def test_forward_matches_pointwise_ml():
    field = SpectralField("interval", np.array([1.0]))
    out = spectral_forward_linear(field, 0.5, 1.0)
    assert out.coeffs[0] == pytest.approx(
        mittag_leffler(0.5, 1.0, -np.pi ** 2), rel=1e-12)


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
