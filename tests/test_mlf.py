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
    SpectralField,
    branch_cut_rule,
    mittag_leffler,
    sample_on_mesh,
    spectral_forward_linear,
)


def test_value_at_zero():
    for alpha in (0.2, 0.7, 1.0):
        assert mittag_leffler(alpha, 1.0, 0.0) == pytest.approx(1.0, abs=1e-15)
    assert mittag_leffler(1.0, 2.0, 0.0) == pytest.approx(1.0 / gamma_fn(2.0))


def test_value_at_zero_is_reciprocal_gamma():
    # E_{a,b}(0) = 1/Gamma(b): 1e-14 relative up to b = a + 1; below
    # b = 5.6e-309, where Gamma overflows, 1/Gamma(b) ~ b is subnormal and
    # zero is returned
    beta = np.geomspace(1e-6, 2.0, 1001)
    got = np.array([mittag_leffler(1.0, b, 0.0) for b in beta])
    want = rgamma(beta)
    assert np.all(np.abs(got - want) <= 1e-14 * want)
    assert mittag_leffler(1.0, 1e-310, 0.0) == 0.0


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
    # and non-finite ones, which no order accepts
    for x in (0.1, -math.inf, math.nan):
        with pytest.raises(ValueError):
            mittag_leffler(0.5, 1.0, x)
    with pytest.raises(ValueError):
        mittag_leffler(2.0, 1.0, math.nan)


def test_rejects_bad_orders():
    # beyond alpha in (0, 1] only the exact pair (2, 1) is taken, and beta
    # may not exceed alpha + 1
    for alpha, beta in ((0.0, 1.0), (2.5, 1.0), (0.5, 0.0), (1.5, 1.0),
                        (2.0, 2.0), (1.0 + 1e-15, 1.0), (0.5, 1.5 + 1e-15),
                        (0.5, math.inf), (0.5, 120.0), (math.nan, 1.0),
                        (0.5, math.nan)):
        with pytest.raises(ValueError):
            mittag_leffler(alpha, beta, -1.0)


def test_branch_cut_rule_is_pinned():
    # the CQ symbol and the oracle depend on these exact bits
    assert branch_cut_rule() == (27, 1.5048769942064695, 0.18125923248023865)


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
             for alpha in (0.05, 0.3, 0.5, 0.9, 0.98)
             for beta in (0.3, alpha, 1.0, alpha + 1.0)
             for s in (1e-3, 0.05, *np.geomspace(0.5, 60.0, 7))]
    # a point of criterion 2's grid (s = 34.19) and two tiny orders
    cases += [(0.98, 0.98, -np.geomspace(1e-3, 50.0, 49)[46]),
              (0.015, 0.015, -(34.0 ** 0.015)), (0.005, 1.0, -(34.0 ** 0.005))]
    for alpha, beta, x in cases:
        assert mittag_leffler(alpha, beta, x) == pytest.approx(
            ref(alpha, beta, x), rel=2e-12, abs=0.0)


def _run_fresh(code):
    """Run ``code`` in a fresh interpreter that imports this fracback."""
    src = os.path.dirname(os.path.dirname(fracback.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    subprocess.run([sys.executable, "-c", code], check=True, timeout=120,
                   env={**os.environ, "PYTHONPATH": path})


def test_criterion_2_grid_does_not_load_mpmath():
    _run_fresh(
        "import sys\n"
        "import numpy as np\n"
        "from fracback.mlf import mittag_leffler\n"
        "for alpha in np.linspace(0.02, 0.98, 50):\n"
        "    for x in np.concatenate([[0.0], np.geomspace(1e-3, 50.0, 49)]):\n"
        "        mittag_leffler(alpha, 1.0, -x)\n"
        "        mittag_leffler(alpha, alpha, -x)\n"
        "assert 'mpmath' not in sys.modules\n")


def test_import_does_not_load_scipy_special():
    # the package, its CLI and the Mittag-Leffler oracle against the CQ
    # symbol need NumPy only; importing SciPy costs every run about 0.25 s
    # and 30 MB, so no scipy module may load until a system is assembled
    _run_fresh(
        "import sys\n"
        "import numpy as np\n"
        "import fracback, fracback.bench, fracback.cli\n"
        "from fracback.cq import scalar_terminal_factor\n"
        "from fracback.mlf import SpectralField, spectral_forward_linear\n"
        "field = SpectralField('square', np.ones((3, 3)))\n"
        "spectral_forward_linear(field, 0.5, 1.0)\n"
        "scalar_terminal_factor(0.5, 1.0, 70, field.eigenvalues().ravel())\n"
        "loaded = [m for m in sys.modules if m.startswith('scipy')]\n"
        "assert not loaded, loaded\n")


def test_assembly_and_forward_solve_load_scipy():
    _run_fresh(
        "import sys\n"
        "import numpy as np\n"
        "from fracback import GridFunction, TimeGrid, assemble, build_interval_mesh\n"
        "from fracback import get_nonlinearity, solve_forward\n"
        "sys_ = assemble(build_interval_mesh(8))\n"
        "assert 'scipy.sparse' in sys.modules\n"
        "u0 = GridFunction(sys_, np.ones(sys_.num_dofs))\n"
        "solve_forward(sys_, TimeGrid(1.0, 4, 0.5), u0, get_nonlinearity('zero'))\n"
        "assert 'scipy.linalg' in sys.modules\n")


def test_forward_solve_does_not_load_csgraph():
    # the band factor keeps the mesh's own numbering: no graph search
    _run_fresh(
        "import sys\n"
        "import numpy as np\n"
        "from fracback import GridFunction, TimeGrid, assemble, build_interval_mesh\n"
        "from fracback import get_nonlinearity, solve_forward\n"
        "sys_ = assemble(build_interval_mesh(8))\n"
        "u0 = GridFunction(sys_, np.ones(sys_.num_dofs))\n"
        "solve_forward(sys_, TimeGrid(1.0, 4, 0.5), u0, get_nonlinearity('sqrt1pu2'))\n"
        "assert 'scipy.sparse.csgraph' not in sys.modules\n")


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


def test_square_forward_matches_pointwise_ml():
    # mode (k, l) of the square has eigenvalue (k^2 + l^2) pi^2 and decays
    # by E_alpha(-lam T^alpha)
    coeffs = np.arange(1.0, 10.0).reshape(3, 3)
    field = SpectralField("square", coeffs)
    lam = field.eigenvalues()
    out = spectral_forward_linear(field, 0.5, 0.7)
    assert out.domain == "square" and out.coeffs.shape == (3, 3)
    for k in range(1, 4):
        for l in range(1, 4):
            lam_kl = (k * k + l * l) * np.pi ** 2
            assert lam[k - 1, l - 1] == pytest.approx(lam_kl, rel=1e-15)
            want = coeffs[k - 1, l - 1] * mittag_leffler(0.5, 1.0, -lam_kl * 0.7 ** 0.5)
            assert out.coeffs[k - 1, l - 1] == pytest.approx(want, rel=1e-12, abs=0)


def test_spectral_field_checks_inputs():
    for domain, coeffs, message in (("disk", np.ones(3), "unknown domain"),
                                    ("interval", np.ones((2, 2)), "1-d coefficients"),
                                    ("square", np.ones(3), "2-d coefficients"),
                                    ("square", np.ones((2, 3)), "K x K")):
        with pytest.raises(ValueError, match=message):
            SpectralField(domain, coeffs)
    field = SpectralField("interval", np.ones(2))
    for T in (0.0, -1.0):
        with pytest.raises(ValueError, match="terminal time must be positive"):
            spectral_forward_linear(field, 0.5, T)


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
    assert l2_norm(sys, gf) == pytest.approx(np.sqrt(np.sum(coeffs ** 2)), rel=0.01)


def test_domain_mismatch_rejected():
    field = SpectralField("square", np.zeros((2, 2)))
    with pytest.raises(ValueError):
        sample_on_mesh(field, build_interval_mesh(4))
