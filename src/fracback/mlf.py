"""Two-parameter Mittag-Leffler functions on the negative real axis and
the sine-spectral solution oracle for the linear problems.

Evaluation regions, gauged by s = |x|^(1/alpha) (which controls both the
Taylor cancellation ~e^s and the asymptotic truncation error ~e^-s):

* s <= 5:   alternating Taylor series, exactly rounded float64 summation;
* s >= 34:  asymptotic inverse-power series at optimal truncation,
            evaluated in log space (alpha < 1);
* between:  neither series reaches full accuracy in doubles, so the
            Taylor series is summed in fixed multiprecision with a
            cached Gamma table per (alpha, beta); amortized cost is a
            few hundred mpf multiply-adds per evaluation.

Everything in the two float64 regimes that depends on the orders only
is tabulated once per (alpha, beta) in a read-only ``_Coefficients``:
for Taylor, ln Gamma(alpha k + beta) for k <= 700 and 1/Gamma(beta); for
the asymptotic series, over k <= 1600 with y = beta - alpha k, the
ln Gamma values of its envelope and of its terms (ln Gamma(1 - y) by
reflection below y = 1/2 and y = 0 respectively), ln|sin(pi y)| and the
term signs, about 57 kB in all.  A call then forms only k ln|x|, the
envelope's minimum and the exponentials it sums.  These tables, like the
multiprecision Gamma tables, are kept for the 256 most recently used
order pairs (``functools.lru_cache``).  ``mpmath`` is imported only when
the multiprecision series runs.

alpha = 1 and (alpha, beta) = (2, 1) reduce to exp and cos exactly;
orders alpha in (1, 2) outside the Taylor region use the multiprecision
series with precision adapted to s (rare, correctness over speed).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, rgamma

from fracback.fem import FemSystem, GridFunction, assemble
from fracback.grid import Mesh

_S_TAYLOR = 5.0
_S_ASYM = 34.0
_TAYLOR_TERMS = 700
_ASYM_TERMS = 1600
_LN_PI = float(np.log(np.pi))
_LN_ASYM_GAIN = float(13.0 * np.log(10.0))


@dataclass(frozen=True)
class MlParams:
    """Order pair (alpha, beta); evaluation restricted to arguments x <= 0."""

    alpha: float
    beta: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.alpha <= 2.0:
            raise ValueError(f"alpha must lie in (0, 2], got {self.alpha}")
        if self.beta <= 0.0:
            raise ValueError(f"beta must be positive, got {self.beta}")


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


_TAYLOR_K = _frozen(np.arange(1, _TAYLOR_TERMS + 1, dtype=np.float64))
_TAYLOR_EVEN = _frozen(_TAYLOR_K % 2 == 0)
_ASYM_K = _frozen(np.arange(1, _ASYM_TERMS + 1, dtype=np.float64))


class _Coefficients:
    """The x-independent parts of both float64 series at one (alpha, beta).

    Shared by every caller through ``_coefficients``, so the arrays are
    read-only.
    """

    def __init__(self, alpha: float, beta: float):
        self.rgamma_beta = float(rgamma(beta))
        # Taylor: x^k / Gamma(alpha k + beta), k = 1..700
        self.taylor_gammaln = _frozen(gammaln(alpha * _TAYLOR_K + beta))
        # asymptotic: x^-k / Gamma(y), y = beta - alpha k, k = 1..1600.  y
        # falls with k, so the terms taking ln Gamma(y) directly (not by
        # reflection) are a leading run, of the length counted below.
        y = beta - alpha * _ASYM_K
        pos = y > 0
        with np.errstate(divide="ignore"):
            sin_y = np.sin(np.pi * y)
            self.ln_sin = _frozen(np.log(np.abs(sin_y)))
        # envelope: ln Gamma(y) for y > 0.5, reflected ln Gamma(1 - y) after
        self.n_env_direct = int(np.count_nonzero(y > 0.5))
        self.env_gammaln = _frozen(gammaln(np.where(y > 0.5, y, 1.0 - y)))
        # terms: ln Gamma(y) for y > 0, reflected ln Gamma(1 - y) after
        self.n_term_direct = int(np.count_nonzero(pos))
        self.term_gammaln = _frozen(gammaln(np.where(pos, y, 1.0 - y)))
        # alternating sign times the sign of 1/Gamma(y)
        self.sign = _frozen(np.where(_ASYM_K % 2 == 1, 1.0, -1.0)
                            * np.where(pos, 1.0, np.sign(sin_y)))


@functools.lru_cache(maxsize=256)
def _coefficients(alpha: float, beta: float) -> _Coefficients:
    return _Coefficients(alpha, beta)


def _taylor_f64(alpha, beta, x):
    """Alternating series sum x^k / Gamma(alpha k + beta), summed exactly
    rounded by ``math.fsum`` (terms that underflowed to 0 are left out)."""
    c = _coefficients(alpha, beta)
    with np.errstate(under="ignore"):
        mags = np.exp(_TAYLOR_K * np.log(-x) - c.taylor_gammaln)
    terms = np.where(_TAYLOR_EVEN, mags, -mags)[mags != 0.0]
    return math.fsum([c.rgamma_beta, *terms.tolist()])


def _asymptotic(alpha, beta, x):
    """Inverse-power expansion truncated at the smallest-envelope term.

    Terms x^-k / Gamma(beta - alpha k) are formed in log space with the
    reflection formula supplying magnitude and sign for negative Gamma
    arguments, so very negative arguments neither overflow nor lose the
    pole zeros.  Returns None when the optimal truncation cannot reach
    ~1e-13 relative accuracy (tiny alpha); the caller then falls back to
    the multiprecision series.
    """
    c = _coefficients(alpha, beta)
    k_lnX = -_ASYM_K * np.log(-x)
    h = c.n_env_direct
    ln_env = np.concatenate((k_lnX[:h] - c.env_gammaln[:h],
                             k_lnX[h:] + c.env_gammaln[h:] - _LN_PI))
    kstar = int(np.argmin(ln_env)) + 1
    if ln_env[kstar - 1] > ln_env[0] - _LN_ASYM_GAIN:
        return None
    p = min(c.n_term_direct, kstar)
    ln_mag = np.concatenate((
        k_lnX[:p] - c.term_gammaln[:p],
        k_lnX[p:kstar] + c.ln_sin[p:kstar] + c.term_gammaln[p:kstar] - _LN_PI))
    with np.errstate(under="ignore"):
        terms = c.sign[:kstar] * np.exp(ln_mag)
    return float(np.sum(terms))


@functools.lru_cache(maxsize=256)
def _gamma_table(alpha, beta, dps):
    """Gamma(alpha j + beta) at ``dps`` digits, extended in place by the caller."""
    return []


def _taylor_mp(alpha, beta, x, s):
    """Multiprecision Taylor summation with a cached Gamma table.

    Working precision grows with the cancellation gauge s; inside the
    crossover band (s < 34) a single fixed bucket is used so the Gamma
    values are shared across evaluations at the same (alpha, beta).
    """
    import mpmath

    dps = 50 if s < 40.0 else 30 + int(0.55 * s)
    table = _gamma_table(alpha, beta, dps)
    with mpmath.workdps(dps):
        # the Gamma argument must be formed in working precision: float
        # rounding of alpha*j would be blown up by the e^s cancellation
        am = mpmath.mpf(alpha)
        bm = mpmath.mpf(beta)
        xm = mpmath.mpf(x)
        total = mpmath.mpf(0)
        power = mpmath.mpf(1)
        tol = mpmath.mpf(10) ** (8 - dps)
        one = mpmath.mpf(1)
        k = 0
        tail_below = 0
        while k < 200000:
            if k >= len(table):
                for j in range(k, k + 64):
                    table.append(mpmath.gamma(am * j + bm))
            term = power / table[k]
            total += term
            power *= xm
            k += 1
            if abs(term) < tol * max(abs(total), one):
                tail_below += 1
                if tail_below > 3:
                    break
            else:
                tail_below = 0
        return float(total)


def mittag_leffler(alpha: float, beta: float, x: float) -> float:
    """E_{alpha,beta}(x) for x <= 0, alpha in (0, 2], beta > 0."""
    MlParams(alpha, beta)    # validates orders
    if x > 0.0:
        raise ValueError(f"only arguments x <= 0 are supported, got {x}")
    if x == 0.0:
        return float(rgamma(beta))
    if alpha == 1.0 and beta == 1.0:
        return float(np.exp(x))
    if alpha == 2.0 and beta == 1.0:
        return float(np.cos(np.sqrt(-x)))
    s = (-x) ** (1.0 / alpha)
    if s <= _S_TAYLOR:
        return _taylor_f64(alpha, beta, x)
    if alpha < 1.0 and s >= _S_ASYM:
        val = _asymptotic(alpha, beta, x)
        if val is not None:
            return val
    return _taylor_mp(alpha, beta, x, s)


def ml_e1(alpha: float, x) -> np.ndarray:
    """Vectorized E_{alpha,1} over an array of non-positive arguments."""
    arr = np.atleast_1d(np.asarray(x, dtype=np.float64))
    uniq, inv = np.unique(arr, return_inverse=True)
    vals = np.array([mittag_leffler(alpha, 1.0, float(v)) for v in uniq])
    return vals[inv].reshape(arr.shape)


# ---------------------------------------------------------------------------
# sine-spectral oracle

@dataclass
class SpectralField:
    """Coefficients w.r.t. the orthonormal sine eigenbasis of -Laplacian.

    1D: coeffs[k-1] multiplies sqrt(2) sin(k pi x), eigenvalue (k pi)^2.
    2D: coeffs[k-1, l-1] multiplies 2 sin(k pi x) sin(l pi y),
    eigenvalue (k^2 + l^2) pi^2.
    """

    domain: str
    coeffs: np.ndarray

    def __post_init__(self):
        if self.domain not in ("interval", "square"):
            raise ValueError(f"unknown domain {self.domain!r}")
        self.coeffs = np.asarray(self.coeffs, dtype=np.float64)
        want = 1 if self.domain == "interval" else 2
        if self.coeffs.ndim != want:
            raise ValueError(f"{self.domain} field needs {want}-d coefficients")
        if self.domain == "square" and self.coeffs.shape[0] != self.coeffs.shape[1]:
            raise ValueError("square field coefficients must be K x K")

    @property
    def cutoff(self) -> int:
        return self.coeffs.shape[0]

    def eigenvalues(self) -> np.ndarray:
        k = np.arange(1, self.cutoff + 1, dtype=np.float64)
        if self.domain == "interval":
            return (k * np.pi) ** 2
        return (k[:, None] ** 2 + k[None, :] ** 2) * np.pi ** 2

    def norm(self) -> float:
        """L2 norm (Parseval, the basis is orthonormal)."""
        return float(np.sqrt(np.sum(self.coeffs ** 2)))


def spectral_forward_linear(field: SpectralField, alpha: float, T: float) -> SpectralField:
    """Exact terminal state of the linear problem: c_k -> E_a1(-lam_k T^a) c_k."""
    if T <= 0.0:
        raise ValueError(f"terminal time must be positive, got {T}")
    factors = ml_e1(alpha, -field.eigenvalues() * T ** alpha)
    return SpectralField(field.domain, field.coeffs * factors)


def spectral_backward_linear(g: SpectralField, alpha: float, T: float,
                             gamma: float) -> SpectralField:
    """Quasi-boundary-value inverse: c_k -> c_k / (gamma + E_a1(-lam_k T^a))."""
    if gamma < 0.0:
        raise ValueError(f"regularization parameter must be >= 0, got {gamma}")
    factors = ml_e1(alpha, -g.eigenvalues() * T ** alpha)
    if gamma == 0.0 and np.any(factors <= 0.0):
        raise ValueError("gamma = 0 with an underflowed solution factor: "
                         "the unregularized division is ill-posed")
    return SpectralField(g.domain, g.coeffs / (gamma + factors))


def sample_on_mesh(field: SpectralField, target) -> GridFunction:
    """Evaluate the truncated sine series at the nodes of a mesh.

    ``target`` may be a Mesh (a FemSystem is assembled for it) or an
    existing FemSystem on the matching domain.
    """
    if isinstance(target, FemSystem):
        sys = target
    elif isinstance(target, Mesh):
        sys = assemble(target)
    else:
        raise TypeError(f"expected Mesh or FemSystem, got {type(target)!r}")
    mesh = sys.mesh
    want = "interval" if mesh.dim == 1 else "square"
    if field.domain != want:
        raise ValueError(f"{field.domain} field sampled on {want} mesh")
    K = field.cutoff
    k = np.arange(1, K + 1)
    axis = np.arange(mesh.n + 1) / mesh.n
    S = np.sin(np.pi * np.outer(axis, k))        # (n+1, K)
    if mesh.dim == 1:
        vals_full = np.sqrt(2.0) * (S @ field.coeffs)
    else:
        grid = 2.0 * (S @ field.coeffs @ S.T)    # [ix, iy]
        # node id = iy * (n+1) + ix, so transpose to (iy, ix) before ravel
        vals_full = grid.T.ravel()
    return GridFunction(sys, vals_full[sys.interior_ids])
