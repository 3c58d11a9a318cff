"""Two-parameter Mittag-Leffler functions on the negative real axis and
the sine-spectral solution oracle for the linear problems.

For x < 0, E_{alpha,beta}(x) is the inverse Laplace transform, at t = 1,
of s^(alpha-beta) / (s^alpha - x).  One routine evaluates it for every
alpha in (0, 2] and beta > 0: the trapezoidal rule on an optimal
parabolic contour s(u) = mu (1 + iu)^2 (Garrappa, SIAM J. Numer. Anal.
53, 2015; contours after Weideman & Trefethen, Math. Comp. 76, 2007).
The transform has a branch point at 0 and, for alpha in (1, 2], the
conjugate pole pair s* = |x|^(1/alpha) e^(+-i pi/alpha).  The contour
either passes between the branch point and the poles, whose residues
(1/alpha) s*^(1-beta) e^(s*) are then added, or to the right of both;
of the two, the one needing fewer nodes is taken.  Its parameters follow
Garrappa's rules for an accuracy target of 1e-15, relaxed tenfold while
the cheaper contour would need more than 200 nodes, as his ``ml.m``
does.  The tests hold it to 2e-12 relative error against a
multiprecision Taylor reference (alpha from 0.005 to 1.9, beta from 0.3
to 4, s = |x|^(1/alpha) from 1e-3 to 60), to 2e-12 against ``erfcx`` for
E_{1/2,1} up to |x| = 1e6, and to 1e-13 absolute against the
large-argument expansion for alpha in (1, 2) up to |x| = 2e5.  A value
costs one complex logarithm and two exponentials at each of at most 201
nodes (28 for alpha <= 1 and beta <= alpha + 1), whatever x is.

Exact branches remain for x = 0 (1/Gamma(beta)) and for the order pairs
(1, 1) and (2, 1), which reduce to exp and cos.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from fracback.fem import FemSystem, GridFunction, assemble
from fracback.grid import Mesh

_LOG_EPS = math.log(np.finfo(np.float64).eps)
_LOG_TOL = math.log(1e-15)     # accuracy target of the quadrature
_MAX_NODES = 200               # the target is relaxed tenfold past this


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


def _bounded_contour(phi, p, log_tol):
    """(nodes, mu, h) of a parabola between the branch point at 0, of
    strength p, and the pole pair, of strength 1, lying on the parabola
    of parameter phi: Garrappa's right-bounded region, with its left
    singularity at the origin."""
    f_max = math.exp(log_tol - _LOG_EPS)
    sq1 = min(math.sqrt(phi), 2.0 * math.sqrt(log_tol - _LOG_EPS))
    if p < 1e-14:
        f_bar = 1.01 + 1.01 / f_max * (f_max - 1.01)
        sq0, sq1 = 0.0, 2.0 * sq1 / (2.0 + 1.0 / f_bar)
    else:
        f_min = 1.01 * sq1 / sq1 ** max(p, 1.0)
        if f_min >= f_max:
            return math.inf, 0.0, 0.0
        f_min = max(f_min, 1.5)
        f_bar = f_min + f_min / f_max * (f_max - f_min)
        fp = f_bar ** (-1.0 / p)
        w = -phi / log_tol
        den = 2.0 + w - (1.0 + w) * fp + 1.0 / f_bar
        sq0, sq1 = fp * sq1 / den, (2.0 + w - (1.0 + w) * fp) * sq1 / den
    log_tol -= math.log(f_bar)
    w = -sq1 * sq1 / log_tol
    mu = (((1.0 + w) * sq0 + sq1) / (2.0 + w)) ** 2
    h = -2.0 * math.pi / log_tol * (sq1 - sq0) / ((1.0 + w) * sq0 + sq1)
    return math.ceil(math.sqrt(1.0 - log_tol / mu) / h), mu, h


def _unbounded_contour(phi, p, log_tol):
    """(nodes, mu, h) of a parabola right of every singularity, the
    rightmost one, of strength p, lying on the parabola of parameter phi:
    Garrappa's right-unbounded region."""
    sq0 = math.sqrt(phi)
    phi_bar = 1.01 * phi if phi > 0.0 else 0.01
    sq_bar = math.sqrt(phi_bar)
    while True:
        r = log_tol / phi_bar
        n = math.ceil(phi_bar / math.pi * (1.0 - 1.5 * r + math.sqrt(1.0 - 2.0 * r)))
        a = math.pi * n / phi_bar
        sq_mu = sq_bar * abs(4.0 - a) / abs(7.0 - math.sqrt(1.0 + 12.0 * a))
        if p < 1e-14 or 1.0 < ((sq_bar - sq0) / sq_mu) ** -p < 10.0:
            break
        sq_bar = 5.0 ** (-1.0 / p) * sq_mu + sq0
        phi_bar = sq_bar * sq_bar
    mu = sq_mu * sq_mu
    h = (-3.0 * a - 2.0 + 2.0 * math.sqrt(1.0 + 12.0 * a)) / (4.0 - a) / n
    # e^mu times the unit round-off must stay below the target
    threshold = log_tol - _LOG_EPS
    if mu > threshold:
        q = 0.0 if p < 1e-14 else 5.0 ** (-1.0 / p) * sq_mu
        phi_bar = (q + sq0) ** 2
        if phi_bar >= threshold:
            return math.inf, 0.0, 0.0
        w = math.sqrt(_LOG_EPS / (_LOG_EPS - log_tol))
        u = math.sqrt(-phi_bar / _LOG_EPS)
        mu = threshold
        n = math.ceil(w * log_tol / (2.0 * math.pi) / (u * w - 1.0))
        h = w / n
    return n, mu, h


def _contour_inversion(alpha, beta, x):
    """E_{alpha,beta}(x) for x < 0 on the cheaper admissible contour."""
    p = max(0.0, 2.0 * (beta - alpha - 1.0))    # strength of the branch point
    s = (-x) ** (1.0 / alpha) if alpha > 1.0 else 0.0
    # parameter of the parabola through the poles; 0: none off the branch cut
    phi = 0.5 * s * (1.0 + math.cos(math.pi / alpha))
    log_tol = _LOG_TOL
    while True:
        if phi > 1e-15:
            contours = [(*_bounded_contour(phi, p, log_tol), True)]
            if phi < _LOG_TOL - _LOG_EPS:
                contours.append((*_unbounded_contour(phi, 1.0, log_tol), False))
        else:
            contours = [(*_unbounded_contour(0.0, p, log_tol), False)]
        n, mu, h, poles_outside = min(contours, key=lambda c: c[0])
        if n <= _MAX_NODES:
            break
        log_tol += math.log(10.0)
    u = h * np.arange(n + 1)
    z = mu * (1.0 + 1j * u) ** 2
    log_z = np.log(z)
    terms = (np.exp(z + (alpha - beta) * log_z) / (np.exp(alpha * log_z) - x)
             * (2.0 * mu * (1j - u)))
    # the nodes at -u are the conjugates of those at u: sum one half of the
    # rule, counting the node u = 0 once
    terms[0] *= 0.5
    value = h / math.pi * float(np.sum(terms.imag))
    if poles_outside:
        # s e^(i pi/alpha), its real part as -sin(pi/alpha - pi/2): exactly 0
        # at alpha = 2, where cos(pi/2) would round to 6e-17
        angle = math.pi / alpha
        star = s * complex(-math.sin(angle - 0.5 * math.pi), math.sin(angle))
        value += 2.0 / alpha * cmath.exp((1.0 - beta) * cmath.log(star) + star).real
    return value


def mittag_leffler(alpha: float, beta: float, x: float) -> float:
    """E_{alpha,beta}(x) for x <= 0, alpha in (0, 2], beta > 0."""
    MlParams(alpha, beta)    # validates orders
    if x > 0.0:
        raise ValueError(f"only arguments x <= 0 are supported, got {x}")
    if x == 0.0:
        try:
            return 1.0 / math.gamma(beta)
        except OverflowError:      # Gamma(beta) > 1.8e308 for beta > 171.6
            return 0.0
    if alpha == 1.0 and beta == 1.0:
        return float(np.exp(x))
    if alpha == 2.0 and beta == 1.0:
        return float(np.cos(np.sqrt(-x)))
    return _contour_inversion(alpha, beta, x)


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
