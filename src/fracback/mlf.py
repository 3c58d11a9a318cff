"""Two-parameter Mittag-Leffler functions on the negative real axis and
the sine-spectral solution oracle for the linear problems.

The solution operators of subdiffusion with 0 < alpha <= 1 need E_{alpha,1}
and E_{alpha,alpha}, so :func:`mittag_leffler` takes finite x <= 0,
alpha in (0, 1] and beta in (0, alpha + 1], plus the exact pairs (1, 1)
and (2, 1), which reduce to exp and cos.  For x < 0, E_{alpha,beta}(x) is
the inverse Laplace transform, at t = 1, of s^(alpha-beta) / (s^alpha - x).
On this domain the transform's only singularity is the branch cut
(-inf, 0], of strength 0 at the origin, so one trapezoidal rule on one
parabola s(u) = mu (1 + iu)^2 serves every value (Garrappa, SIAM J.
Numer. Anal. 53, 2015; contours after Weideman & Trefethen, Math. Comp.
76, 2007): Garrappa's parameters for an accuracy target of 1e-15 give 28
nodes, mu ~ 1.505 and h ~ 0.181, whatever x and beta are.  The tests hold
it to 2e-12 relative error against a multiprecision Taylor reference
(alpha from 0.005 to 0.98, beta from 0.3 to alpha + 1, s = |x|^(1/alpha)
from 1e-3 to 60) and to 2e-12 against ``erfcx`` for E_{1/2,1} up to
|x| = 1e6.  A value costs two complex exponentials and a division at each
node.  The same rule (:func:`branch_cut_rule`, :func:`parabola`) also
evaluates the CQ symbol r_N in :mod:`fracback.cq`.

At x = 0 the value is 1/Gamma(beta).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from fracback.fem import FemSystem, GridFunction, assemble
from fracback.grid import Mesh

_LOG_EPS = math.log(np.finfo(np.float64).eps)
_LOG_TOL = math.log(1e-15)     # accuracy target of the quadrature


def parabola(n, mu, h):
    """Upper half of the trapezoidal rule on s(u) = mu (1 + iu)^2: the nodes
    s_k = s(kh), k = 0..n, and the derivatives s'(kh) = 2 mu (i - kh), the
    one at u = 0 halved.

    For a transform F real on the real axis the nodes at -u are the
    conjugates of those at u, so the inverse at t = 1,
    (1/2 pi i) int e^s F(s) ds, is (h/pi) Im sum_k e^(s_k) F(s_k) s'(kh).
    """
    u = h * np.arange(n + 1)
    ds = 2.0 * mu * (1j - u)
    ds[0] *= 0.5
    return mu * (1.0 + 1j * u) ** 2, ds


def branch_cut_rule():
    """(n, mu, h) of the rule for a transform whose only singularity is
    the branch cut (-inf, 0], of strength 0 at the origin: n = 27 (28
    nodes), mu ~ 1.505, h ~ 0.181.

    Garrappa's right-unbounded parabola for that case: mu is the largest
    value for which e^mu times the unit round-off stays below the target,
    and the node spacing h = w / n follows from the target at that mu.
    """
    w = math.sqrt(_LOG_EPS / (_LOG_EPS - _LOG_TOL))
    n = math.ceil(-w * _LOG_TOL / (2.0 * math.pi))
    return n, _LOG_TOL - _LOG_EPS, w / n


_N, _MU, _H = branch_cut_rule()
_Z, _DZ = parabola(_N, _MU, _H)
_LOG_Z = np.log(_Z)


def mittag_leffler(alpha: float, beta: float, x: float) -> float:
    """E_{alpha,beta}(x) for finite x <= 0, alpha in (0, 1] and beta in
    (0, alpha + 1], and for (alpha, beta) = (2, 1)."""
    if not (math.isfinite(x) and x <= 0.0):
        raise ValueError(f"only finite arguments x <= 0 are supported, got {x}")
    if alpha == 2.0 and beta == 1.0:
        return float(np.cos(np.sqrt(-x)))
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must lie in (0, 1], or (alpha, beta) be (2, 1), got {alpha}")
    if not 0.0 < beta <= alpha + 1.0:
        raise ValueError(f"beta must lie in (0, alpha + 1] = (0, {alpha + 1.0}], got {beta}")
    if x == 0.0:
        try:
            return 1.0 / math.gamma(beta)
        except OverflowError:      # Gamma(beta) > 1.8e308 for beta < 5.6e-309
            return 0.0
    if alpha == 1.0 and beta == 1.0:
        return float(np.exp(x))
    terms = np.exp(_Z + (alpha - beta) * _LOG_Z) / (np.exp(alpha * _LOG_Z) - x) * _DZ
    return _H / math.pi * float(np.sum(terms.imag))


def ml_e1(alpha: float, x) -> np.ndarray:
    """E_{alpha,1} over an array of non-positive arguments, one
    :func:`mittag_leffler` call per distinct value."""
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


def spectral_forward_linear(field: SpectralField, alpha: float, T: float) -> SpectralField:
    """Exact terminal state of the linear problem: c_k -> E_a1(-lam_k T^a) c_k."""
    if T <= 0.0:
        raise ValueError(f"terminal time must be positive, got {T}")
    factors = ml_e1(alpha, -field.eigenvalues() * T ** alpha)
    return SpectralField(field.domain, field.coeffs * factors)


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
