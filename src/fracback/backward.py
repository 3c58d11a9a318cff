"""Reconstruction of initial data from a terminal observation.

The regularized linear problem (gamma I + F^N) u0 = rhs is solved by
conjugate gradients in the mass inner product, where the discrete
homogeneous solution map F^N is self-adjoint positive definite.  A
:class:`Propagator` applies F^N in one of three ways:

* "spectral" - the dense eigenbasis of (K, M) weighted by the CQ symbol
  r_N(lam_h); exact, with an O(d^3) set-up, up to
  :data:`fracback.fem.DENSE_CAP` dofs.  It works in the coordinates of
  that M-orthonormal basis, where gamma I + F^N is the diagonal
  gamma + r_N(lam_h) and the mass inner product is the Euclidean one, so
  a CG iteration costs O(d); the data is mapped in and the result out
  once per solve;
* "series"   - F^N = r_N(A) for the step resolvent A = (tau^-a M + K)^-1 M,
  in which r_N is a polynomial of degree N; a Chebyshev series of a few
  terms, whose dropped tail is below gamma * cg_tol, is applied with the
  band Cholesky factor of tau^-a M + K that time stepping already uses
  (no history);
* "stepping" - one homogeneous N-step forward solve per application, the
  reference the other two are tested against.

The symbol and the series coefficients are kept on the system, one per
time grid.  The semilinear problem is handled by an outer fixed-point
iteration that alternates a nonlinear forward solve with a regularized
linear solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from fracback import fem
from fracback.cq import scalar_terminal_factor, truncate_series
from fracback.fem import FemSystem, GridFunction, conjugate_gradient
from fracback.forward import (Nonlinearity, TimeGrid, apply_F, apply_F_series, apply_S,
                              terminal_series)


class ParameterRangeError(ValueError):
    """Parameter-choice bisection found no root in the admissible bracket."""


@dataclass
class BackwardConfig:
    """Knobs of the regularized reconstruction.

    ``random_init_seed`` switches the outer iteration from the default
    deterministic zero start to a seeded random start.  ``fast_path``
    chooses how F^N is applied (see :class:`Propagator`):

    * "auto" - dense-spectral up to :data:`fracback.fem.DENSE_CAP` dofs;
      above it the Chebyshev series in the step resolvent, truncated where
      its dropped tail is below gamma * cg_tol, if that keeps fewer than N
      terms, and time stepping otherwise (e.g. gamma = 1e-5 with cg_tol =
      1e-12 asks for 1e-17, below the rounding of the coefficients);
    * "off"  - plain time stepping, the slow reference path.
    """

    gamma: float
    fp_tol: float = 1e-10
    fp_max: int = 100
    cg_tol: float = 1e-10
    cg_max: int = 300
    random_init_seed: Optional[int] = None
    fast_path: str = "auto"

    def __post_init__(self):
        if self.gamma <= 0.0:
            raise ValueError(f"regularization parameter must be positive, got {self.gamma}")
        if self.fp_tol <= 0.0 or self.cg_tol <= 0.0:
            raise ValueError("tolerances must be positive")
        if self.fast_path not in ("auto", "off"):
            raise ValueError(f"fast_path must be auto/off, got {self.fast_path!r}")


@dataclass
class ReconstructionResult:
    """Output of the fixed-point reconstruction with iteration diagnostics."""

    u0_hat: GridFunction
    outer_iters: int
    history: list = field(default_factory=list)
    cg_iter_counts: list = field(default_factory=list)
    converged: bool = False
    diverged: bool = False
    forward_solves: int = 0
    update_ratios: list = field(default_factory=list)
    propagator: dict = field(default_factory=dict)


class Propagator:
    """Terminal homogeneous map v -> F^N v on a fixed (system, grid) pair.

    ``mode`` is "spectral", "series" or "stepping" (module docstring).
    "spectral" needs the dense eigenpairs of the system, refused above
    :data:`fracback.fem.DENSE_CAP` dofs.  "series" keeps the shortest
    Chebyshev head whose dropped tail is below ``series_tol`` (required
    there) and turns into "stepping" when that head has N terms or more,
    since stepping is then no dearer.  :meth:`for_config` picks the mode.
    ``degree`` is the polynomial degree applied in the step resolvent (N
    unless "series", where it is also the number of solves per
    application) and ``bound`` the recorded truncation bound:
    ||F^N v - applied v||_M <= bound * ||v||_M up to rounding.

    :meth:`apply_values` and :meth:`dot` act in the propagator's
    coordinates: :meth:`coords` maps nodal values into them and
    :meth:`values` maps back.  For "spectral" these are the coefficients
    c = Phi^T M v in the M-orthonormal eigenbasis Phi, in which F^N is the
    diagonal r_N(lam_h) and the mass inner product is the Euclidean one;
    for "series" and "stepping" they are the nodal values themselves, with
    the mass inner product.
    """

    def __init__(self, sys: FemSystem, grid: TimeGrid, mode: str, *,
                 series_tol: Optional[float] = None):
        self.sys = sys
        self.grid = grid
        self.degree = grid.N
        self.bound = 0.0
        if mode == "spectral":
            lam, self.phi = sys.eigenpairs()
            self.symbol = sys.derived(("symbol", grid), lambda: scalar_terminal_factor(
                grid.alpha, grid.T, grid.N, lam))
        elif mode == "series":
            if series_tol is None:
                raise ValueError('mode "series" needs series_tol')
            coeffs, bound = truncate_series(terminal_series(sys, grid), series_tol)
            if len(coeffs) < grid.N:
                self.coeffs, self.degree, self.bound = coeffs, len(coeffs) - 1, bound
            else:
                mode = "stepping"
        elif mode != "stepping":
            raise ValueError(f"unknown propagator mode {mode!r}")
        self.mode = mode

    @classmethod
    def for_config(cls, sys: FemSystem, grid: TimeGrid,
                   cfg: BackwardConfig) -> "Propagator":
        if cfg.fast_path == "off":
            return cls(sys, grid, "stepping")
        if sys.num_dofs <= fem.DENSE_CAP:
            return cls(sys, grid, "spectral")
        return cls(sys, grid, "series", series_tol=cfg.gamma * cfg.cg_tol)

    def describe(self) -> dict:
        return {"mode": self.mode, "degree": self.degree, "bound": self.bound}

    def coords(self, v: np.ndarray) -> np.ndarray:
        """Nodal values -> propagator coordinates."""
        if self.mode == "spectral":
            return self.phi.T @ (self.sys.M @ v)
        return v

    def values(self, c: np.ndarray) -> np.ndarray:
        """Propagator coordinates -> nodal values."""
        if self.mode == "spectral":
            return self.phi @ c
        return c

    def dot(self, u: np.ndarray, v: np.ndarray) -> float:
        """Mass inner product of two vectors given in propagator coordinates."""
        if self.mode == "spectral":
            return float(u @ v)
        return float(u @ (self.sys.M @ v))

    def apply_values(self, c: np.ndarray) -> np.ndarray:
        """F^N in propagator coordinates."""
        if self.mode == "spectral":
            return self.symbol * c
        v = GridFunction(self.sys, c)
        if self.mode == "series":
            return apply_F_series(self.sys, self.grid, v, self.coeffs).values
        return apply_F(self.sys, self.grid, v).values


def _solve_regularized(prop: Propagator, rhs: np.ndarray, cfg: BackwardConfig):
    """CG for (gamma I + F^N) x = rhs; rhs and x in propagator coordinates."""

    def apply_op(c):
        return cfg.gamma * c + prop.apply_values(c)

    return conjugate_gradient(apply_op, rhs, tol=cfg.cg_tol,
                              maxiter=cfg.cg_max, dot=prop.dot,
                              context="regularized backward solve")


def solve_linear_regularized(sys: FemSystem, grid: TimeGrid, rhs: GridFunction,
                             cfg: BackwardConfig) -> GridFunction:
    """Solve (gamma I + F^N) x = rhs by mass-weighted conjugate gradients."""
    if rhs.system is not sys:
        raise ValueError("right-hand side defined on a different system")
    prop = Propagator.for_config(sys, grid, cfg)
    x, _ = _solve_regularized(prop, prop.coords(rhs.values), cfg)
    return GridFunction(sys, prop.values(x))


def fixed_point_reconstruct(sys: FemSystem, grid: TimeGrid, g_obs: GridFunction,
                            f: Nonlinearity, cfg: BackwardConfig,
                            truth: Optional[GridFunction] = None) -> ReconstructionResult:
    """Outer fixed-point iteration of the reconstruction algorithm.

    Each pass computes the nonlinear contribution S^N U_j - F^N U_j (a
    nonlinear forward solve and one application of F^N), then updates
    U_{j+1} from the regularized linear solve with right-hand side g_obs
    minus that contribution.  Stops on update norm below ``fp_tol``, on
    the iteration cap, or on the divergence heuristic (three consecutive
    update-norm increases, or a 1e6-fold blowup over the first update).
    The result records the update ratios e_{j+1}/e_j (the observed
    contraction), how the propagator applied F^N, and ``forward_solves``:
    the N-step forward solves run, one per S^N and one per F^N
    application by time stepping.
    """
    if g_obs.system is not sys:
        raise ValueError("observation defined on a different system")
    prop = Propagator.for_config(sys, grid, cfg)

    def m_norm(c):
        return math.sqrt(prop.dot(c, c))

    if cfg.random_init_seed is None:
        u = np.zeros(sys.num_dofs)
    else:
        rng = np.random.default_rng(cfg.random_init_seed)
        u = rng.standard_normal(sys.num_dofs)

    # iterates, data and truth are held in propagator coordinates
    u = prop.coords(u)
    g = prop.coords(g_obs.values)
    truth_c = prop.coords(truth.values) if truth is not None else None
    truth_norm = m_norm(truth_c) if truth is not None else None
    history = []
    cg_counts = []
    updates = []
    forward_solves = 0
    stepping = prop.mode == "stepping"
    converged = diverged = False
    consecutive_up = 0
    outer = 0

    for j in range(cfg.fp_max):
        outer = j + 1
        if f.is_zero:
            nonlinear_term = 0.0
        else:
            s_term = apply_S(sys, grid, GridFunction(sys, prop.values(u)), f).values
            f_term = prop.apply_values(u)
            nonlinear_term = prop.coords(s_term) - f_term
            forward_solves += 2 if stepping else 1
        rhs = g - nonlinear_term
        u_next, cg_it = _solve_regularized(prop, rhs, cfg)
        if stepping:
            forward_solves += cg_it
        e_j = m_norm(u_next - u)
        updates.append(e_j)
        cg_counts.append(cg_it)
        err = (m_norm(u_next - truth_c) / truth_norm
               if truth is not None and truth_norm else None)
        history.append({"iter": j, "update_norm": e_j, "error_vs_truth": err,
                        "cg_iters": cg_it, "forward_solves": forward_solves})
        u = u_next
        if e_j < cfg.fp_tol:
            converged = True
            break
        # update norms rattling at the inner-solver noise floor are not
        # divergence; only count increases well above the stopping level
        if j >= 1 and e_j > 100.0 * cfg.fp_tol:
            consecutive_up = consecutive_up + 1 if e_j > updates[j - 1] else 0
        if consecutive_up >= 3 or e_j > 1e6 * updates[0]:
            diverged = True
            break

    ratios = [b / a if a > 0.0 else None for a, b in zip(updates, updates[1:])]
    return ReconstructionResult(
        u0_hat=GridFunction(sys, prop.values(u)), outer_iters=outer, history=history,
        cg_iter_counts=cg_counts, converged=converged, diverged=diverged,
        forward_solves=forward_solves, update_ratios=ratios,
        propagator=prop.describe())


# ---------------------------------------------------------------------------
# parameter choice

_PRESETS = {
    "paper-ex1": lambda d: {"gamma": math.sqrt(d) / 75.0,
                            "tau": math.sqrt(d) / 5.0,
                            "h": 5.0 * math.sqrt(d) / 8.0},
    "paper-ex2": lambda d: {"gamma": d ** 0.8 / 10.0,
                            "tau": d ** 0.2 / 10.0,
                            "h": 5.0 * math.sqrt(d) / 6.0},
}


def _bisect_increasing(func, target, lo, hi, what):
    """Root of func(x) = target for func increasing on [lo, hi]."""
    flo, fhi = func(lo), func(hi)
    if not flo <= target <= fhi:
        raise ParameterRangeError(
            f"no {what} in ({lo:g}, {hi:g}) reaches target {target:.3e}")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if func(mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def select_parameters(delta: float, q: float = 2.0, mu: float = 1.0,
                      preset: Optional[str] = None, *,
                      c_gamma: float = 1.0 / 75.0, c_h: float = 1.0,
                      c_tau: float = 1.0) -> dict:
    """Pick (gamma, h, tau) from the noise level.

    Follows the a priori rates gamma ~ delta^(2/(q+2)), h^2 |log h| ~
    delta, tau |log tau|^2 h^min(q-mu,0) ~ delta^(q/(q+2)); the two
    implicit relations are solved by bisection on their monotone
    branches.  The named presets reproduce the benchmark runs instead.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError(f"noise level must lie in (0, 1), got {delta}")
    if preset is not None:
        if preset not in _PRESETS:
            raise ValueError(f"unknown preset {preset!r}; available: {sorted(_PRESETS)}")
        return _PRESETS[preset](delta)
    if not 0.0 < q <= 2.0:
        raise ValueError(f"smoothness index q must lie in (0, 2], got {q}")
    if not 0.0 < mu <= 1.0:
        raise ValueError(f"mu must lie in (0, 1], got {mu}")

    gamma = c_gamma * delta ** (2.0 / (q + 2.0))

    # h^2 |log h| is increasing up to e^-0.5 > 0.5
    h = _bisect_increasing(lambda t: t * t * abs(math.log(t)),
                           c_h * delta, 1e-8, 0.5, "mesh size h")

    # tau |log tau|^2 is increasing up to e^-2; stay on that branch
    p = min(q - mu, 0.0)
    target = c_tau * delta ** (q / (q + 2.0)) / h ** p
    tau = _bisect_increasing(lambda t: t * math.log(t) ** 2,
                             target, 1e-8, min(0.5, math.exp(-2.0)), "time step tau")
    return {"gamma": gamma, "h": h, "tau": tau}


def convergence_order(errors) -> list:
    """Observed orders log(e_i/e_{i+1}) / log(d_i/d_{i+1}) per adjacent pair."""
    entries = list(errors)
    if len(entries) < 2:
        raise ValueError("need at least two (delta, error) pairs")
    deltas = [d for d, _ in entries]
    vals = [e for _, e in entries]
    if any(d <= 0 for d in deltas) or any(e <= 0 for e in vals):
        raise ValueError("deltas and errors must be positive")
    if any(d2 >= d1 for d1, d2 in zip(deltas, deltas[1:])):
        raise ValueError("deltas must be strictly decreasing")
    return [math.log(e1 / e2) / math.log(d1 / d2)
            for (d1, e1), (d2, e2) in zip(entries, entries[1:])]
