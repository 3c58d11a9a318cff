"""Reconstruction of initial data from a terminal observation.

The regularized linear problem (gamma I + F^N) u0 = rhs is solved by
:meth:`Propagator.solve`; the discrete homogeneous solution map F^N is
self-adjoint positive definite in the mass inner product.  A
:class:`Propagator` applies F^N in one of three ways:

* "spectral" - the dense eigenbasis Phi of (K, M) weighted by the CQ
  symbol r_N(lam_h); exact, with an O(d^3) set-up, up to
  :data:`fracback.fem.DENSE_CAP` dofs.  In that M-orthonormal basis
  gamma I + F^N is the diagonal gamma + r_N(lam_h), so the regularized
  system is solved in closed form, Phi (Phi^T M rhs) / (gamma + r_N),
  without CG;
* "series"   - F^N = r_N(A) for the step resolvent A = (tau^-a M + K)^-1 M,
  in which r_N is a polynomial of degree N; its Chebyshev series, cut
  where the dropped tail is below gamma * cg_tol or else kept whole (then
  F^N itself), is applied with the band Cholesky factor of
  tau^-a M + K that time stepping already uses (no history);
* "stepping" - one homogeneous N-step forward solve per application, the
  reference the other two are tested against.

"series" and "stepping" solve the regularized system by conjugate
gradients in the mass inner product.  The symbol and the series
coefficients are kept on the system, one per time grid.  The semilinear
problem is handled by an outer fixed-point iteration that alternates a
nonlinear forward solve with a regularized linear solve.
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

    ``cg_tol`` and ``cg_max`` bound the CG solves of the series and
    stepping paths; the dense path solves in closed form.  ``fast_path``
    chooses how F^N is applied (see :class:`Propagator`):

    * "auto" - dense-spectral up to :data:`fracback.fem.DENSE_CAP` dofs;
      above it the Chebyshev series in the step resolvent, truncated where
      its dropped tail is below gamma * cg_tol, with all N + 1 terms when
      no shorter head reaches that (e.g. gamma = 1e-5 with cg_tol = 1e-12
      asks for 1e-17, below the rounding of the coefficients);
    * "off"  - plain time stepping, the slow reference path.
    """

    gamma: float
    fp_tol: float = 1e-10
    fp_max: int = 100
    cg_tol: float = 1e-10
    cg_max: int = 300
    fast_path: str = "auto"

    def __post_init__(self):
        if not (math.isfinite(self.gamma) and self.gamma > 0.0):
            raise ValueError(f"regularization parameter must be positive and finite, "
                             f"got {self.gamma}")
        if not all(math.isfinite(tol) and tol > 0.0 for tol in (self.fp_tol, self.cg_tol)):
            raise ValueError(f"tolerances must be positive and finite, got "
                             f"fp_tol={self.fp_tol}, cg_tol={self.cg_tol}")
        if self.fp_max < 1 or self.cg_max < 1:
            raise ValueError(f"iteration caps must be positive, got fp_max={self.fp_max}, "
                             f"cg_max={self.cg_max}")
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
    there), or all N + 1 coefficients, with bound 0, when no shorter head
    does.  :meth:`for_config` picks the mode; only ``fast_path="off"``
    gives "stepping".
    ``degree`` is the polynomial degree applied in the step resolvent (N
    unless "series", where it is also the number of solves per
    application) and ``bound`` the recorded truncation bound:
    ||F^N v - applied v||_M <= bound * ||v||_M up to rounding.

    :meth:`apply_values` and :meth:`solve` take and return nodal values
    in every mode.  ``forward_solves`` counts the N-step forward solves
    this propagator has run: one per "stepping" application.
    """

    def __init__(self, sys: FemSystem, grid: TimeGrid, mode: str, *,
                 series_tol: Optional[float] = None):
        self.sys = sys
        self.grid = grid
        self.degree = grid.N
        self.bound = 0.0
        self.forward_solves = 0
        if mode == "spectral":
            lam, self.phi = sys.eigenpairs()
            self.symbol = sys.derived(("symbol", grid), lambda: scalar_terminal_factor(
                grid.alpha, grid.T, grid.N, lam))
        elif mode == "series":
            if series_tol is None:
                raise ValueError('mode "series" needs series_tol')
            self.coeffs, self.bound = truncate_series(terminal_series(sys, grid), series_tol)
            self.degree = len(self.coeffs) - 1
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

    def apply_values(self, v: np.ndarray) -> np.ndarray:
        """F^N applied to nodal values."""
        if self.mode == "spectral":
            return self.phi @ (self.symbol * (self.phi.T @ (self.sys.M @ v)))
        gf = GridFunction(self.sys, v)
        if self.mode == "series":
            return apply_F_series(self.sys, self.grid, gf, self.coeffs).values
        self.forward_solves += 1
        return apply_F(self.sys, self.grid, gf).values

    def solve(self, rhs: np.ndarray, cfg: BackwardConfig):
        """Solve (gamma I + F^N) x = rhs; returns ``(x, cg_iters)``.

        "spectral" divides by gamma + r_N(lam_h) in the eigenbasis, with 0
        CG iterations; "series" and "stepping" run CG in the mass inner
        product, one :meth:`apply_values` per iteration.
        """
        M = self.sys.M
        if self.mode == "spectral":
            return self.phi @ ((self.phi.T @ (M @ rhs)) / (cfg.gamma + self.symbol)), 0
        return conjugate_gradient(lambda v: cfg.gamma * v + self.apply_values(v), rhs,
                                  tol=cfg.cg_tol, maxiter=cfg.cg_max,
                                  dot=lambda u, v: float(u @ (M @ v)),
                                  context="regularized backward solve")


def fixed_point_reconstruct(sys: FemSystem, grid: TimeGrid, g_obs: GridFunction,
                            f: Nonlinearity, cfg: BackwardConfig,
                            truth: Optional[GridFunction] = None) -> ReconstructionResult:
    """Outer fixed-point iteration of the reconstruction algorithm.

    Starting from U_0 = 0, each pass computes the nonlinear contribution
    S^N U_j - F^N U_j (a nonlinear forward solve and one application of
    F^N), then updates U_{j+1} from the regularized linear solve with
    right-hand side g_obs minus that contribution.  With f = 0 there is
    no such contribution, so the first pass is the reconstruction and the
    iteration stops there, converged.  Otherwise it stops on an update
    norm below ``fp_tol``, on the iteration cap, or on the divergence
    heuristic (three consecutive update-norm increases, or a 1e6-fold
    blowup over the first update).
    Each pass is one ``history`` record; the result's ``outer_iters``,
    ``cg_iter_counts``, ``update_ratios`` (e_{j+1}/e_j, the observed
    contraction) and ``forward_solves`` (N-step solves: one per S^N here
    plus those the propagator counts) are read from it.
    """
    if g_obs.system is not sys:
        raise ValueError("observation defined on a different system")
    prop = Propagator.for_config(sys, grid, cfg)
    M = sys.M

    def m_norm(v):
        return math.sqrt(float(v @ (M @ v)))

    u = np.zeros(sys.num_dofs)
    g = g_obs.values
    truth_norm = m_norm(truth.values) if truth is not None else None
    history = []
    s_solves = 0
    converged = diverged = False
    consecutive_up = 0

    for j in range(cfg.fp_max):
        rhs = g
        if not f.is_zero:        # S^N U_j first, then one application of F^N
            rhs = g - (apply_S(sys, grid, GridFunction(sys, u), f).values - prop.apply_values(u))
            s_solves += 1
        u_next, cg_it = prop.solve(rhs, cfg)
        e_j = m_norm(u_next - u)
        err = (m_norm(u_next - truth.values) / truth_norm
               if truth is not None and truth_norm else None)
        history.append({"iter": j, "update_norm": e_j, "error_vs_truth": err,
                        "cg_iters": cg_it, "forward_solves": s_solves + prop.forward_solves})
        u = u_next
        if f.is_zero or e_j < cfg.fp_tol:
            converged = True
            break
        # update norms rattling at the inner-solver noise floor are not
        # divergence; only count increases well above the stopping level
        if j >= 1 and e_j > 100.0 * cfg.fp_tol:
            consecutive_up = consecutive_up + 1 if e_j > history[j - 1]["update_norm"] else 0
        if consecutive_up >= 3 or e_j > 1e6 * history[0]["update_norm"]:
            diverged = True
            break

    updates = [h["update_norm"] for h in history]
    return ReconstructionResult(
        u0_hat=GridFunction(sys, u), outer_iters=len(history), history=history,
        cg_iter_counts=[h["cg_iters"] for h in history], converged=converged,
        diverged=diverged, forward_solves=history[-1]["forward_solves"],
        update_ratios=[b / a if a > 0.0 else None for a, b in zip(updates, updates[1:])],
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
                      preset: Optional[str] = None) -> dict:
    """Pick (gamma, h, tau) from the noise level.

    Follows the a priori rates gamma = delta^(2/(q+2)) / 75, h^2 |log h| =
    delta, tau |log tau|^2 h^min(q-mu,0) = delta^(q/(q+2)); the two
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

    gamma = (1.0 / 75.0) * delta ** (2.0 / (q + 2.0))

    # h^2 |log h| is increasing up to e^-0.5 > 0.5
    h = _bisect_increasing(lambda t: t * t * abs(math.log(t)),
                           delta, 1e-8, 0.5, "mesh size h")

    # tau |log tau|^2 is increasing up to e^-2; stay on that branch
    p = min(q - mu, 0.0)
    target = delta ** (q / (q + 2.0)) / h ** p
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
