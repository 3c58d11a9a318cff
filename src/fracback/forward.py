"""Fully discrete forward solver for the semilinear subdiffusion problem.

Time stepping couples the CQ-BE discrete Caputo derivative with the P1
stiffness matrix; the nonlinear term is lagged one step (linearized
scheme), so each step is a single SPD solve with the fixed matrix
tau^-alpha M + K, factored once per time grid by :class:`BandCholesky`.
The homogeneous terminal map v -> U^N is the discrete solution operator,
applied matrix-free either by one N-step solve (:func:`apply_F`) or by a
short Chebyshev series in the step resolvent (:func:`apply_F_series`);
both solve with that one factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dpbtrf, dpbtrs

from fracback.cq import chebyshev_terminal_series, cq_weights, march
from fracback.fem import FemSystem, GridFunction, NumericalFailure, load_nonlinear


@dataclass(frozen=True)
class Nonlinearity:
    """Pointwise source term f(u)."""

    name: str
    f: Callable[[np.ndarray], np.ndarray]

    def __call__(self, u):
        return self.f(u)

    @property
    def is_zero(self) -> bool:
        return self.name == "zero"


_REGISTRY: dict[str, Callable[[float], Nonlinearity]] = {
    "zero": lambda L: Nonlinearity("zero", lambda u: np.zeros_like(u)),
    "identity": lambda L: Nonlinearity("identity", lambda u: u),
    "sqrt1pu2": lambda L: Nonlinearity("sqrt1pu2", lambda u: np.sqrt(1.0 + u * u)),
    "one_minus_u3": lambda L: Nonlinearity("one_minus_u3", lambda u: 1.0 - u ** 3),
    "L_sqrt1pu2": lambda L: Nonlinearity(
        f"L_sqrt1pu2:{L:g}", lambda u: L * np.sqrt(1.0 + u * u)),
    "allen_cahn": lambda L: Nonlinearity("allen_cahn", lambda u: u - u ** 3),
}


def get_nonlinearity(name: str, L: float = 1.0) -> Nonlinearity:
    """Look up a registered nonlinearity.

    A scale for the Lipschitz family may be given either as the ``L``
    argument or inline, e.g. ``"L_sqrt1pu2:0.5"``.
    """
    base = name
    if ":" in name:
        base, _, suffix = name.partition(":")
        L = float(suffix)
    if base not in _REGISTRY:
        raise ValueError(f"unknown nonlinearity {name!r}; "
                         f"registered: {sorted(_REGISTRY)}")
    return _REGISTRY[base](L)


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time grid on [0, T] with N steps and fractional order alpha."""

    T: float
    N: int
    alpha: float

    def __post_init__(self):
        if self.T <= 0.0:
            raise ValueError(f"terminal time must be positive, got {self.T}")
        if self.N < 1:
            raise ValueError(f"need at least one time step, got {self.N}")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"fractional order must lie in (0,1), got {self.alpha}")

    @property
    def tau(self) -> float:
        return self.T / self.N


class BandCholesky:
    """Cholesky factor of a sparse SPD matrix, kept in LAPACK band storage.

    The unknowns are renumbered by reverse Cuthill-McKee, which narrows
    the band of a mesh matrix to about one mesh layer (``kd`` = 1 in 1D,
    n-1 on the n x n square).  The upper band, kd+1 rows, is factored by
    ``dpbtrf``; a solve is two banded triangular sweeps (``dpbtrs``).
    Storage and solve cost are O(d kd).  A matrix that is not positive
    definite raises :class:`NumericalFailure`.
    """

    def __init__(self, mat):
        # csgraph is imported here, not at module level: it costs about
        # 0.9 MB of memory that runs which never factor should not pay
        from scipy.sparse.csgraph import reverse_cuthill_mckee

        mat = sp.csr_matrix(mat)
        perm = reverse_cuthill_mckee(mat, symmetric_mode=True)
        upper = sp.triu(mat[perm][:, perm], format="coo")
        self.kd = int((upper.col - upper.row).max(initial=0))
        band = np.zeros((self.kd + 1, mat.shape[0]), order="F")
        band[self.kd + upper.row - upper.col, upper.col] = upper.data
        self.factor, info = dpbtrf(band, overwrite_ab=1)
        if info != 0:
            raise NumericalFailure(f"band Cholesky failed (dpbtrf info={info}): "
                                   "matrix is not positive definite")
        self.perm = perm
        self.iperm = np.argsort(perm)

    def solve(self, b: np.ndarray) -> np.ndarray:
        x, _ = dpbtrs(self.factor, b[self.perm], overwrite_b=1)
        return x[self.iperm]


# Step factors are built through this module attribute, under the name of
# the SuperLU factor it replaced: perfbench's tracer and tests/test_bench.py
# wrap ``forward.splu`` to time and count factorisations.
splu = BandCholesky


class _StepWorkspace:
    """Band Cholesky factor of the step matrix tau^-a M + K and the CQ
    weights, reused by every solve on one grid: the time steps of
    :func:`solve_forward` and the series terms of :func:`apply_F_series`."""

    def __init__(self, sys: FemSystem, grid: TimeGrid):
        tau_a = grid.tau ** (-grid.alpha)
        self.tau_a = tau_a
        self.solver = splu(tau_a * sys.M + sys.K)
        self.w = cq_weights(grid.alpha, grid.N)
        self.s = np.cumsum(self.w)


def _workspace(sys: FemSystem, grid: TimeGrid) -> _StepWorkspace:
    """The system's workspace for ``grid``, built on first use."""
    return sys.derived(("step", grid), lambda: _StepWorkspace(sys, grid))


def solve_forward(sys: FemSystem, grid: TimeGrid, u0: GridFunction,
                  f: Nonlinearity) -> np.ndarray:
    """March the linearized fully discrete scheme from U^0 = u0 to U^N.

    Step n solves (tau^-a M + K) U^n = M f(U^{n-1})
                                       - tau^-a M [sum_j w_j U^{n-j} - s_n U^0].
    Returns the C-contiguous (N+1) x d state array whose row n is U^n.
    The history sum comes from :func:`fracback.cq.march`, which accumulates
    it blockwise in that array; beyond it a solve needs O(N * cq.BLOCK)
    memory.  A non-finite state raises :class:`NumericalFailure` before it
    enters the history.
    """
    if u0.system is not sys:
        raise ValueError("initial data defined on a different system")
    ws = _workspace(sys, grid)
    N, d = grid.N, sys.num_dofs
    hist = np.empty((N + 1, d))
    hist[0] = u0.values
    homogeneous = f.is_zero

    def step(n, conv):
        rhs = -ws.tau_a * (sys.M @ (conv - ws.s[n] * hist[0]))
        if not homogeneous:
            rhs = rhs + load_nonlinear(sys, GridFunction(sys, hist[n - 1]), f)
        u = ws.solver.solve(rhs)
        if not np.all(np.isfinite(u)):
            raise NumericalFailure(f"forward step {n} produced non-finite values")
        return u

    return march(ws.w, hist, step)


def apply_F(sys: FemSystem, grid: TimeGrid, v: GridFunction) -> GridFunction:
    """Discrete homogeneous solution operator: terminal state with f = 0."""
    return apply_S(sys, grid, v, get_nonlinearity("zero"))


def resolvent_bound(sys: FemSystem, grid: TimeGrid) -> float:
    """mu_max = 1/(tau^-a + dim pi^2), the top of the spectrum of the step
    resolvent A = (tau^-a M + K)^-1 M.

    A is M-self-adjoint with eigenvalues 1/(tau^-a + lam_h).  Conforming
    P1 with the consistent mass bounds the discrete eigenvalues from below
    by the continuous ones (Rayleigh-Ritz), and lam_1 = dim pi^2 on the
    unit interval and the unit square, so the spectrum lies in (0, mu_max].
    """
    return 1.0 / (grid.tau ** (-grid.alpha) + sys.mesh.dim * math.pi ** 2)


def terminal_series(sys: FemSystem, grid: TimeGrid) -> np.ndarray:
    """All N+1 Chebyshev coefficients of r_N on [0, mu_max], kept on the system."""
    return sys.derived(("series", grid), lambda: chebyshev_terminal_series(
        grid.alpha, grid.T, grid.N, resolvent_bound(sys, grid)))


def apply_F_series(sys: FemSystem, grid: TimeGrid, v: GridFunction,
                   coeffs: np.ndarray) -> GridFunction:
    """F^N v as sum_k c_k T_k(X) v with X = (2/mu_max) A - I.

    F^N = r_N(A) exactly (see :func:`resolvent_bound`).  With ``coeffs``
    the head c[:m] of :func:`terminal_series`, the difference from
    :func:`apply_F` in the M-norm is at most the dropped tail times
    ||v||_M, plus rounding.  Clenshaw's recurrence applies X m-1 times,
    each one mass product and one solve with the band Cholesky factor
    that time stepping uses on the same grid, and keeps
    three vectors instead of the (N+1) x d history.  A non-finite result
    raises :class:`NumericalFailure`.
    """
    if v.system is not sys:
        raise ValueError("operand defined on a different system")
    ws = _workspace(sys, grid)
    scale = 2.0 / resolvent_bound(sys, grid)
    x = v.values

    def X(b):
        return scale * ws.solver.solve(sys.M @ b) - b

    b1, b2 = coeffs[-1] * x, np.zeros_like(x)
    for ck in coeffs[-2:0:-1]:
        b1, b2 = ck * x + 2.0 * X(b1) - b2, b1
    out = coeffs[0] * x + X(b1) - b2 if len(coeffs) > 1 else b1
    if not np.all(np.isfinite(out)):
        raise NumericalFailure("series F^N application produced non-finite values")
    return GridFunction(sys, out)


def apply_S(sys: FemSystem, grid: TimeGrid, v: GridFunction,
            f: Nonlinearity) -> GridFunction:
    """Discrete semilinear solution operator: terminal state of the full scheme.

    U^N is copied out of the history, so the result does not keep it alive.
    """
    return GridFunction(sys, solve_forward(sys, grid, v, f)[-1].copy())
