"""Fully discrete forward solver for the semilinear subdiffusion problem.

Time stepping couples the CQ-BE discrete Caputo derivative with the P1
stiffness matrix; the nonlinear term is lagged one step (linearized
scheme), so each step is a single SPD solve with the fixed matrix
tau^-alpha M + K, factored once per time grid by :class:`BandCholesky`.
Both the time steps and the series below go through one kernel, the step
resolvent z -> (tau^-alpha M + K)^-1 M z: one mass product with rows
already in the factor's order and one band solve, read back as a view.
The homogeneous terminal map v -> U^N is the discrete solution operator,
applied matrix-free either by one N-step solve (:func:`apply_F`) or by a
short Chebyshev series in the step resolvent (:func:`apply_F_series`).
SciPy is first imported when a step matrix is factored, by
:class:`BandCholesky`; the CQ history sums need NumPy only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

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


_REGISTRY = {nl.name: nl for nl in (
    Nonlinearity("zero", np.zeros_like),
    Nonlinearity("identity", lambda u: u),
    Nonlinearity("sqrt1pu2", lambda u: np.sqrt(1.0 + u * u)),
    Nonlinearity("one_minus_u3", lambda u: 1.0 - u ** 3),
    Nonlinearity("allen_cahn", lambda u: u - u ** 3),
)}


def get_nonlinearity(name: str) -> Nonlinearity:
    """Look up a nonlinearity by name.

    Only the Lipschitz family takes a parameter, its scale L, written
    inline: ``"L_sqrt1pu2:0.5"`` is f(u) = 0.5 sqrt(1 + u^2), and
    ``"L_sqrt1pu2"`` alone means L = 1.
    """
    base, colon, suffix = name.partition(":")
    if base == "L_sqrt1pu2":
        try:
            L = float(suffix) if colon else 1.0
        except ValueError:
            raise ValueError(f"nonlinearity {name!r}: the scale L must be a number") from None
        if not math.isfinite(L):
            raise ValueError(f"nonlinearity {name!r}: the scale L must be finite")
        return Nonlinearity(f"L_sqrt1pu2:{L:g}", lambda u: L * np.sqrt(1.0 + u * u))
    if name not in _REGISTRY:
        raise ValueError(f"unknown nonlinearity {name!r}; known: "
                         f"{sorted(_REGISTRY)} and L_sqrt1pu2[:L]")
    return _REGISTRY[name]


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time grid on [0, T] with N steps and fractional order alpha."""

    T: float
    N: int
    alpha: float

    def __post_init__(self):
        if not (math.isfinite(self.T) and self.T > 0.0):
            raise ValueError(f"terminal time must be positive and finite, got {self.T}")
        if self.N < 1:
            raise ValueError(f"need at least one time step, got {self.N}")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"fractional order must lie in (0,1), got {self.alpha}")

    @property
    def tau(self) -> float:
        return self.T / self.N


class BandCholesky:
    """Cholesky factor of a sparse SPD matrix, kept in LAPACK band storage.

    The band is the numbering's own; no renumbering is searched for.  The
    meshes of :mod:`fracback.grid` are numbered lexicographically, so ``kd``
    is one mesh layer (1 in 1D, n on the n x n square).  The unknowns are
    eliminated last first: the upper band of the reversed matrix, kd+1 rows,
    is factored by ``dpbtrf``, and a solve is two banded triangular sweeps
    (``dpbtrs``).  Storage and solve cost are O(d kd).  A matrix that is
    not positive definite raises :class:`NumericalFailure`.
    """

    def __init__(self, mat):
        # SciPy is imported here, not at module level: runs that never
        # factor, such as the Mittag-Leffler oracle, should not pay for it
        import scipy.sparse as sp
        from scipy.linalg.lapack import dpbtrf, dpbtrs

        lower = sp.tril(mat, format="coo")
        d = mat.shape[0]
        self.kd = int((lower.row - lower.col).max(initial=0))
        # entry (r, c), r >= c, sits at (d-1-r, d-1-c) of the reversed matrix
        band = np.zeros((self.kd + 1, d), order="F")
        band[self.kd + lower.col - lower.row, d - 1 - lower.col] = lower.data
        self.factor, info = dpbtrf(band, overwrite_ab=1)
        if info != 0:
            raise NumericalFailure(f"band Cholesky failed (dpbtrf info={info}): "
                                   "matrix is not positive definite")
        self._dpbtrs = dpbtrs

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solve for ``b``, which is left unchanged."""
        return self.solve_reversed(b[::-1].copy())

    def solve_reversed(self, rb: np.ndarray) -> np.ndarray:
        """Solve for ``rb`` = b[::-1], the right-hand side in factor order,
        which may be overwritten; the solution comes back in mesh order."""
        x, _ = self._dpbtrs(self.factor, rb, overwrite_b=1)
        return x[::-1]


# Step factors are built through this module attribute, under the name of
# the SuperLU factor it replaced: perfbench's tracer and tests/test_bench.py
# wrap ``forward.splu`` to time and count factorisations.  The tracer also
# wraps ``forward.load_nonlinear``, imported above for that alone: a step
# folds the nonlinear load into its one mass product (see solve_forward).
splu = BandCholesky


class _StepWorkspace:
    """The step resolvent of one grid and its CQ weights, reused by every
    solve on that grid: the time steps of :func:`solve_forward` and the
    series terms of :func:`apply_F_series`.

    Holds the band Cholesky factor of tau^-a M + K, the mass matrix with its
    rows reversed into the factor's order (so :meth:`resolvent` is one sparse
    product and one band solve) and ``boundary`` = (tau^-a M + K)^-1 b_d,
    the response to the load of a source that is 1 on the boundary trace
    (:class:`~fracback.fem.FemSystem`).
    """

    def __init__(self, sys: FemSystem, grid: TimeGrid):
        tau_a = grid.tau ** (-grid.alpha)
        self.tau_a = tau_a
        self.solver = splu(tau_a * sys.M + sys.K)
        self.mass = sys.M[::-1]
        self.boundary = self.solver.solve(sys.b_d)
        self.w = cq_weights(grid.alpha, grid.N)
        self.s = np.cumsum(self.w)

    def resolvent(self, z: np.ndarray) -> np.ndarray:
        """(tau^-a M + K)^-1 M z, as a view of a new array."""
        return self.solver.solve_reversed(self.mass @ z)


def _workspace(sys: FemSystem, grid: TimeGrid) -> _StepWorkspace:
    """The system's workspace for ``grid``, built on first use."""
    return sys.derived(("step", grid), lambda: _StepWorkspace(sys, grid))


def solve_forward(sys: FemSystem, grid: TimeGrid, u0: GridFunction,
                  f: Nonlinearity) -> np.ndarray:
    """March the linearized fully discrete scheme from U^0 = u0 to U^N.

    Step n solves (tau^-a M + K) U^n = M_c f(U^{n-1})
                                       - tau^-a M [sum_j w_j U^{n-j} - s_n U^0],
    where M_c holds the interior rows of the full mass matrix, so that f(0)
    on the boundary nodes enters the load.  f acts pointwise, so
    M_c f(U) = M f(U) + f(0) b_d, and the step is one resolvent of
    z = f(U^{n-1}) - tau^-a [...] plus f(0) times the workspace's
    ``boundary`` response, which is formed once per solve.
    Returns the C-contiguous (N+1) x d state array whose row n is U^n.
    The history sum comes from :func:`fracback.cq.march`, which accumulates
    it blockwise in that array and hands each step its scratch vector, in
    which the step forms z in place; beyond the array a solve needs
    O((N + cq.BLOCK) * cq.BLOCK + d) memory.  A non-finite state raises
    :class:`NumericalFailure` before it enters the history.
    """
    if u0.system is not sys:
        raise ValueError("initial data defined on a different system")
    ws = _workspace(sys, grid)
    N, d = grid.N, sys.num_dofs
    hist = np.empty((N + 1, d))
    hist[0] = u0.values
    homogeneous = f.is_zero
    # the response to f(0) on the boundary trace, the same at every step
    boundary_load = None if homogeneous else f(np.zeros(1))[0] * ws.boundary
    # the product s_n U^0
    prod = np.empty(d)

    def step(n, conv):
        # z is formed in conv, march's scratch vector
        conv -= np.multiply(ws.s[n], hist[0], out=prod)
        conv *= -ws.tau_a
        if not homogeneous:
            conv += f(hist[n - 1])
        u = ws.resolvent(conv)
        if not homogeneous:
            u += boundary_load
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
    each one step resolvent, the kernel time stepping uses on the same
    grid, and keeps three vectors instead of the (N+1) x d history.  A
    non-finite result raises :class:`NumericalFailure`.
    """
    if v.system is not sys:
        raise ValueError("operand defined on a different system")
    ws = _workspace(sys, grid)
    scale = 2.0 / resolvent_bound(sys, grid)
    x = v.values

    def X(b):
        # scale * A b - b, formed in the resolvent's new array
        y = ws.resolvent(b)
        y *= scale
        y -= b
        return y

    b1, b2 = coeffs[-1] * x, np.zeros_like(x)
    for ck in coeffs[-2:0:-1]:
        y = X(b1)
        y *= 2.0
        y += ck * x
        y -= b2
        b1, b2 = y, b1
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
