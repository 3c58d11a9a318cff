"""Backward-Euler convolution quadrature for the Caputo derivative.

Weights are the binomial expansion of (1 - xi)^alpha, generated by the
stable two-term recurrence.  Every CQ time stepper marches through
:func:`march`, which keeps the full history (no compression) but
accumulates it blockwise: each finished block of ``BLOCK`` states is pushed
to all later steps with one GEMM, so a step itself reads only the states of
its own block.  Beyond the N x d history the kernel needs O(N * BLOCK)
memory for one Toeplitz slice of the weights.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.blas import dgemm

BLOCK = 32


def cq_weights(alpha: float, N: int) -> np.ndarray:
    """CQ-BE weights w[j] = (-1)^j binom(alpha, j), j = 0..N, read-only.

    Generated by the recurrence w[j] = w[j-1](j-1-alpha)/j.  Their partial
    sums s_j = sum_{i<=j} w[i] (``np.cumsum(w)``) are positive and
    decrease to 0.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"fractional order must lie in (0, 1), got {alpha}")
    if N < 1:
        raise ValueError(f"need at least one step, got N={N}")
    w = np.empty(N + 1)
    w[0] = 1.0
    j = np.arange(1, N + 1, dtype=np.float64)
    w[1:] = np.cumprod((j - 1.0 - alpha) / j)
    w.setflags(write=False)
    return w


def march(w: np.ndarray, hist: np.ndarray, step) -> np.ndarray:
    """Fill ``hist[1:]`` with hist[n] = step(n, sum_{j<n} w[n-j] hist[j]).

    ``hist`` is a C-contiguous (N+1, d) float64 array with ``hist[0]`` set
    and ``w`` holds at least N+1 weights.  ``step`` returns the new state
    and may read ``hist[:n]``; the sum it is handed is a fresh array that
    it may overwrite, e.g. to form its right-hand side in place.  The rows
    not yet written serve as the accumulator: within a block the near
    terms are added directly, and once block [b0, b1) is final one
    in-place GEMM adds its contribution w[n-j] hist[j] to every later row
    n >= b1.  Returns ``hist``.
    """
    # the GEMM accumulates into hist[b1:].T only if that view is Fortran-ordered
    if hist.dtype != np.float64 or not hist.flags.c_contiguous:
        raise ValueError("history must be a C-contiguous float64 array")
    N = hist.shape[0] - 1
    hist[1:] = 0.0
    if N >= BLOCK:
        # the weights coupling a full block to the rows after it; C-contiguous,
        # so far.T is Fortran-ordered and reaches dgemm without a copy
        far = w[BLOCK + np.subtract.outer(np.arange(N + 1 - BLOCK), np.arange(BLOCK))]
    for b0 in range(0, N + 1, BLOCK):
        b1 = min(b0 + BLOCK, N + 1)
        for n in range(max(b0, 1), b1):
            hist[n] = step(n, hist[n] + w[n - b0:0:-1] @ hist[b0:n])
        if b1 <= N:
            # hist[b1:].T += hist[b0:b1].T @ far[:N+1-b1].T, accumulated in place
            dgemm(1.0, hist[b0:b1].T, far[:N + 1 - b1].T, beta=1.0,
                  c=hist[b1:].T, overwrite_c=True)
    return hist


def scalar_terminal_factor(alpha: float, T: float, N: int, lam, u0=1.0, source=None):
    """Terminal value of the CQ-BE scheme on scalar modes u' -> lambda u.

    Runs tau^-a sum w[n-j](u_j - u_0) + lam * u_n = f(u_{n-1}) for each
    entry of ``lam`` simultaneously; with ``source`` None this yields the
    spectral symbol r_N(lam) of the discrete homogeneous solution map
    (for u0 = 1).  Used as the dense-spectral oracle and fast path, and
    sampled by :func:`chebyshev_terminal_series`.
    """
    lam = np.atleast_1d(np.asarray(lam, dtype=np.float64))
    tau = T / N
    w = cq_weights(alpha, N)
    s = np.cumsum(w)
    ta = tau ** (-alpha)
    U = np.empty((N + 1, lam.size))
    U[0] = u0
    denom = ta + lam

    def step(n, conv):
        f_prev = source(U[n - 1]) if source is not None else 0.0
        return (f_prev + ta * (s[n] * U[0] - conv)) / denom

    return march(w, U, step)[N]


def chebyshev_terminal_series(alpha: float, T: float, N: int, mu_max: float) -> np.ndarray:
    """Chebyshev coefficients c_0..c_N of r_N in the step resolvent.

    Every CQ-BE step divides by tau^-a + lam, so r_N(lam) is a polynomial
    of degree N in mu = 1/(tau^-a + lam).  Its coefficients in the
    Chebyshev basis of [0, mu_max] follow from interpolation at N+1
    Chebyshev points, sampled from :func:`scalar_terminal_factor` at
    lam = 1/mu - tau^-a.  The coefficients decay fast, which is what lets
    :func:`truncate_series` keep a few of them.
    """
    ta = (T / N) ** (-alpha)

    def r_N(x):
        # x in (-1, 1) maps to mu = mu_max (x + 1) / 2 in (0, mu_max)
        return scalar_terminal_factor(alpha, T, N=N, lam=2.0 / (mu_max * (x + 1.0)) - ta)

    return np.polynomial.chebyshev.chebinterpolate(r_N, N)


def truncate_series(c: np.ndarray, tol: float):
    """Shortest head c[:m], m >= 1, whose dropped tail sum_{k>=m} |c_k| is
    below ``tol``.

    Returns ``(c[:m], tail)``; the tail bounds the truncation error of the
    series in the maximum norm on its interval.  A ``tol`` that no tail
    falls below (e.g. zero) keeps every coefficient, with tail 0.
    """
    tail = np.append(np.cumsum(np.abs(c)[::-1])[::-1], 0.0)
    below = np.flatnonzero(tail < tol)
    m = max(int(below[0]), 1) if below.size else len(c)
    return c[:m], float(tail[m])
