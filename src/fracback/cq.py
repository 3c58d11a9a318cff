"""Backward-Euler convolution quadrature for the Caputo derivative.

Weights are the binomial expansion of (1 - xi)^alpha, generated by the
stable two-term recurrence.  The time stepper marches through :func:`march`,
which keeps the full history (no compression) but sums it blockwise: when
a block of ``BLOCK`` steps begins, one GEMM pulls the far field of all
earlier states into the block's own rows, so a step itself reads only the
states of its block, by one GEMV.  Both products read the weights from one
BLOCK x (N + BLOCK) Toeplitz slice through views with positive strides, so
NumPy hands both to BLAS.  A step allocates nothing in the kernel: its sum
goes into one scratch vector reused by every step.  Beyond the N x d
history the kernel needs BLOCK * (N + BLOCK) + d doubles.

The spectral symbol r_N(lambda) of the scheme, which the dense path, the
Chebyshev series and the oracle use, does not march: for N >= 3 it is one
contour quadrature, on the parabola :mod:`fracback.mlf` uses for
E_{alpha,1}, and for N <= 2 a closed form of the scheme's first two steps.
The module needs NumPy only.
"""

from __future__ import annotations

import math

import numpy as np

from fracback.mlf import branch_cut_rule, parabola

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
    and ``w`` holds at least N+1 weights; the rows ``hist[1:]`` may hold
    anything on entry.  ``step`` returns the new state and may read
    ``hist[:n]``.  The sum it is handed is the march's one scratch
    d-vector: the step may overwrite it, e.g. to form its right-hand side
    in place, and may return it, since ``march`` copies the returned state
    into ``hist[n]`` before the next step reuses the scratch.

    The weights are read from one Toeplitz slice T[i, c] = w[N+i-c] of
    BLOCK x (N + BLOCK) doubles.  Each block [b0, b1) first writes its far
    field sum_{j<b0} w[n-j] hist[j] into its own rows with one GEMM,
    T[:, N-b0:N] @ hist[:b0]; step n = b0 + i then sums its near terms
    j in [b0, n) with one GEMV, T[i, N:N+i] @ hist[b0:n], into the scratch
    and adds its far row.  Both weight views run forward in memory (their
    strides are positive), which keeps both products on BLAS.  Returns
    ``hist``.
    """
    # the GEMM writes into the rows of hist directly only if they are C-contiguous
    if hist.dtype != np.float64 or not hist.flags.c_contiguous:
        raise ValueError("history must be a C-contiguous float64 array")
    N = hist.shape[0] - 1
    # T[i, c] = w[N+i-c] on c in [i, N+i]; the zeros around are never read
    T = np.zeros((BLOCK, N + BLOCK))
    for i in range(BLOCK):
        T[i, i:N + i + 1] = w[N::-1]
    scratch = np.empty(hist.shape[1])
    for b0 in range(0, N + 1, BLOCK):
        b1 = min(b0 + BLOCK, N + 1)
        r0 = max(b0, 1)
        # the first block has no far field: the empty product writes zeros
        np.matmul(T[r0 - b0:b1 - b0, N - b0:N], hist[:b0], out=hist[r0:b1])
        for n in range(r0, b1):
            np.matmul(T[n - b0, N:N + n - b0], hist[b0:n], out=scratch)
            scratch += hist[n]
            hist[n] = step(n, scratch)
    return hist


def scalar_terminal_factor(alpha: float, T: float, N: int, lam) -> np.ndarray:
    """Spectral symbol r_N(lam) of the CQ-BE scheme, for each entry of ``lam``.

    r_N(lam) is the terminal value u_N of the scalar scheme
    tau^-a sum_j w[n-j](u_j - u_0) + lam u_n = 0 from u_0 = 1, i.e. the
    N-th Taylor coefficient of its generating function
    U(xi) = (tau^-a (1-xi)^(a-1) + lam) / (tau^-a (1-xi)^a + lam).  With
    xi = e^(-s/N), Cauchy's integral for that coefficient is the inverse
    Laplace transform at t = 1 of U / N (Lubich, Numer. Math. 52, 1988):
    with D = 1 - xi = -expm1(-s/N) and kappa = lam tau^a,

        r_N(lam) = (1/2 pi i) int e^s (D^(a-1) + kappa) / (D^a + kappa) ds / N.

    For lam >= 0 the integrand is analytic off the branch cuts of D^a,
    (-inf, 0] and its images shifted by 2 pi i N k.  So the trapezoidal
    rule on the parabola :mod:`fracback.mlf` uses for E_{a,1}
    (:func:`~fracback.mlf.branch_cut_rule`, 28 nodes) evaluates it
    whenever the parabola's top, |Im s| = 2 mu n h, stays below the first
    image at 2 pi N: for N > mu n h / pi ~ 2.34.  The tests hold it to
    2e-13 absolute against the recurrence and 5e-15 against a 40-digit
    one.  Its cost is a few real operations on one 28 x len(lam) array,
    whatever N is.  For N <= 2 the scheme's steps give r_N in closed form:
    with t = tau^-a, r_1 = t / (t + lam) and
    r_2 = t (1 - a (1 - r_1)) / (t + lam), since w[1] = -a.

    Used as the dense-spectral oracle and fast path, and sampled by
    :func:`chebyshev_terminal_series`.  ``lam`` must be finite and >= 0:
    only then has D^a + kappa no zero off the cuts.  kappa is capped at
    2^511 (6.7e153), so neither lam tau^a nor the square of D^a + kappa
    overflows; long before the cap r_N has reached its rounding floor,
    about 1e-17, which the cap leaves as it is.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"fractional order must lie in (0, 1), got {alpha}")
    lam = np.atleast_1d(np.asarray(lam, dtype=np.float64))
    if not np.all(np.isfinite(lam) & (lam >= 0.0)):
        raise ValueError("the symbol needs finite lam >= 0")
    if N < 1:
        raise ValueError(f"need at least one step, got N={N}")
    tau = T / N
    if N <= 2:
        t = tau ** (-alpha)
        r = t / (t + lam)
        return r if N == 1 else t * (1.0 - alpha * (1.0 - r)) / (t + lam)
    n, mu, h = branch_cut_rule()
    s, ds = parabola(n, mu, h)
    D = -np.expm1(-s / N)
    Da = D ** alpha
    c = np.exp(s) * ds
    # with b = D^a + kappa and e = D^(a-1) - D^a, the integrand's ratio is
    # 1 + e / b, and Im(c e / b) = Im(c e conj(b)) / |b|^2: real arithmetic
    # on the (n+1) x len(lam) array, no complex division
    ce = c * (Da / D - Da)
    with np.errstate(over="ignore"):     # lam tau^a beyond the float range
        den = np.add.outer(Da.real, np.minimum(lam * tau ** alpha, 2.0 ** 511))  # Re b
    terms = ce.imag[:, None] * den
    terms -= (ce.real * Da.imag)[:, None]
    den *= den
    den += (Da.imag ** 2)[:, None]
    terms /= den
    return h / (math.pi * N) * (np.sum(c.imag) + np.sum(terms, axis=0))


def chebyshev_terminal_series(alpha: float, T: float, N: int, mu_max: float) -> np.ndarray:
    """Chebyshev coefficients c_0..c_N of r_N in the step resolvent.

    Every CQ-BE step divides by tau^-a + lam, so r_N(lam) is a polynomial
    of degree N in mu = 1/(tau^-a + lam).  Its coefficients in the
    Chebyshev basis of [0, mu_max] follow from interpolation at N+1
    Chebyshev points, sampled from :func:`scalar_terminal_factor` at
    lam = 1/mu - tau^-a, so ``mu_max`` may not exceed tau^a.  For N >= 3
    that is one contour quadrature over all N+1 points, and
    ``chebinterpolate`` takes most of the time.  The coefficients decay fast,
    which is what lets :func:`truncate_series` keep a few of them.
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
