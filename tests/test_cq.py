import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.special import gammaln

from fracback.cq import BLOCK, cq_weights, march, scalar_terminal_factor, truncate_series


def loggamma_weights(alpha, N):
    """Closed form (-1)^j Gamma(a+1) / (Gamma(a-j+1) Gamma(j+1)) via log-Gamma.

    For j >= 1 the reflection formula turns Gamma(alpha-j+1) into
    Gamma(j-alpha) with an explicit sign, which is stable for large j.
    """
    j = np.arange(1, N + 1, dtype=np.float64)
    # (-1)^j / Gamma(a-j+1) = -Gamma(j-a) sin(pi a) / pi  for integer j >= 1
    ln_mag = gammaln(alpha + 1.0) + gammaln(j - alpha) - gammaln(j + 1.0)
    w = np.empty(N + 1)
    w[0] = 1.0
    w[1:] = -np.sin(np.pi * alpha) / np.pi * np.exp(ln_mag)
    return w


def test_weights_alpha_half():
    w = cq_weights(0.5, 4)
    assert np.allclose(w, [1.0, -0.5, -0.125, -0.0625, -0.0390625], atol=1e-15)


@pytest.mark.parametrize("alpha", [0.1, 0.3, 0.5, 0.7, 0.9])
def test_first_weight_is_minus_alpha(alpha):
    assert cq_weights(alpha, 2)[1] == pytest.approx(-alpha, abs=1e-15)


def test_recurrence_matches_loggamma_formula():
    w = cq_weights(0.3, 60)
    ref = loggamma_weights(0.3, 60)
    rel = np.abs(w - ref) / np.maximum(1.0, np.abs(ref))
    assert rel.max() < 1e-13


@pytest.mark.parametrize("alpha", [0.1, 0.3, 0.5, 0.7, 0.9])
def test_weights_against_loggamma_long(alpha):
    N = 2000
    w = cq_weights(alpha, N)
    ref = loggamma_weights(alpha, N)
    assert np.max(np.abs(w - ref) / np.maximum(1.0, np.abs(ref))) < 1e-12


@pytest.mark.parametrize("alpha", [0.1, 0.3, 0.5, 0.7, 0.9])
def test_partial_sum_identity(alpha):
    # sum_{j<=N} w_j = (-1)^N binom(alpha-1, N), compared through log-Gamma
    N = 2000
    s = np.cumsum(cq_weights(alpha, N))
    ln_mag = gammaln(N + 1.0 - alpha) - gammaln(N + 1.0) - gammaln(1.0 - alpha)
    ref = np.exp(ln_mag)   # positive for alpha in (0,1)
    assert abs(s[-1] - ref) / ref < 1e-11


@given(alpha=st.floats(0.05, 0.95), N=st.integers(1, 400))
@settings(max_examples=60, deadline=None)
def test_weight_invariants(alpha, N):
    w = cq_weights(alpha, N)
    s = np.cumsum(w)
    assert w[0] == 1.0
    assert np.all(w[1:] < 0.0)
    assert np.all(np.diff(np.abs(w[1:])) <= 1e-18)   # |w_j| nonincreasing
    assert np.all(s > 0.0)
    assert np.all(np.diff(s) <= 0.0)


def test_weights_validation():
    with pytest.raises(ValueError):
        cq_weights(1.0, 10)
    with pytest.raises(ValueError):
        cq_weights(0.5, 0)


def test_scalar_terminal_matches_exponential_limit():
    # alpha ~ 1 reduces to the implicit Euler resolvent power
    lam = 2.0
    N = 400
    got = scalar_terminal_factor(0.999, 1.0, N, lam)[0]
    euler = 1.0 / (1.0 + lam / N) ** N
    assert got == pytest.approx(euler, rel=5e-3)


def naive_march(w, hist, step):
    """Reference recurrence: the full history sum as a fresh GEMV per step."""
    for n in range(1, hist.shape[0]):
        hist[n] = step(n, w[n:0:-1] @ hist[:n])
    return hist


@given(N=st.integers(1, 3 * BLOCK + 1), d=st.integers(1, 40),
       alpha=st.floats(0.05, 0.95), lagged=st.booleans(), seed=st.integers(0, 2**32 - 1))
@example(N=1, d=3, alpha=0.5, lagged=True, seed=0)
@example(N=BLOCK - 1, d=3, alpha=0.5, lagged=True, seed=0)
@example(N=BLOCK, d=3, alpha=0.5, lagged=True, seed=0)
@example(N=BLOCK + 1, d=3, alpha=0.5, lagged=True, seed=0)
@example(N=2 * BLOCK, d=3, alpha=0.5, lagged=True, seed=0)
@example(N=2 * BLOCK + 1, d=3, alpha=0.5, lagged=True, seed=0)
@settings(max_examples=80, deadline=None)
def test_blocked_march_equals_naive(N, d, alpha, lagged, seed):
    # the scalar-mode CQ-BE step, with or without a lagged source f(u_{n-1})
    rng = np.random.default_rng(seed)
    w = cq_weights(alpha, N)
    s = np.cumsum(w)
    ta = (1.0 / N) ** (-alpha)
    denom = ta + rng.uniform(1.0, 1e3, d)
    u0 = rng.standard_normal(d)

    def run(kernel):
        hist = np.empty((N + 1, d))
        hist[0] = u0

        def step(n, conv):
            f_prev = np.sqrt(1.0 + hist[n - 1] ** 2) if lagged else 0.0
            return (f_prev + ta * (s[n] * hist[0] - conv)) / denom

        return kernel(w, hist, step)

    naive = run(naive_march)
    blocked = run(march)
    assert np.max(np.abs(blocked - naive)) <= 1e-13 * max(1.0, np.max(np.abs(naive)))


def test_march_rejects_non_contiguous_history():
    w = cq_weights(0.5, 40)
    with pytest.raises(ValueError):
        march(w, np.zeros((41, 3), order="F"), lambda n, conv: conv)


def test_truncate_series_keeps_shortest_head():
    c = np.array([1.0, -0.5, 0.25, -1e-3, 1e-6])
    head, tail = truncate_series(c, 1e-2)
    assert np.array_equal(head, c[:3]) and tail == pytest.approx(1e-3 + 1e-6)
    # a tolerance no tail falls below keeps every coefficient
    for tol in (0.0, -1.0):
        head, tail = truncate_series(c, tol)
        assert np.array_equal(head, c) and tail == 0.0
    # at least one term, even when the whole series is below tol
    head, tail = truncate_series(c, 10.0)
    assert np.array_equal(head, c[:1])
