import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.special import gammaln

from fracback import cq
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


def recurrence_symbol(alpha, T, N, lam):
    """r_N(lam) by the scalar CQ-BE recurrence from u_0 = 1, the march the
    contour quadrature replaces."""
    w = cq_weights(alpha, N)
    s = np.cumsum(w)
    ta = (T / N) ** (-alpha)
    U = np.ones((N + 1, lam.size))
    return naive_march(w, U, lambda n, conv: ta * (s[n] - conv) / (ta + lam))[N]


def mp_recurrence_symbol(alpha, T, N, lam):
    """The same recurrence in 40-digit arithmetic, for one lam."""
    with mpmath.workdps(40):
        a, lam = mpmath.mpf(alpha), mpmath.mpf(lam)
        ta = (mpmath.mpf(T) / N) ** (-a)
        w = [mpmath.mpf(1)]
        for j in range(1, N + 1):
            w.append(w[-1] * (j - 1 - a) / j)
        u, s = [mpmath.mpf(1)], w[0]
        for n in range(1, N + 1):
            s += w[n]
            u.append(ta * (s - mpmath.fsum(w[n - j] * u[j] for j in range(n))) / (ta + lam))
        return float(u[N])


@pytest.mark.parametrize("alpha", [0.001, 0.01, 0.1, 0.5, 0.95, 0.9999])
@pytest.mark.parametrize("T", [0.01, 1.0, 100.0])
def test_symbol_matches_recurrence(alpha, T):
    # the contour quadrature for N >= 3 and the recurrence it replaces; at
    # N = 1, 2 the parabola would cross the branch cut's periodic image
    lam = np.concatenate([[0.0, 1e-6], np.logspace(0, 9), [1e160, 1e300, np.finfo(float).max]])
    for N in (1, 2, 3, 7, 40, 333, 1000):
        got = scalar_terminal_factor(alpha, T, N, lam)
        assert np.max(np.abs(got - recurrence_symbol(alpha, T, N, lam))) <= 2e-13, N


@pytest.mark.parametrize("alpha, T, lam", [(0.1, 1.0, 10.0), (0.5, 1.0, np.pi ** 2),
                                           (0.9, 100.0, 1e3), (0.5, 0.01, 1e6),
                                           (0.3, 1.0, 0.0)])
def test_symbol_matches_40_digit_recurrence(alpha, T, lam):
    got = scalar_terminal_factor(alpha, T, 300, lam)[0]
    assert abs(got - mp_recurrence_symbol(alpha, T, 300, lam)) <= 5e-15


@pytest.mark.parametrize("N", [2, 40])
@pytest.mark.parametrize("bad", [-1e-12, -np.inf, np.inf, np.nan])
def test_symbol_rejects_negative_or_nonfinite_lam(N, bad):
    # for lam < 0, D^a + lam tau^a has a zero off the branch cut
    with pytest.raises(ValueError):
        scalar_terminal_factor(0.5, 1.0, N, np.array([1.0, bad]))


@pytest.mark.parametrize("N", [0, -1])
def test_symbol_needs_a_step(N):
    with pytest.raises(ValueError, match="at least one step"):
        scalar_terminal_factor(0.5, 1.0, N, np.array([1.0]))


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
    # the scalar-mode CQ-BE step, with or without a lagged source f(u_{n-1});
    # hist[1:] starts as NaN, which must not leak: march reads no row before
    # writing it.  The blocked march must also take a read-only w longer
    # than N+1, and a step that overwrites its sum in place and returns it.
    rng = np.random.default_rng(seed)
    w = cq_weights(alpha, N)
    s = np.cumsum(w)
    ta = (1.0 / N) ** (-alpha)
    denom = ta + rng.uniform(1.0, 1e3, d)
    u0 = rng.standard_normal(d)

    def run(kernel, weights=w, in_place=False):
        hist = np.full((N + 1, d), np.nan)
        hist[0] = u0

        def step(n, conv):
            f_prev = np.sqrt(1.0 + hist[n - 1] ** 2) if lagged else 0.0
            if not in_place:
                return (f_prev + ta * (s[n] * hist[0] - conv)) / denom
            conv -= s[n] * hist[0]
            conv *= -ta
            conv += f_prev
            conv /= denom
            return conv

        return kernel(weights, hist, step)

    naive = run(naive_march)
    bound = 1e-13 * max(1.0, np.max(np.abs(naive)))
    for blocked in (run(march), run(march, weights=cq_weights(alpha, N + 7)),
                    run(march, in_place=True)):
        assert np.max(np.abs(blocked - naive)) <= bound


class _StrideCheckedNumPy:
    """NumPy, except that ``matmul`` first asserts that every array operand
    and ``out`` has only positive strides, the layout NumPy hands to BLAS;
    it counts its calls."""

    def __init__(self):
        self.matmul_calls = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def matmul(self, *args, **kwargs):
        for a in (*args, kwargs.get("out")):
            if isinstance(a, np.ndarray):
                assert all(stride > 0 for stride in a.strides), a.strides
        self.matmul_calls += 1
        return np.matmul(*args, **kwargs)


@pytest.mark.parametrize("N", [BLOCK - 1, 3 * BLOCK + 5])
def test_march_products_stay_on_blas(monkeypatch, N):
    # a negative-stride weight view sends NumPy's matmul to its own slow
    # loop instead of BLAS; every product of the kernel is one matmul,
    # a GEMV per step and a GEMM per block
    checked = _StrideCheckedNumPy()
    monkeypatch.setattr(cq, "np", checked)
    w = cq_weights(0.5, N)
    hist = np.empty((N + 1, 4))
    hist[0] = 1.0
    march(w, hist, lambda n, conv: 0.5 * conv)
    assert checked.matmul_calls == N + len(range(0, N + 1, BLOCK))


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
