"""Fixed reference computation, timed beside the workload runs of a window.

    python3 perfbench/calibrate.py

It imports no fracback code and never changes, so its wall time tracks
only how fast the host runs a fresh Python process at that moment.  Its
mix follows the workloads': interpreter start and the NumPy/SciPy imports,
a pure-Python scalar loop (like the Mittag-Leffler series and the CQ
weight recurrence), and a fractional time-stepping loop with a history
GEMV and sparse LU solves (like ``solve_forward``).  run.py runs it
before every untraced workload run and divides the run's wall time by it.
"""

from __future__ import annotations

import math
import sys

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

ALPHA = 0.5
MESH = 64          # (MESH - 1)^2 = 3969 unknowns, as table1's n_ref
STEPS = 300
SERIES_POINTS = 10000
SERIES_TERMS = 60


def weights(alpha: float, count: int) -> list:
    """Gruenwald-Letnikov weights by their scalar recurrence."""
    w = [1.0]
    for j in range(1, count):
        w.append(w[-1] * (1.0 - (alpha + 1.0) / j))
    return w


def series(alpha: float) -> float:
    """Truncated Mittag-Leffler series at many points, one term at a time."""
    total = 0.0
    for i in range(SERIES_POINTS):
        z = -2.0 * i / SERIES_POINTS
        term_sum = 0.0
        for k in range(SERIES_TERMS):
            term_sum += z ** k / math.exp(math.lgamma(alpha * k + 1.0))
        total += term_sum
    return total


def stepping(alpha: float) -> float:
    m = MESH - 1
    lap = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(m, m)) * (MESH * MESH)
    eye = sp.identity(m)
    stiff = sp.kron(eye, lap) + sp.kron(lap, eye)
    tau_a = (1.0 / STEPS) ** alpha
    lu = spla.splu((sp.identity(m * m) + tau_a * stiff).tocsc())
    w = np.array(weights(alpha, STEPS + 1))
    x = np.linspace(0.0, 1.0, MESH + 1)[1:-1]
    hist = np.empty((STEPS + 1, m * m))
    hist[0] = np.outer(np.sin(np.pi * x), np.sin(np.pi * x)).ravel()
    for n in range(1, STEPS + 1):
        conv = w[n:0:-1] @ hist[:n]
        hist[n] = lu.solve(-conv)
    return float(np.abs(hist[-1]).max())


def main() -> int:
    values = (series(ALPHA), stepping(ALPHA))
    if not all(math.isfinite(v) for v in values):
        print(f"calibration went non-finite: {values}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
