"""Test-session settings shared by ``tests/`` and ``perfbench/``.

The BLAS pools are pinned to one thread before NumPy loads: the table
sweeps' worker processes then do not oversubscribe the cores, and the
bits of the multithreaded kernels (see README) stop depending on the
host's core count.  A value already set in the environment wins.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
