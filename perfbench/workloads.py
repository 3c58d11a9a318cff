"""Workload definitions shared by run.py, child.py and the tests: sizes,
seeds, input builders, output readers and output checks.

Importing this module pulls in nothing beyond the standard library, so an
untraced child pays no extra import time for it.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

WORKLOADS = ("table1", "recon-step", "recon-dense", "oracle")
# The workloads BENCHMARK.json lists.  recon-dense runs by hand only: its
# eigensolve is also timed by table1's traced run, and leaving it out lets
# the other three measure for longer within the benchmark's time budget.
LISTED = ("table1", "recon-step", "oracle")

# Pinned workload seeds (the defaults) and the rotation pool a benchmark
# seed selects from.  Every pool seed and the held-out seed has reference
# outputs in reference.json; the held-out seed is never selected by a
# benchmark seed, only by an explicit --workload-seed.
PINNED_SEED = {"table1": 42, "recon-step": 7, "recon-dense": 7, "oracle": 11}
POOL_SIZE = 8
HELD_OUT_OFFSET = 1000

TABLE_DELTAS = (1.0 / 80, 1.0 / 160, 1.0 / 320)
TABLE_ALPHAS = (0.1, 0.5)
ORACLE_ALPHAS = (0.1, 0.5, 0.9)

# Benchmark sizes keep each workload's dominant layer while letting several
# fresh-process runs fit in one measuring window; smoke sizes are for tests.
SIZES = {
    "bench": {
        "table1": {"n_ref": 64, "N_ref": 300, "repetitions": 3,
                   "deltas": TABLE_DELTAS, "alphas": TABLE_ALPHAS},
        # n=66 gives 4225 dofs, above the 4096-dof dense cap: F^N steps
        "recon-step": {"n": 66, "N": 40},
        # n=48 gives 2209 dofs: F^N uses the dense-spectral surrogate
        "recon-dense": {"n": 48, "N": 40},
        "oracle": {"modes": 48, "N": 1000},
    },
    "smoke": {
        "table1": {"n_ref": 28, "N_ref": 100, "repetitions": 1,
                   "deltas": TABLE_DELTAS[:2], "alphas": TABLE_ALPHAS[:1]},
        "recon-step": {"n": 8, "N": 10, "fast_path": "off"},
        "recon-dense": {"n": 8, "N": 10},
        "oracle": {"modes": 8, "N": 50},
    },
}


def seed_pool(workload: str) -> list:
    base = PINNED_SEED[workload]
    return [base + k for k in range(POOL_SIZE)]


def held_out_seed(workload: str) -> int:
    return PINNED_SEED[workload] + HELD_OUT_OFFSET


def workload_seed(workload: str, bench_seed: int) -> int:
    """The workload seed a benchmark --seed selects (pool rotation)."""
    pool = seed_pool(workload)
    return pool[bench_seed % len(pool)]


# ---------------------------------------------------------------------------
# inputs

def cli_argv(workload: str, size: str, wseed: int, out_dir: Path) -> list:
    """Write the experiment config into ``out_dir`` and return the CLI argv."""
    p = SIZES[size][workload]
    cfg = {"dim": 2, "T": 1.0, "nonlinearity": "sqrt1pu2",
           "initial_data": "smooth_sine", "output_dir": str(out_dir)}
    if workload == "table1":
        cfg.update(alpha=p["alphas"][0], preset="paper-ex1", n_ref=p["n_ref"],
                   N_ref=p["N_ref"], repetitions=p["repetitions"],
                   noise={"delta": p["deltas"][0], "seed": wseed})
        extra = ["--deltas", ",".join(repr(d) for d in p["deltas"]),
                 "--alphas", ",".join(repr(a) for a in p["alphas"])]
        command = "table"
    else:
        backward = {"gamma": 1e-3}
        if "fast_path" in p:
            backward["fast_path"] = p["fast_path"]
        cfg.update(alpha=0.5, n=p["n"], N=p["N"], n_ref=p["n"], N_ref=p["N"],
                   noise={"delta": 1.0 / 320, "seed": wseed}, backward=backward)
        extra = []
        command = "backward"
    cfg_path = out_dir / "config.json"
    cfg_path.write_text(json.dumps(cfg, indent=2, sort_keys=True), encoding="utf-8")
    return [command, "--config", str(cfg_path), "--quiet", *extra]


def oracle_field(size: str, wseed: int):
    """Square sine field with modes k, l <= K and seeded smooth coefficients."""
    import numpy as np
    from fracback.mlf import SpectralField

    K = SIZES[size]["oracle"]["modes"]
    k = np.arange(1, K + 1)
    decay = (k[:, None] ** 2 + k[None, :] ** 2).astype(np.float64)
    rng = np.random.default_rng(wseed)
    return SpectralField("square", rng.standard_normal((K, K)) / decay)


def run_oracle(field, size: str) -> dict:
    """Sine-spectral Mittag-Leffler solution against the CQ symbol r_N."""
    import numpy as np
    from fracback import cq, mlf

    N = SIZES[size]["oracle"]["N"]
    lam = field.eigenvalues()
    uniq, inv = np.unique(lam, return_inverse=True)
    out = {}
    for alpha in ORACLE_ALPHAS:
        exact = mlf.spectral_forward_linear(field, alpha, 1.0).coeffs
        r_N = cq.scalar_terminal_factor(alpha, 1.0, N, uniq)[inv].reshape(lam.shape)
        out[f"{alpha:g}"] = {
            "max_abs_rN_minus_E": float(np.max(np.abs(r_N - exact / field.coeffs))),
            "max_abs_field_err": float(np.max(np.abs(field.coeffs * r_N - exact))),
        }
    return out


# ---------------------------------------------------------------------------
# outputs and checks

def read_outputs(workload: str, out_dir: Path, child: dict) -> dict:
    """The run's checked outputs, read from the files the program wrote."""
    if workload == "oracle":
        return child["oracle"]
    if workload == "table1":
        e_u, orders = [], []
        with open(out_dir / "table.csv", newline="", encoding="utf-8") as fh:
            for row in csv.reader(fh):
                if row[1] == "e_u":
                    e_u.append([float(v) for v in row[2:]])
                elif row[1] == "order":
                    orders.append([float(v) for v in row[3:]])
        return {"e_u": e_u, "orders": orders}
    row = json.loads((out_dir / "row.json").read_text(encoding="utf-8"))
    with open(out_dir / "history.csv", newline="", encoding="utf-8") as fh:
        cg_iters = [int(r["cg_iters"]) for r in csv.DictReader(fh)]
    return {"e_u": row["e_u"], "outer_iters": row["outer_iters"],
            "converged": row["converged"], "cg_iters": cg_iters}


# table.csv prints e_u with 7 and orders with 4 significant decimals, so a
# reordered floating-point sum may flip the last printed digit; row.json and
# the oracle carry full precision.
_RTOL_PRINTED = 5e-6
_ATOL_ORDER = 2e-4
_RTOL_FULL = 1e-6


def _close(a, b, rtol=0.0, atol=0.0) -> bool:
    return math.isfinite(a) and abs(a - b) <= atol + rtol * abs(b)


def check_outputs(workload: str, got: dict, ref: dict) -> list:
    """Mismatches between a run's outputs and the recorded reference."""
    bad = []
    if workload == "table1":
        for key, tol in (("e_u", {"rtol": _RTOL_PRINTED}), ("orders", {"atol": _ATOL_ORDER})):
            g = [v for row in got[key] for v in row]
            r = [v for row in ref[key] for v in row]
            if len(g) != len(r) or not all(_close(a, b, **tol) for a, b in zip(g, r)):
                bad.append(f"{key} {got[key]} != reference {ref[key]}")
    elif workload == "oracle":
        for alpha, vals in ref.items():
            for key, want in vals.items():
                have = got.get(alpha, {}).get(key, math.nan)
                if not _close(have, want, rtol=_RTOL_FULL):
                    bad.append(f"alpha={alpha} {key} {have!r} != reference {want!r}")
    else:
        if not _close(got["e_u"], ref["e_u"], rtol=_RTOL_FULL):
            bad.append(f"e_u {got['e_u']!r} != reference {ref['e_u']!r}")
        for key in ("outer_iters", "converged"):
            if got[key] != ref[key]:
                bad.append(f"{key} {got[key]!r} != reference {ref[key]!r}")
        # a reordered sum may move a CG stopping test across its threshold
        g, r = got["cg_iters"], ref["cg_iters"]
        if len(g) != len(r) or any(abs(a - b) > 1 for a, b in zip(g, r)):
            bad.append(f"cg_iters {g} != reference {r} (+-1)")
    return bad
