"""Tests of the benchmark itself, on the workloads' smoke sizes.

    python3 -m pytest perfbench

Run from the root of a fracback checkout.  Each smoke run is a traced
child process, as in the benchmark; the computed counts must repeat
exactly and match the hand-computed values below.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

EXACT = ("forward.dof_steps", "forward.hist_bytes_read", "cq.symbol_bytes_read",
         "fem.cg_iters", "backward.F_apply.calls", "mlf.values_taylor",
         "mlf.values_mp", "mlf.values_asym")


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    runs = {}

    def get(workload, rep=0):
        if (workload, rep) not in runs:
            work = tmp_path_factory.mktemp(f"{workload}-{rep}")
            rec = run.run_child(ROOT, work, workload, workloads.PINNED_SEED[workload],
                                size="smoke", trace=True, timeout=120.0)
            assert rec["error"] is None, rec["error"]
            runs[workload, rep] = rec
        return runs[workload, rep]

    return get


def _tri(N):
    return N * (N + 1) // 2


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_counts_repeat_exactly(smoke, workload):
    first, second = smoke(workload, 0)["layers"], smoke(workload, 1)["layers"]
    # output files carry run times (row.json, manifest.json), so their size
    # may differ by a digit between runs
    counted = [k for k, unit in tracer.PER_LAYER.items()
               if unit in ("count", "B") and k != "bench.output_bytes"]
    assert set(EXACT) <= set(counted)
    assert {k: first[k] for k in counted} == {k: second[k] for k in counted}


def test_recon_step_counts(smoke):
    rec = smoke("recon-step")
    L, out = rec["layers"], rec["outputs"]
    d, N = 7 * 7, 10                  # n=8 mesh, 10 steps
    outer, cg = out["outer_iters"], sum(out["cg_iters"])
    assert L["backward.F_apply.calls"] == outer + cg
    # reference solve + S^N per outer pass + every F^N by stepping
    solves = 1 + outer + (outer + cg)
    assert L["forward.solve_forward.calls"] == solves
    assert L["forward.dof_steps"] == solves * N * d
    assert L["forward.hist_bytes_read"] == solves * 8 * d * _tri(N)
    assert L["forward.splu.calls"] == 1
    # the regularized solves plus two mass-matrix projections (u0, truth)
    assert L["fem.conjugate_gradient.calls"] == outer + 2
    assert L["fem.cg_iters"] > cg
    assert L["cq.symbol_bytes_read"] == 0
    assert L["backward.cg_iters_per_outer"] == cg / outer


def test_recon_dense_counts(smoke):
    rec = smoke("recon-dense")
    L, out = rec["layers"], rec["outputs"]
    d, N = 7 * 7, 10
    outer, cg = out["outer_iters"], sum(out["cg_iters"])
    assert L["backward.F_apply.calls"] == outer + cg
    assert L["forward.solve_forward.calls"] == 1 + outer   # F^N is spectral
    assert L["forward.dof_steps"] == (1 + outer) * N * d
    assert L["fem.eigenpairs.calls"] == 1
    assert L["cq.symbol_bytes_read"] == 8 * d * _tri(N)     # one symbol, 49 modes


def test_table1_counts(smoke):
    rec = smoke("table1")
    L = rec["layers"]
    # paper-ex1 at delta 1/80: n=14, N=45, n_ref=28; at 1/160: n=20, N=63,
    # n_ref=20 (nearest multiple of 20 to 28); N_ref=100 for both
    cells = ((13 * 13, 45, 27 * 27), (19 * 19, 63, 19 * 19))
    outer = []
    for tag in ("a0p1_d0p0125", "a0p1_d0p00625"):
        lines = (rec["out"] / f"history_{tag}.csv").read_text().splitlines()
        outer.append(len(lines) - 1)
    assert L["backward.outer_iters"] == sum(outer)
    assert L["bench.reference_solve.calls"] == 2
    assert L["forward.dof_steps"] == sum(d_ref * 100 + k * N * d
                                         for (d, N, d_ref), k in zip(cells, outer))
    assert L["forward.hist_bytes_read"] == sum(
        8 * d_ref * _tri(100) + k * 8 * d * _tri(N) for (d, N, d_ref), k in zip(cells, outer))
    # coarse meshes are below the dense cap: one spectral symbol per cell
    assert L["cq.symbol_bytes_read"] == 8 * 169 * _tri(45) + 8 * 361 * _tri(63)
    assert L["bench.reference_solves_per_observation"] == 1.0


def test_oracle_counts(smoke):
    L = smoke("oracle")["layers"]
    lam = sorted({(k * k + l * l) * math.pi ** 2 for k in range(1, 9) for l in range(1, 9)})
    assert len(lam) == 34
    assert L["mlf.mittag_leffler.calls"] == 3 * 34
    assert L["cq.symbol_bytes_read"] == 3 * 8 * 34 * _tri(50)
    # gauge s = lam^(1/alpha) at T=1: every value is past the asymptotic
    # threshold 34 except lam = 2 pi^2 at alpha 0.9 (s = 27.4, multiprecision)
    assert (L["mlf.values_taylor"], L["mlf.values_mp"], L["mlf.values_asym"]) == (0, 1, 101)
    assert L["forward.solve_forward.calls"] == 0


def test_output_check_catches_wrong_results():
    refs = json.loads(run.REFERENCE.read_text())["workloads"]
    for workload in workloads.WORKLOADS:
        ref = refs[workload][str(workloads.PINNED_SEED[workload])]
        assert workloads.check_outputs(workload, ref, ref) == []
        wrong = json.loads(json.dumps(ref))
        if workload == "oracle":
            wrong["0.5"]["max_abs_rN_minus_E"] *= 1.001
        elif workload == "table1":
            wrong["e_u"][0][0] *= 1.0001
        else:
            wrong["cg_iters"][0] += 2
        assert workloads.check_outputs(workload, wrong, ref), workload


def test_reference_covers_pool_and_held_out():
    refs = json.loads(run.REFERENCE.read_text())["workloads"]
    for workload in workloads.WORKLOADS:
        seeds = workloads.seed_pool(workload) + [workloads.held_out_seed(workload)]
        assert sorted(refs[workload]) == sorted(str(s) for s in seeds)
        assert workloads.workload_seed(workload, 0) == workloads.PINNED_SEED[workload]


def test_calibration_runs():
    assert run.run_calibration(ROOT) > 0.0


def test_benchmark_json_matches_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.LISTED)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracer.PER_LAYER


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    res = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "oracle",
                          "--seed", "0", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert res.returncode != 0
    assert '"correct"' not in res.stdout
