"""fracback benchmark: closed-loop, fresh-process runs of one workload.

    python3 perfbench/run.py --workload table1 --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --record

Run from the root of a fracback checkout.  One client runs the workload
back to back, one fresh ``python3 perfbench/child.py`` process per run,
until the next run would end after ``--seconds``.  Every run's outputs are
checked against ``reference.json``.  With ``--trace 0`` each run is
preceded by a run of ``calibrate.py``, a fixed reference computation, and
the last stdout line reports the end-to-end metrics: ``wall_rel``, the
median over runs of the run's wall time over the wall time of the
calibration just before it, and medians of the rest.  With ``--trace 1``
traced and untraced runs alternate and it reports the per-layer metrics of
the traced ones, the untraced median ``wall_s`` and the tracing overhead.
Results, the environment record and the last traced run's spans are
written under ``.perfbench_out/last/``.  ``--record`` re-records the
reference outputs for every pool seed and the held-out seed of each
workload.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import tracer as tracing
import workloads

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = 1
RUN_DEADLINE_S = 170.0

END_TO_END = {"wall_rel": "ratio", "setup_s": "s", "peak_rss_mb": "MB"}


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["FRACBACK_THREADS"] = "1"
    for var in BLAS_THREAD_VARS:
        env[var] = str(BLAS_THREADS)
    return env


def run_child(root: Path, work_root: Path, workload: str, wseed: int, *,
              size: str = "bench", trace: bool = False, timeout: float = 150.0) -> dict:
    """Spawn one child run, wait for it with ``os.wait4`` and read its outputs.

    Returns the run's record; ``error`` is None only when the child exited 0
    and wrote its result.  The caller removes ``record["out"]``.
    """
    out = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=work_root))
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--workload-seed", str(wseed), "--src", str(root / "src"),
           "--out", str(out), "--size", size] + (["--trace"] if trace else [])
    killed = threading.Event()

    def kill():
        killed.set()
        proc.kill()

    with open(out / "log.txt", "wb") as log:
        t0 = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT,
                                env=child_env(root), cwd=root)
        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        t1 = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    rec = {"wall_s": t1 - t0, "setup_s": None, "peak_rss_mb": usage.ru_maxrss / 1024.0,
           "rc": proc.returncode, "error": None, "out": out, "trace": trace}
    result_path = out / "child.json"
    if killed.is_set():
        rec["error"] = f"timeout after {timeout:.0f} s"
    elif proc.returncode != 0 or not result_path.is_file():
        tail = (out / "log.txt").read_text(encoding="utf-8", errors="replace")[-2000:]
        rec["error"] = f"exit code {proc.returncode}: {tail}"
    else:
        child = json.loads(result_path.read_text(encoding="utf-8"))
        rec["setup_s"] = child["setup_mark"] - t0
        rec["layers"] = child.get("layers")
        try:
            rec["outputs"] = workloads.read_outputs(workload, out, child)
        except (OSError, KeyError, ValueError, IndexError) as exc:
            rec["error"] = f"unreadable outputs: {exc!r}"
    return rec


def run_calibration(root: Path, timeout: float = 60.0) -> float:
    """Wall time of one ``calibrate.py`` process, spawn to exit."""
    t0 = time.monotonic()
    proc = subprocess.Popen([sys.executable, str(HERE / "calibrate.py")],
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                            env=child_env(root), cwd=root)
    try:
        _, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise SystemExit(f"calibration timed out after {timeout:.0f} s")
    wall = time.monotonic() - t0
    if proc.returncode != 0:
        raise SystemExit(f"calibration failed: {err.decode(errors='replace')[-1000:]}")
    return wall


# ---------------------------------------------------------------------------
# environment record

def _git_commit(root: Path):
    if not (root / ".git").exists():
        return None
    res = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                         capture_output=True, text=True, check=False)
    return res.stdout.strip() or None


def _src_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(path.relative_to(root).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(root: Path, bench_seed: int, wseed: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "git_commit": _git_commit(root),
        "src_sha256": _src_digest(root),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": {var: str(BLAS_THREADS) for var in BLAS_THREAD_VARS},
        "FRACBACK_THREADS": "1",
        "bench_seed": bench_seed,
        "workload_seed": wseed,
        "load": "closed loop, one client, one fresh process per run",
    }


# ---------------------------------------------------------------------------
# measuring loop

def measure(root: Path, workload: str, wseed: int, ref: dict, seconds: float,
            trace: bool, keep: Path) -> tuple:
    """Back-to-back child runs until the next would end after ``seconds``.

    Untraced, every run follows a calibration run; returns the run records
    and the calibration wall times.
    """
    work_root = root / ".perfbench_out" / "work"
    work_root.mkdir(parents=True, exist_ok=True)
    records, calibration = [], []
    start = time.monotonic()
    while True:
        if not trace:
            calibration.append(run_calibration(root))
        elapsed = time.monotonic() - start
        traced = trace and len(records) % 2 == 1
        rec = run_child(root, work_root, workload, wseed, trace=traced,
                        timeout=max(1.0, RUN_DEADLINE_S - elapsed))
        if rec["error"] is None:
            bad = workloads.check_outputs(workload, rec["outputs"], ref)
            if bad:
                rec["error"] = "output check failed: " + "; ".join(bad)
        if rec["error"] is not None:
            shutil.copy(rec["out"] / "log.txt", keep / f"{workload}.failed.log")
        if traced and (rec["out"] / "spans.jsonl").is_file():
            shutil.copy(rec["out"] / "spans.jsonl", keep / f"{workload}.spans.jsonl")
        shutil.rmtree(rec.pop("out"), ignore_errors=True)
        records.append(rec)
        elapsed = time.monotonic() - start
        typical = statistics.median(r["wall_s"] for r in records)
        if calibration:
            typical += statistics.median(calibration)
        enough = len(records) >= (2 if trace else 1)
        if enough and (elapsed + typical > seconds or elapsed > RUN_DEADLINE_S / 2):
            return records, calibration


def _median(values, default=0.0):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else default


def end_to_end(records: list, calibration: list) -> dict:
    """``wall_rel``: median over runs of run wall time / calibration wall time.

    The host runs the same code up to ~1.5x slower for minutes at a time;
    each run is divided by the calibration run just before it, so the ratio
    cancels the host's speed and keeps the program's.  ``setup_s`` and
    ``peak_rss_mb`` are medians.
    """
    pairs = [(r, c) for r, c in zip(records, calibration) if r["error"] is None]
    pairs = pairs or list(zip(records, calibration))
    runs = [r for r, _ in pairs]
    out = {"wall_rel": {"value": _median(r["wall_s"] / c for r, c in pairs),
                        "unit": END_TO_END["wall_rel"]}}
    for name in ("setup_s", "peak_rss_mb"):
        out[name] = {"value": _median(r[name] for r in runs), "unit": END_TO_END[name]}
    return out


def per_layer(records: list) -> dict:
    traced = [r for r in records if r["trace"] and r.get("layers")]
    plain = [r for r in records if not r["trace"] and r["error"] is None]
    out = {}
    for name, unit in tracing.PER_LAYER.items():
        if name == "wall_s":
            value = _median(r["wall_s"] for r in plain)
        elif name == "trace.wall_s":
            value = _median(r["wall_s"] for r in traced)
        elif name == "trace.overhead_s":
            value = (_median(r["wall_s"] for r in traced)
                     - _median(r["wall_s"] for r in plain))
        else:
            value = _median(r["layers"][name] for r in traced)
        out[name] = {"value": value, "unit": unit}
    return out


def _describe(metrics: dict, records: list, calibration: list) -> None:
    ok = [r for r in records if r["error"] is None]
    for name, m in metrics.items():
        label = " (computed)" if name in tracing.COMPUTED else ""
        print(f"{name} = {m['value']:.6g} {m['unit']}{label}")
    if calibration and ok:
        walls = [r["wall_s"] for r in ok]
        quart = ""
        if len(ok) > 1:
            q = statistics.quantiles(walls, n=4)
            quart = f", quartiles {q[0]:.6g} .. {q[2]:.6g} s"
        print(f"wall_s = {statistics.median(walls):.6g} s (median{quart}, {len(ok)} runs; "
              f"no tail percentile: it needs at least 11 runs)")
        print(f"calibration_s = {statistics.median(calibration):.6g} s "
              f"(median of {len(calibration)} calibration runs)")
    failed = len(records) - len(ok)
    print(f"fail_rate = {failed / len(records):.6g} ratio ({failed} of {len(records)} runs)")
    for r in records:
        if r["error"] is not None:
            print(f"failed run: {r['error'][:500]}")


# ---------------------------------------------------------------------------
# reference recording

def record_references(root: Path, only=None) -> None:
    data = (json.loads(REFERENCE.read_text(encoding="utf-8")) if REFERENCE.is_file()
            else {"workloads": {}})
    data["git_commit"] = _git_commit(root)
    data["src_sha256"] = _src_digest(root)
    work_root = root / ".perfbench_out" / "work"
    work_root.mkdir(parents=True, exist_ok=True)
    for workload in only or workloads.WORKLOADS:
        refs = {}
        for wseed in workloads.seed_pool(workload) + [workloads.held_out_seed(workload)]:
            rec = run_child(root, work_root, workload, wseed)
            shutil.rmtree(rec.pop("out"), ignore_errors=True)
            if rec["error"] is not None:
                raise SystemExit(f"{workload} seed {wseed}: {rec['error']}")
            refs[str(wseed)] = rec["outputs"]
            print(f"recorded {workload} seed {wseed} in {rec['wall_s']:.2f} s", flush=True)
        data["workloads"][workload] = refs
    REFERENCE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0,
                    help="benchmark seed; selects the workload seed from its pool")
    ap.add_argument("--workload-seed", type=int, default=None,
                    help="explicit workload seed with recorded references "
                         "(e.g. the held-out seed)")
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true",
                    help="re-record reference outputs (all workloads, or --workload)")
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "fracback" / "__init__.py").is_file():
        print(f"error: no fracback sources under {root / 'src'}; "
              "run from the root of a fracback checkout", file=sys.stderr)
        return 2
    if args.record:
        record_references(root, [args.workload] if args.workload else None)
        return 0
    if args.workload is None:
        ap.error("--workload is required")

    wseed = (args.workload_seed if args.workload_seed is not None
             else workloads.workload_seed(args.workload, args.seed))
    refs = json.loads(REFERENCE.read_text(encoding="utf-8"))["workloads"][args.workload]
    if str(wseed) not in refs:
        print(f"error: no reference outputs for {args.workload} seed {wseed}",
              file=sys.stderr)
        return 2
    keep = root / ".perfbench_out" / "last"
    keep.mkdir(parents=True, exist_ok=True)
    env = environment(root, args.seed, wseed)
    records, calibration = measure(root, args.workload, wseed, refs[str(wseed)],
                                   args.seconds, bool(args.trace), keep)
    metrics = per_layer(records) if args.trace else end_to_end(records, calibration)
    failed = sum(r["error"] is not None for r in records)
    result = {"correct": failed == 0, "attempted": len(records), "failed": failed,
              "metrics": metrics}
    suffix = "trace" if args.trace else "result"
    (keep / f"{args.workload}.{suffix}.json").write_text(json.dumps(
        {"workload": args.workload, "environment": env, **result,
         "computed": list(tracing.COMPUTED) if args.trace else [],
         "calibration_s": calibration,
         "runs": [{k: v for k, v in r.items() if k not in ("layers", "outputs")}
                  for r in records]}, indent=1), encoding="utf-8")

    print(f"workload = {args.workload} (workload seed {wseed}), {len(records)} runs")
    print(f"environment = {json.dumps(env, sort_keys=True)}")
    _describe(metrics, records, calibration)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
