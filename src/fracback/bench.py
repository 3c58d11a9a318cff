"""Experiment harness: observations, noise injection, reconstruction runs,
table sweeps, and iteration-history logs with structured CSV/JSON output.

Observations follow the benchmark recipe: the direct problem is solved
on a fine nested reference grid, the terminal state is restricted to the
coarse reconstruction mesh by nodal sampling, and noise scaled by
delta * sup u(T) is added there.  Three noise modes are provided:

* ``paper_pointwise`` - an iid standard-normal draw per node (default);
* ``paper_scalar``    - a single standard-normal draw scaling a constant
                        field (the literal reading of the recipe);
* ``exact_l2``        - pointwise noise rescaled so the L2 perturbation
                        equals delta exactly.
"""

from __future__ import annotations

import json
import logging
import os
import time
import warnings
from dataclasses import dataclass, field, fields, asdict, replace
from pathlib import Path
from typing import Optional

import numpy as np

from fracback.backward import (
    BackwardConfig,
    convergence_order,
    fixed_point_reconstruct,
    select_parameters,
)
from fracback.fem import FemSystem, GridFunction, assemble, l2_error, l2_project, write_field_csv
from fracback.forward import TimeGrid, get_nonlinearity, solve_forward
from fracback.grid import build_interval_mesh, build_square_mesh, restrict_nodal

log = logging.getLogger(__name__)

_NOISE_MODES = ("paper_pointwise", "paper_scalar", "exact_l2")
_DESK_REFERENCE = {1: (512, 1000), 2: (128, 500)}
_PAPER_REFERENCE = {1: (1024, 1000), 2: (256, 1000)}


# ---------------------------------------------------------------------------
# initial data registry

@dataclass(frozen=True)
class InitialData:
    name: str
    dim: int
    func: object
    subdivide: bool = False   # discontinuous data wants subdivided quadrature


def _checkerboard_1d(x):
    return np.where(x <= 0.5, 1.0, 0.0)


def _checkerboard_2d(x, y):
    inside = ((x <= 0.5) & (y <= 0.5)) | ((x >= 0.5) & (y >= 0.5))
    return np.where(inside, 1.0, 0.0)


def get_initial_data(name: str, dim: int) -> InitialData:
    """Initial-data generators: smooth_sine, checkerboard, eigenmode:k[,l]."""
    if dim not in (1, 2):
        raise ValueError(f"dim must be 1 or 2, got {dim}")
    if name == "smooth_sine":
        if dim == 1:
            return InitialData(name, 1, lambda x: np.sin(2 * np.pi * x))
        return InitialData(name, 2,
                           lambda x, y: np.sin(2 * np.pi * x) * np.sin(2 * np.pi * y))
    if name == "checkerboard":
        fn = _checkerboard_1d if dim == 1 else _checkerboard_2d
        return InitialData(name, dim, fn, subdivide=True)
    if name.startswith("eigenmode"):
        _, _, suffix = name.partition(":")
        parts = [int(p) for p in suffix.split(",")] if suffix else [1]
        k = parts[0]
        l = parts[1] if len(parts) > 1 else k
        if dim == 1:
            return InitialData(name, 1, lambda x: np.sin(k * np.pi * x))
        return InitialData(name, 2,
                           lambda x, y: np.sin(k * np.pi * x) * np.sin(l * np.pi * y))
    raise ValueError(f"unknown initial data {name!r}")


# ---------------------------------------------------------------------------
# experiment specification

@dataclass
class NoiseSpec:
    delta: float
    mode: str = "paper_pointwise"
    seed: int = 0

    def __post_init__(self):
        if self.delta < 0.0:
            raise ValueError(f"noise level must be >= 0, got {self.delta}")
        if self.mode not in _NOISE_MODES:
            raise ValueError(f"noise mode must be one of {_NOISE_MODES}, got {self.mode!r}")


@dataclass
class ExperimentSpec:
    """Full description of one reconstruction run.

    Either (n, N, backward.gamma) are given explicitly, or ``preset``
    derives (gamma, h, tau) from the noise level, in which case n and N
    follow from h and tau, and n_ref snaps to the nearest multiple of n.
    """

    alpha: float
    T: float
    nonlinearity: str
    initial_data: str
    noise: NoiseSpec
    dim: int = 2
    n: Optional[int] = None
    N: Optional[int] = None
    n_ref: Optional[int] = None
    N_ref: Optional[int] = None
    preset: Optional[str] = None
    backward: dict = field(default_factory=dict)
    output_dir: str = "out"
    repetitions: int = 1

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ValueError(f"dim must be 1 or 2, got {self.dim}")
        if self.repetitions < 1:
            raise ValueError(f"repetitions must be >= 1, got {self.repetitions}")

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentSpec":
        _check_keys(data, cls, "experiment")
        data = dict(data)
        noise = data.get("noise")
        if isinstance(noise, NoiseSpec):
            pass
        elif isinstance(noise, dict):
            _check_keys(noise, NoiseSpec, "noise")
            data["noise"] = NoiseSpec(**noise)
        else:
            raise ValueError("experiment spec needs a 'noise' object")
        _check_keys(data.get("backward", {}), BackwardConfig, "backward")
        return cls(**data)

    @classmethod
    def from_json(cls, path) -> "ExperimentSpec":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))

    def to_dict(self) -> dict:
        return asdict(self)

    def resolved(self, paper_scale: bool = False) -> "ResolvedSpec":
        return _resolve(self, paper_scale)


def _check_keys(data: dict, kind, what: str) -> None:
    """Reject keys of ``data`` that are not fields of the dataclass ``kind``."""
    unknown = set(data) - {f.name for f in fields(kind)}
    if unknown:
        raise ValueError(f"unknown {what} fields: {sorted(unknown)}")


@dataclass
class ResolvedSpec:
    """Concrete run parameters after preset expansion and nesting checks."""

    spec: ExperimentSpec
    alpha: float
    T: float
    dim: int
    n: int
    N: int
    n_ref: int
    N_ref: int
    gamma: float
    h: float
    tau: float
    backward_kwargs: dict


def _nearest_multiple(n: int, target: int) -> int:
    return n * max(1, round(target / n))


def _resolve(spec: ExperimentSpec, paper_scale: bool) -> ResolvedSpec:
    if paper_scale:
        warnings.warn("paper-scale reference grids selected; expect a long run",
                      RuntimeWarning, stacklevel=2)
    ref_defaults = (_PAPER_REFERENCE if paper_scale else _DESK_REFERENCE)[spec.dim]
    n_ref_target = spec.n_ref if spec.n_ref is not None else ref_defaults[0]
    N_ref = spec.N_ref if spec.N_ref is not None else ref_defaults[1]
    backward_kwargs = dict(spec.backward)

    if spec.preset is not None:
        params = select_parameters(spec.noise.delta, preset=spec.preset)
        gamma = backward_kwargs.pop("gamma", params["gamma"])
        n = spec.n if spec.n is not None else max(2, round(1.0 / params["h"]))
        N = spec.N if spec.N is not None else max(1, round(spec.T / params["tau"]))
        n_ref = _nearest_multiple(n, n_ref_target)
    else:
        if spec.n is None or spec.N is None:
            raise ValueError("without a preset, both n and N must be given")
        if "gamma" not in backward_kwargs:
            raise ValueError("without a preset, backward.gamma must be given")
        gamma = backward_kwargs.pop("gamma")
        n, N = spec.n, spec.N
        n_ref = n_ref_target
        if n_ref % n != 0:
            raise ValueError(f"meshes not nested: n={n} does not divide n_ref={n_ref}")
    if N > N_ref:
        raise ValueError(f"reconstruction steps N={N} exceed reference N_ref={N_ref}")
    return ResolvedSpec(spec=spec, alpha=spec.alpha, T=spec.T, dim=spec.dim,
                        n=n, N=N, n_ref=n_ref, N_ref=N_ref, gamma=gamma,
                        h=1.0 / n, tau=spec.T / N,
                        backward_kwargs=backward_kwargs)


# ---------------------------------------------------------------------------
# observation pipeline

def _assemble(dim: int, n: int) -> FemSystem:
    return assemble(build_interval_mesh(n) if dim == 1 else build_square_mesh(n))


def _clean_observation(res: ResolvedSpec, coarse: Optional[FemSystem] = None):
    """Fine-grid solve restricted to the coarse mesh (noise-free).

    Returns ``(coarse, g_clean)``.  The coarse system is assembled unless
    given.  The fine system lives for this solve only, unless the meshes
    coincide (n_ref = n): then the coarse system is solved on and keeps
    the step factor for the reconstruction.
    """
    spec = res.spec
    if coarse is None:
        coarse = _assemble(res.dim, res.n)
    fine = coarse if res.n_ref == res.n else _assemble(res.dim, res.n_ref)
    data = get_initial_data(spec.initial_data, res.dim)
    u0_fine = l2_project(fine, data.func, subdivide=data.subdivide)
    grid_ref = TimeGrid(T=res.T, N=res.N_ref, alpha=res.alpha)
    f = get_nonlinearity(spec.nonlinearity)
    terminal = solve_forward(fine, grid_ref, u0_fine, f)[-1]
    full_coarse = restrict_nodal(fine.mesh, coarse.mesh, fine.full_values(terminal))
    g_clean = GridFunction(coarse, full_coarse[coarse.interior_ids])
    return coarse, g_clean


def make_observation(spec: ExperimentSpec, *, paper_scale: bool = False,
                     seed: Optional[int] = None,
                     clean: Optional[GridFunction] = None):
    """Build (g_clean, g_noisy, achieved_noise_l2) on the coarse mesh.

    ``clean`` is a noise-free observation of ``spec`` returned by an
    earlier call; it is reused instead of a new fine-grid solve.
    """
    g_clean = clean
    if g_clean is None:
        _, g_clean = _clean_observation(spec.resolved(paper_scale))
    coarse = g_clean.system
    delta = spec.noise.delta
    if delta == 0.0:
        return g_clean, g_clean.copy(), 0.0
    rng = np.random.default_rng(spec.noise.seed if seed is None else seed)
    sup_g = max(float(g_clean.full_values().max()), 0.0)
    if spec.noise.mode == "paper_pointwise":
        pert = delta * sup_g * rng.standard_normal(coarse.num_dofs)
    elif spec.noise.mode == "paper_scalar":
        pert = delta * sup_g * float(rng.standard_normal()) * np.ones(coarse.num_dofs)
    else:  # exact_l2
        pert = rng.standard_normal(coarse.num_dofs)
        norm = float(np.sqrt(pert @ (coarse.M @ pert)))
        pert *= delta / norm
    achieved = float(np.sqrt(pert @ (coarse.M @ pert)))
    g_noisy = GridFunction(coarse, g_clean.values + pert)
    return g_clean, g_noisy, achieved


# ---------------------------------------------------------------------------
# reconstruction runs

def _run_single(spec: ExperimentSpec, *, paper_scale: bool = False,
                seed: Optional[int] = None, clean: Optional[GridFunction] = None):
    """One reconstruction; ``clean`` as in :func:`make_observation`."""
    res = spec.resolved(paper_scale)
    t0 = time.perf_counter()
    _, g_noisy, achieved = make_observation(spec, paper_scale=paper_scale, seed=seed,
                                            clean=clean)
    coarse = g_noisy.system
    data = get_initial_data(spec.initial_data, res.dim)
    truth = l2_project(coarse, data.func, subdivide=data.subdivide)
    grid = TimeGrid(T=res.T, N=res.N, alpha=res.alpha)
    f = get_nonlinearity(spec.nonlinearity)
    cfg = BackwardConfig(gamma=res.gamma, **res.backward_kwargs)
    result = fixed_point_reconstruct(coarse, grid, g_noisy, f, cfg, truth=truth)
    e_u = l2_error(coarse, result.u0_hat, truth, relative=True)
    runtime = time.perf_counter() - t0
    row = {
        "alpha": res.alpha,
        "delta": spec.noise.delta,
        "gamma": res.gamma,
        "h": res.h,
        "tau": res.tau,
        "n": res.n,
        "N": res.N,
        "seed": spec.noise.seed if seed is None else seed,
        "e_u": e_u,
        "achieved_noise_l2": achieved,
        "outer_iters": result.outer_iters,
        "converged": result.converged,
        "diverged": result.diverged,
        "runtime": runtime,
        # how F^N was applied and the observed contraction; row.json only
        "F_mode": result.propagator["mode"],
        "F_degree": result.propagator["degree"],
        "F_bound": result.propagator["bound"],
        "update_ratios": result.update_ratios,
    }
    return row, result


def run_reconstruction(spec: ExperimentSpec, *, paper_scale: bool = False) -> dict:
    """Full pipeline for one spec; returns the summary row."""
    return _run_single(spec, paper_scale=paper_scale)[0]


def _derived_seed(master: int, row_index: int, rep: int) -> int:
    ss = np.random.SeedSequence([int(master), int(row_index), int(rep)])
    return int(ss.generate_state(1, np.uint64)[0])


def _cell_tag(alpha: float, delta: float) -> str:
    """File-name tag of an (alpha, delta) cell, e.g. a0p5_d0p0125."""
    return f"a{alpha:g}_d{delta:g}".replace(".", "p")


def run_table(spec: ExperimentSpec, deltas, alphas=None, *,
              paper_scale: bool = False) -> dict:
    """Sweep (alpha, delta) cells with repetitions; write table/field/history CSVs.

    Returns {"alphas", "deltas", "errors" (mean e_u per cell), "orders",
    "rows"}.  Worker count follows FRACBACK_THREADS (default 1); results
    are written in deterministic row order regardless of schedule.  Each
    finished cell is logged at INFO level on this module's logger.
    """
    deltas = list(deltas)
    if len(deltas) < 2:
        raise ValueError("need at least two noise levels for a table")
    if any(d2 >= d1 for d1, d2 in zip(deltas, deltas[1:])):
        raise ValueError("noise levels must be strictly decreasing")
    alphas = list(alphas) if alphas is not None else [spec.alpha]
    out_dir = Path(spec.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    cells = []
    for ai, alpha in enumerate(alphas):
        for di, delta in enumerate(deltas):
            row_index = ai * len(deltas) + di
            cells.append((row_index, alpha, delta))

    threads = max(1, int(os.environ.get("FRACBACK_THREADS", "1")))
    jobs = []
    for row_index, alpha, delta in cells:
        cell_spec = replace(spec, alpha=alpha, noise=replace(spec.noise, delta=delta))
        seeds = [_derived_seed(spec.noise.seed, row_index, r)
                 for r in range(spec.repetitions)]
        jobs.append((cell_spec, seeds, paper_scale))

    t_start = time.perf_counter()
    # cells ordered by coarse mesh and cut into one contiguous chunk per
    # worker, no more workers than cells: a chunk's cells share a system
    # (and its eigensolve) per mesh, so a mesh is factored at most once per
    # worker while every worker keeps reference solves to run; results go
    # back to row order
    def mesh(i):
        res = jobs[i][0].resolved(paper_scale)
        return res.dim, res.n

    order = sorted(range(len(jobs)), key=mesh)
    workers = min(threads, len(jobs))
    chunks = [order[k * len(order) // workers:(k + 1) * len(order) // workers]
              for k in range(workers)]
    chunk_jobs = [[jobs[i] for i in c] for c in chunks]
    if len(chunks) == 1:
        done = map(_table_cells, chunk_jobs)
    else:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=len(chunks)) as pool:
            done = list(pool.map(_table_cells, chunk_jobs))
    cell_results = [None] * len(jobs)
    for chunk, results in zip(chunks, done):
        for i, result in zip(chunk, results):
            cell_results[i] = result

    rows = []
    errors = np.zeros((len(alphas), len(deltas)))
    for (row_index, alpha, delta), (cell_rows, field_gf, hist) in zip(cells, cell_results):
        rows.extend(cell_rows)
        errors[row_index // len(deltas), row_index % len(deltas)] = float(
            np.mean([r["e_u"] for r in cell_rows]))
        tag = _cell_tag(alpha, delta)
        write_field_csv(field_gf, out_dir / f"field_u0hat_{tag}.csv")
        _write_history_csv(hist, out_dir / f"history_{tag}.csv")
        log.info("[table] alpha=%g delta=%g e_u=%.4e", alpha, delta,
                 errors[row_index // len(deltas), row_index % len(deltas)])

    orders = []
    for ai in range(len(alphas)):
        orders.append(convergence_order(list(zip(deltas, errors[ai]))))
    _write_table_csv(out_dir / "table.csv", alphas, deltas, errors, orders)
    manifest = {
        "spec": spec.to_dict(),
        "deltas": deltas,
        "alphas": alphas,
        "toolkit_version": _version(),
        "paper_scale": paper_scale,
        "wall_time_s": time.perf_counter() - t_start,
    }
    with open(out_dir / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
    return {"alphas": alphas, "deltas": deltas, "errors": errors,
            "orders": orders, "rows": rows}


def _table_cell(job, systems):
    """One (alpha, delta) cell: one reference solve, then every repetition on
    its clean observation; the first seed keeps artifacts.

    ``systems`` maps (dim, n) to the coarse systems of the sweep.
    """
    cell_spec, seeds, paper_scale = job
    res = cell_spec.resolved(paper_scale)
    key = (res.dim, res.n)
    if key not in systems:
        systems[key] = _assemble(*key)
    _, g_clean = _clean_observation(res, systems[key])
    cell_rows = []
    first_field = None
    first_hist = None
    for rep, seed in enumerate(seeds):
        row, result = _run_single(cell_spec, paper_scale=paper_scale, seed=seed,
                                  clean=g_clean)
        cell_rows.append(row)
        if rep == 0:
            first_field = result.u0_hat
            first_hist = result.history
    return cell_rows, first_field, first_hist


def _table_cells(jobs):
    """A worker's chunk of cells, in order, sharing one system per mesh."""
    systems = {}
    return [_table_cell(job, systems) for job in jobs]


def run_iteration_history(spec: ExperimentSpec, *, paper_scale: bool = False):
    """One reconstruction with per-iteration error logging; writes history CSV."""
    row, result = _run_single(spec, paper_scale=paper_scale)
    out_dir = Path(spec.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"history_{_cell_tag(spec.alpha, spec.noise.delta)}.csv"
    _write_history_csv(result.history, path)
    return row, result.history, str(path)


# ---------------------------------------------------------------------------
# writers

def _version() -> str:
    from fracback import __version__
    return __version__


def _write_history_csv(history, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("iter,update_norm,error_vs_truth,cg_iters,cumulative_forward_solves\n")
        for h in history:
            err = "" if h["error_vs_truth"] is None else f"{h['error_vs_truth']:.12e}"
            fh.write(f"{h['iter']},{h['update_norm']:.12e},{err},"
                     f"{h['cg_iters']},{h['forward_solves']}\n")


def _write_table_csv(path, alphas, deltas, errors, orders):
    with open(path, "w", encoding="utf-8") as fh:
        labels = ",".join(f"delta={d:.8g}" for d in deltas)
        fh.write(f"alpha,metric,{labels}\n")
        for ai, alpha in enumerate(alphas):
            errs = ",".join(f"{e:.6e}" for e in errors[ai])
            fh.write(f"{alpha:g},e_u,{errs}\n")
            ords = ",".join([""] + [f"{o:.4f}" for o in orders[ai]])
            fh.write(f"{alpha:g},order,{ords}\n")
