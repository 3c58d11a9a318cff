"""Experiment harness: observations, noise injection, reconstruction runs,
table sweeps, and iteration-history logs with structured CSV/JSON output.

Observations follow the benchmark recipe: the direct problem is solved
on a fine nested reference grid, the terminal state is restricted to the
coarse reconstruction mesh by nodal sampling, and noise is added there:
an iid standard-normal draw per coarse node, scaled by delta * sup u(T).
"""

from __future__ import annotations

import json
import logging
import math
import os
import time
from dataclasses import dataclass, field, fields, asdict, replace
from pathlib import Path
from typing import Optional, get_args, get_type_hints

import numpy as np

from fracback.backward import (
    BackwardConfig,
    convergence_order,
    fixed_point_reconstruct,
    select_parameters,
)
from fracback.fem import FemSystem, GridFunction, assemble, l2_error, l2_project, write_field_csv
from fracback.forward import Nonlinearity, TimeGrid, get_nonlinearity, solve_forward
from fracback.grid import build_interval_mesh, build_square_mesh, restrict_nodal

log = logging.getLogger(__name__)

_DESK_REFERENCE = {1: (512, 1000), 2: (128, 500)}


# ---------------------------------------------------------------------------
# initial data registry

@dataclass(frozen=True)
class InitialData:
    name: str
    func: object
    subdivide: bool = False   # discontinuous data wants subdivided quadrature


def _checkerboard_1d(x):
    return np.where(x <= 0.5, 1.0, 0.0)


def _checkerboard_2d(x, y):
    inside = ((x <= 0.5) & (y <= 0.5)) | ((x >= 0.5) & (y >= 0.5))
    return np.where(inside, 1.0, 0.0)


def _sine_product(modes):
    """x -> prod_i sin(k_i pi x_i) over the coordinates given, k_i = modes[i]."""
    return lambda *x: math.prod(np.sin(k * np.pi * xi) for k, xi in zip(modes, x))


def get_initial_data(name: str, dim: int) -> InitialData:
    """Initial-data generators: smooth_sine, checkerboard, eigenmode:k[,l].

    Only ``eigenmode`` takes parameters: the mode numbers k (and l in 2D,
    which defaults to k); ``"eigenmode"`` alone is mode 1.
    """
    if dim not in (1, 2):
        raise ValueError(f"dim must be 1 or 2, got {dim}")
    if name == "smooth_sine":
        return InitialData(name, _sine_product((2,) * dim))
    if name == "checkerboard":
        fn = _checkerboard_1d if dim == 1 else _checkerboard_2d
        return InitialData(name, fn, subdivide=True)
    base, colon, suffix = name.partition(":")
    if base == "eigenmode":
        try:
            modes = [int(p) for p in suffix.split(",")] if colon else [1]
        except ValueError:
            modes = []
        if not 1 <= len(modes) <= dim or min(modes) < 1:
            raise ValueError(f"initial data {name!r}: eigenmode takes up to {dim} "
                             "positive mode numbers, eigenmode:k[,l]")
        return InitialData(name, _sine_product((modes[0], modes[-1])[:dim]))
    raise ValueError(f"unknown initial data {name!r}")


# ---------------------------------------------------------------------------
# experiment specification

@dataclass
class NoiseSpec:
    delta: float
    seed: int = 0

    def __post_init__(self):
        if not (np.isfinite(self.delta) and self.delta >= 0.0):
            raise ValueError(f"noise level must be finite and >= 0, got {self.delta}")
        if self.seed < 0:
            raise ValueError(f"noise seed must be >= 0, got {self.seed}")


@dataclass
class ExperimentSpec:
    """Full description of one reconstruction run.

    Either (n, N, backward.gamma) are given explicitly, or ``preset``
    derives (gamma, h, tau) from the noise level, in which case n and N
    follow from h and tau.  An unset n_ref, or any n_ref under a preset,
    snaps to the nearest multiple of n; an unset N_ref is N or the desk
    default, whichever is larger.
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
        if not isinstance(data, dict):
            raise ValueError(f"experiment spec must be a JSON object, got {type(data).__name__}")
        noise = data.get("noise")
        if not isinstance(noise, dict):
            raise ValueError("experiment spec needs a 'noise' object")
        _check_fields(data, cls, "experiment")
        _check_fields(noise, NoiseSpec, "noise")
        _check_fields(data.get("backward", {}), BackwardConfig, "backward")
        try:
            return cls(**dict(data, noise=NoiseSpec(**noise)))
        except TypeError as exc:
            raise ValueError(f"invalid experiment spec: {exc}") from exc

    @classmethod
    def from_json(cls, path) -> "ExperimentSpec":
        """Read and check a spec file; a directory, malformed JSON or a
        document that is not a valid spec object raise ``ValueError``."""
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except IsADirectoryError:
            raise ValueError(f"config {path} is a directory, not a JSON file") from None
        return cls.from_dict(data)

    def to_dict(self) -> dict:
        return asdict(self)

    def resolved(self) -> "ResolvedSpec":
        try:
            return _resolve(self)
        except TypeError as exc:
            raise ValueError(f"invalid experiment spec: {exc}") from exc


# JSON types a field annotation accepts, where they differ from the annotation
_JSON_TYPES = {float: (int, float), NoiseSpec: dict}


def _check_fields(data: dict, kind, what: str) -> None:
    """Reject keys of ``data`` that are not fields of the dataclass ``kind``,
    and values whose JSON type does not fit their field's annotation.

    An int field takes a JSON integer, a float field an integer or a
    float, neither a boolean; an ``Optional`` field also takes null.
    """
    unknown = set(data) - {f.name for f in fields(kind)}
    if unknown:
        raise ValueError(f"unknown {what} fields: {sorted(unknown)}")
    hints = get_type_hints(kind)
    for name, value in data.items():
        types = get_args(hints[name]) or (hints[name],)
        nullable = type(None) in types
        if value is None and nullable:
            continue
        if isinstance(value, bool) or not isinstance(value, _JSON_TYPES.get(types[0], types[0])):
            raise ValueError(f"{what} field {name!r} must be {types[0].__name__}"
                             f"{' or null' if nullable else ''}, got {value!r}")


@dataclass
class ResolvedSpec:
    """Everything one run is made of, built and validated before any solve.

    ``grid`` and ``grid_ref`` are the time grids of the reconstruction (on
    n cells per side) and of the fine reference solve (on n_ref).
    """

    spec: ExperimentSpec
    dim: int
    n: int
    n_ref: int
    grid: TimeGrid
    grid_ref: TimeGrid
    config: BackwardConfig
    f: Nonlinearity
    data: InitialData


def _nearest_multiple(n: int, target: int) -> int:
    return n * max(1, round(target / n))


def _resolve(spec: ExperimentSpec) -> ResolvedSpec:
    for name, value in (("n", spec.n), ("n_ref", spec.n_ref)):
        if value is not None and value < 2:
            raise ValueError(f"a mesh needs {name} >= 2 cells per side, got {value}")
    backward = dict(spec.backward)

    if spec.preset is not None:
        params = select_parameters(spec.noise.delta, preset=spec.preset)
        backward.setdefault("gamma", params["gamma"])
        n = spec.n if spec.n is not None else max(2, round(1.0 / params["h"]))
        N = spec.N if spec.N is not None else max(1, round(spec.T / params["tau"]))
    else:
        if spec.n is None or spec.N is None:
            raise ValueError("without a preset, both n and N must be given")
        if "gamma" not in backward:
            raise ValueError("without a preset, backward.gamma must be given")
        n, N = spec.n, spec.N
    n_ref_default, N_ref_default = _DESK_REFERENCE[spec.dim]
    n_ref = spec.n_ref if spec.n_ref is not None else n_ref_default
    if spec.preset is not None or spec.n_ref is None:
        n_ref = _nearest_multiple(n, n_ref)
    elif n_ref % n != 0:
        raise ValueError(f"meshes not nested: n={n} does not divide n_ref={n_ref}")
    N_ref = spec.N_ref if spec.N_ref is not None else max(N_ref_default, N)
    if N > N_ref:
        raise ValueError(f"reconstruction steps N={N} exceed reference N_ref={N_ref}")
    return ResolvedSpec(spec=spec, dim=spec.dim, n=n, n_ref=n_ref,
                        grid=TimeGrid(T=spec.T, N=N, alpha=spec.alpha),
                        grid_ref=TimeGrid(T=spec.T, N=N_ref, alpha=spec.alpha),
                        config=BackwardConfig(**backward),
                        f=get_nonlinearity(spec.nonlinearity),
                        data=get_initial_data(spec.initial_data, spec.dim))


# ---------------------------------------------------------------------------
# observation pipeline

def _assemble(dim: int, n: int) -> FemSystem:
    return assemble(build_interval_mesh(n) if dim == 1 else build_square_mesh(n))


def _clean_observation(res: ResolvedSpec,
                       coarse: Optional[FemSystem] = None) -> GridFunction:
    """Fine-grid solve restricted to the coarse mesh (noise-free).

    The coarse system is assembled unless given.  The fine system lives
    for this solve only, unless the meshes coincide (n_ref = n): then the
    coarse system is solved on and keeps the step factor for the
    reconstruction.
    """
    if coarse is None:
        coarse = _assemble(res.dim, res.n)
    fine = coarse if res.n_ref == res.n else _assemble(res.dim, res.n_ref)
    u0_fine = l2_project(fine, res.data.func, subdivide=res.data.subdivide)
    terminal = solve_forward(fine, res.grid_ref, u0_fine, res.f)[-1]
    full_coarse = restrict_nodal(fine.mesh, coarse.mesh, fine.full_values(terminal))
    return GridFunction(coarse, full_coarse[coarse.interior_ids])


def make_observation(spec: ExperimentSpec, *, seed: Optional[int] = None,
                     clean: Optional[GridFunction] = None):
    """Build (g_clean, g_noisy, achieved_noise_l2) on the coarse mesh.

    g_noisy = g_clean + delta * sup g_clean * xi, with xi one standard
    normal draw per coarse node from ``seed`` if given, else from
    ``spec.noise.seed``; delta = 0 gives a noise-free copy.  ``clean`` is
    the noise-free observation of ``spec`` (see
    :func:`_clean_observation`); without it, the spec is resolved and the
    fine reference solve runs here.
    """
    g_clean = clean
    if g_clean is None:
        g_clean = _clean_observation(spec.resolved())
    coarse = g_clean.system
    delta = spec.noise.delta
    if delta == 0.0:
        return g_clean, g_clean.copy(), 0.0
    rng = np.random.default_rng(spec.noise.seed if seed is None else seed)
    sup_g = max(float(g_clean.full_values().max()), 0.0)
    pert = delta * sup_g * rng.standard_normal(coarse.num_dofs)
    achieved = float(np.sqrt(pert @ (coarse.M @ pert)))
    g_noisy = GridFunction(coarse, g_clean.values + pert)
    return g_clean, g_noisy, achieved


# ---------------------------------------------------------------------------
# reconstruction runs

def _run_single(res: ResolvedSpec, *, seed: Optional[int] = None,
                clean: Optional[GridFunction] = None,
                truth: Optional[GridFunction] = None):
    """One reconstruction of ``res``: returns (summary row, result).

    ``clean`` (from :func:`_clean_observation`) and ``truth``, the projected
    initial data, are shared by repetitions; without them the fine reference
    solve and the projection run here.  ``seed`` overrides the noise seed.
    """
    spec = res.spec
    t0 = time.perf_counter()
    if clean is None:
        clean = _clean_observation(res)
    _, g_noisy, achieved = make_observation(spec, seed=seed, clean=clean)
    coarse = g_noisy.system
    if truth is None:
        truth = l2_project(coarse, res.data.func, subdivide=res.data.subdivide)
    result = fixed_point_reconstruct(coarse, res.grid, g_noisy, res.f, res.config,
                                     truth=truth)
    e_u = l2_error(coarse, result.u0_hat, truth, relative=True)
    runtime = time.perf_counter() - t0
    row = {
        "alpha": res.grid.alpha,
        "delta": spec.noise.delta,
        "gamma": res.config.gamma,
        "h": 1.0 / res.n,
        "tau": res.grid.tau,
        "n": res.n,
        "N": res.grid.N,
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


def run_reconstruction(spec: ExperimentSpec) -> dict:
    """Full pipeline for one spec; returns the summary row."""
    return _run_single(spec.resolved())[0]


def _derived_seed(master: int, row_index: int, rep: int) -> int:
    ss = np.random.SeedSequence([int(master), int(row_index), int(rep)])
    return int(ss.generate_state(1, np.uint64)[0])


def _cell_tag(alpha: float, delta: float) -> str:
    """File-name tag of an (alpha, delta) cell, e.g. a0p5_d0p0125."""
    return f"a{alpha:g}_d{delta:g}".replace(".", "p")


def run_table(spec: ExperimentSpec, deltas, alphas=None) -> dict:
    """Sweep (alpha, delta) cells with repetitions; write table/field/history CSVs.

    Returns {"alphas", "deltas", "errors" (mean e_u per cell), "orders",
    "rows"}.  Every cell is resolved, and so validated, before the first
    solve; two cells with the same file tag are refused.  Worker count
    follows FRACBACK_THREADS (default 1).  Each cell writes its field and
    history CSVs when it finishes; rows come back in deterministic row
    order regardless of schedule.  Each finished cell
    is logged at INFO level on this module's logger.
    """
    deltas = list(deltas)
    if len(deltas) < 2:
        raise ValueError("need at least two noise levels for a table")
    if any(d2 >= d1 for d1, d2 in zip(deltas, deltas[1:])):
        raise ValueError("noise levels must be strictly decreasing")
    if not all(d > 0 for d in deltas):
        raise ValueError(f"a table's noise levels must be > 0, got {deltas}")
    alphas = list(alphas) if alphas is not None else [spec.alpha]

    cells = []
    for ai, alpha in enumerate(alphas):
        for di, delta in enumerate(deltas):
            row_index = ai * len(deltas) + di
            cells.append((row_index, alpha, delta))
    tags = [_cell_tag(alpha, delta) for _, alpha, delta in cells]
    repeated = sorted({tag for tag in tags if tags.count(tag) > 1})
    if repeated:
        raise ValueError(f"cells would overwrite each other's files: repeated tags {repeated}")

    raw = os.environ.get("FRACBACK_THREADS", "1")
    try:
        threads = max(1, int(raw))
    except ValueError:
        raise ValueError(f"FRACBACK_THREADS must be an integer, got {raw!r}") from None
    jobs = []
    for (row_index, alpha, delta), tag in zip(cells, tags):
        cell_spec = replace(spec, alpha=alpha, noise=replace(spec.noise, delta=delta))
        seeds = [_derived_seed(spec.noise.seed, row_index, r)
                 for r in range(spec.repetitions)]
        jobs.append((cell_spec, seeds, tag))
    # every cell is resolved, and so validated, before the first solve; the
    # workers resolve theirs again, since the resolved nonlinearity and
    # initial data hold lambdas, which do not pickle
    meshes = []
    for cell_spec, _, _ in jobs:
        res = cell_spec.resolved()
        meshes.append((res.dim, res.n))
    out_dir = _make_output_dir(spec.output_dir)

    t_start = time.perf_counter()
    # cells ordered by coarse mesh and cut into one contiguous chunk per
    # worker, no more workers than cells: a chunk's cells share a system
    # (and its eigensolve) per mesh, so a mesh is factored at most once per
    # worker while every worker keeps reference solves to run; each cell
    # writes its own field and history files, and its rows go back to row
    # order
    order = sorted(range(len(jobs)), key=lambda i: meshes[i])
    workers = min(threads, len(jobs))
    chunks = [order[k * len(order) // workers:(k + 1) * len(order) // workers]
              for k in range(workers)]
    chunk_jobs = [(out_dir, [jobs[i] for i in c]) for c in chunks]
    if len(chunks) == 1:
        done = map(_table_cells, chunk_jobs)
    else:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=len(chunks)) as pool:
            done = list(pool.map(_table_cells, chunk_jobs))
    cell_rows = [None] * len(jobs)
    for chunk, results in zip(chunks, done):
        for i, result in zip(chunk, results):
            cell_rows[i] = result

    rows = []
    errors = np.zeros((len(alphas), len(deltas)))
    for (row_index, alpha, delta), cell in zip(cells, cell_rows):
        rows.extend(cell)
        errors[row_index // len(deltas), row_index % len(deltas)] = float(
            np.mean([r["e_u"] for r in cell]))
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
        "wall_time_s": time.perf_counter() - t_start,
    }
    with open(out_dir / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
    return {"alphas": alphas, "deltas": deltas, "errors": errors,
            "orders": orders, "rows": rows}


def _table_cell(job, systems, out_dir):
    """One (alpha, delta) cell: one reference solve and one projection of the
    truth, then every repetition on them.  Writes the first seed's field and
    history files into ``out_dir`` and returns the summary rows.

    ``systems`` maps (dim, n) to the coarse systems of the sweep.
    """
    cell_spec, seeds, tag = job
    res = cell_spec.resolved()
    key = (res.dim, res.n)
    if key not in systems:
        systems[key] = _assemble(*key)
    g_clean = _clean_observation(res, systems[key])
    truth = l2_project(systems[key], res.data.func, subdivide=res.data.subdivide)
    runs = [_run_single(res, seed=seed, clean=g_clean, truth=truth) for seed in seeds]
    first = runs[0][1]
    write_field_csv(first.u0_hat, out_dir / f"field_u0hat_{tag}.csv")
    _write_history_csv(first.history, out_dir / f"history_{tag}.csv")
    return [row for row, _ in runs]


def _table_cells(chunk):
    """A worker's chunk ``(out_dir, jobs)`` of cells, in order, sharing one
    system per mesh."""
    out_dir, jobs = chunk
    systems = {}
    return [_table_cell(job, systems, out_dir) for job in jobs]


# ---------------------------------------------------------------------------
# writers

def _version() -> str:
    from fracback import __version__
    return __version__


def _make_output_dir(path) -> Path:
    """Create a run's output directory; one that cannot be made, say a file
    or a path beneath one, raises ``ValueError`` naming it."""
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ValueError(f"cannot create output_dir {path!r}: {exc.strerror}") from None
    return out


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
