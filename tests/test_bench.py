import concurrent.futures
import dataclasses
import gc
import json
import logging
import math
import weakref

import numpy as np
import pytest
import scipy.linalg

from fracback import bench, forward
from fracback.backward import BackwardConfig
from fracback.bench import (
    ExperimentSpec,
    NoiseSpec,
    get_initial_data,
    make_observation,
    run_reconstruction,
    run_table,
    _clean_observation,
    _derived_seed,
    _run_single,
)
from fracback.fem import NumericalFailure, assemble, l2_norm, l2_project, GridFunction
from fracback.grid import build_interval_mesh, build_square_mesh, restrict_nodal


def small_spec(**overrides):
    base = dict(
        alpha=0.5, T=1.0, nonlinearity="sqrt1pu2", initial_data="smooth_sine",
        noise=NoiseSpec(delta=1e-3, seed=42),
        dim=1, n=16, N=20, n_ref=64, N_ref=50,
        backward={"gamma": 1e-3},
        output_dir="out", repetitions=1)
    base.update(overrides)
    return ExperimentSpec(**base)


def test_initial_data_registry():
    d1 = get_initial_data("smooth_sine", 1)
    assert d1.func(np.array([0.25]))[0] == pytest.approx(1.0)
    d2 = get_initial_data("smooth_sine", 2)
    assert d2.func(np.array([0.25]), np.array([0.25]))[0] == pytest.approx(1.0)
    cb = get_initial_data("checkerboard", 2)
    assert cb.subdivide
    assert cb.func(np.array([0.2]), np.array([0.2]))[0] == 1.0
    assert cb.func(np.array([0.2]), np.array([0.8]))[0] == 0.0
    em = get_initial_data("eigenmode:2", 1)
    assert em.func(np.array([0.25]))[0] == pytest.approx(1.0)
    em2 = get_initial_data("eigenmode:1,2", 2)
    assert em2.func(np.array([0.5]), np.array([0.25]))[0] == pytest.approx(1.0)
    for name, dim in (("nope", 2), ("smooth_sine:2", 2), ("eigenmodefoo:2", 2),
                      ("eigenmode:", 2), ("eigenmode:0", 1), ("eigenmode:1,2", 1),
                      ("eigenmode:1,2,3", 2)):
        with pytest.raises(ValueError):
            get_initial_data(name, dim)


def test_noise_spec_validation():
    with pytest.raises(ValueError):
        NoiseSpec(delta=-0.1)
    for delta in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite and >= 0"):
            NoiseSpec(delta=delta)
    with pytest.raises(ValueError, match="noise seed must be >= 0"):
        NoiseSpec(delta=0.1, seed=-1)


def test_spec_rejects_unknown_fields():
    data = small_spec().to_dict()
    data["bogus"] = 1
    with pytest.raises(ValueError):
        ExperimentSpec.from_dict(data)
    data = small_spec().to_dict()
    data["noise"]["extra"] = 2
    with pytest.raises(ValueError):
        ExperimentSpec.from_dict(data)
    # the one noise recipe has no mode to select
    data = small_spec().to_dict()
    data["noise"]["mode"] = "paper_pointwise"
    with pytest.raises(ValueError, match=r"unknown noise fields: \['mode'\]"):
        ExperimentSpec.from_dict(data)
    data = small_spec().to_dict()
    data["backward"]["hmm"] = 3
    with pytest.raises(ValueError):
        ExperimentSpec.from_dict(data)


def test_spec_checks_json_types():
    # each value must fit its field's annotation; the error names the field
    for path, value in ((("noise", "seed"), "7"), (("noise", "seed"), 7.0), (("n",), 8.0),
                        (("repetitions",), True), (("output_dir",), 5),
                        (("backward", "fp_max"), 3.0), (("backward", "gamma"), False),
                        (("preset",), 1), (("backward",), [])):
        data = small_spec().to_dict()
        node = data
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        with pytest.raises(ValueError, match=f"field '{path[-1]}' must be"):
            ExperimentSpec.from_dict(data)
    # an integer fits a float field, null an Optional one
    data = small_spec().to_dict()
    data.update(alpha=1, T=2, n_ref=None)
    data["noise"]["delta"] = 0
    data["backward"]["gamma"] = 1
    spec = ExperimentSpec.from_dict(data)
    assert (spec.alpha, spec.T, spec.n_ref, spec.noise.delta) == (1, 2, None, 0)


def test_spec_accepts_every_backward_field():
    # the backward keys of a spec are the fields of BackwardConfig
    defaults = BackwardConfig(gamma=1e-3)
    for f in dataclasses.fields(BackwardConfig):
        data = small_spec().to_dict()
        data["backward"][f.name] = getattr(defaults, f.name)
        cfg = ExperimentSpec.from_dict(data).resolved().config
        assert getattr(cfg, f.name) == getattr(defaults, f.name)
    # the removed dense cap, history switch and random start are unknown keys now
    for key, value in (("dense_threshold", 4096), ("record_history", True),
                       ("random_init_seed", 5)):
        data = small_spec().to_dict()
        data["backward"][key] = value
        with pytest.raises(ValueError, match=f"unknown backward fields: \\['{key}'\\]"):
            ExperimentSpec.from_dict(data)


def test_spec_json_roundtrip(tmp_path):
    spec = small_spec()
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec.to_dict()))
    loaded = ExperimentSpec.from_json(path)
    assert loaded == spec


def test_resolve_requires_nesting():
    spec = small_spec(n=10, n_ref=64)
    with pytest.raises(ValueError):
        spec.resolved()
    # a mesh needs two cells per side; n = 0 is refused before n_ref % n
    for fields in ({"n": 0}, {"n": -4}, {"n_ref": 1},
                   {"n": 0, "N": None, "preset": "paper-ex1", "backward": {}}):
        with pytest.raises(ValueError, match=">= 2 cells per side"):
            small_spec(**fields).resolved()


def test_resolve_fits_unset_reference_grids():
    # an unset n_ref is the multiple of n nearest the desk default, an unset
    # N_ref the desk default or N, whichever is larger; set grids are kept
    for dim, n, n_ref in ((1, 12, 516), (2, 12, 132), (1, 16, 512), (2, 16, 128)):
        res = small_spec(dim=dim, n=n, n_ref=None).resolved()
        assert res.n_ref == n_ref
    assert small_spec(N=2000, N_ref=None).resolved().grid_ref.N == 2000
    assert small_spec(N=20, N_ref=None).resolved().grid_ref.N == 1000
    with pytest.raises(ValueError, match="exceed reference N_ref=1500"):
        small_spec(N=2000, N_ref=1500).resolved()


def test_resolve_preset_derives_parameters():
    spec = small_spec(dim=2, n=None, N=None, n_ref=None, N_ref=None,
                      preset="paper-ex1", backward={},
                      noise=NoiseSpec(delta=1 / 80, seed=1))
    res = spec.resolved()
    assert res.n == 14
    assert res.grid.N == 45
    assert res.config.gamma == pytest.approx(np.sqrt(1 / 80) / 75)
    assert res.n_ref % res.n == 0
    assert abs(res.n_ref - 128) <= res.n // 2


def test_observation_zero_noise():
    spec = small_spec(noise=NoiseSpec(delta=0.0, seed=3))
    g_clean, g_noisy, achieved = make_observation(spec)
    assert achieved == 0.0
    assert np.array_equal(g_clean.values, g_noisy.values)


def test_observation_deterministic():
    spec = small_spec()
    _, g1, a1 = make_observation(spec)
    _, g2, a2 = make_observation(spec)
    assert np.array_equal(g1.values, g2.values)
    assert a1 == a2


def test_noise_statistics_pointwise():
    # over many seeds the achieved L2 noise has mean delta*sup_g*sqrt(tr M):
    # nodal white noise carries the P1 quadratic form, not unit variance
    spec = small_spec(n=8, n_ref=16, N=10, N_ref=20)
    g_clean = _clean_observation(spec.resolved())
    coarse = g_clean.system
    sup_g = g_clean.full_values().max()
    tr = coarse.M.diagonal().sum()
    ratios = []
    for seed in range(1000):
        _, _, achieved = make_observation(spec, seed=seed)
        ratios.append(achieved / (1e-3 * sup_g))
    mean_ratio = np.mean(ratios)
    assert mean_ratio == pytest.approx(np.sqrt(tr), rel=0.1)


def test_restriction_consistency():
    # a P1 coarse function prolongated by sampling restricts back exactly
    fine = build_interval_mesh(64)
    coarse = build_interval_mesh(16)
    sys_c = assemble(coarse)
    vals_c = np.sin(2 * np.pi * coarse.nodes[:, 0])
    back = restrict_nodal(fine, coarse, np.interp(fine.nodes[:, 0],
                                                  coarse.nodes[:, 0], vals_c))
    assert np.allclose(back, vals_c, atol=1e-15)


def test_run_reconstruction_near_exact_inversion():
    # delta=0, tiny gamma, linear problem, well-resolved smooth mode
    spec = small_spec(
        dim=1, n=64, N=200, n_ref=128, N_ref=400,
        nonlinearity="zero",
        noise=NoiseSpec(delta=0.0, seed=1),
        backward={"gamma": 1e-8, "cg_max": 2000})
    row = run_reconstruction(spec)
    assert row["e_u"] < 0.05
    assert row["converged"]


def test_run_reconstruction_deterministic_row():
    spec = small_spec()
    r1 = run_reconstruction(spec)
    r2 = run_reconstruction(spec)
    r1.pop("runtime"), r2.pop("runtime")
    assert r1 == r2


def test_run_reconstruction_releases_systems(monkeypatch):
    # the coarse and fine systems, with their LU factors, die with the run
    refs = []

    def tracked(mesh):
        sys = assemble(mesh)
        refs.append(weakref.ref(sys))
        return sys

    monkeypatch.setattr(bench, "assemble", tracked)
    run_reconstruction(small_spec(backward={"gamma": 1e-3, "fast_path": "off"}))
    gc.collect()
    assert len(refs) == 2
    assert all(ref() is None for ref in refs)


def _counting(monkeypatch, owner, name):
    calls = []
    fn = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return fn(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_run_table_repeats_reference_solves(tmp_path, monkeypatch):
    # one fine reference solve per cell, shared by its repetitions, and a
    # second sweep solves again; each cell is resolved once up front and
    # once where it runs, not once per repetition
    solves = _counting(monkeypatch, bench, "solve_forward")
    resolves = _counting(monkeypatch, bench, "_resolve")
    counts = []
    for name in ("a", "b"):
        spec = small_spec(output_dir=str(tmp_path / name), repetitions=2)
        run_table(spec, deltas=[2e-3, 1e-3], alphas=[0.4, 0.6])
        counts.append((len(solves), len(resolves)))
        solves.clear()
        resolves.clear()
    assert counts == [(4, 8), (4, 8)]


@pytest.mark.parametrize("n_ref, N_ref, factors", [(16, 20, 1), (64, 50, 2)])
def test_stepping_run_factors_once_per_system_and_grid(monkeypatch, n_ref, N_ref, factors):
    # n_ref = n, N_ref = N: the reference solve shares the reconstruction's
    # factor; otherwise one for the fine and one for the coarse pair
    splus = _counting(monkeypatch, forward, "splu")
    row = run_reconstruction(small_spec(n=16, N=20, n_ref=n_ref, N_ref=N_ref,
                                        backward={"gamma": 1e-3, "fast_path": "off"}))
    assert row["outer_iters"] > 1
    assert len(splus) == factors


def test_run_table_shapes_and_orders(tmp_path):
    spec = small_spec(output_dir=str(tmp_path), repetitions=2)
    out = run_table(spec, deltas=[2e-3, 1e-3], alphas=[0.4, 0.6])
    assert out["errors"].shape == (2, 2)
    assert len(out["orders"]) == 2 and len(out["orders"][0]) == 1
    assert len(out["rows"]) == 2 * 2 * 2
    assert (tmp_path / "table.csv").exists()
    assert (tmp_path / "manifest.json").exists()
    assert len(list(tmp_path.glob("field_u0hat_*.csv"))) == 4
    assert len(list(tmp_path.glob("history_*.csv"))) == 4


def test_run_table_logs_one_record_per_cell(tmp_path, caplog):
    caplog.set_level(logging.INFO, logger="fracback.bench")
    run_table(small_spec(output_dir=str(tmp_path)), deltas=[2e-3, 1e-3], alphas=[0.4, 0.6])
    records = [r for r in caplog.records if r.name == "fracback.bench"]
    assert [r.getMessage().split(" e_u=")[0] for r in records] == [
        f"[table] alpha={a} delta={d}" for a in (0.4, 0.6) for d in (0.002, 0.001)]
    assert all(r.levelno == logging.INFO for r in records)


def test_failed_sweep_keeps_finished_cells_files(tmp_path, monkeypatch):
    # each cell writes its field and history as it finishes: a numerical
    # failure in a later cell leaves them, and no table.csv or manifest.json
    run_single = bench._run_single

    def fail_at_alpha_06(res, **kwargs):
        if res.grid.alpha == 0.6:
            raise NumericalFailure("injected failure")
        return run_single(res, **kwargs)

    monkeypatch.setattr(bench, "_run_single", fail_at_alpha_06)
    monkeypatch.setenv("FRACBACK_THREADS", "1")
    with pytest.raises(NumericalFailure, match="injected failure"):
        run_table(small_spec(output_dir=str(tmp_path)), deltas=[2e-3, 1e-3],
                  alphas=[0.4, 0.6])
    assert sorted(f.name for f in tmp_path.iterdir()) == sorted(
        f"{kind}_a0p4_{d}.csv" for kind in ("field_u0hat", "history")
        for d in ("d0p002", "d0p001"))


def test_run_table_validation(tmp_path):
    spec = small_spec(output_dir=str(tmp_path))
    with pytest.raises(ValueError):
        run_table(spec, deltas=[])
    with pytest.raises(ValueError):
        run_table(spec, deltas=[1e-3])
    with pytest.raises(ValueError):
        run_table(spec, deltas=[1e-3, 2e-3])
    # two cells with one file tag would overwrite each other's outputs, and
    # a noise-free cell has no convergence order; the sweep refuses both
    # before any solve and writes nothing
    for deltas, alphas in (([2e-3, 1e-3], [0.3, 0.3]),
                           ([0.1000001, 0.1], [0.5]),
                           ([2e-3, 1e-3], [0.1, 0.1000001])):
        with pytest.raises(ValueError, match="repeated tags"):
            run_table(spec, deltas=deltas, alphas=alphas)
    with pytest.raises(ValueError, match="must be > 0"):
        run_table(spec, deltas=[1e-3, 0.0])
    assert not any(tmp_path.iterdir())


def test_run_table_deterministic_bytes(tmp_path):
    spec1 = small_spec(output_dir=str(tmp_path / "a"), repetitions=2)
    run_table(spec1, deltas=[2e-3, 1e-3])
    spec2 = small_spec(output_dir=str(tmp_path / "b"), repetitions=2)
    run_table(spec2, deltas=[2e-3, 1e-3])
    for name in ("table.csv",):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    for f in sorted((tmp_path / "a").glob("*.csv")):
        g = tmp_path / "b" / f.name
        assert f.read_bytes() == g.read_bytes()


def test_derived_seed_determinism():
    assert _derived_seed(42, 0, 1) == _derived_seed(42, 0, 1)
    assert _derived_seed(42, 0, 1) != _derived_seed(42, 1, 1)


def test_run_table_parallel_matches_serial(tmp_path, monkeypatch):
    spec1 = small_spec(output_dir=str(tmp_path / "serial"), repetitions=2)
    run_table(spec1, deltas=[2e-3, 1e-3])
    monkeypatch.setenv("FRACBACK_THREADS", "2")
    spec2 = small_spec(output_dir=str(tmp_path / "par"), repetitions=2)
    run_table(spec2, deltas=[2e-3, 1e-3])
    for f in sorted((tmp_path / "serial").glob("*.csv")):
        assert f.read_bytes() == (tmp_path / "par" / f.name).read_bytes()


def test_run_table_pool_has_at_most_one_worker_per_cell(tmp_path, monkeypatch):
    # FRACBACK_THREADS above the cell count asks for one worker per cell; an
    # in-process stand-in for the pool records the request and starts no
    # process, and a serial sweep builds no pool
    requested = []

    class InProcessPool:
        def __init__(self, max_workers):
            requested.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, iterable):
            return map(fn, iterable)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    monkeypatch.setenv("FRACBACK_THREADS", "1")
    run_table(small_spec(output_dir=str(tmp_path / "serial")), deltas=[2e-3, 1e-3])
    assert requested == []
    monkeypatch.setenv("FRACBACK_THREADS", "64")
    run_table(small_spec(output_dir=str(tmp_path / "pool")), deltas=[2e-3, 1e-3])
    assert requested == [2]
    csvs = sorted((tmp_path / "serial").glob("*.csv"))
    assert len(csvs) == 5
    for f in csvs:
        assert f.read_bytes() == (tmp_path / "pool" / f.name).read_bytes()


def test_parallel_sweep_shares_coarse_eigensolve(tmp_path, monkeypatch):
    # the four cells on n=16 go to two workers in two chunks, each sharing
    # one system: two dense eigensolves, not one per cell (four); serially
    # there is one; forked workers log to a file
    log = tmp_path / "eigh.log"
    eigh = scipy.linalg.eigh

    def counted(*args, **kwargs):
        with open(log, "a", encoding="utf-8") as fh:
            fh.write("eigh\n")
        return eigh(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "eigh", counted)
    counts = {}
    for threads in ("1", "2"):
        monkeypatch.setenv("FRACBACK_THREADS", threads)
        log.write_text("")
        spec = small_spec(output_dir=str(tmp_path / threads), repetitions=2)
        run_table(spec, deltas=[2e-3, 1e-3], alphas=[0.4, 0.6])
        counts[threads] = len(log.read_text().splitlines())
    assert counts == {"1": 1, "2": 2}
    for f in sorted((tmp_path / "1").glob("*.csv")):
        assert f.read_bytes() == (tmp_path / "2" / f.name).read_bytes()


def test_parallel_sweep_keeps_row_order(tmp_path, monkeypatch):
    # cells on two coarse meshes (preset: n follows delta) come back in row order
    spec = small_spec(n=None, N=None, n_ref=None, N_ref=200, preset="paper-ex1",
                      output_dir=str(tmp_path / "serial"), backward={})
    serial = run_table(spec, deltas=[1.0 / 80, 1.0 / 160], alphas=[0.4, 0.6])
    monkeypatch.setenv("FRACBACK_THREADS", "2")
    spec.output_dir = str(tmp_path / "par")
    par = run_table(spec, deltas=[1.0 / 80, 1.0 / 160], alphas=[0.4, 0.6])
    strip = [{k: v for k, v in r.items() if k != "runtime"} for r in serial["rows"]]
    assert [{k: v for k, v in r.items() if k != "runtime"} for r in par["rows"]] == strip
    assert len({(r["n"], r["alpha"], r["delta"]) for r in strip}) == 4
    assert len({r["n"] for r in strip}) == 2


def test_spec_validates_fields():
    with pytest.raises(ValueError):
        small_spec(dim=3)
    with pytest.raises(ValueError):
        small_spec(repetitions=0)


def test_two_dimensional_pipeline():
    # small end-to-end 2D run: observation, reconstruction, error metric
    spec = small_spec(dim=2, n=8, N=15, n_ref=24, N_ref=30,
                      noise=NoiseSpec(delta=1e-3, seed=11),
                      backward={"gamma": 1e-3})
    g_clean, g_noisy, achieved = make_observation(spec)
    assert g_clean.system.mesh.dim == 2
    assert achieved > 0.0
    row = run_reconstruction(spec)
    assert row["converged"] and not row["diverged"]
    assert 0.0 < row["e_u"] < 1.0


def test_iteration_history_zero_source():
    spec = small_spec(nonlinearity="zero")
    _, result = _run_single(spec.resolved())
    assert len(result.history) == 1


def test_iteration_history_contracting():
    spec = small_spec(nonlinearity="L_sqrt1pu2:0.5",
                      backward={"gamma": 1e-4, "cg_tol": 1e-12})
    row, result = _run_single(spec.resolved())
    errs = [h["error_vs_truth"] for h in result.history]
    assert all(e is not None for e in errs)
    assert not row["diverged"]
