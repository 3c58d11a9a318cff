import json
import math
import re

import pytest

from fracback import bench
from fracback.bench import ExperimentSpec
from fracback.cli import main


def write_config(tmp_path, drop=(), **overrides):
    """Write the small 1D test config with ``overrides``, leaving out the
    keys in ``drop``."""
    cfg = dict(
        alpha=0.5, T=1.0, nonlinearity="sqrt1pu2", initial_data="smooth_sine",
        noise=dict(delta=1e-3, seed=42),
        dim=1, n=16, N=20, n_ref=64, N_ref=50,
        backward=dict(gamma=1e-3),
        output_dir=str(tmp_path / "out"), repetitions=1)
    cfg.update(overrides)
    for key in drop:
        del cfg[key]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return path


@pytest.fixture
def no_solve(monkeypatch):
    """Fail the test on any assembly or fine reference solve of the harness."""
    def refuse(*args, **kwargs):
        raise AssertionError("assembled or solved before the spec was validated")

    monkeypatch.setattr(bench, "assemble", refuse)
    monkeypatch.setattr(bench, "solve_forward", refuse)


def test_mlf_value(capsys):
    assert main(["mlf", "--alpha", "1", "--beta", "1", "--x", "-1"]) == 0
    out = capsys.readouterr().out.strip()
    assert out == "0.367879441171442"


def test_mlf_large_argument_negative_exponent_form(capsys):
    # alpha > 1 lies outside the evaluator's domain, bar (alpha, beta) = (2, 1)
    assert main(["mlf", "--alpha", "1.5", "--x", "-2e5"]) == 1
    assert capsys.readouterr().err.startswith("usage error:")


@pytest.mark.parametrize("args", [
    ["--beta", "inf", "--x", "-1"], ["--beta", "120", "--x", "-1"],
    ["--beta", "nan", "--x", "-1"], ["--x", "nan"], ["--x", "-inf"],
    ["--beta", "2", "--x", "-1"]])
def test_mlf_outside_domain_is_usage_error(args, capsys):
    assert main(["mlf", "--alpha", "0.5", *args]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage error:")


def test_params_preset(capsys):
    assert main(["params", "--preset", "paper-ex1", "--delta", "0.0125"]) == 0
    out = dict(line.split("=") for line in capsys.readouterr().out.split())
    assert float(out["gamma"]) == pytest.approx(0.0014907, rel=1e-4)
    assert float(out["tau"]) == pytest.approx(0.022361, rel=1e-4)
    assert float(out["h"]) == pytest.approx(0.069877, rel=1e-4)


def test_usage_error_unknown_flag(capsys):
    assert main(["mlf", "--alpha", "1", "--x", "-1", "--bogus", "2"]) == 1


def test_usage_error_bad_config(tmp_path, capsys):
    cfg = write_config(tmp_path)
    data = json.loads(cfg.read_text())
    data["mystery"] = True
    cfg.write_text(json.dumps(data))
    assert main(["backward", "--config", str(cfg)]) == 1


def test_missing_config_file():
    assert main(["backward", "--config", "/nonexistent/cfg.json"]) == 1


@pytest.mark.parametrize("config, message", [
    ("directory", "is a directory"), ([1, 2], "JSON object"), ({"backward": 5}, "'noise' object")],
    ids=["directory", "top_level_list", "backward_int"])
def test_malformed_config_is_usage_error(tmp_path, capsys, no_solve, config, message):
    if config == "directory":
        path = tmp_path
    else:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
    assert main(["backward", "--config", str(path), "--quiet"]) == 1
    assert capsys.readouterr().err.startswith("usage error:")
    assert not (tmp_path / "out").exists()
    # the library's reader refuses the same files with ValueError
    with pytest.raises(ValueError, match=message):
        bench.ExperimentSpec.from_json(path)


def test_forward_writes_outputs(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["forward", "--config", str(cfg), "--quiet"]) == 0
    out_dir = tmp_path / "out"
    assert (out_dir / "field_terminal.csv").exists()
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["N"] == 20 and manifest["mesh"]["n"] == 16


def test_backward_roundtrip(tmp_path, capsys):
    cfg = write_config(tmp_path)
    code = main(["backward", "--config", str(cfg), "--quiet"])
    assert code == 0
    out_dir = tmp_path / "out"
    assert (out_dir / "field_u0hat.csv").exists()
    assert (out_dir / "history.csv").exists()
    row = json.loads((out_dir / "row.json").read_text())
    assert row["converged"] and not row["diverged"]
    summary = capsys.readouterr().out
    assert "reconstruction: e_u=" in summary


def test_table_end_to_end(tmp_path, capsys):
    cfg = write_config(tmp_path, repetitions=1)
    code = main(["table", "--config", str(cfg), "--quiet",
                 "--deltas", "0.002,0.001"])
    assert code == 0
    table = (tmp_path / "out" / "table.csv").read_text()
    assert table.splitlines()[0] == "alpha,metric,delta=0.002,delta=0.001"
    assert capsys.readouterr().err == ""      # --quiet: no per-cell log lines


def test_table_logs_cells_unless_quiet(tmp_path, capsys):
    cfg = write_config(tmp_path, repetitions=1)
    assert main(["table", "--config", str(cfg), "--deltas", "0.002,0.001"]) == 0
    lines = capsys.readouterr().err.splitlines()
    assert [line.split(" e_u=")[0] for line in lines] == [
        "[table] alpha=0.5 delta=0.002", "[table] alpha=0.5 delta=0.001"]


def test_table_idempotent_bytes(tmp_path):
    cfg = write_config(tmp_path, repetitions=1)
    main(["table", "--config", str(cfg), "--quiet", "--deltas", "0.002,0.001"])
    first = (tmp_path / "out" / "table.csv").read_bytes()
    main(["table", "--config", str(cfg), "--quiet", "--deltas", "0.002,0.001"])
    assert (tmp_path / "out" / "table.csv").read_bytes() == first


def test_numerical_failure_exit_code(tmp_path, capsys):
    # starving the inner CG budget of the stepping path must surface as exit code 2
    cfg = write_config(tmp_path, backward=dict(gamma=1e-9, cg_max=1, cg_tol=1e-14,
                                               fast_path="off"))
    assert main(["backward", "--config", str(cfg), "--quiet"]) == 2


@pytest.mark.parametrize("cap", ["fp_max", "cg_max"])
def test_zero_iteration_cap_is_usage_error(tmp_path, capsys, cap, no_solve):
    cfg = write_config(tmp_path, backward={"gamma": 1e-3, cap: 0})
    assert main(["backward", "--config", str(cfg), "--quiet"]) == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["forward", "backward", "table"])
@pytest.mark.parametrize("override", [
    {"backward": {"gamma": 1e-3, "fp_max": 0}}, {"alpha": 1.5}, {"T": -1.0},
    {"nonlinearity": "nope"}, {"initial_data": "nope"},
    {"backward": {"gamma": 1e-3, "fp_max": "3"}},
    {"noise": {"delta": 1e-3, "seed": "7"}}, {"noise": {"delta": 1e-3, "seed": 7.0}},
    {"output_dir": 5}, {"nonlinearity": 3}, {"initial_data": 3},
    {"backward": {"gamma": 1e-3, "fp_max": 3.0}}, {"n": 8.0}, {"repetitions": True},
    {"backward": {"gamma": 1e-3, "fp_tol": math.nan}}, {"backward": {"gamma": math.nan}},
    {"T": math.nan}, {"noise": {"delta": math.inf, "seed": 42}}, {"n": 0},
    {"noise": {"delta": 1e-3, "mode": "paper_scalar", "seed": 42}},
    {"nonlinearity": "L_sqrt1pu2:nan"}, {"nonlinearity": "L_sqrt1pu2:inf"},
    {"noise": {"delta": 1e-3, "seed": -3}}, {"n": None}, {"N": None}, {"backward": {}},
    {"N": 60}],
    ids=["fp_max", "alpha", "T", "nonlinearity", "initial_data", "fp_max_type",
         "seed_str", "seed_float", "output_dir_type", "nonlinearity_type",
         "initial_data_type", "fp_max_float", "n_float", "repetitions_bool",
         "fp_tol_nan", "gamma_nan", "T_nan", "delta_inf", "n_zero", "noise_mode",
         "L_nan", "L_inf", "seed_negative", "n_unset", "N_unset", "gamma_missing",
         "N_above_N_ref"])
def test_invalid_spec_fails_before_any_solve(tmp_path, capsys, no_solve, command, override):
    cfg = write_config(tmp_path, **override)
    argv = [command, "--config", str(cfg), "--quiet"]
    if command == "table":
        argv += ["--deltas", "0.002,0.001"]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("usage error:")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["forward", "backward", "table"])
def test_missing_field_fails_before_any_solve(tmp_path, capsys, no_solve, command):
    cfg = write_config(tmp_path, drop=("T",))
    argv = [command, "--config", str(cfg), "--quiet"]
    if command == "table":
        argv += ["--deltas", "0.002,0.001"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error: invalid experiment spec:")
    assert "missing 1 required positional argument: 'T'" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("dim, grids", [(1, {"n": 12}), (2, {"n": 12}), (1, {"N": 2000})],
                         ids=["n12_1d", "n12_2d", "N2000"])
def test_forward_runs_without_reference_grids(tmp_path, capsys, dim, grids):
    # forward never solves on the reference grids; unset, they fit the run's
    cfg = write_config(tmp_path, drop=("n_ref", "N_ref"), dim=dim, **grids)
    assert main(["forward", "--config", str(cfg), "--quiet"]) == 0
    assert (tmp_path / "out" / "field_terminal.csv").exists()


def test_table_bad_alpha_fails_before_any_solve(tmp_path, capsys, no_solve):
    # the first alpha is valid; its cells must not be solved before the
    # second one is refused
    cfg = write_config(tmp_path)
    assert main(["table", "--config", str(cfg), "--quiet",
                 "--deltas", "0.002,0.001", "--alphas", "0.3,1.5"]) == 1
    assert not (tmp_path / "out").exists()


def test_table_zero_delta_fails_before_any_solve(tmp_path, capsys, no_solve):
    # a noise-free cell has no convergence order: the sweep is refused up front
    cfg = write_config(tmp_path)
    assert main(["table", "--config", str(cfg), "--quiet", "--deltas", "0.002,0"]) == 1
    assert capsys.readouterr().err.startswith("usage error:")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["forward", "backward", "table"])
@pytest.mark.parametrize("beneath", [False, True], ids=["file", "beneath_file"])
def test_unusable_output_dir_is_usage_error(tmp_path, capsys, no_solve, command, beneath):
    taken = tmp_path / "taken"
    taken.write_text("keep")
    out = taken / "out" if beneath else taken
    cfg = write_config(tmp_path, output_dir=str(out))
    argv = [command, "--config", str(cfg), "--quiet"]
    if command == "table":
        argv += ["--deltas", "0.002,0.001"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and str(out) in err
    assert taken.read_text() == "keep"


def test_config_sets_reference_grids(tmp_path, no_solve):
    # the reference grids come from the file like every other value: unset
    # ones take the desk defaults, the paper's full-scale grids are written out
    def load(**overrides):
        return ExperimentSpec.from_json(write_config(tmp_path, **overrides))

    for dim, (n_ref, N_ref) in ((1, (512, 1000)), (2, (128, 500))):
        spec = load(dim=dim, n_ref=None, N_ref=None)
        assert (spec.n_ref, spec.N_ref) == (None, None)
        res = spec.resolved()
        assert (res.n_ref, res.grid_ref.N) == (n_ref, N_ref)
    res = load(dim=2, n_ref=256, N_ref=1000).resolved()
    assert (res.n_ref, res.grid_ref.N) == (256, 1000)


def test_divergence_exit_code(tmp_path, capsys):
    cfg = write_config(tmp_path, nonlinearity="L_sqrt1pu2:30", T=10.0,
                       n=50, N=50, n_ref=100, N_ref=100,
                       backward=dict(gamma=1e-5))
    assert main(["backward", "--config", str(cfg), "--quiet"]) == 3


def test_table_divergence_exit_code(tmp_path, capsys):
    # every output is still written before the sweep reports the divergent cells
    cfg = write_config(tmp_path, nonlinearity="L_sqrt1pu2:30", T=10.0)
    assert main(["table", "--config", str(cfg), "--quiet",
                 "--deltas", "0.002,0.001"]) == 3
    out = tmp_path / "out"
    assert (out / "table.csv").exists() and (out / "manifest.json").exists()
    assert len(list(out.glob("history_*.csv"))) == 2


_SPEC_FLAGS = {"--help", "--config", "--quiet"}

# one flag per spec field, and the reference grids' switch; none is
# accepted, the config file sets every field
_REMOVED_FLAGS = ("--alpha", "--T", "--delta", "--mode", "--seed", "--gamma", "--preset",
                  "--mesh-n", "--steps", "--n-ref", "--steps-ref", "--dim", "--nonlinearity",
                  "--initial-data", "--repetitions", "--fast-path", "--out", "--paper-scale")


def test_help_lists_flags(tmp_path, capsys, no_solve):
    cfg = write_config(tmp_path)
    for command in ("forward", "backward", "table"):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        flags = set(re.findall(r"--[\w-]+", capsys.readouterr().out))
        sweep = {"--deltas", "--alphas"} if command == "table" else set()
        assert flags == _SPEC_FLAGS | sweep
        # every value of a run comes from the config file; a removed flag, or
        # an abbreviation ("--alpha" of table's "--alphas"), is a usage error
        extra = ["--deltas", "0.002,0.001"] if command == "table" else []
        for flag in _REMOVED_FLAGS:
            for args in ([flag, "1e-3"], [flag]):
                assert main([command, "--config", str(cfg), "--quiet", *extra, *args]) == 1
                assert capsys.readouterr().err.startswith("usage error:")
    assert main(["table", "--config", str(cfg), "--quiet"]) == 1
    assert "required: --deltas" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_backward_row_reports_series_propagator(tmp_path):
    # 4,225 dofs at n=66, above the dense cap: F^N by an 11-term Chebyshev
    # series whose dropped tail is below gamma * cg_tol = 1e-13
    cfg = write_config(tmp_path, dim=2, n=66, N=40, n_ref=66, N_ref=40,
                       noise=dict(delta=1.0 / 320, seed=7))
    assert main(["backward", "--config", str(cfg), "--quiet"]) == 0
    out = tmp_path / "out"
    row = json.loads((out / "row.json").read_text())
    assert row["F_mode"] == "series"
    assert row["F_degree"] + 1 == 11
    assert 0.0 < row["F_bound"] < 1e-3 * 1e-10
    assert len(row["update_ratios"]) == row["outer_iters"] - 1
    assert all(0.0 < q < 1.0 for q in row["update_ratios"])
    header = (out / "history.csv").read_text().splitlines()[0]
    assert header == "iter,update_norm,error_vs_truth,cg_iters,cumulative_forward_solves"
