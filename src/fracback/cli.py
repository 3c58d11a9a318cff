"""Command-line front end.

Subcommands: ``forward`` (direct solve), ``backward`` (single
reconstruction with its iteration log), ``mlf`` (Mittag-Leffler values),
``table`` (noise-level sweep), ``params`` (parameter choice).
``forward``, ``backward`` and ``table`` take every value of a run from
the JSON file named by ``--config`` (read by
:meth:`fracback.bench.ExperimentSpec.from_json`), the reference grids
included; besides it they have ``--quiet``, and ``table`` the sweep's
``--deltas`` and ``--alphas``.
Exit codes: 0 success, 1 usage error, 2 numerical failure, 3 the
backward iteration diverged (sweeps continue past divergent cells).
"""

from __future__ import annotations

import argparse
import json
import logging
import re
import sys
from pathlib import Path

from fracback.backward import select_parameters
from fracback.bench import ExperimentSpec, run_table, _run_single
from fracback.fem import NumericalFailure, write_field_csv
from fracback.mlf import mittag_leffler


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        # flags are spelled in full: "--alpha" must not stand for table's "--alphas"
        super().__init__(*args, allow_abbrev=False, **kwargs)
        # read "-2e5" as a negative value, not as a flag (argparse before
        # Python 3.13 knows negative numbers only without an exponent)
        self._negative_number_matcher = re.compile(
            r"^-(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")

    def error(self, message):
        raise _UsageError(message)


def _add_spec_options(sub):
    sub.add_argument("--config", required=True, help="experiment spec JSON file")
    sub.add_argument("--quiet", action="store_true")


def build_parser() -> _Parser:
    parser = _Parser(prog="fracback",
                     description="Backward semilinear subdiffusion toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_mlf = sub.add_parser("mlf", help="evaluate a Mittag-Leffler function")
    p_mlf.add_argument("--alpha", type=float, required=True,
                       help="order in (0, 1], or 2 with --beta 1")
    p_mlf.add_argument("--beta", type=float, default=1.0,
                       help="second order in (0, alpha + 1] (default 1)")
    p_mlf.add_argument("--x", type=float, required=True,
                       help="finite argument x <= 0")

    p_par = sub.add_parser("params", help="parameter choice from noise level")
    p_par.add_argument("--delta", type=float, required=True)
    p_par.add_argument("--preset", type=str, default=None)
    p_par.add_argument("--q", type=float, default=2.0)
    p_par.add_argument("--mu", type=float, default=1.0)

    for name, helptext in (("forward", "solve the direct problem"),
                           ("backward", "reconstruct initial data"),
                           ("table", "noise-level sweep")):
        p = sub.add_parser(name, help=helptext)
        _add_spec_options(p)
        if name == "table":
            p.add_argument("--deltas", type=str, required=True,
                           help="comma-separated decreasing noise levels")
            p.add_argument("--alphas", type=str, default=None,
                           help="comma-separated fractional orders")
    return parser


def _cmd_mlf(args) -> int:
    value = mittag_leffler(args.alpha, args.beta, args.x)
    print(f"{value:.15g}")
    return 0


def _cmd_params(args) -> int:
    params = select_parameters(args.delta, q=args.q, mu=args.mu, preset=args.preset)
    print(f"gamma={params['gamma']:.10g}")
    print(f"tau={params['tau']:.10g}")
    print(f"h={params['h']:.10g}")
    return 0


def _cmd_forward(args) -> int:
    from fracback.bench import _assemble
    from fracback.fem import GridFunction, l2_project
    from fracback.forward import solve_forward

    res = ExperimentSpec.from_json(args.config).resolved()
    grid = res.grid
    sys_c = _assemble(res.dim, res.n)
    u0 = l2_project(sys_c, res.data.func, subdivide=res.data.subdivide)
    hist = solve_forward(sys_c, grid, u0, res.f)
    out = Path(res.spec.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    field_path = out / "field_terminal.csv"
    write_field_csv(GridFunction(sys_c, hist[-1]), field_path)
    manifest = dict(alpha=grid.alpha, T=grid.T, N=grid.N, tau=grid.tau,
                    mesh=sys_c.mesh.meta())
    man_path = out / "manifest.json"
    with open(man_path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
    if not args.quiet:
        print(f"forward solve done: alpha={grid.alpha:g} N={grid.N} n={res.n}")
        print(f"wrote {field_path}")
        print(f"wrote {man_path}")
    return 0


def _cmd_backward(args) -> int:
    spec = ExperimentSpec.from_json(args.config)
    row, result = _run_single(spec.resolved())
    out = Path(spec.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    field_path = out / "field_u0hat.csv"
    write_field_csv(result.u0_hat, field_path)
    from fracback.bench import _write_history_csv
    hist_path = out / "history.csv"
    _write_history_csv(result.history, hist_path)
    row_path = out / "row.json"
    with open(row_path, "w", encoding="utf-8") as fh:
        json.dump(row, fh, indent=2, sort_keys=True)
    print(f"reconstruction: e_u={row['e_u']:.4e} outer_iters={row['outer_iters']} "
          f"converged={row['converged']} diverged={row['diverged']}")
    if not args.quiet:
        for p in (field_path, hist_path, row_path):
            print(f"wrote {p}")
    return 3 if row["diverged"] else 0


def _cmd_table(args) -> int:
    spec = ExperimentSpec.from_json(args.config)
    deltas = [float(v) for v in args.deltas.split(",")]
    alphas = [float(v) for v in args.alphas.split(",")] if args.alphas else None
    table = run_table(spec, deltas, alphas)
    out = Path(spec.output_dir)
    print(f"table: {len(table['rows'])} runs, wrote {out / 'table.csv'}")
    return 3 if any(row["diverged"] for row in table["rows"]) else 0


_COMMANDS = {
    "mlf": _cmd_mlf,
    "params": _cmd_params,
    "forward": _cmd_forward,
    "backward": _cmd_backward,
    "table": _cmd_table,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    # the package's log records go to stderr for this command, at INFO
    # level unless --quiet
    log = logging.getLogger("fracback")
    handler = logging.StreamHandler()
    handler.setFormatter(logging.Formatter("%(message)s"))
    level = log.level
    log.addHandler(handler)
    log.setLevel(logging.WARNING if getattr(args, "quiet", False) else logging.INFO)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, FileNotFoundError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    finally:
        log.removeHandler(handler)
        log.setLevel(level)


if __name__ == "__main__":
    sys.exit(main())
