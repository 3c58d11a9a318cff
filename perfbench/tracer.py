"""Span tracer for traced benchmark runs, applied from outside the package.

``install`` wraps the public functions of each fracback module where they
are looked up, so ``fracback.bench.solve_forward`` (fine-grid reference
solves) is told apart from ``fracback.forward.solve_forward`` (every
solve, F^N applications included).  Spans (name, start, end, parent) stay
in memory and are written when the run ends; ``summarize`` turns them into
the per-layer metrics listed in ``PER_LAYER``.

Counters derived from call arguments (steps, computed bytes, value
classes) repeat exactly between runs of the same inputs; times do not.
"""

from __future__ import annotations

import functools
import inspect
import json
import time

LAYERS = ("grid", "fem", "cq", "mlf", "forward", "backward", "bench", "cli")

# name -> unit, in the order BENCHMARK.json lists them
PER_LAYER = {
    "forward.solve_forward.calls": "count",
    "forward.solve_forward.s": "s",
    "forward.solve_forward.self_s": "s",
    "forward.steps": "count",
    "forward.dof_steps": "count",
    "forward.ns_per_dof_step": "ns",
    "forward.hist_bytes_read": "B",
    "forward.splu.calls": "count",
    "forward.splu.s": "s",
    "forward.splu_per_solve": "ratio",
    "bench.reference_solve.calls": "count",
    "bench.reference_solve.s": "s",
    "bench.reference_solves_per_observation": "ratio",
    "bench.make_observation.s": "s",
    "bench.write.s": "s",
    "bench.output_bytes": "B",
    "backward.fixed_point_reconstruct.s": "s",
    "backward.outer_iters": "count",
    "backward.forward_solves": "count",
    "backward.F_apply.calls": "count",
    "backward.F_apply.s": "s",
    "backward.F_apply.self_s": "s",
    "backward.propagator_setup.s": "s",
    "backward.cg_iters_per_outer": "ratio",
    "fem.eigenpairs.calls": "count",
    "fem.eigenpairs.s": "s",
    "fem.conjugate_gradient.calls": "count",
    "fem.conjugate_gradient.self_s": "s",
    "fem.cg_iters": "count",
    "fem.load_nonlinear.calls": "count",
    "fem.load_nonlinear.s": "s",
    "fem.l2_project.s": "s",
    "fem.assemble.calls": "count",
    "fem.assemble.s": "s",
    "grid.s": "s",
    "cq.scalar_terminal_factor.calls": "count",
    "cq.scalar_terminal_factor.s": "s",
    "cq.symbol_bytes_read": "B",
    "cq.cq_weights.calls": "count",
    "mlf.mittag_leffler.calls": "count",
    "mlf.mittag_leffler.s": "s",
    "mlf.us_per_value": "us",
    "mlf.values_taylor": "count",
    "mlf.values_mp": "count",
    "mlf.values_asym": "count",
    "cli.main.s": "s",
    "cli.main.self_s": "s",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "run.s": "s",
    "wall_s": "s",
    "trace.spans": "count",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


# derived from call arguments, not measured: labelled "computed" in the output
COMPUTED = ("forward.steps", "forward.dof_steps", "forward.hist_bytes_read",
            "cq.symbol_bytes_read", "mlf.values_taylor", "mlf.values_mp",
            "mlf.values_asym")


class Tracer:
    """In-memory spans and counters of one run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []        # [name, start, end, parent index or -1]
        self.counts = {}
        self._stack = []

    def count(self, name: str, k) -> None:
        self.counts[name] = self.counts.get(name, 0) + k

    def wrap(self, name: str, fn, counter=None):
        """``fn`` recorded as span ``name``; ``counter`` maps a call to counts."""
        sig = inspect.signature(fn) if counter is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1]
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                for key, k in counter(bound.arguments, result).items():
                    self.count(key, k)
            return result

        return traced

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"run": self.run_id, "id": i, "name": name,
                                     "start": start, "end": end,
                                     "parent": parent}) + "\n")


# ---------------------------------------------------------------------------
# counters computed from call arguments and results

def _tri(N: int) -> int:
    return N * (N + 1) // 2


def _count_solve(a, _):
    # step n reads the n history rows w[n:0:-1] @ hist[:n]
    d, N = a["sys"].num_dofs, a["grid"].N
    return {"forward.steps": N, "forward.dof_steps": N * d,
            "forward.hist_bytes_read": 8 * d * _tri(N)}


def _count_symbol(a, _):
    import numpy as np

    m = np.atleast_1d(a["lam"]).size
    return {"cq.symbol_bytes_read": 8 * m * _tri(int(a["N"]))}


def _count_cg(_, result):
    return {"fem.cg_iters": result[1]}


def _count_fixed_point(_, result):
    return {"backward.outer_iters": result.outer_iters,
            "backward.forward_solves": result.forward_solves,
            "backward.regularized_cg_iters": sum(result.cg_iter_counts)}


def _count_mlf(a, _):
    """Evaluator regime by the gauge s = |x|^(1/alpha) of fracback.mlf."""
    alpha, x = a["alpha"], a["x"]
    if x == 0.0 or (a["beta"] == 1.0 and alpha in (1.0, 2.0)):
        return {}                      # closed forms
    s = (-x) ** (1.0 / alpha)
    if s <= 5.0:
        return {"mlf.values_taylor": 1}
    if alpha < 1.0 and s >= 34.0:
        return {"mlf.values_asym": 1}
    return {"mlf.values_mp": 1}


def install(tracer: Tracer) -> None:
    """Wrap every traced name of the package where callers look it up."""
    from fracback import backward, bench, cli, cq, fem, forward, mlf

    def patch(owner, attr, name, counter=None):
        setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), counter))

    patch(forward, "splu", "forward.splu")
    for owner in (forward, cq):
        patch(owner, "cq_weights", "cq.cq_weights")
    patch(forward, "load_nonlinear", "fem.load_nonlinear")
    patch(forward, "solve_forward", "forward.solve_forward", _count_solve)
    # bench's own lookup: the fine-grid reference solve, nested over the above
    bench.solve_forward = tracer.wrap("bench.reference_solve", forward.solve_forward)

    for owner in (fem, backward):
        patch(owner, "conjugate_gradient", "fem.conjugate_gradient", _count_cg)
    for owner in (fem, bench):
        patch(owner, "l2_project", "fem.l2_project")
    for owner in (bench, mlf):
        patch(owner, "assemble", "fem.assemble")
    patch(fem.FemSystem, "eigenpairs", "fem.eigenpairs")

    for attr in ("build_interval_mesh", "build_square_mesh", "restrict_nodal"):
        patch(bench, attr, f"grid.{attr}")

    for owner in (backward, cq):
        patch(owner, "scalar_terminal_factor", "cq.scalar_terminal_factor", _count_symbol)
    patch(mlf, "mittag_leffler", "mlf.mittag_leffler", _count_mlf)
    patch(mlf, "spectral_forward_linear", "mlf.spectral_forward_linear")

    patch(backward.Propagator, "__init__", "backward.propagator_setup")
    patch(backward.Propagator, "apply_values", "backward.F_apply")
    patch(bench, "fixed_point_reconstruct", "backward.fixed_point_reconstruct",
          _count_fixed_point)

    patch(bench, "_clean_observation", "bench.clean_observation")
    patch(bench, "make_observation", "bench.make_observation")
    for owner in (bench, cli):
        patch(owner, "_run_single", "bench.run_single")
    patch(cli, "run_table", "bench.run_table")
    for owner, attr in ((bench, "write_field_csv"), (bench, "_write_history_csv"),
                        (bench, "_write_table_csv"), (cli, "write_field_csv")):
        patch(owner, attr, "bench.write")
    patch(cli, "main", "cli.main")


# ---------------------------------------------------------------------------
# aggregation

def summarize(tracer: Tracer) -> dict:
    """Per-layer metrics of one traced run (every PER_LAYER name but trace.*
    and wall_s).

    ``<name>.s`` sums the outermost spans of that name; ``<name>.self_s``
    subtracts the time covered by direct child spans; ``<layer>.self_s``
    sums self time over every span of the layer.
    """
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    calls, incl, self_s, layer_self = {}, {}, {}, {}
    for i, (name, start, end, parent) in enumerate(spans):
        calls[name] = calls.get(name, 0) + 1
        own = end - start - child_time[i]
        self_s[name] = self_s.get(name, 0.0) + own
        layer = name.split(".", 1)[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + own
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            incl[name] = incl.get(name, 0.0) + end - start

    def ratio(a, b):
        return a / b if b else 0.0

    c = tracer.counts
    out = {}
    for key in PER_LAYER:
        if key.startswith("trace.") or key == "wall_s":   # measured by run.py
            continue
        if key in c:
            out[key] = c[key]
        elif key.endswith(".calls"):
            out[key] = calls.get(key[:-6], 0)
        elif key.endswith(".self_s") and key[:-7] in LAYERS:
            out[key] = layer_self.get(key[:-7], 0.0)
        elif key.endswith(".self_s"):
            out[key] = self_s.get(key[:-7], 0.0)
        elif key.endswith(".s"):
            out[key] = incl.get(key[:-2], 0.0)
        else:
            out[key] = 0
    out["grid.s"] = sum(v for k, v in incl.items() if k.startswith("grid."))
    out["forward.ns_per_dof_step"] = 1e9 * ratio(incl.get("forward.solve_forward", 0.0),
                                                 c.get("forward.dof_steps", 0))
    out["forward.splu_per_solve"] = ratio(calls.get("forward.splu", 0),
                                          calls.get("forward.solve_forward", 0))
    out["bench.reference_solves_per_observation"] = ratio(
        calls.get("bench.reference_solve", 0), calls.get("bench.make_observation", 0))
    out["backward.cg_iters_per_outer"] = ratio(c.get("backward.regularized_cg_iters", 0),
                                               c.get("backward.outer_iters", 0))
    out["mlf.us_per_value"] = 1e6 * ratio(incl.get("mlf.mittag_leffler", 0.0),
                                          calls.get("mlf.mittag_leffler", 0))
    out["trace.spans"] = len(spans)
    return out
