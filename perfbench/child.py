"""One run of one benchmark workload, in the fresh process that times it.

    python3 perfbench/child.py --workload recon-step --workload-seed 7 \
        --src src --out DIR [--size bench|smoke] [--trace]

Imports fracback from ``--src``, builds the workload's inputs, stamps the
end of set-up with ``time.monotonic()`` (system-wide, so the parent can
subtract its spawn time), runs the workload and writes ``DIR/child.json``.
With ``--trace`` the package is wrapped by ``tracer.install`` after set-up
and the spans go to ``DIR/spans.jsonl``.  The exit code is the CLI's.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import workloads


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--workload-seed", type=int, required=True)
    ap.add_argument("--src", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--size", choices=tuple(workloads.SIZES), default="bench")
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)
    out = Path(args.out)

    import fracback
    from fracback.bench import ExperimentSpec

    if not Path(fracback.__file__).resolve().is_relative_to(Path(args.src).resolve()):
        raise SystemExit(f"fracback imported from {fracback.__file__}, not {args.src}")
    result = {"fracback": fracback.__file__}
    if args.workload == "oracle":
        field = workloads.oracle_field(args.size, args.workload_seed)
        work = lambda: workloads.run_oracle(field, args.size)  # noqa: E731
    else:
        from fracback import cli

        argv = workloads.cli_argv(args.workload, args.size, args.workload_seed, out)
        ExperimentSpec.from_json(out / "config.json")
        work = lambda: cli.main(argv)  # noqa: E731
    result["setup_mark"] = time.monotonic()

    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer(f"{args.workload}-{args.workload_seed}-{out.name}")
        tracing.install(tracer)
        work = tracer.wrap("run", work)
    value = work()
    rc = 0 if args.workload == "oracle" else value
    if args.workload == "oracle":
        result["oracle"] = value
    if tracer is not None:
        tracer.count("bench.output_bytes", sum(
            p.stat().st_size for p in out.rglob("*") if p.is_file() and p.name != "config.json"))
        result["layers"] = tracing.summarize(tracer)
        tracer.write(out / "spans.jsonl")
    result["rc"] = rc
    (out / "child.json").write_text(json.dumps(result), encoding="utf-8")
    return rc


if __name__ == "__main__":
    sys.exit(main())
