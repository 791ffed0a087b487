"""Run one benchmark workload and print its result as one JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload app-min-size-cold --seed 1 \\
        --seconds 20 --trace 0

With ``--trace 0`` the result carries every end-to-end metric named in
``BENCHMARK.json``; with ``--trace 1`` every per-layer metric, and the run
also writes a Chrome trace and the per-layer numbers under ``.perfbench/``.
Times are in seconds at a reference host speed (see ``harness.HostSpeed``).
The last line of standard output is
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
Failures are described on standard error.  The exit code is 2 when the
program sources are missing and 1 when set-up fails.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _metric_specs(kind: str):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return [(m["name"], m["unit"]) for m in json.load(fh)[kind]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("perfbench: no program sources (src/repro) in this checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import harness
    import workloads  # imports repro

    run = workloads.WORKLOADS.get(args.workload)
    if run is None:
        print(f"perfbench: unknown workload {args.workload!r}; expected one "
              f"of {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    ctx = workloads.Context(
        workload=args.workload, seed=args.seed, seconds=args.seconds,
        trace=bool(args.trace), root=ROOT,
        import_s=time.perf_counter() - _STARTED,
        tally=workloads.Tally())
    try:
        values, counts = run(ctx)
    except workloads.SetupError as exc:
        print(f"perfbench: set-up failed: {exc}", file=sys.stderr)
        return 1
    workloads.check_across_runs(
        ctx.tally, ROOT, f"{args.workload}-seed{args.seed}-trace{args.trace}",
        counts)
    specs = _metric_specs("per_layer" if args.trace else "end_to_end")
    missing = [name for name, _ in specs if name not in values]
    if missing:
        print(f"perfbench: no value for {', '.join(missing)}",
              file=sys.stderr)
        return 1
    print(f"perfbench: host speed {harness.HOST.mean_scale():.4f} x reference"
          f" over {len(harness.HOST.samples)} samples", file=sys.stderr)
    tally = ctx.tally
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in specs},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
