"""Benchmark entry point: one workload, one seed, one fresh process.

    python3 perfbench/run.py --workload churn-dense --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics untraced; ``--trace 1`` runs the
traced pass and reports the per-layer metrics. Every query answer is checked
against ``OracleGraph`` after the timed phase. Human-readable lines come
first; the last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. The full result, with the
workload's parameters and rationale, goes to ``perfbench/out/``; traced runs
also write their spans there. ``--script PATH`` writes the input that ran as
a workload script for ``batchconn run --verify full-audit``. Metric units are
read from ``BENCHMARK.json``.

The correctness gate needs numpy and scipy besides the program itself.

Exit codes: 0 success, 1 a failed correctness check, 2 a usage error, or a
checkout without the program's sources, ``BENCHMARK.json``, numpy or scipy.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SPEC = os.path.join(ROOT, "BENCHMARK.json")


def _import_program():
    if not os.path.isfile(os.path.join(SRC, "batchconn", "__init__.py")):
        print(f"run.py: no program sources at {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)


def _units(trace):
    """Metric name -> unit, from BENCHMARK.json: per-layer metrics when traced."""
    try:
        with open(SPEC) as fh:
            spec = json.load(fh)
    except OSError as err:
        print(f"run.py: cannot read {SPEC}: {err}", file=sys.stderr)
        sys.exit(2)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def _line(name, value, unit):
    return f"{name} = {value:.6g} {unit}"


def main(argv=None) -> int:
    _import_program()
    try:
        import bench_harness
    except ImportError as err:
        print(f"run.py: {err}; the correctness gate needs numpy and scipy", file=sys.stderr)
        return 2
    from bench_workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--script", help="write the input that ran as a workload script")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    workload = WORKLOADS[args.workload]
    units = _units(args.trace)

    if args.trace:
        inputs, tracer, metrics, report, verdict = bench_harness.traced(
            workload, args.seed, args.seconds
        )
        played = len(inputs.rounds)
    else:
        inputs, played, metrics, report, verdict = bench_harness.untraced(
            workload, args.seed, args.seconds
        )

    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{workload.name}-seed{args.seed}-trace{args.trace}")
    if args.trace:
        tracer.save(stem + ".spans.tsv")
    if args.script:
        with open(args.script, "w") as fh:
            fh.write(inputs.to_script(played).serialize())

    print(f"workload={workload.name} seed={args.seed} trace={args.trace} "
          f"strategy={workload.strategy} n={workload.n}")
    print(f"why: {workload.why}")
    for key in ("rounds_played", "samples"):
        if key in report:
            print(f"{key} = {report[key]}")
    for name, value in metrics.items():
        print(_line(name, value, units[name]))
    print(_line("failed_op_share", verdict.failed_op_share, "share")
          + f" ({verdict.failed} of {verdict.attempted} elements)")
    for problem in verdict.problems:
        print(f"FAILED: {problem}")
    if not verdict.correct:
        print(f"FAILED: failed_op_share = {verdict.failed_op_share:.6g}")

    result = {
        "correct": verdict.correct,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    with open(stem + ".json", "w") as fh:
        json.dump(
            {
                "workload": workload.params(),
                "seed": args.seed,
                "seconds": args.seconds,
                "trace": args.trace,
                "result": result,
                "failed_op_share": verdict.failed_op_share,
                "problems": verdict.problems,
                "report": report,
            },
            fh,
            indent=1,
        )
    print(json.dumps(result))
    return 0 if verdict.correct else 1


if __name__ == "__main__":
    sys.exit(main())
