"""Command-line harness: generate workloads, replay them, report counters.

Subcommands:

  generate   build a seeded workload script
  run        replay a script through the engine, optionally verifying every
             batch against the brute-force oracle and the invariant audit
  stats      summarize a machine-readable run report

Exit codes: 0 success, 1 verification failure, 2 input error. Reports are
line-oriented ``key=value`` text; wall-clock fields all live on lines
starting with ``time_`` so two runs of the same seeded script differ in no
other line.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .connectivity import LevelStructure
from .errors import GraphError
from .oracle import OracleGraph
from .workload import ScriptError, WorkloadScript, generate, parse_script


def _rounds_lines(counters):
    """One ``rounds[i=..]`` line per level: the rounds summed over batches."""
    by_level = {}
    for key, cnt in counters.get("rounds_by_batch_level", {}).items():
        _, i = key.split(":")
        by_level[int(i)] = by_level.get(int(i), 0) + cnt
    levels = counters.get("levels", 0)
    return [f"rounds[i={i}]={by_level.get(i, 0)}" for i in range(1, levels + 1)]


class RunReport:
    def __init__(self, script_name, n, seed, strategy, verify):
        self.script_name = script_name
        self.n = n
        self.seed = seed
        self.strategy = strategy
        self.verify = verify
        self.batch_lines = []     # (index, kind, size, outcome)
        self.batch_times = []
        self.failures = []
        self.counters = {}
        self.total_time = 0.0

    @property
    def ok(self):
        return not self.failures

    def to_text(self) -> str:
        lines = [
            f"script={self.script_name}",
            f"n={self.n}",
            f"seed={self.seed}",
            f"strategy={self.strategy}",
            f"verify={self.verify}",
            f"batches={len(self.batch_lines)}",
        ]
        simple_keys = [
            "m", "K", "d", "insert_batches", "query_batches", "queries",
            "P", "delta", "push_bound", "push_bound_ok", "search_calls",
            "phases", "doubling_checks", "doubling_violations",
            "level_regressions",
        ]
        for key in simple_keys:
            lines.append(f"{key}={self.counters.get(key)}")
        sizes = self.counters.get("deletion_batch_sizes", [])
        lines.append("k_b=" + ",".join(str(x) for x in sizes))
        matrix = self.counters.get("pushes_by_batch_level", {})
        by_batch = {}
        for key, cnt in matrix.items():
            b, i = key.split(":")
            by_batch.setdefault(int(b), {})[int(i)] = cnt
        levels = self.counters.get("levels", 0)
        for b in range(len(sizes)):
            row = by_batch.get(b, {})
            cells = ",".join(str(row.get(i, 0)) for i in range(1, levels + 1))
            lines.append(f"p[b={b}]={cells}")
        lines += _rounds_lines(self.counters)
        for idx, kind, size, outcome in self.batch_lines:
            lines.append(f"batch[{idx}]={kind} size={size} {outcome}")
        for f in self.failures:
            lines.append(f"failure={f}")
        lines.append(f"verdict={'ok' if self.ok else 'fail'}")
        for idx, ms in enumerate(self.batch_times):
            lines.append(f"time_batch[{idx}]={ms:.3f}ms")
        lines.append(f"time_total={self.total_time:.3f}s")
        return "\n".join(lines) + "\n"

    def to_json(self) -> dict:
        return {
            "script": self.script_name,
            "n": self.n,
            "seed": self.seed,
            "strategy": self.strategy,
            "verify": self.verify,
            "batches": self.batch_lines,
            "failures": self.failures,
            "counters": self.counters,
            "verdict": "ok" if self.ok else "fail",
            "time_total": self.total_time,
            "time_batches": self.batch_times,
        }


def run_script(
    script: WorkloadScript,
    strategy: str = "simple",
    verify: str = "none",
    name: str = "<script>",
) -> RunReport:
    """Replay a workload under its header's seed; returns the report
    (failures collected, not raised)."""
    report = RunReport(name, script.n, script.seed, strategy, verify)
    engine = LevelStructure(script.n, seed=script.seed, strategy=strategy)
    oracle = OracleGraph(script.n) if verify in ("oracle", "full-audit") else None
    t_start = time.perf_counter()
    for idx, (kind, pairs) in enumerate(script.batches):
        t0 = time.perf_counter()
        outcome = "applied"
        engine_err = oracle_err = None
        answers = oracle_answers = None
        try:
            if kind == "I":
                engine.batch_insert(pairs)
            elif kind == "D":
                engine.batch_delete(pairs)
            else:
                answers = engine.batch_connected(pairs)
        except GraphError as e:
            engine_err = type(e).__name__
            outcome = f"rejected:{engine_err}"
        if oracle is not None:
            try:
                if kind == "Q":
                    oracle_answers = oracle.connected_many(pairs)
                else:
                    oracle.apply(kind, pairs)
            except GraphError as e:
                oracle_err = type(e).__name__
            if (engine_err is None) != (oracle_err is None):
                report.failures.append(
                    f"batch {idx}: engine={engine_err or 'accepted'} "
                    f"oracle={oracle_err or 'accepted'}"
                )
            if kind == "Q" and answers is not None and oracle_answers is not None:
                if answers != oracle_answers:
                    bad = next(
                        j for j, (a, b) in enumerate(zip(answers, oracle_answers)) if a != b
                    )
                    report.failures.append(
                        f"batch {idx}: query {pairs[bad]} engine={answers[bad]} "
                        f"oracle={oracle_answers[bad]}"
                    )
        elif engine_err is not None:
            raise ScriptError(f"batch {idx} rejected by engine: {engine_err}")
        if verify == "full-audit":
            audit = engine.audit()
            if not audit.ok:
                report.failures.append(f"batch {idx}: audit: {audit.first()}")
        report.batch_lines.append((idx, kind, len(pairs), outcome))
        report.batch_times.append((time.perf_counter() - t0) * 1000.0)
    report.total_time = time.perf_counter() - t_start
    report.counters = engine.counters.snapshot()
    return report


def stats_text(counters: dict) -> str:
    """Summarize the amortization ledger of one run."""
    m = counters.get("m", 0)
    P = counters.get("P", 0)
    K = counters.get("K", 0)
    d = counters.get("d", 0)
    bound = counters.get("push_bound", 0)
    lines = [
        f"P={P}",
        f"push_bound=m*L={bound}",
        f"push_bound_slack={(P / bound) if bound else 0.0:.4f}",
        f"avg_level_decreases_per_inserted_edge={(P / m) if m else 0.0:.4f}",
        f"pushes_per_deleted_edge={(P / K) if K else 0.0:.4f}",
        f"K={K}",
        f"d={d}",
        f"delta={counters.get('delta', 0.0):.4f}",
    ]
    lines += _rounds_lines(counters)
    return "\n".join(lines) + "\n"


def _parse_mix(text):
    parts = text.split(",")
    if len(parts) != 3:
        raise ScriptError(f"mix must be three comma-separated ratios, got {text!r}")
    try:
        mix = tuple(float(p) for p in parts)
    except ValueError:
        raise ScriptError(f"non-numeric mix ratio in {text!r}")
    return mix


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="batchconn",
        description="batch-dynamic connectivity workload harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="generate a seeded workload script")
    g.add_argument("--n", type=int, required=True, help="vertex count")
    g.add_argument("--batches", type=int, required=True, help="number of batches")
    g.add_argument("--avg-batch-size", type=float, required=True,
                   help="target average deletion batch size")
    g.add_argument("--mix", default="0.5,0.3,0.2",
                   help="insert,delete,query batch ratios (sum to 1)")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", default="-", help="output path, - for stdout")

    r = sub.add_parser("run", help="replay a script through the engine")
    r.add_argument("script", help="script path, - for stdin")
    r.add_argument("--strategy", choices=["simple", "interleaved"], default="simple")
    r.add_argument("--verify", choices=["none", "oracle", "full-audit"], default="none")
    r.add_argument("--out", default=None,
                   help="also write a machine-readable JSON report here")

    st = sub.add_parser("stats", help="summarize a JSON run report")
    st.add_argument("report", help="JSON report path from run --out")

    args = parser.parse_args(argv)
    try:
        if args.command == "generate":
            script = generate(
                args.n,
                args.batches,
                args.avg_batch_size,
                mix=_parse_mix(args.mix),
                seed=args.seed,
            )
            text = script.serialize()
            if args.out == "-":
                sys.stdout.write(text)
            else:
                with open(args.out, "w") as fh:
                    fh.write(text)
            return 0
        if args.command == "run":
            if args.script == "-":
                text = sys.stdin.read()
            else:
                with open(args.script) as fh:
                    text = fh.read()
            script = parse_script(text)
            report = run_script(
                script,
                strategy=args.strategy,
                verify=args.verify,
                name=args.script,
            )
            sys.stdout.write(report.to_text())
            if args.out:
                with open(args.out, "w") as fh:
                    json.dump(report.to_json(), fh, indent=1, sort_keys=True)
                    fh.write("\n")
            return 0 if report.ok else 1
        if args.command == "stats":
            with open(args.report) as fh:
                payload = json.load(fh)
            counters = payload.get("counters", {}) if isinstance(payload, dict) else None
            if not isinstance(counters, dict):
                raise ScriptError(f"{args.report}: not a run report object")
            try:
                text = stats_text(counters)
            except (AttributeError, TypeError, ValueError) as e:
                raise ScriptError(f"{args.report}: malformed counters: {e}")
            sys.stdout.write(text)
            return 0
    except (ScriptError, OSError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    return 2


if __name__ == "__main__":
    sys.exit(main())
