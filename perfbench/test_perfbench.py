"""Tests of the benchmark itself, on shrunken copies of its workloads.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import dataclasses
import json
import os
import random
import sys

import pytest

# The correctness gate labels components with scipy; without it (and numpy)
# the benchmark cannot run, so its tests are skipped.
pytest.importorskip("numpy")
pytest.importorskip("scipy")

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

from batchconn import LevelStructure, OracleGraph  # noqa: E402
from batchconn.cli import run_script  # noqa: E402
from batchconn.workload import parse_script  # noqa: E402

import bench_harness  # noqa: E402
from bench_gate import FastOracle, check  # noqa: E402
from bench_harness import Player  # noqa: E402
from bench_workloads import WORKLOADS, generate  # noqa: E402


def small(name):
    """The named workload at n=256, keeping its strategy and round shape.

    Its preload fits in one insert batch.
    """
    w = WORKLOADS[name]
    return dataclasses.replace(
        w, n=256, preload_m=round(w.preload_m / w.n * 256), delta=max(1, w.delta // 8),
        queries=max(1, w.queries // 16), rounds_per_s=30.0,
    )


def units(kind):
    """Metric name -> unit of one metric list of BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generator_is_deterministic_per_seed_and_keeps_live_count(name):
    w = small(name)
    a, b, c = generate(w, 5, 30), generate(w, 5, 30), generate(w, 6, 30)
    assert (a.preload, a.rounds) == (b.preload, b.rounds)
    assert (a.preload, a.rounds) != (c.preload, c.rounds)
    live = {e for batch in a.preload for e in batch}
    assert len(live) == w.preload_m
    for rnd in a.rounds:
        assert set(rnd.delete) <= live
        live -= set(rnd.delete)
        assert not set(rnd.insert) & (live | set(rnd.delete))
        live |= set(rnd.insert)
        assert len(live) == w.preload_m


def test_input_replays_as_a_workload_script_with_full_audit():
    w = small("churn-dense")
    inputs = generate(w, 2, 6)
    script = parse_script(inputs.to_script(3).serialize())
    assert len(script.batches) == len(inputs.preload) + 3 * 3
    report = run_script(script, strategy=w.strategy, verify="full-audit")
    assert report.ok, report.failures


def test_metric_names_match_benchmark_json():
    w = small("churn-sparse")
    _, _, metrics, _, verdict = bench_harness.untraced(w, 1, 0.2)
    assert verdict.correct
    assert set(metrics) == set(units("end_to_end"))
    _, _, metrics, _, verdict = bench_harness.traced(w, 1, 0.2)
    assert verdict.correct
    assert set(metrics) == set(units("per_layer"))
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        graded = {w["name"] for w in json.load(fh)["workloads"]}
    assert graded == set(WORKLOADS)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_layer_self_times_fit_in_measured_wall_time(name):
    w = small(name)
    _, tracer, metrics, report, verdict = bench_harness.traced(w, 3, 0.2)
    assert verdict.correct
    run = tracer.summary("run")
    self_total = sum(v[2] for v in run.values())
    assert 0 < self_total <= report["traced_s"]
    top = sum(run[f"connectivity.{op}"][3] for op in ("batch_insert", "batch_delete", "batch_connected"))
    assert top <= report["traced_s"]
    assert self_total == pytest.approx(top)


def test_counts_repeat_for_the_same_seed():
    w = small("churn-dense")
    runs = [bench_harness.traced(w, 4, 0.2)[2] for _ in range(2)]
    unit = units("per_layer")
    counts = [
        {k: v for k, v in m.items() if unit[k] == "count" and k != "runtime.gc_gen2_collections"}
        for m in runs
    ]
    assert counts[0] == counts[1]
    assert counts[0]["connectivity.P"] > 0


def test_gate_trips_on_a_corrupted_answer():
    w = small("churn-dense")
    inputs = generate(w, 7, 5)
    player = Player(LevelStructure(w.n, seed=7, strategy=w.strategy))
    player.preload(inputs.preload)
    for rnd in inputs.rounds:
        player.play(rnd)
    player.finish()
    assert check(inputs, player.outcome).correct
    answers = player.outcome.answers[2]
    answers[0] = not answers[0]
    verdict = check(inputs, player.outcome)
    assert not verdict.correct
    assert verdict.wrong == 1
    assert verdict.failed_op_share == 1 / verdict.attempted
    assert verdict.problems == ["round 2: 1 wrong answers"]


def test_fast_oracle_agrees_with_oracle_graph():
    rng = random.Random(11)
    n = 200
    fast, slow = FastOracle(n), OracleGraph(n)
    live = []
    for _ in range(40):
        batch = set()
        while len(batch) < 10:
            u, v = rng.randrange(n), rng.randrange(n)
            key = (min(u, v), max(u, v))
            if u != v and key not in slow.edges:
                batch.add(key)
        for o in (fast, slow):
            o.apply("I", sorted(batch))
        live.extend(batch)
        rng.shuffle(live)
        gone, live = live[:6], live[6:]
        for o in (fast, slow):
            o.apply("D", gone)
        queries = [(rng.randrange(n), rng.randrange(n)) for _ in range(50)]
        assert [bool(x) for x in fast.connected_many(queries)] == slow.connected_many(queries)
        assert fast.component_count() == len(slow.components())
