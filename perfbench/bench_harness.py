"""Closed-loop runs of one workload: untraced for end-to-end numbers, traced
for per-layer numbers.

One caller sends each batch only after the previous one returned. Only the
program's own calls sit inside a timed region; generating inputs, checking
answers and reading counters happen outside it.
"""

from __future__ import annotations

import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from collections import defaultdict
from dataclasses import dataclass, field

from batchconn import GraphError, LevelStructure

from bench_gate import Outcome, check
from bench_trace import Tracer
from bench_workloads import generate, rounds_for

SETUP_REPS = 3         # constructions + preloads per untraced run; medians of both
SLICES = 9             # per-element costs are medians over this many slices
MAX_LEVELS = 16        # per-level metrics cover levels 1..16 (n <= 2^16)
SET_UP_SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "set_up.py")


class GcMeter:
    """Cyclic-GC pause time and gen-2 collections, split by phase."""

    def __init__(self):
        self.phase = "idle"
        self.pause = defaultdict(float)
        self.gen2 = defaultdict(int)
        self._t0 = 0.0

    def __call__(self, phase, info):
        if phase == "start":
            self._t0 = time.perf_counter()
            return
        self.pause[self.phase] += time.perf_counter() - self._t0
        if info["generation"] == 2:
            self.gen2[self.phase] += 1

    def __enter__(self):
        gc.callbacks.append(self)
        return self

    def __exit__(self, *exc):
        gc.callbacks.remove(self)


@dataclass
class BatchTimes:
    """Durations of the timed calls of one kind, with their element counts."""

    seconds: list = field(default_factory=list)
    sizes: list = field(default_factory=list)

    @property
    def elements(self):
        return sum(self.sizes)

    def total(self):
        return math.fsum(self.seconds)

    def us_per_element(self):
        return 1e6 / sliced_rate(self.seconds, self.sizes)


def sliced_rate(seconds, sizes):
    """Elements per second: the median over ``SLICES`` consecutive slices.

    A median over slices keeps one stalled stretch of the run (a collector
    pause, a burst of load from elsewhere on the machine) from setting the
    figure, while each slice still averages many calls.
    """
    k = min(SLICES, len(seconds))
    bounds = [len(seconds) * i // k for i in range(k + 1)]
    return statistics.median(
        sum(sizes[a:b]) / math.fsum(seconds[a:b]) for a, b in zip(bounds, bounds[1:])
    )


@dataclass
class Times:
    inserts: BatchTimes = field(default_factory=BatchTimes)
    deletes: BatchTimes = field(default_factory=BatchTimes)
    queries: BatchTimes = field(default_factory=BatchTimes)

    def busy(self):
        return self.inserts.total() + self.deletes.total() + self.queries.total()

    def elements(self):
        return self.inserts.elements + self.deletes.elements + self.queries.elements


class Player:
    """Sends batches to one ``LevelStructure``, timing each call.

    ``times`` collects the durations; a caller may swap it between rounds.
    """

    def __init__(self, ls):
        self.ls = ls
        self.outcome = Outcome()
        self.times = Times()
        self.elapsed = 0.0      # summed duration of every timed call

    def _timed(self, call, batch, times):
        t0 = time.perf_counter()
        try:
            result = call(batch)
        except GraphError:
            result = None
            self.outcome.rejected += len(batch)
        dt = time.perf_counter() - t0
        self.elapsed += dt
        times.seconds.append(dt)
        times.sizes.append(len(batch))
        return result

    def preload(self, batches):
        """Insert the preload batches; returns their times."""
        times = BatchTimes()
        for batch in batches:
            self._timed(self.ls.batch_insert, batch, times)
        return times

    def play(self, rnd, after_delete=None):
        """Delete, insert, then query; ``after_delete()`` runs untimed in between."""
        ls, t = self.ls, self.times
        queries = rnd.queries()
        self._timed(ls.batch_delete, rnd.delete, t.deletes)
        if after_delete is not None:
            after_delete()
        self._timed(ls.batch_insert, rnd.insert, t.inserts)
        self.outcome.answers.append(self._timed(ls.batch_connected, queries, t.queries))

    def finish(self):
        """Record the engine's component count for the end-state check."""
        top = self.ls.forests[self.ls.levels]
        self.outcome.components = self.ls.n - len(top.edge_pairs())


def _quantile(values, q):
    """Inclusive linear-interpolation quantile (q in (0, 1))."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def _counters(ls):
    c = ls.counters
    return {
        "P": c.pushes,
        "K": c.edges_deleted,
        "search_calls": c.search_calls,
        "phases": c.phases_total,
        "rounds": sum(c.rounds_by_batch_level.values()),
        "slot_writes": ls.adj.slot_writes,
    }


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _freeze_inputs():
    # The generated inputs are the caller's, not the program's: keep them out
    # of the collector's generations so they do not inflate its pauses.
    # ``gc.unfreeze`` at the end of the run hands them back.
    gc.collect()
    gc.freeze()


def _settle(meter):
    """Full collection between phases, so each phase starts from the same
    collector state rather than inheriting the previous phase's debt."""
    meter.phase = "idle"
    gc.collect()


def _warm_up(player, inputs):
    """Play the workload's untimed warm-up rounds; returns the rest."""
    w = inputs.workload.warmup_rounds
    times, player.times = player.times, Times()
    for rnd in inputs.rounds[:w]:
        player.play(rnd)
    player.times = times
    return inputs.rounds[w:]


def set_up(workload, seed, preload, meter):
    """Construct a structure and insert the preload, timing both.

    Returns the player holding the structure, the construction's seconds and
    the preload's batch times.
    """
    _settle(meter)
    meter.phase = "setup"
    t0 = time.perf_counter()
    ls = LevelStructure(workload.n, seed=seed, strategy=workload.strategy)
    setup_s = time.perf_counter() - t0
    _settle(meter)
    meter.phase = "load"
    player = Player(ls)
    load = player.preload(preload)
    meter.phase = "idle"
    return player, setup_s, load


def set_up_fresh(workload, seed):
    """``set_up`` once more in a fresh interpreter (``set_up.py``).

    Returns the construction's seconds and the preload's µs per edge.
    """
    done = subprocess.run(
        [sys.executable, SET_UP_SCRIPT, json.dumps(workload.params()), str(seed)],
        stdout=subprocess.PIPE, text=True, check=True, timeout=120,
    )
    got = json.loads(done.stdout.splitlines()[-1])
    return got["setup_s"], got["load_us_per_edge"]


def untraced(workload, seed, seconds):
    """End-to-end run: ``seconds`` of timed rounds after set-up and preload.

    Set-up and preload run ``SETUP_REPS`` times, each in a fresh heap: in
    ``SETUP_REPS - 1`` child interpreters first, then in this process on the
    structure the timed rounds use. A second construction in the same
    process would meet a heap fragmented by the first, and the collector
    passes that dominate construction run measurably slower there.
    """
    inputs = generate(workload, seed, rounds_for(workload, seconds))
    _freeze_inputs()
    reps = [set_up_fresh(workload, seed) for _ in range(SETUP_REPS - 1)]
    with GcMeter() as meter:
        player, setup_s, load = set_up(workload, seed, inputs.preload, meter)
        reps.append((setup_s, 1e6 * load.total() / load.elements))
        ls = player.ls
        meter.phase = "warmup"
        rounds = _warm_up(player, inputs)
        _settle(meter)
        meter.phase = "run"
        t = player.times = Times()
        start = player.elapsed
        for rnd in rounds:
            if player.elapsed - start >= seconds:
                break
            player.play(rnd)
        meter.phase = "idle"
    player.finish()
    counters_end = _counters(ls)
    peak = _peak_rss_mb()
    gc.unfreeze()
    verdict = check(inputs, player.outcome)
    round_s = list(map(sum, zip(t.deletes.seconds, t.inserts.seconds, t.queries.seconds)))
    round_sizes = list(map(sum, zip(t.deletes.sizes, t.inserts.sizes, t.queries.sizes)))
    metrics = {
        "setup_s": statistics.median(r[0] for r in reps),
        "load_us_per_edge": statistics.median(r[1] for r in reps),
        "ops_per_s": sliced_rate(round_s, round_sizes),
        "insert_us_per_edge": t.inserts.us_per_element(),
        "delete_us_per_edge": t.deletes.us_per_element(),
        "query_us_per_query": t.queries.us_per_element(),
        "delete_batch_p50_ms": 1e3 * statistics.median(t.deletes.seconds),
        "delete_batch_p90_ms": 1e3 * _quantile(t.deletes.seconds, 0.9),
        "query_batch_p50_ms": 1e3 * statistics.median(t.queries.seconds),
        "peak_rss_mb": peak,
    }
    report = {
        "rounds_played": len(t.deletes.seconds),
        "rounds_generated": len(rounds),
        "warmup_rounds": workload.warmup_rounds,
        "measured_s": t.busy(),
        "mean_ops_per_s": t.elements() / t.busy(),
        "mean_us_per_element": {
            "insert": 1e6 * t.inserts.total() / t.inserts.elements,
            "delete": 1e6 * t.deletes.total() / t.deletes.elements,
            "query": 1e6 * t.queries.total() / t.queries.elements,
        },
        "setup_s_each": [r[0] for r in reps],
        "load_us_per_edge_each": [r[1] for r in reps],
        "samples": {
            "delete_batches": len(t.deletes.seconds),
            "insert_batches": len(t.inserts.seconds),
            "query_batches": len(t.queries.seconds),
        },
        "gc_pause_s": {phase: meter.pause[phase] for phase in ("setup", "load", "run")},
        "gc_gen2_collections": dict(meter.gen2),
        "counters_end": counters_end,
    }
    return inputs, len(player.outcome.answers), metrics, report, verdict


def traced_rounds(workload, seconds):
    """Rounds of a traced run: even, and fixed by the workload and ``seconds``."""
    return 2 * max(2, math.ceil(workload.rounds_per_s * seconds / 3))


def traced(workload, seed, seconds):
    """Per-layer run: a fixed number of rounds, every other one traced.

    The round count depends only on the workload and ``seconds``, so every
    count in the result repeats exactly for the same seed. The untraced
    rounds give the baseline for ``trace.overhead_share``.
    """
    inputs = generate(workload, seed, workload.warmup_rounds + traced_rounds(workload, seconds))
    _freeze_inputs()
    tracer = Tracer()
    on, off = Times(), Times()   # traced rounds, untraced rounds
    traced_batches = []          # deletion-batch indices of the traced rounds
    replacements = 0
    slot_writes = 0
    try:
        with GcMeter() as meter:
            tracer.install()
            meter.phase = "setup"
            tracer.mark("setup")
            ls = LevelStructure(workload.n, seed=seed, strategy=workload.strategy)
            _settle(meter)
            meter.phase = "load"
            tracer.mark("load")
            player = Player(ls)
            player.preload(inputs.preload)
            tracer.uninstall()
            meter.phase = "warmup"
            rounds = _warm_up(player, inputs)
            _settle(meter)
            meter.phase = "run"
            tracer.mark("run")
            top = ls.forests[ls.levels]
            for r, rnd in enumerate(rounds):
                if r % 2:
                    tracer.uninstall()
                    player.times = off
                    player.play(rnd)
                    continue
                tracer.install()
                player.times = on
                # replacements, seen from outside: top-forest tree edges
                # after the delete batch, against before minus deleted tree edges
                cut = sum(ls.edges.get(k).status == "tree" for k in rnd.delete)
                expected = len(top.edge_pairs()) - cut
                traced_batches.append(ls.counters.deletion_batches)
                writes = ls.adj.slot_writes
                found = []
                player.play(rnd, lambda: found.append(len(top.edge_pairs()) - expected))
                slot_writes += ls.adj.slot_writes - writes
                replacements += found[0]
            meter.phase = "idle"
    finally:
        tracer.uninstall()
        gc.unfreeze()
    player.finish()
    verdict = check(inputs, player.outcome)
    snap = ls.counters.snapshot()
    del ls, player, top
    gc.collect()
    tracemalloc_mb = _tracemalloc_peak_mb(workload, seed, inputs.preload)

    run = tracer.summary("run")
    metrics = {}

    def layer(label, count_name=None, calls=True):
        got = [v for k, v in run.items() if k == label or k.startswith(label + ".")]
        if calls:
            metrics[f"{label}.calls"] = sum(g[0] for g in got)
        if count_name:
            metrics[f"{label}.{count_name}"] = sum(g[1] for g in got)
        metrics[f"{label}.self_s"] = math.fsum(g[2] for g in got)

    layer("etforest.batch_link", "edges")
    layer("etforest.batch_cut", "edges")
    layer("etforest.totals")
    # find_repr counts vertices: one per find_repr, len(vertices) per batch call
    layer("etforest.find_repr", "calls", calls=False)
    layer("etforest.batch_connected", "queries", calls=False)
    layer("etforest.fetch_level_edges", "edges")
    layer("etforest.adjust_edge_counts", "deltas")
    layer("etforest.remove_level_edges", "edges")
    metrics["etforest.init_s"] = tracer.summary("setup")["etforest.init"][3]
    for op in ("insert_edges", "delete_edges", "fetch_edges"):
        layer(f"adjstore.{op}", "edges")
    moved = metrics["adjstore.insert_edges.edges"] + metrics["adjstore.delete_edges.edges"]
    metrics["adjstore.slot_writes"] = slot_writes
    metrics["adjstore.slot_writes_per_edge"] = slot_writes / moved if moved else 0.0
    layer("connectivity.level_search")
    for i in range(1, MAX_LEVELS + 1):
        got = run.get(f"connectivity.level_search.l{i}")
        metrics[f"connectivity.level_search.s.l{i}"] = got[3] if got else 0.0

    traced_set = set(traced_batches)

    def by_level(key):
        out = defaultdict(int)
        for bl, c in snap[key].items():
            b, i = map(int, bl.split(":"))
            if b in traced_set:
                out[i] += c
        return out

    pushes = by_level("pushes_by_batch_level")
    for i in range(1, MAX_LEVELS + 1):
        metrics[f"connectivity.pushes.l{i}"] = pushes[i]
    P = sum(pushes.values())
    deleted = sum(snap["deletion_batch_sizes"][b] for b in traced_batches)
    metrics["connectivity.P"] = P
    metrics["connectivity.pushes_per_deleted_edge"] = P / deleted
    metrics["connectivity.search_calls"] = sum(by_level("search_calls_by_batch_level").values())
    metrics["connectivity.rounds"] = sum(by_level("rounds_by_batch_level").values())
    metrics["connectivity.phases"] = sum(by_level("phases_by_batch_level").values())
    fetched = run.get("etforest.fetch_level_edges.nontree", (0, 0))[1]
    metrics["connectivity.replacements"] = replacements
    metrics["connectivity.replacement_yield"] = replacements / fetched if fetched else 0.0
    for op in ("batch_insert", "batch_delete", "batch_connected"):
        layer(f"connectivity.{op}", calls=False)
    for prim in ("spanning_forest", "semisort", "batch_dict"):
        layer(f"primitives.{prim}")
    load = tracer.summary("load")
    for mod in ("connectivity", "etforest", "adjstore", "primitives"):
        metrics[f"load.{mod}.self_s"] = math.fsum(
            v[2] for k, v in load.items() if k.startswith(mod + ".")
        )
    for phase in ("setup", "load", "run"):
        metrics[f"runtime.gc_pause_s.{phase}"] = meter.pause[phase]
    metrics["runtime.gc_gen2_collections"] = sum(meter.gen2.values())
    metrics["runtime.tracemalloc_peak_mb"] = tracemalloc_mb
    on_rate = on.elements() / on.busy()
    off_rate = off.elements() / off.busy()
    metrics["trace.overhead_share"] = 1.0 - on_rate / off_rate
    metrics["trace.spans"] = len(tracer.start)
    report = {
        "rounds_played": len(rounds),
        "rounds_traced": len(traced_batches),
        "warmup_rounds": workload.warmup_rounds,
        "traced_s": on.busy(),
        "untraced_s": off.busy(),
        "traced_ops_per_s": on_rate,
        "untraced_ops_per_s": off_rate,
        "gc_gen2_collections": dict(meter.gen2),
        "counters_end": {
            "P": snap["P"], "K": snap["K"], "search_calls": snap["search_calls"],
            "phases": snap["phases"],
        },
    }
    return inputs, tracer, metrics, report, verdict


def _tracemalloc_peak_mb(workload, seed, preload):
    """Peak traced Python memory of set-up plus preload, in a separate pass.

    Kept apart from the traced run because tracemalloc slows allocation
    several-fold, which would distort the set-up and preload spans.
    """
    tracemalloc.start()
    try:
        ls = LevelStructure(workload.n, seed=seed, strategy=workload.strategy)
        for batch in preload:
            ls.batch_insert(batch)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
