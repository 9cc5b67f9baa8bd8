"""Deletion batch-size sweep: wall time and pushes per deleted edge against Δ.

    python3 perfbench/sweep.py [--seed 1]

At n = 2048 with 4096 random edges, each strategy deletes every edge in
batches of Δ ∈ {1, 16, 256, 2048}. The paper bounds the amortised work per
deleted edge by O(log n · log(1 + n/Δ)); the report shows whether wall time
per deleted edge, not only the push count P/K, falls with Δ in that shape.
It is a report, not a graded workload: nothing here is compared against a
bound. The table goes to standard output and the rows to
``perfbench/out/sweep-seed<seed>.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import sys
import time

from run import OUT, _import_program

N = 2048
EDGES = 4096
DELTAS = (1, 16, 256, 2048)


def sweep(seed):
    from batchconn import LevelStructure

    rng = random.Random(f"sweep/{seed}")
    pairs = set()
    while len(pairs) < EDGES:
        u, v = rng.randrange(N), rng.randrange(N)
        if u != v:
            pairs.add((min(u, v), max(u, v)))
    pairs = sorted(pairs)
    order = list(pairs)
    rng.shuffle(order)
    rows = []
    for strategy in ("simple", "interleaved"):
        for delta in DELTAS:
            ls = LevelStructure(N, seed=seed, strategy=strategy)
            for j in range(0, len(pairs), 512):
                ls.batch_insert(pairs[j:j + 512])
            spent = 0.0
            for j in range(0, len(order), delta):
                batch = order[j:j + delta]
                t0 = time.perf_counter()
                ls.batch_delete(batch)
                spent += time.perf_counter() - t0
            K = ls.counters.edges_deleted
            rows.append({
                "strategy": strategy,
                "delta": delta,
                "us_per_deleted_edge": 1e6 * spent / K,
                "pushes_per_deleted_edge": ls.counters.pushes / K,
                "log2_1_plus_n_over_delta": math.log2(1 + N / delta),
            })
    return rows


def main(argv=None) -> int:
    _import_program()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    rows = sweep(args.seed)
    print(f"n={N} edges={EDGES} seed={args.seed}")
    print(f"{'strategy':12s} {'delta':>6s} {'us/edge':>10s} {'P/K':>8s} "
          f"{'log2(1+n/d)':>12s} {'us/edge rel':>12s} {'P/K rel':>8s} {'pred rel':>9s}")
    for row in rows:
        base = next(r for r in rows if r["strategy"] == row["strategy"])
        print(f"{row['strategy']:12s} {row['delta']:6d} {row['us_per_deleted_edge']:10.1f} "
              f"{row['pushes_per_deleted_edge']:8.3f} {row['log2_1_plus_n_over_delta']:12.3f} "
              f"{row['us_per_deleted_edge'] / base['us_per_deleted_edge']:12.3f} "
              f"{row['pushes_per_deleted_edge'] / base['pushes_per_deleted_edge']:8.3f} "
              f"{row['log2_1_plus_n_over_delta'] / base['log2_1_plus_n_over_delta']:9.3f}")
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"sweep-seed{args.seed}.json"), "w") as fh:
        json.dump({"n": N, "edges": EDGES, "seed": args.seed, "rows": rows}, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
