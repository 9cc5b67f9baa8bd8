"""The benchmark's workloads and their seeded input generator.

Every workload preloads a random graph and then runs rounds. A round deletes
``delta`` uniformly chosen live edges, inserts ``delta`` fresh ones (so the
live edge count stays at the preload size), then asks one batch of
``queries`` uniform random connectivity queries. All batches are built from the seed before any
timing starts; the program only ever sees these lists.
"""

from __future__ import annotations

import math
import random
from array import array
from dataclasses import asdict, dataclass

from batchconn.workload import WorkloadScript


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    n: int
    preload_m: int
    delta: int
    queries: int            # pairs in the round's query batch
    strategy: str
    # Rounds per second of an untraced run on the reference box (2 cores,
    # Python 3.11). Sizes the pre-generated input and the traced run.
    rounds_per_s: float
    # Rounds played after the preload and before timing starts.
    warmup_rounds: int = 0

    def params(self) -> dict:
        return asdict(self)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="churn-dense",
            why="giant component: tree deletions search non-tree windows "
            "and push whole trees down, the regime the amortisation covers",
            n=1 << 14,
            preload_m=2 << 14,
            delta=64,
            queries=256,
            strategy="interleaved",
            rounds_per_s=9.0,
            # The first ~80 rounds after the preload push the bulk-loaded
            # top-level edges down and cost about twice the steady state;
            # how much twice depends on the graph, so they are played untimed.
            warmup_rounds=80,
        ),
        Workload(
            name="churn-sparse",
            why="below the giant threshold: deletions cut small trees with no "
            "replacement, so cut/link, totals walks and per-batch overhead dominate",
            n=1 << 16,
            preload_m=int(0.45 * (1 << 16)),
            delta=8,
            queries=64,
            strategy="simple",
            rounds_per_s=110.0,
        ),
    )
}

# Edges per insert batch of the preload.
PRELOAD_BATCH = 1024

# Untraced runs stop on time; the generated input leaves this much headroom
# over the reference rate so a faster program still runs for the full time.
HEADROOM = 4


@dataclass
class Round:
    delete: list
    insert: list
    # query endpoints, flat; the pair lists are built only when a round is
    # played, so that thousands of pre-generated rounds stay small in memory
    query_ends: array

    def queries(self) -> list:
        """The round's query batch as a list of (u, v) pairs."""
        it = iter(self.query_ends)
        return list(zip(it, it))

    def elements(self) -> int:
        return len(self.delete) + len(self.insert) + len(self.query_ends) // 2


@dataclass
class Inputs:
    workload: Workload
    seed: int
    preload: list          # insert batches
    rounds: list           # Round objects

    def preload_edges(self) -> int:
        return sum(map(len, self.preload))

    def to_script(self, rounds=None) -> WorkloadScript:
        """The preload and the first ``rounds`` rounds as a replayable script.

        The script's seed is the engine seed the benchmark used, so
        ``batchconn run --strategy <s> --verify full-audit`` rebuilds the
        same structure.
        """
        script = WorkloadScript(n=self.workload.n, seed=self.seed)
        script.batches.extend(("I", list(b)) for b in self.preload)
        for rnd in self.rounds[:rounds]:
            script.batches.append(("D", list(rnd.delete)))
            script.batches.append(("I", list(rnd.insert)))
            script.batches.append(("Q", rnd.queries()))
        return script


def rounds_for(workload: Workload, seconds: float) -> int:
    """Rounds generated for an untraced run of ``seconds``, warm-up included."""
    return workload.warmup_rounds + max(4, math.ceil(HEADROOM * workload.rounds_per_s * seconds))


def generate(workload: Workload, seed: int, rounds: int) -> Inputs:
    """Build the preload and ``rounds`` rounds; the same seed gives the same lists."""
    rng = random.Random(f"{workload.name}/{seed}")
    n = workload.n
    live = []
    live_set = set()

    def fresh(count, banned=()):
        out = []
        while len(out) < count:
            u, v = rng.randrange(n), rng.randrange(n)
            if u == v:
                continue
            key = (u, v) if u < v else (v, u)
            if key in live_set or key in banned:
                continue
            live_set.add(key)
            live.append(key)
            out.append(key)
        return out

    def pick_uniform():
        j = rng.randrange(len(live))
        live[j], live[-1] = live[-1], live[j]
        return live.pop()

    preload_edges = fresh(workload.preload_m)
    b = PRELOAD_BATCH
    preload = [preload_edges[j:j + b] for j in range(0, len(preload_edges), b)]
    out = []
    for _ in range(rounds):
        deleted = [pick_uniform() for _ in range(workload.delta)]
        live_set.difference_update(deleted)
        # an edge deleted this round is not re-inserted in the same round
        inserted = fresh(workload.delta, banned=set(deleted))
        ends = array("i", (rng.randrange(n) for _ in range(2 * workload.queries)))
        out.append(Round(deleted, inserted, ends))
    return Inputs(workload, seed, preload, out)
