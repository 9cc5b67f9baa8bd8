"""Workload scripts: a line-oriented text format plus a seeded generator.

Format, chosen for diff-ability and trivial parsing:

    # n=<int> seed=<int, may be negative>
    B I
    E <u> <v>
    B D
    E <u> <v>
    B Q
    E <u> <v>

A batch opens with ``B I|D|Q`` and is closed by the next ``B`` line or the
end of file. Every edge or query line is ``E u v``. Scripts round-trip
byte-exactly through parse and serialize.
"""

from __future__ import annotations

import math
import random
import re
from dataclasses import dataclass, field


class ScriptError(ValueError):
    """Malformed script text or infeasible generator parameters."""


@dataclass
class WorkloadScript:
    n: int
    seed: int
    batches: list = field(default_factory=list)  # (kind, [(u, v), ...])

    def serialize(self) -> str:
        lines = [f"# n={self.n} seed={self.seed}"]
        for kind, pairs in self.batches:
            lines.append(f"B {kind}")
            for u, v in pairs:
                lines.append(f"E {u} {v}")
        return "\n".join(lines) + "\n"

    def op_count(self) -> int:
        return sum(len(pairs) for _, pairs in self.batches)


_HEADER = re.compile(r"^# n=(\d+) seed=(-?\d+)$")


def parse_script(text: str) -> WorkloadScript:
    lines = text.splitlines()
    if not lines:
        raise ScriptError("empty script: missing header")
    m = _HEADER.match(lines[0])
    if not m:
        raise ScriptError(f"bad header line: {lines[0]!r}")
    script = WorkloadScript(n=int(m.group(1)), seed=int(m.group(2)))
    if script.n < 1:
        raise ScriptError(f"header needs at least one vertex, got n={script.n}")
    current = None
    for no, line in enumerate(lines[1:], start=2):
        if not line.strip():
            raise ScriptError(f"line {no}: blank lines are not allowed")
        parts = line.split()
        if parts[0] == "B":
            if len(parts) != 2 or parts[1] not in ("I", "D", "Q"):
                raise ScriptError(f"line {no}: bad batch line {line!r}")
            current = (parts[1], [])
            script.batches.append(current)
        elif parts[0] == "E":
            if current is None:
                raise ScriptError(f"line {no}: edge before any batch")
            if len(parts) != 3:
                raise ScriptError(f"line {no}: bad edge line {line!r}")
            try:
                u, v = int(parts[1]), int(parts[2])
            except ValueError:
                raise ScriptError(f"line {no}: non-integer endpoint in {line!r}")
            current[1].append((u, v))
        else:
            raise ScriptError(f"line {no}: unknown directive {parts[0]!r}")
    return script


def generate(
    n: int,
    num_batches: int,
    avg_batch_size: float,
    mix=(0.5, 0.3, 0.2),
    seed: int = 0,
) -> WorkloadScript:
    """Generate a replayable script with a controlled deletion batch size.

    ``mix`` is the (insert, delete, query) batch-type ratio. Deletions only
    target live edges (a shadow edge set is tracked). Every deletion batch is
    drawn whole from a band within 10% of the requested size, so the realized
    average stays within 10% by construction; a delete draw finding too small
    a live pool becomes an insert instead, which requires a nonzero insert
    ratio.
    """
    if n < 2 or num_batches < 1 or avg_batch_size < 1:
        raise ScriptError("n, num-batches, and avg-batch-size must be positive")
    p_ins, p_del, p_query = mix
    if min(mix) < 0 or abs(p_ins + p_del + p_query - 1.0) > 1e-9:
        raise ScriptError(f"mix ratios {mix} must be nonnegative and sum to 1")
    rng = random.Random(seed)
    script = WorkloadScript(n=n, seed=seed)
    live = []
    live_set = set()
    realized = [0, 0]      # deletion batches emitted, edges deleted

    def draw_size():
        # band kept strictly inside +-10% even after rounding
        lo = max(1, math.ceil(avg_batch_size * 0.9))
        hi = max(lo, math.floor(avg_batch_size * 1.1))
        return rng.randint(lo, hi)

    def insert_batch(size):
        batch = []
        attempts = 0
        while len(batch) < size and attempts < 50 * size + 200:
            attempts += 1
            u, v = rng.randrange(n), rng.randrange(n)
            if u == v:
                continue
            key = (min(u, v), max(u, v))
            if key in live_set:
                continue
            live_set.add(key)
            live.append(key)
            batch.append(key)
        return batch

    for _ in range(num_batches):
        roll = rng.random()
        if roll < p_ins:
            kind = "I"
        elif roll < p_ins + p_del:
            kind = "D"
        else:
            kind = "Q"
        size = draw_size()
        if kind == "D" and len(live) < size:
            if p_ins <= 0:
                raise ScriptError("deletion requested with no insertions possible")
            kind = "I"
        if kind == "I":
            batch = insert_batch(size)
            if batch:
                script.batches.append(("I", batch))
        elif kind == "Q":
            batch = [(rng.randrange(n), rng.randrange(n)) for _ in range(size)]
            script.batches.append(("Q", batch))
        else:
            batch = []
            for _ in range(size):
                j = rng.randrange(len(live))
                live[j], live[-1] = live[-1], live[j]
                key = live.pop()
                live_set.remove(key)
                batch.append(key)
            script.batches.append(("D", batch))
            realized[0] += 1
            realized[1] += size
    if realized[0]:
        mean = realized[1] / realized[0]
        if abs(mean - avg_batch_size) > 0.1 * avg_batch_size + 1e-9:
            raise ScriptError(
                f"realized deletion batch mean {mean:.2f} misses requested "
                f"{avg_batch_size} by more than 10%"
            )
    return script
