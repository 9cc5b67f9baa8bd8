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
end of file. Every edge or query line is ``E u v``. Fields are separated by
single spaces and integers are canonical decimal, so scripts round-trip
byte-exactly through parse and serialize (a missing final newline is the
one other spelling accepted).
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


_INT = "(0|-?[1-9][0-9]*)"
_HEADER = re.compile(f"# n={_INT} seed={_INT}")
_LINE = re.compile(f"B ([IDQ])|E {_INT} {_INT}")


def parse_script(text: str) -> WorkloadScript:
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()         # the final newline
    if not lines:
        raise ScriptError("empty script: missing header")
    m = _HEADER.fullmatch(lines[0])
    if not m:
        raise ScriptError(f"bad header line: {lines[0]!r}")
    script = WorkloadScript(n=int(m.group(1)), seed=int(m.group(2)))
    if script.n < 1:
        raise ScriptError(f"header needs at least one vertex, got n={script.n}")
    current = None
    for no, line in enumerate(lines[1:], start=2):
        m = _LINE.fullmatch(line)
        if not m:
            raise ScriptError(f"line {no}: not 'B I|D|Q' or 'E <u> <v>': {line!r}")
        if m.group(1):
            current = (m.group(1), [])
            script.batches.append(current)
        elif current is None:
            raise ScriptError(f"line {no}: edge before any batch")
        else:
            current[1].append((int(m.group(2)), int(m.group(3))))
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
    target live edges (a shadow edge set is tracked). Every batch size is
    drawn from the integers within 10% of the requested size, so the realized
    deletion average stays within 10% by construction. A size with no integer
    in that band is a ScriptError if the delete ratio is nonzero; otherwise
    every batch size is ``max(1, ceil(0.9 * avg_batch_size))``. A delete
    draw finding too small a live pool becomes an insert instead, which
    requires a nonzero insert ratio.
    """
    if not all(map(math.isfinite, (avg_batch_size, *mix))):
        raise ScriptError(f"avg-batch-size {avg_batch_size} and mix {mix} must be finite")
    if n < 2 or num_batches < 1 or avg_batch_size < 1:
        raise ScriptError("n, num-batches, and avg-batch-size must be positive")
    p_ins, p_del, p_query = mix
    if min(mix) < 0 or abs(p_ins + p_del + p_query - 1.0) > 1e-9:
        raise ScriptError(f"mix ratios {mix} must be nonnegative and sum to 1")
    # band kept strictly inside +-10% even after rounding
    lo = max(1, math.ceil(avg_batch_size * 0.9))
    hi = math.floor(avg_batch_size * 1.1)
    if p_del > 0 and lo > hi:
        raise ScriptError(f"no integer deletion batch size lies within 10% of {avg_batch_size}")
    hi = max(lo, hi)
    rng = random.Random(seed)
    script = WorkloadScript(n=n, seed=seed)
    live = []
    live_set = set()

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
        size = rng.randint(lo, hi)
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
    return script
