"""Correctness gate: every query answer of a run against ``OracleGraph``.

The check runs after the timed phase. ``OracleGraph`` validates and applies
each batch exactly as in the repo's differential tests; only its from-scratch
component labelling is replaced by scipy's, because the pure-Python one costs
about 50 ms per recomputation at these sizes and a run recomputes once per
round. ``test_perfbench`` checks the two labellings agree.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from batchconn.oracle import OracleGraph


class FastOracle(OracleGraph):
    """``OracleGraph`` whose component labels come from scipy.

    The live edge set is mirrored into an endpoint array (swap-remove on
    delete), so each labelling starts from arrays rather than a set walk.
    """

    def __init__(self, n):
        super().__init__(n)
        self._ends = np.empty((1024, 2), dtype=np.int64)
        self._slot = {}

    def apply(self, kind, pairs):
        super().apply(kind, pairs)
        slot = self._slot
        for u, v in pairs:
            key = (u, v) if u < v else (v, u)
            k = len(slot)
            if kind == "I":
                if k == len(self._ends):
                    self._ends = np.resize(self._ends, (2 * k, 2))
                self._ends[k] = key
                slot[key] = k
                continue
            j = slot.pop(key)
            if j < k - 1:
                last = tuple(self._ends[k - 1].tolist())
                self._ends[j] = last
                slot[last] = j

    def _labels(self):
        ends = self._ends[: len(self._slot)]
        graph = coo_matrix(
            (np.ones(len(ends), dtype=np.int8), (ends[:, 0], ends[:, 1])),
            shape=(self.n, self.n),
        )
        return connected_components(graph, directed=False)

    def _roots(self):
        return self._labels()[1]

    def component_count(self) -> int:
        return self._labels()[0]


@dataclass
class Outcome:
    """What the program did in a run, recorded by the runner."""

    rejected: int = 0                              # elements in rejected batches
    answers: list = field(default_factory=list)    # per round: answers, None if rejected
    components: int = 0                            # engine component count at the end


@dataclass
class Verdict:
    attempted: int
    rejected: int
    wrong: int
    problems: list

    @property
    def failed(self) -> int:
        return self.rejected + self.wrong

    @property
    def failed_op_share(self) -> float:
        return self.failed / self.attempted

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems


def check(inputs, outcome: Outcome) -> Verdict:
    """Replay the executed rounds on the oracle and compare every answer."""
    oracle = FastOracle(inputs.workload.n)
    for batch in inputs.preload:
        oracle.apply("I", batch)
    attempted = inputs.preload_edges()
    wrong = 0
    problems = []
    for r, (rnd, got) in enumerate(zip(inputs.rounds, outcome.answers)):
        attempted += rnd.elements()
        oracle.apply("D", rnd.delete)
        oracle.apply("I", rnd.insert)
        if got is None:
            continue  # rejected batch, already counted
        want = oracle.connected_many(rnd.queries())
        bad = sum(a != bool(b) for a, b in zip(got, want))
        if bad and not problems:
            problems.append(f"round {r}: {bad} wrong answers")
        wrong += bad
    want_components = oracle.component_count()
    if outcome.components != want_components:
        problems.append(
            f"end state: engine has {outcome.components} components, "
            f"oracle {want_components}"
        )
    return Verdict(attempted, outcome.rejected, wrong, problems)
