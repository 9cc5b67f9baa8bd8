"""Stateful fuzz: the engine and the brute-force oracle driven in lockstep.

Hypothesis picks a vertex count n <= 16 and a strategy, then sends valid and
invalid insert, delete and query batches to both. Every batch must be
accepted or rejected alike, with the same error type; query answers must
agree; and after every step the engine's audit must pass and both must hold
the same edges.
"""

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from batchconn.connectivity import LevelStructure
from batchconn.errors import GraphError
from batchconn.oracle import OracleGraph

MAX_N = 16

# raw pairs are taken modulo n, so most of them are in range
RAW_PAIR = st.tuples(st.integers(0, MAX_N - 1), st.integers(0, MAX_N - 1))
BAD_ITEM = st.one_of(
    st.tuples(st.sampled_from([-1, MAX_N, True, False]), st.integers(0, MAX_N - 1)),
    st.tuples(st.integers(0, MAX_N - 1), st.sampled_from([-1, MAX_N, True, None])),
    st.sampled_from([(MAX_N, MAX_N), (-1, -1), 5, None, (1,), (0, 1, 2), "ab"]),
)


class Lockstep(RuleBasedStateMachine):
    @initialize(n=st.integers(1, MAX_N), strategy=st.sampled_from(["simple", "interleaved"]))
    def build(self, n, strategy):
        self.n = n
        self.engine = LevelStructure(n, strategy=strategy)
        self.oracle = OracleGraph(n)

    def in_range(self, pairs):
        return [(u % self.n, v % self.n) for u, v in pairs]

    def both(self, kind, batch):
        """Send one batch to engine and oracle; rejections must agree."""
        engine = {
            "I": self.engine.batch_insert,
            "D": self.engine.batch_delete,
            "Q": self.engine.batch_connected,
        }[kind]
        oracle = (
            self.oracle.connected_many if kind == "Q"
            else lambda pairs: self.oracle.apply(kind, pairs)
        )
        results, errors = [], []
        for call in (engine, oracle):
            try:
                results.append(call(batch))
                errors.append(None)
            except GraphError as e:
                results.append(None)
                errors.append(type(e))
        assert errors[0] == errors[1], (kind, batch, errors)
        if kind == "Q":
            assert results[0] == results[1], (batch, results)

    @rule(pairs=st.lists(RAW_PAIR, max_size=8))
    def insert_fresh(self, pairs):
        batch, seen = [], set(self.oracle.edges)
        for u, v in self.in_range(pairs):
            key = (min(u, v), max(u, v))
            if u != v and key not in seen:
                seen.add(key)
                batch.append((u, v))
        self.both("I", batch)

    @rule(data=st.data())
    def delete_live(self, data):
        # live edges in either orientation, sometimes with one more item (a
        # self loop, a missing or repeated edge, or an invalid item) anywhere
        live = sorted(self.oracle.edges)
        picked = data.draw(st.lists(st.sampled_from(live), unique=True, max_size=6)) if live else []
        batch = [(v, u) if data.draw(st.booleans()) else (u, v) for u, v in picked]
        vertex = st.integers(0, self.n - 1)
        extra = data.draw(st.one_of(st.none(), st.tuples(vertex, vertex), BAD_ITEM))
        if extra is not None:
            batch.insert(data.draw(st.integers(0, len(batch))), extra)
        self.both("D", batch)

    @rule(
        kind=st.sampled_from("IDQ"),
        pairs=st.lists(RAW_PAIR, max_size=5),
        bad=st.one_of(st.none(), BAD_ITEM),
        at=st.integers(0, 5),
    )
    def raw_batch(self, kind, pairs, bad, at):
        # anything goes: self loops, repeats, present or missing edges, and
        # at most one item that is out of range, a bool or not a pair
        batch = self.in_range(pairs)
        if bad is not None:
            batch.insert(min(at, len(batch)), bad)
        self.both(kind, batch)

    @rule(pairs=st.lists(RAW_PAIR, min_size=1, max_size=12))
    def query(self, pairs):
        self.both("Q", self.in_range(pairs))

    @invariant()
    def consistent(self):
        assert self.engine.live_edges() == sorted(self.oracle.edges)
        report = self.engine.audit()
        assert report.ok, report.failures[:4]


Lockstep.TestCase.settings = settings(
    max_examples=60,
    stateful_step_count=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
test_engine_and_oracle_in_lockstep = Lockstep.TestCase
