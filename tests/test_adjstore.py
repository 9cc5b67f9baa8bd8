import random

import pytest

from batchconn.adjstore import AdjacencyStore
from batchconn.errors import DuplicateEdgeError, GraphError, MissingEdgeError


class StubEdge:
    """Minimal edge record: endpoints plus the back-index dict."""

    __slots__ = ("u", "v", "pos", "level")

    def __init__(self, u, v, level=1):
        self.u = u
        self.v = v
        self.level = level
        self.pos = {}

    def __repr__(self):
        return f"E({self.u},{self.v})"


def test_insert_then_fetch_in_order():
    store = AdjacencyStore()
    edges = [StubEdge(0, i) for i in (1, 2, 3)]
    store.insert_edges(0, 1, "nontree", edges)
    assert store.count(0, 1, "nontree") == 3
    assert store.fetch_edges(0, 1, "nontree", 3) == edges
    assert store.fetch_edges(0, 1, "nontree", 2) == edges[:2]
    assert store.fetch_edges(0, 1, "nontree", 0) == []


def test_insert_empty_batch_is_noop():
    store = AdjacencyStore()
    store.insert_edges(0, 1, "tree", [])
    assert store.count(0, 1, "tree") == 0


def test_missing_array_fetch_is_empty():
    store = AdjacencyStore()
    assert store.fetch_edges(5, 2, "tree", 0) == []
    with pytest.raises(GraphError):
        store.fetch_edges(5, 2, "tree", 1)


def test_duplicate_insert_rejected():
    store = AdjacencyStore()
    e = StubEdge(0, 1)
    store.insert_edges(0, 1, "nontree", [e])
    with pytest.raises(DuplicateEdgeError):
        store.insert_edges(0, 1, "nontree", [e])


def test_delete_middle_keeps_back_indices():
    store = AdjacencyStore()
    edges = [StubEdge(0, i) for i in (1, 2, 3)]
    store.insert_edges(0, 1, "nontree", edges)
    store.delete_edges(0, 1, "nontree", [edges[1]])
    assert store.count(0, 1, "nontree") == 2
    assert store.audit() == []
    left = store.fetch_edges(0, 1, "nontree", 2)
    assert set(left) == {edges[0], edges[2]}
    assert edges[1].pos == {}


def test_delete_all():
    store = AdjacencyStore()
    edges = [StubEdge(0, i) for i in (1, 2, 3)]
    store.insert_edges(0, 1, "nontree", edges)
    store.delete_edges(0, 1, "nontree", list(edges))
    assert store.count(0, 1, "nontree") == 0
    assert store.audit() == []


def test_delete_missing_rejected():
    store = AdjacencyStore()
    e1, e2 = StubEdge(0, 1), StubEdge(0, 2)
    store.insert_edges(0, 1, "nontree", [e1])
    with pytest.raises(MissingEdgeError):
        store.delete_edges(0, 1, "nontree", [e2])
    with pytest.raises(MissingEdgeError):
        store.delete_edges(3, 1, "nontree", [e1])


def test_delete_moves_last_edge_into_hole():
    def stored(runs):
        store = AdjacencyStore()
        edges = [StubEdge(0, i) for i in range(1, 6)]
        store.insert_edges(0, 1, "nontree", edges)
        for run in runs:
            store.delete_edges(0, 1, "nontree", [edges[j] for j in run])
        assert store.audit() == []
        return [e.v for e in store.fetch_edges(0, 1, "nontree", 3)]

    # e2 leaves: e5 fills slot 1; e1 leaves: e4 fills slot 0
    assert stored([[1], [0]]) == [4, 5, 3]
    assert stored([[1, 0]]) == [4, 5, 3]


@pytest.mark.parametrize("bad", ["missing", "repeated"])
def test_rejected_delete_run_changes_nothing(bad):
    store = AdjacencyStore()
    edges = [StubEdge(0, i) for i in range(1, 6)]
    store.insert_edges(0, 1, "nontree", edges)
    stray = StubEdge(0, 9)
    run = [edges[1], edges[0], stray] if bad == "missing" else [edges[1], edges[0], edges[1]]
    before = [dict(e.pos) for e in edges]
    writes = store.slot_writes
    with pytest.raises(MissingEdgeError if bad == "missing" else DuplicateEdgeError):
        store.delete_edges(0, 1, "nontree", run)
    assert store.fetch_edges(0, 1, "nontree", 5) == edges
    assert [e.pos for e in edges] == before
    assert stray.pos == {}
    assert store.slot_writes == writes


def test_fetch_beyond_count_rejected():
    store = AdjacencyStore()
    store.insert_edges(0, 1, "nontree", [StubEdge(0, 1)])
    with pytest.raises(GraphError):
        store.fetch_edges(0, 1, "nontree", 2)


def test_random_script_vs_set_oracle():
    rng = random.Random(42)
    store = AdjacencyStore()
    shadow = {}   # (vertex, level, kind) -> set of edges
    pool = {}     # live edges per key, as a list for sampling
    keys = [(v, lvl, kind) for v in range(6) for lvl in (1, 2) for kind in ("tree", "nontree")]
    ops = 0
    for step in range(10_000):
        key = keys[rng.randrange(len(keys))]
        live = pool.setdefault(key, [])
        if not live or rng.random() < 0.55:
            batch = [StubEdge(key[0], rng.randrange(1000), key[1]) for _ in range(rng.randrange(1, 4))]
            store.insert_edges(key[0], key[1], key[2], batch)
            shadow.setdefault(key, set()).update(batch)
            live.extend(batch)
            ops += len(batch)
        else:
            take = rng.randrange(1, min(4, len(live)) + 1)
            batch = rng.sample(live, take)
            store.delete_edges(key[0], key[1], key[2], batch)
            for e in batch:
                shadow[key].remove(e)
                live.remove(e)
            ops += len(batch)
        if step % 500 == 0:
            assert store.audit() == []
            for k, members in shadow.items():
                got = store.fetch_edges(k[0], k[1], k[2], store.count(*k))
                assert set(got) == members
    assert store.audit() == []
    for k, members in shadow.items():
        got = store.fetch_edges(k[0], k[1], k[2], store.count(*k))
        assert set(got) == members
    # one write per insert, at most two per delete
    assert store.slot_writes <= 2 * ops


def test_take_hands_over_the_whole_array_and_drops_it():
    store = AdjacencyStore()
    edges = [StubEdge(0, i) for i in (1, 2, 3)]
    store.insert_edges(0, 1, "tree", edges)
    for e in edges:
        store.insert_edges(e.v, 1, "tree", [e])
    writes = store.slot_writes
    assert store.take_edges(0, 1, "tree") == edges
    assert store.slot_writes == writes + 3
    assert store.count(0, 1, "tree") == 0
    assert (0, 1, "tree") not in dict(store.arrays())
    assert [e.pos for e in edges] == [{1: 0}, {2: 0}, {3: 0}]
    assert store.take_edges(0, 1, "tree") == []
    assert store.slot_writes == writes + 3
    assert store.audit() == []


def test_random_script_with_takes_keeps_the_write_bound():
    rng = random.Random(43)
    store = AdjacencyStore()
    live = {}     # (vertex, level, kind) -> live edges
    keys = [(v, lvl, kind) for v in range(6) for lvl in (1, 2) for kind in ("tree", "nontree")]
    ops = 0
    for step in range(5_000):
        key = keys[rng.randrange(len(keys))]
        edges = live.setdefault(key, [])
        r = rng.random()
        if not edges or r < 0.5:
            batch = [StubEdge(key[0], rng.randrange(1000), key[1]) for _ in range(rng.randrange(1, 4))]
            store.insert_edges(*key, batch)
            edges.extend(batch)
            ops += len(batch)
        elif r < 0.85:
            batch = rng.sample(edges, rng.randrange(1, min(4, len(edges)) + 1))
            store.delete_edges(*key, batch)
            for e in batch:
                edges.remove(e)
            ops += len(batch)
        else:
            got = store.take_edges(*key)
            assert set(got) == set(edges) and len(got) == len(edges)
            assert all(key[0] not in e.pos for e in got)
            ops += len(got)
            edges.clear()
        if step % 500 == 0:
            assert store.audit() == []
    for key, edges in live.items():
        assert set(store.fetch_edges(*key, store.count(*key))) == set(edges)
    # one write per insert or taken edge, at most two per delete
    assert store.slot_writes <= 2 * ops
