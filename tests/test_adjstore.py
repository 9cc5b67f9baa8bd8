import random

import pytest

from batchconn.adjstore import AdjacencyStore
from batchconn.errors import DuplicateEdgeError, GraphError, MissingEdgeError


class StubEdge:
    """Minimal edge record: endpoints and level, hashed by identity."""

    __slots__ = ("u", "v", "level")

    def __init__(self, u, v, level=1):
        self.u = u
        self.v = v
        self.level = level

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
        store.check_runs(1, "nontree", [(0, [e])], False)
    store.check_runs(1, "nontree", [(0, [StubEdge(0, 2)])], False)


def test_repeated_edge_in_insert_run_rejected_without_change():
    store = AdjacencyStore()
    e = StubEdge(0, 1)
    with pytest.raises(DuplicateEdgeError):
        store.check_runs(1, "nontree", [(0, [e, e])], False)
    assert store.count(0, 1, "nontree") == 0
    assert dict(store.arrays()) == {}
    assert store.slot_writes == 0


def test_delete_middle_keeps_the_survivors_in_order():
    store = AdjacencyStore()
    edges = [StubEdge(0, i) for i in (1, 2, 3)]
    store.insert_edges(0, 1, "nontree", edges)
    store.delete_edges(0, 1, "nontree", [edges[1]])
    assert store.count(0, 1, "nontree") == 2
    assert store.fetch_edges(0, 1, "nontree", 2) == [edges[0], edges[2]]
    assert edges[1] not in dict(store.arrays())[0, 1, "nontree"]


def test_delete_all():
    store = AdjacencyStore()
    edges = [StubEdge(0, i) for i in (1, 2, 3)]
    store.insert_edges(0, 1, "nontree", edges)
    store.delete_edges(0, 1, "nontree", list(edges))
    assert store.count(0, 1, "nontree") == 0
    assert store.fetch_edges(0, 1, "nontree", 0) == []
    assert not any(e in arr for arr in dict(store.arrays()).values() for e in edges)


def test_delete_missing_rejected():
    store = AdjacencyStore()
    e1, e2 = StubEdge(0, 1), StubEdge(0, 2)
    store.insert_edges(0, 1, "nontree", [e1])
    with pytest.raises(MissingEdgeError):
        store.check_runs(1, "nontree", [(0, [e2])], True)
    with pytest.raises(MissingEdgeError):
        store.check_runs(1, "nontree", [(3, [e1])], True)
    with pytest.raises(MissingEdgeError):
        store.check_runs(2, "nontree", [(0, [e1])], True)
    store.check_runs(1, "nontree", [(0, [e1])], True)


def test_delete_order_does_not_change_the_survivors():
    def stored(runs):
        store = AdjacencyStore()
        edges = [StubEdge(0, i) for i in range(1, 7)]
        store.insert_edges(0, 1, "nontree", edges)
        for run in runs:
            store.delete_edges(0, 1, "nontree", [edges[j] for j in run])
        arrays = {key: [e.v for e in arr] for key, arr in store.arrays()}
        return arrays, [e.v for e in store.fetch_edges(0, 1, "nontree", 3)]

    # the survivors keep their insertion order however the deletions run
    want = ({(0, 1, "nontree"): [1, 3, 6]}, [1, 3, 6])
    for runs in ([[1, 3, 4]], [[4, 3, 1]], [[3], [1], [4]], [[4], [1, 3]], [[3, 4], [1]]):
        assert stored(runs) == want


@pytest.mark.parametrize("bad", ["missing", "repeated"])
def test_rejected_delete_run_changes_nothing(bad):
    store = AdjacencyStore()
    edges = [StubEdge(0, i) for i in range(1, 6)]
    store.insert_edges(0, 1, "nontree", edges)
    stray = StubEdge(0, 9)
    run = [edges[1], edges[0], stray] if bad == "missing" else [edges[1], edges[0], edges[1]]
    writes = store.slot_writes
    with pytest.raises(MissingEdgeError if bad == "missing" else DuplicateEdgeError):
        store.check_runs(1, "nontree", [(0, run)], True)
    assert store.fetch_edges(0, 1, "nontree", 5) == edges
    assert list(dict(store.arrays())) == [(0, 1, "nontree")]
    assert store.slot_writes == writes


# what check_runs makes of a run holding a stored, a missing or a repeated
# edge, per value of ``stored``; None means the run passes
CHECKS = {
    (False, "stored"): DuplicateEdgeError,
    (False, "missing"): None,
    (False, "repeated"): DuplicateEdgeError,
    (True, "stored"): None,
    (True, "missing"): MissingEdgeError,
    (True, "repeated"): DuplicateEdgeError,
}


@pytest.mark.parametrize("stored, case", sorted(CHECKS))
def test_check_runs_gates_every_run_and_writes_nothing(stored, case):
    store = AdjacencyStore()
    a, b = [StubEdge(0, 1), StubEdge(0, 2)], [StubEdge(1, 2), StubEdge(1, 3)]
    store.insert_edges(0, 1, "tree", a)
    store.insert_edges(1, 1, "tree", b)
    fresh = StubEdge(1, 5)
    # the first run is sound for ``stored``; the case's edge sits in the
    # second, whose other edges are sound too
    first = [(0, a if stored else [StubEdge(0, 4)])]
    sound = b[0] if stored else fresh
    second = {"stored": [b[1]], "missing": [fresh], "repeated": [sound, sound]}[case]
    before = {key: list(arr) for key, arr in store.arrays()}
    writes = store.slot_writes
    error = CHECKS[stored, case]
    if error is None:
        assert store.check_runs(1, "tree", first + [(1, second)], stored) is None
    else:
        with pytest.raises(error):
            store.check_runs(1, "tree", first + [(1, second)], stored)
    assert {key: list(arr) for key, arr in store.arrays()} == before
    assert store.slot_writes == writes


def test_fetch_beyond_count_rejected():
    store = AdjacencyStore()
    store.insert_edges(0, 1, "nontree", [StubEdge(0, 1)])
    with pytest.raises(GraphError):
        store.fetch_edges(0, 1, "nontree", 2)


def test_random_script_vs_set_oracle():
    rng = random.Random(42)
    store = AdjacencyStore()
    shadow = {}   # (vertex, level, kind) -> edges in insertion order
    pool = {}     # live edges per key, as a list for sampling
    keys = [(v, lvl, kind) for v in range(6) for lvl in (1, 2) for kind in ("tree", "nontree")]
    ops = 0
    for step in range(10_000):
        key = keys[rng.randrange(len(keys))]
        live = pool.setdefault(key, [])
        if not live or rng.random() < 0.55:
            batch = [StubEdge(key[0], rng.randrange(1000), key[1]) for _ in range(rng.randrange(1, 4))]
            store.insert_edges(key[0], key[1], key[2], batch)
            shadow.setdefault(key, {}).update(dict.fromkeys(batch))
            live.extend(batch)
            ops += len(batch)
        else:
            take = rng.randrange(1, min(4, len(live)) + 1)
            batch = rng.sample(live, take)
            store.delete_edges(key[0], key[1], key[2], batch)
            for e in batch:
                del shadow[key][e]
                live.remove(e)
            ops += len(batch)
        if step % 500 == 0:
            for k, members in shadow.items():
                assert store.fetch_edges(k[0], k[1], k[2], store.count(*k)) == list(members)
    for k, members in shadow.items():
        assert store.fetch_edges(k[0], k[1], k[2], store.count(*k)) == list(members)
    # one write per inserted or deleted edge
    assert store.slot_writes == ops


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
    assert [store.fetch_edges(e.v, 1, "tree", 1) for e in edges] == [[e] for e in edges]
    assert store.take_edges(0, 1, "tree") == []
    assert store.slot_writes == writes + 3


def test_random_script_with_takes_keeps_the_write_bound():
    rng = random.Random(43)
    store = AdjacencyStore()
    live = {}     # (vertex, level, kind) -> live edges in insertion order
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
            assert store.take_edges(*key) == edges
            assert store.count(*key) == 0 and key not in dict(store.arrays())
            ops += len(edges)
            edges.clear()
    for key, edges in live.items():
        assert store.fetch_edges(*key, store.count(*key)) == edges
    # one write per inserted, deleted or taken edge
    assert store.slot_writes == ops
