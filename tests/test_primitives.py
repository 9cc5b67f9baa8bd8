import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from batchconn.errors import (
    BatchConflictError,
    DuplicateEdgeError,
    MissingEdgeError,
)
from batchconn.primitives import BatchDictionary, DisjointSets, semisort, spanning_forest


# ----------------------------------------------------------------------
# semisort
# ----------------------------------------------------------------------

def reference_runs(items):
    """Each key with its payloads in input order, keys in first-occurrence order."""
    keys = []
    for key, _ in items:
        if key not in keys:
            keys.append(key)
    return [(key, [p for k, p in items if k == key]) for key in keys]


def test_semisort_empty():
    assert semisort([]) == {}


def test_semisort_groups_small():
    out = semisort([("b", 1), ("a", 2), ("b", 3)])
    assert list(out.items()) == [("b", [1, 3]), ("a", [2])]


def test_semisort_large_random():
    rng = random.Random(7)
    items = [(rng.randrange(200), i) for i in range(10_000)]
    assert list(semisort(items).items()) == reference_runs(items)


@given(st.lists(st.tuples(st.integers(0, 20), st.integers())))
def test_semisort_properties(items):
    assert list(semisort(items).items()) == reference_runs(items)


def test_semisort_deterministic():
    items = [(i % 13, i) for i in range(500)]
    assert list(semisort(list(items)).items()) == list(semisort(list(items)).items())


# ----------------------------------------------------------------------
# disjoint sets
# ----------------------------------------------------------------------

def test_disjoint_sets_first_root_wins_ties():
    ds = DisjointSets()
    assert ds.union("a", "b") == "a"
    assert ds.union("d", "c") == "d"
    # equal sizes: the first argument's root stays the root
    assert ds.union("c", "b") == "d"
    assert ds.size("a") == 4
    assert {ds.find(x) for x in "abcd"} == {"d"}


def test_disjoint_sets_union_by_weight():
    ds = DisjointSets({"x": 5, "y": 2})
    # the heavier set wins even as the second argument
    assert ds.union("y", "x") == "x"
    assert ds.size("y") == 7
    assert ds.union("z", "y") == "x"
    assert ds.size("z") == 8


def test_disjoint_sets_union_of_joined_keys_is_none():
    ds = DisjointSets()
    ds.union(1, 2)
    ds.union(2, 3)
    assert ds.union(3, 1) is None
    assert ds.union(4, 4) is None
    assert ds.size(1) == 3
    assert ds.size(4) == 1


# ----------------------------------------------------------------------
# batch dictionary
# ----------------------------------------------------------------------

def test_dictionary_insert_then_lookup():
    d = BatchDictionary()
    assert d.apply([("insert", "e1", "v1")]) is None
    assert d.get("e1") == "v1"
    assert "e1" in d and len(d) == 1


def test_dictionary_lookup_absent():
    d = BatchDictionary()
    assert d.get("nope") is None
    assert d.get("nope", 7) == 7
    assert "nope" not in d


def test_dictionary_lookup_op_is_unknown():
    d = BatchDictionary()
    d.apply([("insert", "k", 1)])
    with pytest.raises(ValueError, match="unknown dictionary op 'lookup'"):
        d.apply([("delete", "k"), ("lookup", "k")])
    # atomic: the delete before it did not happen
    assert d.get("k") == 1


def test_dictionary_conflicting_mutations_rejected():
    d = BatchDictionary()
    d.apply([("insert", "k", 1)])
    with pytest.raises(BatchConflictError):
        d.apply([("delete", "k"), ("insert", "k", 2)])
    # atomic: nothing changed
    assert list(d.items()) == [("k", 1)]


def test_dictionary_strict_errors():
    d = BatchDictionary()
    with pytest.raises(MissingEdgeError):
        d.apply([("delete", "k")])
    d.apply([("insert", "k", 1)])
    with pytest.raises(DuplicateEdgeError):
        d.apply([("insert", "k", 9)])


def test_dictionary_random_script_vs_sequential_map():
    rng = random.Random(3)
    d = BatchDictionary()
    shadow = {}
    for _ in range(300):
        batch = []
        mutated = set()
        for _ in range(rng.randrange(1, 8)):
            key = rng.randrange(40)
            op = rng.random()
            if op < 0.4 and key not in shadow and key not in mutated:
                batch.append(("insert", key, rng.randrange(100)))
                mutated.add(key)
            elif op < 0.6 and key in shadow and key not in mutated:
                batch.append(("delete", key))
                mutated.add(key)
        d.apply(batch)
        for op in batch:
            if op[0] == "insert":
                shadow[op[1]] = op[2]
            else:
                del shadow[op[1]]
        assert dict(d.items()) == shadow
        assert sorted(d.keys()) == sorted(shadow) and len(d) == len(shadow)
        key = rng.randrange(40)
        assert (key in d, d.get(key)) == (key in shadow, shadow.get(key))


# ----------------------------------------------------------------------
# spanning forest
# ----------------------------------------------------------------------

def bfs_components(edges):
    adj = {}
    for a, b in edges:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    label = {}
    for start in adj:
        if start in label:
            continue
        stack = [start]
        label[start] = start
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y not in label:
                    label[y] = start
                    stack.append(y)
    return label


def forest_labels(edges, forest):
    """Component labels from replaying the selected edges in a union-find.

    Asserts on the way that every selected edge joins two different trees.
    """
    sets = DisjointSets()
    for idx in forest:
        a, b = edges[idx]
        assert sets.union(a, b) is not None
    return {x: sets.find(x) for edge in edges for x in edge}


def assert_spans_bfs_components(edges, forest):
    labels = forest_labels(edges, forest)
    ref = bfs_components(edges)
    for a in ref:
        for b in ref:
            assert (labels[a] == labels[b]) == (ref[a] == ref[b])


def test_spanning_forest_cycle():
    edges = [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")]
    forest = spanning_forest(edges)
    assert forest == [0, 1, 2]
    assert_spans_bfs_components(edges, forest)


def test_spanning_forest_duplicate_edge():
    assert spanning_forest([("a", "b"), ("a", "b")]) == [0]


def test_spanning_forest_self_loop_never_selected():
    edges = [("a", "a"), ("a", "b")]
    forest = spanning_forest(edges)
    assert forest == [1]
    assert_spans_bfs_components(edges, forest)


def test_spanning_forest_random_vs_bfs():
    rng = random.Random(11)
    edges = [(rng.randrange(40), rng.randrange(40)) for _ in range(200)]
    forest = spanning_forest(edges)
    # acyclic, and the same partition as the input
    assert_spans_bfs_components(edges, forest)
    ref = bfs_components(edges)
    nodes = set(ref)
    comps = len({ref[x] for x in nodes})
    assert len(forest) == len(nodes) - comps
    # maximal: every unselected edge is a self loop or closes a cycle
    labels = forest_labels(edges, forest)
    chosen = set(forest)
    for idx, (a, b) in enumerate(edges):
        if idx not in chosen:
            assert labels[a] == labels[b]


@settings(max_examples=50)
@given(st.lists(st.tuples(st.integers(0, 12), st.integers(0, 12))))
def test_spanning_forest_properties(edges):
    assert_spans_bfs_components(edges, spanning_forest(edges))


def test_spanning_forest_deterministic():
    rng = random.Random(5)
    edges = [(rng.randrange(30), rng.randrange(30)) for _ in range(150)]
    assert spanning_forest(edges) == spanning_forest(edges)
