import contextlib
import gc
import itertools
import random
import signal
import sys
import tracemalloc

import pytest

from batchconn.adjstore import AdjacencyStore
from batchconn.errors import (
    CycleError,
    DuplicateEdgeError,
    GraphError,
    InvalidVertexError,
    MalformedEdgeError,
    MissingEdgeError,
)
from batchconn.etforest import EulerTourForest, TourNode, as_pair, check_vertex


class StubEdge:
    __slots__ = ("u", "v", "level")

    def __init__(self, u, v, level=1):
        self.u = u
        self.v = v
        self.level = level


class ForestOracle:
    """Plain edge-set forest with recomputed BFS connectivity."""

    def __init__(self, n):
        self.n = n
        self.edges = set()

    def link(self, u, v):
        self.edges.add((min(u, v), max(u, v)))

    def cut(self, u, v):
        self.edges.remove((min(u, v), max(u, v)))

    def labels(self):
        parent = list(range(self.n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for u, v in self.edges:
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[rv] = ru
        return [find(v) for v in range(self.n)]

    def connected(self, u, v):
        lab = self.labels()
        return lab[u] == lab[v]

    def sizes(self):
        lab = self.labels()
        out = {}
        for v in range(self.n):
            out[lab[v]] = out.get(lab[v], 0) + 1
        return [out[lab[v]] for v in range(self.n)]


def assert_clean(forest):
    assert forest.audit() == []


# ----------------------------------------------------------------------
# links, cuts, connectivity
# ----------------------------------------------------------------------

def test_link_then_connected():
    f = EulerTourForest(3, seed=1)
    f.batch_link([(0, 1), (1, 2)])
    assert f.batch_connected([(0, 2)]) == [True]
    assert_clean(f)


def test_empty_batches_are_noops():
    f = EulerTourForest(3, seed=1)
    f.batch_link([])
    f.batch_cut([])
    assert f.batch_connected([(0, 1)]) == [False]


def test_cut_two_vertex_tree():
    f = EulerTourForest(2, seed=5)
    f.batch_link([(0, 1)])
    assert f.batch_connected([(0, 1)]) == [True]
    f.batch_cut([(0, 1)])
    assert f.batch_connected([(0, 1)]) == [False]
    assert_clean(f)


def test_cut_whole_star_in_one_batch():
    f = EulerTourForest(4, seed=9)
    f.batch_link([(0, 1), (0, 2), (0, 3)])
    f.batch_cut([(0, 1), (0, 2), (0, 3)])
    for v in range(4):
        assert f.component_size(v) == 1
    assert_clean(f)


def test_link_cycle_rejected_including_intra_batch():
    f = EulerTourForest(4, seed=2)
    f.batch_link([(0, 1)])
    with pytest.raises(CycleError):
        f.batch_link([(0, 1)])
    with pytest.raises(CycleError):
        f.batch_link([(1, 2), (2, 3), (3, 1)])
    # rejected atomically
    assert f.batch_connected([(1, 2)]) == [False]


def test_cut_non_forest_edge_rejected():
    f = EulerTourForest(3, seed=2)
    f.batch_link([(0, 1)])
    with pytest.raises(MissingEdgeError):
        f.batch_cut([(1, 2)])
    with pytest.raises(MissingEdgeError):
        f.batch_cut([(0, 1), (0, 1)])


def test_unknown_vertex_rejected():
    f = EulerTourForest(3, seed=2)
    with pytest.raises(InvalidVertexError):
        f.batch_connected([(0, 7)])
    with pytest.raises(InvalidVertexError):
        f.batch_link([(0, -1)])


def test_connected_reflexive():
    f = EulerTourForest(2, seed=0)
    assert f.batch_connected([(1, 1)]) == [True]


def test_repr_stable_without_mutation():
    f = EulerTourForest(4, seed=3)
    f.batch_link([(0, 1)])
    assert f.find_repr(2) == f.find_repr(2)
    assert f.find_repr(0) == f.find_repr(1)
    assert f.find_repr(0) != f.find_repr(2)


def test_component_size_path():
    f = EulerTourForest(6, seed=4)
    f.batch_link([(0, 1), (1, 2), (2, 3), (3, 4)])
    for v in range(5):
        assert f.component_size(v) == 5
    assert f.component_size(5) == 1


def test_audit_names_broken_treap_links():
    f = EulerTourForest(64, seed=5)
    f.batch_link([(i, i + 1) for i in range(63)])
    f.adjust_edge_counts([(v, "nontree", v % 3) for v in range(64)])
    assert_clean(f)
    (tour,) = f.tours()
    root = next(node for node in tour if node.parent is None)
    node = next(node for node in tour if node.parent not in (None, root))
    parent = node.parent
    # a parent pointer that skips a level
    node.parent = root
    assert f.audit() == [f"treap: parent of uid={node.uid} is not uid={parent.uid}"]
    node.parent = parent
    assert_clean(f)
    # a child that outranks its parent
    prio = node.prio
    node.prio = (parent.prio + parent.parent.prio) / 2
    assert f.audit() == [f"treap: uid={node.uid} outranks its parent uid={parent.uid}"]
    node.prio = prio
    assert_clean(f)
    # a subtree sum that missed an update
    exact = (node.nontree, node.tree, node.size)
    node.nontree += 1
    stored = (node.nontree, node.tree, node.size)
    assert f.audit() == [f"sums: uid={node.uid} stores {stored}, subtree has {exact}"]
    node.nontree -= 1
    assert_clean(f)


@contextlib.contextmanager
def time_limit(seconds):
    """Fail with TimeoutError instead of hanging (SIGALRM, main thread only)."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("seed", [0, 1])
def test_audit_ends_on_a_parent_pointer_into_another_tour(seed):
    # seed 0 makes loop 0 its treap's root, seed 1 a child
    f = EulerTourForest(8, seed=seed)
    f.batch_link([(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (6, 7)])
    loop = f._loops[0]
    parent = loop.parent
    assert (parent is None) == (seed == 0)
    loop.parent = f._loops[5]
    with time_limit(5):
        problems = f.audit()
        assert len(f.tours()) <= 2
    if parent is None:       # the climbs from path 0-3 all end in the other tour
        assert problems == ["treap: root uid=0 has parent uid=5"]
    else:
        assert problems == [f"treap: parent of uid=0 is not uid={parent.uid}"]


def test_audit_ends_on_a_child_pointer_to_an_ancestor():
    f = EulerTourForest(64, seed=5)
    f.batch_link([(i, i + 1) for i in range(63)])
    (tour,) = f.tours()
    root = next(node for node in tour if node.parent is None)
    leaf = next(node for node in tour if node.left is None and node.right is None)
    leaf.left = root
    with time_limit(5):
        assert f.tours() == [tour]
        assert f.audit() == [
            f"treap: parent of uid={root.uid} is not uid={leaf.uid}",
            f"treap: uid={root.uid} outranks its parent uid={leaf.uid}",
        ]


def forest_state(f):
    """Every tour's nodes with priority, links and charges, the arc table and
    the random stream, so that any change a rejected batch made shows."""
    def uid(node):
        return None if node is None else node.uid

    tours = [
        [(x.uid, x.prio, uid(x.parent), uid(x.left), uid(x.right), x.own, (x.nontree, x.tree, x.size))
         for x in tour]
        for tour in f.tours()
    ]
    return tours, {key: x.uid for key, x in f._arcs.items()}, f._next_uid, f._rng.getstate()


def test_rejected_batches_change_nothing():
    f = EulerTourForest(16, seed=3)
    f.batch_link([(0, 1), (1, 2), (2, 3), (5, 6), (8, 9), (9, 10)])
    f.adjust_edge_counts([(v, "nontree", v % 4) for v in range(16)] + [(2, "tree", 3)])
    before = forest_state(f)
    # the last edge closes a cycle with the earlier ones
    with pytest.raises(CycleError):
        f.batch_link([(3, 4), (4, 5), (6, 7), (7, 0)])
    assert forest_state(f) == before
    # the last edge is not linked
    with pytest.raises(MissingEdgeError):
        f.batch_cut([(1, 2), (5, 6), (9, 10), (3, 8)])
    assert forest_state(f) == before
    assert_clean(f)


def max_depth(forest):
    deepest = 0
    for tour in forest.tours():
        level = [node for node in tour if node.parent is None]
        depth = 0
        while level:
            depth += 1
            level = [c for x in level for c in (x.left, x.right) if c is not None]
        deepest = max(deepest, depth)
    return deepest


def test_long_path_keeps_treaps_shallow():
    # nothing recurses (see the next test), but every kernel walks a root
    # path or a spine, so the random priorities must keep a long path's
    # treap shallow for links, cuts and fetches to stay fast
    n = 1 << 15
    f, store = forest_with_store(n, seed=15)
    for v in range(n - 1):
        f.batch_link([(v, v + 1)])
    f.insert_level_edges([StubEdge(v, v + 2) for v in range(n - 2)], "nontree")
    assert len(f.fetch_level_edges(0, f.num_nontree_edges(0), "nontree")) == n - 2
    assert max_depth(f) <= 100
    f.batch_cut([(v, v + 1) for v in range(1, n - 1, 2)])
    assert f.component_size(0) == 2
    assert_clean(f)
    assert max_depth(f) <= 100


def test_nothing_recurses_on_a_path_deep_treap():
    # every new arc outranks every loop but none of the arcs before it, so
    # the path's tour treap is a chain about as deep as the tour is long,
    # far past the interpreter's recursion limit
    n = 3000
    f, store = forest_with_store(n, seed=4)
    draws = itertools.count()
    f._rng.random = lambda: 2.0 - next(draws) * 1e-6
    f.batch_link([(v, v + 1) for v in range(n - 1)])
    assert max_depth(f) > 2 * sys.getrecursionlimit()
    edges = [StubEdge(v, v + 2) for v in range(n - 2)]
    f.insert_level_edges(edges, "nontree")
    assert f.fetch_level_edges(0, 2 * (n - 2), "nontree") == edges
    f.batch_cut([(v, v + 1) for v in range(0, n - 1, 2)])
    assert [f.component_size(v) for v in (0, 1, 2, n - 1)] == [1, 2, 2, 1]
    assert_clean(f)


def test_cut_arcs_are_freed_by_reference_counting():
    def live_nodes():
        return sum(isinstance(obj, TourNode) for obj in gc.get_objects())

    gc.collect()
    gc.disable()
    try:
        before = live_nodes()
        f = EulerTourForest(64, seed=5)
        f.batch_link([(i, i + 1) for i in range(63)])
        assert live_nodes() - before == 190
        f.batch_cut([(i, i + 1) for i in range(63)])
        assert live_nodes() - before == 64
    finally:
        gc.enable()


def test_tour_nodes_are_single_flat_objects():
    # the forests hold n * L nodes, so each must stay one small object
    f = EulerTourForest(4, seed=2)
    f.batch_link([(0, 1)])
    for node in (f._loops[2], f._arcs[(0, 1)]):
        assert not hasattr(node, "__dict__")
        assert not any(isinstance(ref, list) for ref in gc.get_referents(node))
        with pytest.raises(AttributeError):
            node.own = (0, 0, 0)
    n = 4096
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        f = EulerTourForest(n)
        allocated = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert allocated / n < 256


def test_random_links_vs_union_find_oracle():
    rng = random.Random(31)
    n = 64
    f = EulerTourForest(n, seed=31)
    oracle = ForestOracle(n)
    for _ in range(40):
        batch = []
        lab = oracle.labels()
        parent = dict(enumerate(lab))
        for _ in range(rng.randrange(1, 5)):
            u, v = rng.randrange(n), rng.randrange(n)
            ru, rv = parent[u], parent[v]
            if ru != rv:
                batch.append((u, v))
                for x in range(n):
                    if parent[x] == rv:
                        parent[x] = ru
        f.batch_link(batch)
        for u, v in batch:
            oracle.link(u, v)
        for _ in range(20):
            u, v = rng.randrange(n), rng.randrange(n)
            assert f.batch_connected([(u, v)]) == [oracle.connected(u, v)]
    assert_clean(f)


def test_random_interleaved_script_vs_bfs_oracle():
    rng = random.Random(77)
    n = 48
    f = EulerTourForest(n, seed=77)
    oracle = ForestOracle(n)
    for step in range(600):
        lab = oracle.labels()
        if oracle.edges and rng.random() < 0.4:
            u, v = sorted(oracle.edges)[rng.randrange(len(oracle.edges))]
            f.batch_cut([(u, v)])
            oracle.cut(u, v)
        else:
            u, v = rng.randrange(n), rng.randrange(n)
            if u != v and lab[u] != lab[v]:
                f.batch_link([(u, v)])
                oracle.link(u, v)
        if step % 25 == 0:
            lab = oracle.labels()
            sizes = oracle.sizes()
            reprs = f.batch_find_repr(list(range(n)))
            for u in range(n):
                assert f.component_size(u) == sizes[u]
                for v in range(u + 1, n):
                    assert (reprs[u] == reprs[v]) == (lab[u] == lab[v])
            assert_clean(f)
    assert_clean(f)


def test_seeded_reproducibility():
    def build(seed):
        f = EulerTourForest(32, seed=seed)
        rng = random.Random(9)
        oracle = ForestOracle(32)
        for _ in range(200):
            lab = oracle.labels()
            if oracle.edges and rng.random() < 0.35:
                e = sorted(oracle.edges)[rng.randrange(len(oracle.edges))]
                f.batch_cut([e])
                oracle.cut(*e)
            else:
                u, v = rng.randrange(32), rng.randrange(32)
                if u != v and lab[u] != lab[v]:
                    f.batch_link([(u, v)])
                    oracle.link(u, v)
        return f.batch_find_repr(list(range(32)))

    assert build(123) == build(123)
    # different seeds may or may not differ; priorities must at least be seeded
    f1, f2 = EulerTourForest(64, seed=1), EulerTourForest(64, seed=2)
    p1 = [f1._loops[v].prio for v in range(64)]
    p2 = [f2._loops[v].prio for v in range(64)]
    assert p1 != p2


# ----------------------------------------------------------------------
# batch reads against per-vertex climbs
# ----------------------------------------------------------------------

class Index:
    """An integer that is not an ``int``, as numpy integers are."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


def reference_repr(f, v):
    """One vertex's representative: check it, then climb to its tour's root."""
    x = f._loops[check_vertex(v, f.n)]
    while x.parent is not None:
        x = x.parent
    return x.uid


def reference_connected(f, queries):
    return [reference_repr(f, u) == reference_repr(f, v) for u, v in map(as_pair, queries)]


def outcome(call, *args):
    """What a call returns, or the class and message of what it raises."""
    try:
        return call(*args)
    except GraphError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("seed", range(5))
def test_batch_reads_match_per_vertex_climbs(seed):
    rng = random.Random(seed)
    n = rng.randrange(2, 65)
    f = EulerTourForest(n, seed=seed)
    oracle = ForestOracle(n)
    for _ in range(300):
        lab = oracle.labels()
        if oracle.edges and rng.random() < 0.4:
            cut = rng.sample(sorted(oracle.edges), rng.randrange(1, min(4, len(oracle.edges)) + 1))
            f.batch_cut(cut)
            for e in cut:
                oracle.cut(*e)
        else:
            u, v = rng.randrange(n), rng.randrange(n)
            if lab[u] != lab[v]:
                f.batch_link([(u, v)])
                oracle.link(u, v)
        vertices = [rng.randrange(n) for _ in range(rng.randrange(0, 12))]
        queries = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randrange(0, 12))]
        assert f.batch_find_repr(vertices) == [f.find_repr(v) for v in vertices]
        assert f.batch_find_repr(vertices) == [reference_repr(f, v) for v in vertices]
        assert f.batch_connected(queries) == reference_connected(f, queries)
        assert f.batch_connected(queries) == [oracle.connected(u, v) for u, v in queries]
    assert_clean(f)


BAD_VERTICES = [True, False, -1, 4, 1.0, "1", None]
BAD_ITEMS = [(0, 1, 2), (0,), 3, None, "012"]


@pytest.mark.parametrize("bad", BAD_VERTICES)
def test_batch_reads_reject_bad_vertices_as_one_at_a_time(bad):
    f = EulerTourForest(4, seed=3)
    f.batch_link([(0, 1)])
    for queries in ([(0, bad)], [(bad, 0)], [(0, 1), (2, 3), (bad, bad)]):
        got = outcome(f.batch_connected, queries)
        assert got == outcome(reference_connected, f, queries)
        assert got[0] is InvalidVertexError
    for vertices in ([bad], [0, 1, 2, bad, 3]):
        got = outcome(f.batch_find_repr, vertices)
        assert got == outcome(lambda vs: [reference_repr(f, v) for v in vs], vertices)
        assert got[0] is InvalidVertexError


@pytest.mark.parametrize("item", BAD_ITEMS)
def test_batch_connected_rejects_malformed_items_as_one_at_a_time(item):
    f = EulerTourForest(4, seed=3)
    # the first bad item raises, whether a malformed item or a bad vertex
    for queries, error in (
        ([item], MalformedEdgeError),
        ([(0, 1), item], MalformedEdgeError),
        ([(0, 1), item, (0, 9)], MalformedEdgeError),
        ([(0, 9), item], InvalidVertexError),
    ):
        got = outcome(f.batch_connected, queries)
        assert got == outcome(reference_connected, f, queries)
        assert got[0] is error


def test_batch_reads_accept_lists_generators_and_index_integers():
    f = EulerTourForest(6, seed=4)
    f.batch_link([(0, 1), (1, 2), (4, 5)])
    queries = [[0, 2], (Index(2), 1), (Index(3), Index(3)), [Index(5), 4], (0, 4)]
    want = [True, True, True, True, False]
    assert f.batch_connected(queries) == reference_connected(f, queries) == want
    assert f.batch_connected(iter(queries)) == want
    assert f.batch_connected(tuple(q) for q in queries) == want
    vertices = [0, Index(1), 2, Index(5)]
    assert f.batch_find_repr(vertices) == [reference_repr(f, v) for v in vertices]
    assert f.batch_find_repr(v for v in vertices) == f.batch_find_repr(vertices)


@pytest.mark.parametrize("link_stub, cut_stub", [(True, False), (False, True)])
def test_links_and_cuts_key_arcs_by_plain_ints(link_stub, cut_stub):
    def wrap(edges, stub):
        return [(Index(u), Index(v)) for u, v in edges] if stub else edges

    f = EulerTourForest(4, seed=6)
    f.batch_link(wrap([(0, 1), (1, 2), (3, 2)], link_stub))
    assert_clean(f)
    assert sorted(f.edge_pairs()) == [(0, 1), (1, 2), (2, 3)]
    assert all(type(x) is int for pair in f.edge_pairs() for x in pair)
    f.batch_cut(wrap([(1, 0), (2, 3)], cut_stub))
    assert_clean(f)
    assert f.edge_pairs() == [(1, 2)]
    assert all(type(x) is int for x in f.edge_pairs()[0])
    assert f.batch_connected([(1, 2), (0, 1), (2, 3)]) == [True, False, False]


def test_charge_deltas_of_one_vertex_net_out_whatever_its_integer_type():
    f = EulerTourForest(2, seed=6)
    f.adjust_edge_counts([(0, "nontree", 1), (Index(0), "nontree", -1)])
    f.adjust_edge_counts([(Index(1), "tree", 2), (1, "tree", -1)])
    assert f._loops[0].own == (0, 0, 1) and f._loops[1].own == (0, 1, 1)
    assert_clean(f)


# ----------------------------------------------------------------------
# augmented counts
# ----------------------------------------------------------------------

def recompute_totals(forest, v, idx):
    """Independent oracle: sum loop charges over v's tree by walking the tour."""
    seen = 0
    for tour in forest.tours():
        verts = [node.vertex for node in tour if node.vertex is not None]
        if v in verts:
            return sum(node.own[idx] for node in tour if node.vertex is not None)
    raise AssertionError("vertex not found in any tour")


def test_adjust_counts_basic():
    f = EulerTourForest(4, seed=6)
    f.batch_link([(0, 1), (1, 2)])
    f.adjust_edge_counts([(1, "nontree", 1)])
    assert f.num_nontree_edges(0) == 1
    f.adjust_edge_counts([(1, "nontree", 1), (2, "tree", 2)])
    assert f.num_nontree_edges(2) == 2
    assert f.num_tree_edges(0) == 2
    f.adjust_edge_counts([(1, "nontree", -2), (2, "tree", -2)])
    assert f.num_nontree_edges(0) == 0
    assert f.num_tree_edges(1) == 0
    assert_clean(f)


def test_adjust_counts_negative_rejected():
    f = EulerTourForest(2, seed=6)
    with pytest.raises(GraphError):
        f.adjust_edge_counts([(0, "nontree", -1)])
    f.adjust_edge_counts([(0, "nontree", 2)])
    with pytest.raises(GraphError):
        f.adjust_edge_counts([(0, "nontree", -3)])
    assert f.num_nontree_edges(0) == 2


def test_counts_random_script_vs_recomputation():
    rng = random.Random(13)
    n = 40
    f = EulerTourForest(n, seed=13)
    oracle = ForestOracle(n)
    charges = [0] * n
    for step in range(400):
        roll = rng.random()
        lab = oracle.labels()
        if roll < 0.3 and oracle.edges:
            e = sorted(oracle.edges)[rng.randrange(len(oracle.edges))]
            f.batch_cut([e])
            oracle.cut(*e)
        elif roll < 0.6:
            u, v = rng.randrange(n), rng.randrange(n)
            if u != v and lab[u] != lab[v]:
                f.batch_link([(u, v)])
                oracle.link(u, v)
        else:
            v = rng.randrange(n)
            delta = rng.randrange(-charges[v], 3) if charges[v] else rng.randrange(0, 3)
            f.adjust_edge_counts([(v, "nontree", delta)])
            charges[v] += delta
        if step % 40 == 0:
            for v in range(0, n, 7):
                assert f.num_nontree_edges(v) == recompute_totals(f, v, 0)
            assert_clean(f)
    assert_clean(f)


# ----------------------------------------------------------------------
# count-guided fetches
# ----------------------------------------------------------------------

def forest_with_store(n, level=1, seed=8):
    store = AdjacencyStore()
    return EulerTourForest(n, level=level, adj=store, seed=seed), store


def register(forest, store, u, v, kind):
    e = StubEdge(u, v, level=forest.level)
    forest.insert_level_edges([e], kind)
    return e


def arrays_and_charges(forest, store):
    arrays = {key: [(e.u, e.v) for e in arr] for key, arr in store.arrays()}
    charges = [tuple(forest._loops[v].own) for v in range(forest.n)]
    return arrays, charges


def test_fetch_zero():
    f, _ = forest_with_store(3)
    assert f.fetch_level_edges(0, 0, "nontree") == []


def test_fetch_slot_order_single_vertex():
    f, store = forest_with_store(8)
    f.batch_link([(0, 1)])
    e1 = register(f, store, 0, 2, "nontree")
    e2 = register(f, store, 0, 3, "nontree")
    e3 = register(f, store, 0, 4, "nontree")
    assert f.fetch_level_edges(0, 2, "nontree") == [e1, e2]
    assert f.fetch_level_edges(1, 3, "nontree") == [e1, e2, e3]


def test_fetch_beyond_charge_rejected():
    f, store = forest_with_store(4)
    register(f, store, 0, 1, "nontree")
    with pytest.raises(GraphError):
        f.fetch_level_edges(0, 3, "nontree")


def test_fetch_full_equals_scan_oracle():
    rng = random.Random(17)
    f, store = forest_with_store(24, seed=17)
    links = [(v, v + 1) for v in range(0, 10)]
    f.batch_link(links)
    members = set(range(11))
    edges = set()
    for _ in range(30):
        u = rng.randrange(11)
        v = rng.randrange(24)
        if u == v or (min(u, v), max(u, v)) in edges:
            continue
        edges.add((min(u, v), max(u, v)))
        register(f, store, min(u, v), max(u, v), "nontree")
    got = f.fetch_level_edges(0, f.num_nontree_edges(0), "nontree")
    want = {e for e in edges if e[0] in members or e[1] in members}
    assert {(e.u, e.v) for e in got} == want
    assert len(got) == len(want)


def test_fetch_prefix_stability():
    rng = random.Random(19)
    f, store = forest_with_store(16, seed=19)
    f.batch_link([(i, i + 1) for i in range(7)])
    for _ in range(12):
        u, v = rng.randrange(8), rng.randrange(16)
        if u != v:
            try:
                register(f, store, min(u, v), max(u, v), "nontree")
            except Exception:
                pass
    total = f.num_nontree_edges(0)
    full = f.fetch_level_edges(0, total, "nontree")
    for l in range(len(full) + 1):
        assert f.fetch_level_edges(0, min(l, total), "nontree") == full[:min(l, len(full))]


def test_remove_level_edges_roundtrip():
    f, store = forest_with_store(6)
    f.batch_link([(0, 1), (1, 2)])
    e1 = register(f, store, 0, 2, "nontree")
    e2 = register(f, store, 1, 2, "nontree")
    got = f.fetch_level_edges(0, f.num_nontree_edges(0), "nontree")
    assert set(got) == {e1, e2}
    f.remove_level_edges(0, got, "nontree")
    assert f.num_nontree_edges(0) == 0
    assert store.count(0, 1, "nontree") == 0
    f.remove_level_edges(0, [], "nontree")
    assert_clean(f)


def test_remove_wrong_level_rejected():
    f, store = forest_with_store(4, level=2)
    e = StubEdge(0, 1, level=1)
    with pytest.raises(GraphError):
        f.remove_level_edges(0, [e], "nontree")


def test_insert_wrong_level_rejected_without_change():
    f, store = forest_with_store(4, level=2)
    register(f, store, 0, 1, "nontree")
    before = arrays_and_charges(f, store)
    good, bad = StubEdge(1, 2, level=2), StubEdge(2, 3, level=1)
    with pytest.raises(GraphError):
        f.insert_level_edges([good, bad], "nontree")
    assert arrays_and_charges(f, store) == before
    assert_clean(f)


def test_rejected_level_filing_changes_nothing():
    f, store = forest_with_store(4)
    f.batch_link([(0, 1), (1, 2)])
    a = register(f, store, 0, 2, "nontree")
    before = forest_state(f), arrays_and_charges(f, store), store.slot_writes
    # b was never filed: vertices 0 and 2 come before b's endpoints
    b = StubEdge(1, 3)
    with pytest.raises(MissingEdgeError):
        f.remove_level_edges(0, [a, b], "nontree")
    assert (forest_state(f), arrays_and_charges(f, store), store.slot_writes) == before
    assert f.audit() == []
    # a is filed already: d's endpoints come before a's
    d = StubEdge(1, 3)
    with pytest.raises(DuplicateEdgeError):
        f.insert_level_edges([d, a], "nontree")
    assert (forest_state(f), arrays_and_charges(f, store), store.slot_writes) == before
    assert f.audit() == []


@pytest.mark.parametrize("kind", ["tree", "nontree"])
def test_repeated_edge_in_one_run_rejected_without_change(kind):
    f, store = forest_with_store(4)
    f.batch_link([(0, 1), (1, 2)])
    register(f, store, 0, 2, "nontree")
    before = forest_state(f), arrays_and_charges(f, store), store.slot_writes
    e = StubEdge(1, 2)
    with pytest.raises(DuplicateEdgeError):
        f.insert_level_edges([e, e], kind)
    assert (forest_state(f), arrays_and_charges(f, store), store.slot_writes) == before
    assert f.audit() == []


def test_grouped_insert_matches_per_edge_inserts():
    rng = random.Random(23)
    pairs = set()
    while len(pairs) < 40:
        u, v = rng.randrange(12), rng.randrange(12)
        if u != v:
            pairs.add((min(u, v), max(u, v)))
    pairs = sorted(pairs)
    rng.shuffle(pairs)
    kinds = [rng.choice(["tree", "nontree"]) for _ in pairs]
    links = [(v, v + 1) for v in range(0, 11, 2)]
    # half the edges leave, about three per vertex, so most runs given to
    # one delete_edges call hold several edges and leave survivors behind
    removed = list(range(0, len(pairs), 2))
    rng.shuffle(removed)

    def build(grouped):
        f, store = forest_with_store(12, level=3, seed=23)
        f.batch_link(links)
        edges = [StubEdge(u, v, level=3) for u, v in pairs]
        if grouped:
            for kind in ("tree", "nontree"):
                f.insert_level_edges([e for e, k in zip(edges, kinds) if k == kind], kind)
        else:
            for e, kind in zip(edges, kinds):
                store.insert_edges(e.u, 3, kind, [e])
                store.insert_edges(e.v, 3, kind, [e])
                f.adjust_edge_counts([(e.u, kind, 1), (e.v, kind, 1)])
        assert_clean(f)
        states = [state(f, store)]
        if grouped:
            for kind in ("tree", "nontree"):
                run = [edges[j] for j in removed if kinds[j] == kind]
                f.remove_level_edges(0, run, kind)
        else:
            for j in removed:
                e, kind = edges[j], kinds[j]
                store.delete_edges(e.u, 3, kind, [e])
                store.delete_edges(e.v, 3, kind, [e])
                f.adjust_edge_counts([(e.u, kind, -1), (e.v, kind, -1)])
        assert_clean(f)
        states.append(state(f, store))
        return states

    def state(f, store):
        fetched = [
            [(e.u, e.v) for e in f.fetch_level_edges(v, f.num_nontree_edges(v), "nontree")]
            for v in range(0, 12, 2)
        ]
        return arrays_and_charges(f, store), fetched

    assert build(grouped=True) == build(grouped=False)


# ----------------------------------------------------------------------
# takes: a tree's whole charge of one kind in one walk
# ----------------------------------------------------------------------

def random_forest_with_edges(seed, n=48, level=2):
    """A seeded forest with a store: several random trees, and edges of both
    kinds whose endpoints share a tree, as the engine's level-i edges do.
    Returns the forest, the store and each vertex's tree label."""
    rng = random.Random(seed)
    f, store = forest_with_store(n, level=level, seed=seed)
    oracle = ForestOracle(n)
    for _ in range(n // 2):
        u, v = rng.randrange(n), rng.randrange(n)
        if not oracle.connected(u, v):
            f.batch_link([(u, v)])
            oracle.link(u, v)
    lab = oracle.labels()
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if lab[u] == lab[v]]
    for kind in ("tree", "nontree"):
        f.insert_level_edges([StubEdge(u, v, level) for u, v in pairs if rng.random() < 0.5], kind)
    return f, store, lab


def arrays_and_charges_except(f, store, lab, tree, kind):
    """Every (vertex, kind) array's edges and loop charge, but those of
    ``kind`` in the tree labelled ``tree``."""
    out = {}
    for x in range(f.n):
        for k, i in (("nontree", 0), ("tree", 1)):
            if (lab[x], k) != (tree, kind):
                arr = store.fetch_edges(x, f.level, k, store.count(x, f.level, k))
                out[x, k] = [(e.u, e.v) for e in arr], f._loops[x].own[i]
    return out


@pytest.mark.parametrize("seed", range(5))
def test_take_returns_the_full_fetch_and_empties_only_that_tree_and_kind(seed):
    f, store, lab = random_forest_with_edges(seed)
    totals = {"tree": f.num_tree_edges, "nontree": f.num_nontree_edges}
    taken = 0
    for kind in ("tree", "nontree"):
        for tree in sorted(set(lab)):
            v = max(x for x in range(f.n) if lab[x] == tree)
            count = totals[kind](v)
            want = f.fetch_level_edges(v, count, kind)
            rest = arrays_and_charges_except(f, store, lab, tree, kind)
            got = f.take_level_edges(v, kind)
            assert got == want and 2 * len(got) == count
            assert totals[kind](v) == 0
            for x in range(f.n):
                if lab[x] == tree:
                    assert store.count(x, f.level, kind) == 0
                    assert (x, f.level, kind) not in dict(store.arrays())
            assert not any(e in arr for arr in dict(store.arrays()).values() for e in got)
            assert arrays_and_charges_except(f, store, lab, tree, kind) == rest
            assert_clean(f)
            taken += bool(got)
    assert taken >= 4


def test_take_without_charge_changes_nothing():
    f, store, _ = random_forest_with_edges(7)
    f.take_level_edges(0, "tree")
    lonely = [v for v in range(f.n) if f.component_size(v) == 1]
    assert lonely
    before = forest_state(f), arrays_and_charges(f, store), store.slot_writes
    assert f.take_level_edges(0, "tree") == []
    for v in lonely:
        assert f.take_level_edges(v, "tree") == f.take_level_edges(v, "nontree") == []
    assert (forest_state(f), arrays_and_charges(f, store), store.slot_writes) == before


def test_take_of_an_edge_reaching_outside_the_tree_raises():
    f, store = forest_with_store(4)
    f.batch_link([(0, 1)])
    register(f, store, 0, 2, "nontree")
    with pytest.raises(GraphError):
        f.take_level_edges(1, "nontree")
