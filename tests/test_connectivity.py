import hashlib
import random

import pytest

from batchconn.adjstore import AdjacencyStore
from batchconn.connectivity import LevelStructure
from batchconn.errors import (
    DuplicateEdgeError,
    GraphError,
    InvalidVertexError,
    MalformedEdgeError,
    MissingEdgeError,
    SelfLoopError,
)
from batchconn.etforest import EulerTourForest
from batchconn.oracle import OracleGraph
from batchconn.workload import generate


def drive(engine, oracle, kind, pairs):
    """Apply one batch to both; rejections must agree exactly."""
    engine_err = oracle_err = None
    try:
        if kind == "I":
            engine.batch_insert(pairs)
        else:
            engine.batch_delete(pairs)
    except GraphError as e:
        engine_err = type(e)
    try:
        oracle.apply(kind, pairs)
    except GraphError as e:
        oracle_err = type(e)
    assert engine_err == oracle_err, (kind, pairs, engine_err, oracle_err)
    return engine_err is None


def check_against_oracle(engine, oracle, rng, samples=40):
    queries = [(rng.randrange(engine.n), rng.randrange(engine.n)) for _ in range(samples)]
    assert engine.batch_connected(queries) == oracle.connected_many(queries)


# ----------------------------------------------------------------------
# construction
# ----------------------------------------------------------------------

def test_new_level_counts():
    assert LevelStructure(1).levels == 1
    assert LevelStructure(8).levels == 3
    assert LevelStructure(1000).levels == 10


def test_zero_vertices_rejected():
    with pytest.raises(InvalidVertexError):
        LevelStructure(0)


def test_bad_strategy_rejected():
    with pytest.raises(ValueError):
        LevelStructure(4, strategy="eager")


def test_package_root_exports_the_user_api():
    import batchconn

    assert batchconn.__all__ == [
        "DuplicateEdgeError", "GraphError", "InvalidVertexError", "LevelStructure",
        "MalformedEdgeError", "MissingEdgeError", "OracleGraph", "ScriptError",
        "SelfLoopError", "WorkloadScript", "generate", "parse_script",
    ]
    assert all(hasattr(batchconn, name) for name in batchconn.__all__)


# ----------------------------------------------------------------------
# queries and insertion
# ----------------------------------------------------------------------

def test_query_empty_graph():
    s = LevelStructure(4)
    assert s.batch_connected([(1, 2), (1, 1)]) == [False, True]


def test_rejected_query_batch_counts_nothing():
    s = LevelStructure(4)
    for bad in ([(0, 1), (2, 9)], [(9, 9)], [(-1, 0)]):
        with pytest.raises(InvalidVertexError):
            s.batch_connected(bad)
    assert (s.counters.query_batches, s.counters.queries) == (0, 0)
    s.batch_connected([(0, 1), (2, 3)])
    assert (s.counters.query_batches, s.counters.queries) == (1, 2)


def test_insert_transitivity():
    s = LevelStructure(4)
    s.batch_insert([(1, 2), (2, 3)])
    assert s.batch_connected([(1, 3)]) == [True]


def test_insert_cycle_splits_tree_and_nontree():
    s = LevelStructure(4)
    s.batch_insert([(0, 1), (1, 2), (2, 3), (3, 0)])
    recs = [s.edges.get(k) for k in s.live_edges()]
    assert sum(1 for r in recs if r.status == "tree") == 3
    assert sum(1 for r in recs if r.status == "nontree") == 1
    assert all(r.level == s.levels for r in recs)
    assert s.audit().ok


def test_insert_validation():
    s = LevelStructure(4)
    with pytest.raises(DuplicateEdgeError):
        s.batch_insert([(1, 2), (2, 1)])
    with pytest.raises(SelfLoopError):
        s.batch_insert([(2, 2)])
    s.batch_insert([(1, 2)])
    with pytest.raises(DuplicateEdgeError):
        s.batch_insert([(2, 1)])
    with pytest.raises(InvalidVertexError):
        s.batch_insert([(0, 17)])
    # atomic: failed batches leave nothing behind
    assert s.live_edges() == [(1, 2)]


def test_incremental_inserts_vs_oracle():
    rng = random.Random(5)
    n = 64
    s = LevelStructure(n, seed=5)
    g = OracleGraph(n)
    batch = []
    inserted = set()
    for _ in range(500):
        u, v = rng.randrange(n), rng.randrange(n)
        if u == v:
            continue
        key = (min(u, v), max(u, v))
        if key in inserted:
            continue
        inserted.add(key)
        batch.append(key)
        if len(batch) == 10:
            drive(s, g, "I", batch)
            batch = []
            check_against_oracle(s, g, rng, samples=25)
    assert s.audit().ok


# ----------------------------------------------------------------------
# deletion
# ----------------------------------------------------------------------

def test_delete_nontree_edge_keeps_structure():
    s = LevelStructure(4)
    s.batch_insert([(0, 1), (1, 2), (0, 2)])
    nontree = [k for k in s.live_edges() if s.edges.get(k).status == "nontree"]
    assert len(nontree) == 1
    before = {i: sorted(s.forests[i].edge_pairs()) for i in range(1, s.levels + 1)}
    s.batch_delete(nontree)
    after = {i: sorted(s.forests[i].edge_pairs()) for i in range(1, s.levels + 1)}
    assert before == after
    assert s.batch_connected([(0, 1), (1, 2), (0, 2)]) == [True, True, True]
    assert s.counters.pushes == 0
    assert s.audit().ok


def test_delete_only_edge_disconnects():
    s = LevelStructure(3)
    s.batch_insert([(0, 1)])
    s.batch_delete([(0, 1)])
    assert s.batch_connected([(0, 1)]) == [False]
    assert s.audit().ok


def test_delete_tree_edge_finds_replacement():
    s = LevelStructure(3)
    s.batch_insert([(0, 1), (1, 2), (0, 2)])
    tree = [k for k in s.live_edges() if s.edges.get(k).status == "tree"]
    s.batch_delete([tree[0]])
    assert s.batch_connected([(0, 1), (1, 2), (0, 2)]) == [True, True, True]
    g = OracleGraph(3)
    g.apply("I", [(0, 1), (1, 2), (0, 2)])
    g.apply("D", [tree[0]])
    for u in range(3):
        for v in range(3):
            assert s.batch_connected([(u, v)]) == [g.connected(u, v)]
    assert s.audit().ok


def test_delete_validation():
    s = LevelStructure(4)
    s.batch_insert([(0, 1)])
    with pytest.raises(MissingEdgeError):
        s.batch_delete([(1, 2)])
    with pytest.raises(DuplicateEdgeError):
        s.batch_delete([(0, 1), (1, 0)])
    assert s.live_edges() == [(0, 1)]


@pytest.mark.parametrize("kind", ["I", "D", "Q"])
@pytest.mark.parametrize(
    "bad, err",
    [
        ((True, 2), InvalidVertexError),
        ((1, True), InvalidVertexError),
        ((False, 0), InvalidVertexError),
        ((0, 1, 2), MalformedEdgeError),
        ((3,), MalformedEdgeError),
        (5, MalformedEdgeError),
        (None, MalformedEdgeError),
    ],
)
def test_bool_and_malformed_items_rejected_like_oracle(kind, bad, err):
    s, g = LevelStructure(4), OracleGraph(4)
    assert drive(s, g, "I", [(0, 1), (1, 2), (0, 2)])
    before = (s.live_edges(), s.audit().failures)
    engine = {"I": s.batch_insert, "D": s.batch_delete, "Q": s.batch_connected}[kind]
    oracle = g.connected_many if kind == "Q" else lambda pairs: g.apply(kind, pairs)
    good = {"I": (2, 3), "D": (0, 1), "Q": (0, 3)}[kind]
    for batch in ([bad], [good, bad]):
        for call in (engine, oracle):
            with pytest.raises(GraphError) as info:
                call(batch)
            assert info.type is err, (call, batch)
        assert (s.live_edges(), s.audit().failures) == before
        assert s.live_edges() == sorted(g.edges)


class Index:
    """An integer that is not an ``int``, as numpy integers are."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


def test_index_integers_accepted_like_oracle():
    s, g = LevelStructure(8), OracleGraph(8)
    assert drive(s, g, "I", [(Index(0), Index(1)), (1, Index(2)), (Index(5), 6)])
    assert drive(s, g, "D", [(Index(2), Index(1))])
    assert s.live_edges() == sorted(g.edges) == [(0, 1), (5, 6)]
    assert all(type(x) is int for key in s.live_edges() + sorted(g.edges) for x in key)
    queries = [(Index(0), Index(1)), (Index(0), 5), (Index(3), Index(3)), (6, Index(5))]
    assert s.batch_connected(queries) == g.connected_many(queries) == [True, False, True, True]
    assert g.connected(Index(5), Index(6))
    for bad in (1.0, "1"):
        for call in (s.batch_insert, s.batch_delete, s.batch_connected,
                     g.connected_many, lambda pairs: g.apply("I", pairs)):
            with pytest.raises(InvalidVertexError):
                call([(0, bad)])
    assert s.live_edges() == sorted(g.edges) == [(0, 1), (5, 6)]
    assert s.audit().ok


@pytest.mark.parametrize("cls", [LevelStructure, EulerTourForest, OracleGraph])
@pytest.mark.parametrize("n", [2.0, "3", True, None, 0])
def test_vertex_count_must_be_a_positive_integer(cls, n):
    with pytest.raises(InvalidVertexError):
        cls(n)


def test_index_vertex_count_builds_like_the_int():
    for cls in (LevelStructure, EulerTourForest, OracleGraph):
        assert type(cls(Index(8)).n) is int and cls(Index(8)).n == 8
    assert LevelStructure(Index(8)).levels == LevelStructure(8).levels == 3
    assert LevelStructure(Index(1000)).levels == 10


def test_internal_error_mid_batch_refuses_further_use(monkeypatch):
    s = LevelStructure(8)
    s.batch_insert([(0, 1), (1, 2), (2, 3)])
    cut = EulerTourForest.batch_cut
    calls = []

    def failing_cut(self, edges):
        calls.append(edges)
        if len(calls) == 1:
            raise AssertionError("injected")
        return cut(self, edges)

    monkeypatch.setattr(EulerTourForest, "batch_cut", failing_cut)
    with pytest.raises(AssertionError, match="injected"):
        s.batch_delete([(1, 2)])
    for call, batch in ((s.batch_insert, [(4, 5)]), (s.batch_delete, [(0, 1)]),
                        (s.batch_connected, [(0, 1)])):
        with pytest.raises(RuntimeError, match="AssertionError") as info:
            call(batch)
        assert not isinstance(info.value, GraphError)
    assert len(calls) == 1
    assert isinstance(s.audit().ok, bool)
    # a rejected batch is not an internal error: the structure stays usable
    fresh = LevelStructure(8)
    with pytest.raises(MissingEdgeError):
        fresh.batch_delete([(0, 1)])
    fresh.batch_insert([(0, 1)])
    fresh.batch_delete([(0, 1)])
    assert fresh.batch_connected([(0, 1)]) == [False]
    assert len(calls) == 2 and fresh.audit().ok


@pytest.mark.parametrize("strategy", ["simple", "interleaved"])
def test_only_level_forests_file_edges(monkeypatch, strategy):
    """Arrays and charges change only inside a forest's insert_level_edges
    and remove_level_edges, which keep an edge's two copies in step; each
    filing checks its runs with one check_runs call, and the engine links
    its selected spanning forests without batch_link's second check."""
    depth = [0]
    calls = {}
    checks = []     # (edges filed, check_runs calls) per filing
    longest = [0]   # the longest run check_runs saw

    def filing(fn):
        def wrapped(self, *args):
            depth[0] += 1
            before = calls.get("check_runs", 0)
            try:
                return fn(self, *args)
            finally:
                depth[0] -= 1
                # both filings take the edges second to last
                checks.append((len(args[-2]), calls.get("check_runs", 0) - before))
        return wrapped

    def counted(fn):
        def wrapped(*args, **kwargs):
            calls[fn.__name__] = calls.get(fn.__name__, 0) + 1
            return fn(*args, **kwargs)
        return wrapped

    def guarded(fn):
        fn = counted(fn)

        def wrapped(*args, **kwargs):
            assert depth[0], f"{fn.__name__} called outside a level forest's filing"
            return fn(*args, **kwargs)
        return wrapped

    def check_runs(self, level, kind, runs, stored):
        runs = list(runs)
        longest[0] = max([longest[0]] + [len(edges) for _, edges in runs])
        return original_check(self, level, kind, runs, stored)

    original_check = AdjacencyStore.check_runs
    for owner, name, wrap in (
        (EulerTourForest, "insert_level_edges", filing),
        (EulerTourForest, "remove_level_edges", filing),
        (EulerTourForest, "adjust_edge_counts", guarded),
        (EulerTourForest, "batch_link", counted),
        (AdjacencyStore, "insert_edges", guarded),
        (AdjacencyStore, "delete_edges", guarded),
    ):
        monkeypatch.setattr(owner, name, wrap(getattr(owner, name)))
    monkeypatch.setattr(AdjacencyStore, "check_runs", guarded(check_runs))
    script = generate(96, 150, 4, mix=(0.5, 0.35, 0.15), seed=5)
    s = LevelStructure(96, seed=5, strategy=strategy)
    for kind, pairs in script.batches:
        if kind == "I":
            s.batch_insert(pairs)
        elif kind == "D":
            s.batch_delete(pairs)
        else:
            s.batch_connected(pairs)
    # the forests charge each endpoint run with one climb of their own, so
    # the engine reaches adjust_edge_counts no more, and it links through
    # EulerTourForest.link, never batch_link
    assert set(calls) == {"insert_edges", "delete_edges", "check_runs"}
    # one gate per filing, runs of several edges included
    assert longest[0] > 1
    assert {c for filed, c in checks if filed} == {1}
    assert {c for filed, c in checks if not filed} <= {0}
    assert s.counters.pushes > 0
    report = s.audit()
    assert report.ok, report.failures[:4]


@pytest.mark.parametrize("strategy", ["simple", "interleaved"])
def test_random_mixed_script_vs_oracle(strategy):
    rng = random.Random(23)
    n = 64
    s = LevelStructure(n, seed=23, strategy=strategy)
    g = OracleGraph(n)
    for step in range(120):
        live = sorted(g.edges)
        if live and rng.random() < 0.45:
            take = rng.randrange(1, min(6, len(live)) + 1)
            batch = rng.sample(live, take)
            drive(s, g, "D", batch)
        else:
            batch = []
            seen = set(g.edges)
            for _ in range(rng.randrange(1, 7)):
                u, v = rng.randrange(n), rng.randrange(n)
                if u == v:
                    continue
                key = (min(u, v), max(u, v))
                if key not in seen:
                    seen.add(key)
                    batch.append(key)
            if batch:
                drive(s, g, "I", batch)
        check_against_oracle(s, g, rng, samples=30)
        assert s.live_edges() == sorted(g.edges)
        if step % 20 == 0:
            report = s.audit()
            assert report.ok, report.failures[:4]
    report = s.audit()
    assert report.ok, report.failures[:4]
    assert s.counters.within_push_bound()
    assert s.counters.doubling_violations == 0


# ----------------------------------------------------------------------
# search internals
# ----------------------------------------------------------------------

def split_into_pieces(s, pairs):
    """Delete tree edges by hand: arrays, charges, cuts, no search."""
    records = [s.edges.get((min(u, v), max(u, v))) for u, v in pairs]
    s.edges.apply([("delete", rec.key) for rec in records])
    for rec in records:
        s.forests[rec.level].remove_level_edges(rec.u, [rec], rec.status)
    for i in range(1, s.levels + 1):
        cuts = [rec.key for rec in records if rec.level <= i]
        if cuts:
            s.forests[i].batch_cut(cuts)
    handles = []
    for rec in records:
        handles.extend((rec.u, rec.v))
    return handles


@pytest.mark.parametrize("searcher", ["parallel_level_search", "interleaved_level_search"])
def test_level_search_single_replacement(searcher):
    s = LevelStructure(8, seed=1)
    s.batch_insert([(0, 1), (0, 2), (1, 2)])
    # (0,1) and (0,2) became tree edges; (1,2) is the lone replacement
    handles = split_into_pieces(s, [(0, 1)])
    getattr(s, searcher)(s.levels, handles)
    assert s.edges.get((1, 2)).status == "tree"
    assert s.batch_connected([(0, 1)]) == [True]
    assert s.audit().ok


def test_component_search_exhaustion_pushes_everything():
    s = LevelStructure(8, seed=2)
    # piece {0,1,2,3} with 3 internal non-tree edges and no replacement
    s.batch_insert([(0, 1), (1, 2), (2, 3), (0, 2), (0, 3), (1, 3), (3, 4), (4, 5)])
    handles = split_into_pieces(s, [(3, 4)])
    L = s.levels
    # the level search pushes a searched piece's tree edges down first;
    # respect that before scanning the non-tree edges directly
    s._push_tree_edges(L, 0)
    before = s.counters.pushes
    out = s.component_search(L, 0)
    assert out == []
    assert s.counters.pushes - before == 3
    for key in [(0, 2), (0, 3), (1, 3)]:
        assert s.edges.get(key).level == L - 1
    s.parallel_level_search(L, handles)
    # nothing was promoted: the tree edges are those left by the cut
    tree = {key for key, rec in s.edges.items() if rec.status == "tree"}
    assert tree == {(0, 1), (1, 2), (2, 3), (4, 5)}
    assert s.batch_connected([(0, 4), (4, 5)]) == [False, True]
    report = s.audit()
    assert report.ok, report.failures[:4]


def test_generator_query_batch_vs_oracle():
    # query batches, like insert and delete batches, may be any iterable
    rng = random.Random(7)
    n = 32
    s = LevelStructure(n, seed=7)
    g = OracleGraph(n)
    drive(s, g, "I", [(u, u + 1) for u in range(0, n - 1, 3)])
    queries = [(rng.randrange(n), rng.randrange(n)) for _ in range(50)]
    before = (s.counters.query_batches, s.counters.queries)
    answers = s.batch_connected(pair for pair in queries)
    assert answers == g.connected_many(pair for pair in queries)
    assert (s.counters.query_batches, s.counters.queries) == (before[0] + 1, before[1] + 50)


def test_component_search_doubling_trace_matches_hand_simulation():
    # piece {0..8} with internal non-tree chords plus one replacement to
    # piece {9,10}; every vertex holds at most one non-tree edge so pushes
    # never reorder the survivors, and the doubling schedule can be
    # hand-simulated from the canonical fetch order and checked against
    # the counters
    s = LevelStructure(16, seed=7)
    path = [(v, v + 1) for v in range(8)]
    extra = [(0, 2), (1, 3), (4, 6), (5, 7), (9, 10), (8, 9), (8, 10)]
    s.batch_insert(path + extra)
    chords = {(0, 2), (1, 3), (4, 6), (5, 7)}
    assert s.edges.get((8, 10)).status == "nontree"
    split_into_pieces(s, [(8, 9)])
    L = s.levels
    s._push_tree_edges(L, 0)
    order = s.forests[L].fetch_level_edges(0, s.forests[L].num_nontree_edges(0), "nontree")
    keys = [rec.key for rec in order]
    assert set(keys) == chords | {(8, 10)}
    # hand simulation of the doubling schedule over the fetched order
    sim_pushed = 0
    sim_phases = 0
    w = 1
    remaining = list(keys)
    found = None
    while remaining:
        sim_phases += 1
        window = remaining[: min(w, len(remaining))]
        repl = [k for k in window if k == (8, 10)]
        non = [k for k in window if k != (8, 10)]
        sim_pushed += len(non)
        remaining = [k for k in remaining if k not in non]
        if repl:
            found = repl[0]
            break
        if len(remaining) == 0:
            break
        w *= 2
    before_p = s.counters.pushes
    before_ph = s.counters.phases_total
    out = s.component_search(L, 0)
    assert [rec.key for rec, _, _ in out] == [found]
    assert s.counters.pushes - before_p == sim_pushed
    assert s.counters.phases_total - before_ph == sim_phases


def test_component_search_empty_and_first_edge():
    s = LevelStructure(8, seed=3)
    s.batch_insert([(0, 1), (2, 3), (0, 2), (4, 5)])
    handles = split_into_pieces(s, [(4, 5)])
    assert s.component_search(s.levels, 4) == []
    # piece {0,1} holds the replacement (0,2) as its first non-tree edge
    s2 = LevelStructure(8, seed=3)
    s2.batch_insert([(0, 1), (1, 2), (0, 2)])
    split_into_pieces(s2, [(1, 2)])
    out = s2.component_search(s2.levels, 1)
    assert [rec.key for rec, _, _ in out] == [(0, 2)]
    # the reported representatives are those of the two sides' trees
    f = s2.forests[s2.levels]
    assert out[0][1:] == (f.find_repr(0), f.find_repr(2))


def test_level_search_two_split_components():
    s = LevelStructure(8, seed=11)
    s.batch_insert(
        [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (0, 2), (5, 7)]
    )
    handles = split_into_pieces(s, [(1, 2), (5, 6)])
    L = s.levels
    s.parallel_level_search(L, handles)
    assert s.edges.get((0, 2)).status == s.edges.get((5, 7)).status == "tree"
    g = OracleGraph(8)
    g.apply("I", [(0, 1), (2, 3), (3, 4), (4, 5), (6, 7), (0, 2), (5, 7)])
    for u in range(8):
        for v in range(8):
            assert s.batch_connected([(u, v)]) == [g.connected(u, v)]
    # examined non-replacement edges ended one level down
    assert s.audit().ok


@pytest.mark.parametrize("strategy", ["simple", "interleaved"])
def test_batch_delete_searches_only_levels_its_pieces_reach(monkeypatch, strategy):
    # a deletion batch searches each level once, from its lowest deleted tree
    # edge's level up, handing every level the pieces carried from below plus
    # those cut there; no search runs without pieces, none for non-tree edges
    calls = []
    name = "interleaved_level_search" if strategy == "interleaved" else "parallel_level_search"
    search = getattr(LevelStructure, name)

    def recorder(self, i, components):
        carried = search(self, i, components)
        calls.append((i, list(components), list(carried)))
        return carried

    monkeypatch.setattr(LevelStructure, name, recorder)
    script = generate(64, 120, 6, mix=(0.5, 0.4, 0.1), seed=5)
    s = LevelStructure(64, seed=5, strategy=strategy)
    searched = 0
    for kind, pairs in script.batches:
        if kind == "I":
            s.batch_insert(pairs)
        if kind != "D":
            continue
        cut = {}
        for u, v in pairs:
            rec = s.edges.get((min(u, v), max(u, v)))
            if rec.status == "tree":
                cut.setdefault(rec.level, []).extend((rec.u, rec.v))
        calls.clear()
        s.batch_delete(pairs)
        if not cut:
            assert calls == []
            continue
        assert [i for i, _, _ in calls] == list(range(min(cut), s.levels + 1))
        carried = []
        for i, components, out in calls:
            assert components == carried + cut.get(i, [])
            assert components and out
            carried = out
        searched += 1
    assert searched > 10
    assert s.audit().ok


def test_strategy_equivalence_on_answers():
    rng = random.Random(91)
    n = 64
    script = []
    g = OracleGraph(n)
    for _ in range(90):
        live = sorted(g.edges)
        if live and rng.random() < 0.5:
            batch = rng.sample(live, rng.randrange(1, min(8, len(live)) + 1))
            script.append(("D", batch))
            g.apply("D", batch)
        else:
            batch = []
            seen = set(g.edges)
            for _ in range(rng.randrange(1, 8)):
                u, v = rng.randrange(n), rng.randrange(n)
                key = (min(u, v), max(u, v))
                if u != v and key not in seen:
                    seen.add(key)
                    batch.append(key)
            if not batch:
                continue
            script.append(("I", batch))
            g.apply("I", batch)
        script.append(("Q", [(rng.randrange(n), rng.randrange(n)) for _ in range(20)]))

    def run(strategy):
        s = LevelStructure(n, seed=91, strategy=strategy)
        answers = []
        for kind, batch in script:
            if kind == "I":
                s.batch_insert(batch)
            elif kind == "D":
                s.batch_delete(batch)
            else:
                answers.append(tuple(s.batch_connected(batch)))
        assert s.audit().ok
        return answers

    assert run("simple") == run("interleaved")


def test_interleaved_sweep_moves_merged_tree_edges(monkeypatch):
    # a component that keeps buffering takes the tree edges merged into its
    # supercomponent down with it, including ones found in windows that were
    # never buffered themselves; verify the path is actually exercised on a
    # deletion-heavy workload and the invariants survive it
    from batchconn.connectivity import _SuperMap

    taken = []
    orig_take = _SuperMap.take_tree_edges

    def counting_take(self, root):
        out = orig_take(self, root)
        taken.extend(out)
        return out

    monkeypatch.setattr(_SuperMap, "take_tree_edges", counting_take)
    rng = random.Random(2024)
    n = 256
    s = LevelStructure(n, seed=4, strategy="interleaved")
    g = OracleGraph(n)
    pairs = set()
    while len(pairs) < 900:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            pairs.add((min(u, v), max(u, v)))
    pairs = sorted(pairs)
    for j in range(0, len(pairs), 50):
        s.batch_insert(pairs[j:j + 50])
        g.apply("I", pairs[j:j + 50])
    live = list(pairs)
    rng.shuffle(live)
    while live:
        take = min(len(live), rng.choice([2, 5, 17, 51]))
        s.batch_delete(live[:take])
        g.apply("D", live[:take])
        live = live[take:]
        check_against_oracle(s, g, rng, samples=20)
    assert len(taken) > 0
    report = s.audit()
    assert report.ok, report.failures[:3]


def test_interleaved_doubling_counter_example():
    # a component that stays active across rounds must have buffered
    # 2^(r-1) moves in round r-1; the counters assert it inline
    rng = random.Random(17)
    n = 64
    s = LevelStructure(n, seed=17, strategy="interleaved")
    g = OracleGraph(n)
    batch = []
    seen = set()
    for _ in range(200):
        u, v = rng.randrange(n), rng.randrange(n)
        key = (min(u, v), max(u, v))
        if u != v and key not in seen:
            seen.add(key)
            batch.append(key)
    s.batch_insert(batch)
    g.apply("I", batch)
    live = sorted(seen)
    while live:
        take = rng.randrange(1, min(12, len(live)) + 1)
        dels = rng.sample(live, take)
        s.batch_delete(dels)
        g.apply("D", dels)
        for k in dels:
            live.remove(k)
        check_against_oracle(s, g, rng, samples=20)
    assert s.counters.doubling_checks > 0
    assert s.counters.doubling_violations == 0
    assert s.audit().ok


# ----------------------------------------------------------------------
# counters and audit
# ----------------------------------------------------------------------

def test_hand_counted_pushes():
    # path 0-1-2-3 plus chord (0,2); deleting (0,1) pushes the two tree
    # edges (1,2),(2,3) of the surviving piece one level down, then the
    # chord reconnects: P must be exactly 2
    s = LevelStructure(8, seed=4)
    s.batch_insert([(0, 1), (1, 2), (2, 3), (0, 2)])
    s.batch_delete([(0, 1)])
    assert s.batch_connected([(0, 3)]) == [True]
    assert s.counters.pushes == 2
    assert s.counters.pushes_by_batch_level == {(0, s.levels): 2}
    assert s.audit().ok


def test_push_bound_and_level_history():
    rng = random.Random(41)
    n = 32
    s = LevelStructure(n, seed=41)
    g = OracleGraph(n)
    for _ in range(60):
        live = sorted(g.edges)
        if live and rng.random() < 0.5:
            batch = rng.sample(live, rng.randrange(1, min(5, len(live)) + 1))
            drive(s, g, "D", batch)
        else:
            batch = []
            seen = set(g.edges)
            for _ in range(rng.randrange(1, 6)):
                u, v = rng.randrange(n), rng.randrange(n)
                key = (min(u, v), max(u, v))
                if u != v and key not in seen:
                    seen.add(key)
                    batch.append(key)
            drive(s, g, "I", batch)
    assert s.counters.pushes <= s.counters.edges_inserted * s.levels
    for key in s.live_edges():
        hist = s.edges.get(key).levels_seen
        assert all(a > b for a, b in zip(hist, hist[1:]))


def test_audit_fresh_structure():
    assert LevelStructure(16).audit().ok


def test_audit_names_size_bound_on_corruption():
    s = LevelStructure(8, seed=9)
    s.batch_insert([(0, 1), (1, 2), (2, 3), (3, 4)])
    # test hook: force levels down without restructuring, making the
    # level-1 subgraph hold a 4-vertex component (cap is 2)
    for key in [(0, 1), (1, 2), (2, 3)]:
        rec = s.edges.get(key)
        rec.level = 1
        rec.levels_seen.append(1)
    report = s.audit()
    assert not report.ok
    assert any("component-size-bound" in f for f in report.failures)


def test_audit_names_a_charge_that_differs_from_its_array():
    s = LevelStructure(8, seed=9)
    s.batch_insert([(0, 1), (1, 2), (0, 2)])
    L = s.levels
    # charges changed without their arrays, at the edges' level and below
    for i, v, kind, stored in [(L, 2, "nontree", 1), (1, 5, "tree", 0)]:
        s.forests[i].adjust_edge_counts([(v, kind, 1)])
        assert s.audit().failures == [
            f"forest {i}: charges: vertex {v} level {i} {kind} {stored + 1} != array {stored}"
        ]
        s.forests[i].adjust_edge_counts([(v, kind, -1)])
        assert s.audit().ok


def test_determinism_same_seed_same_counters():
    def run():
        rng = random.Random(3)
        s = LevelStructure(48, seed=99)
        g = OracleGraph(48)
        answers = []
        for _ in range(80):
            live = sorted(g.edges)
            if live and rng.random() < 0.45:
                batch = rng.sample(live, rng.randrange(1, min(6, len(live)) + 1))
                s.batch_delete(batch)
                g.apply("D", batch)
            else:
                batch = []
                seen = set(g.edges)
                for _ in range(rng.randrange(1, 6)):
                    u, v = rng.randrange(48), rng.randrange(48)
                    key = (min(u, v), max(u, v))
                    if u != v and key not in seen:
                        seen.add(key)
                        batch.append(key)
                if batch:
                    s.batch_insert(batch)
                    g.apply("I", batch)
            answers.append(tuple(s.batch_connected([(0, k) for k in range(48)])))
        return answers, s.counters.snapshot()

    a1, c1 = run()
    a2, c2 = run()
    assert a1 == a2
    assert c1 == c2


PINNED = {
    "simple": {"P": 15904, "search_calls": 21412, "phases": 1152, "rounds": 844},
    "interleaved": {"P": 16134, "search_calls": 21765, "doubling_checks": 150, "rounds": 882},
}

# SHA-256 over every tour's (uid, own) sequence, levels in order
PINNED_TOURS = {
    "simple": "588aaf74e50db01a55daf9348d5ab05a85ad838b901f65a09f22ade55cfbb04f",
    "interleaved": "4a64d8ebed7be40feae655aa490e5c096ee1c61cf806576fd318313fe001bfd6",
}

# SHA-256 over every non-empty adjacency array's order and every edge's
# (level, status, levels_seen)
PINNED_ARRAYS = {
    "simple": "b1a67da5d8c97a5898d12a8fcdcb775454f89e8a1c3de10bc6254483f83415bb",
    "interleaved": "acc9010064f0568eafcfd82a70bfb0da75364dd81f35e165a8361fcc1c02df3f",
}


def run_pinned_workload(strategy, seed):
    """Replay the pinned mixed workload; return the structure and its answers."""
    script = generate(1024, 300, 32, mix=(0.45, 0.35, 0.2), seed=3)
    s = LevelStructure(1024, seed=seed, strategy=strategy)
    answers = []
    for kind, pairs in script.batches:
        if kind == "I":
            s.batch_insert(pairs)
        elif kind == "D":
            s.batch_delete(pairs)
        else:
            answers.append(s.batch_connected(pairs))
    return s, answers


def tour_sequences(s):
    """Every tour of every level as its (uid, own) sequence, levels in order."""
    return [
        [[(node.uid, tuple(node.own)) for node in tour] for tour in s.forests[i].tours()]
        for i in sorted(s.forests)
    ]


def array_state(s):
    """Every non-empty adjacency array's order, then every edge's level,
    status and level history."""
    arrays = sorted((key, [rec.key for rec in arr]) for key, arr in s.adj.arrays() if arr)
    edges = [(key, rec.level, rec.status, rec.levels_seen) for key, rec in sorted(s.edges.items())]
    return arrays, edges


def fetch_orders(s):
    """The full fetch order of every (level, tree, kind), as edge keys."""
    out = []
    for i in sorted(s.forests):
        f = s.forests[i]
        for tour in f.tours():
            v = next(node.vertex for node in tour if node.vertex is not None)
            out.append([rec.key for rec in f.fetch_level_edges(v, f.num_tree_edges(v), "tree")])
            out.append([rec.key for rec in f.fetch_level_edges(v, f.num_nontree_edges(v), "nontree")])
    return out


@pytest.mark.parametrize("strategy", sorted(PINNED))
def test_pinned_counters(strategy):
    # the fetch order, and with it every push, follows the tour sequences and
    # the adjacency arrays' order; these values pin that order on a
    # mixed workload. The perfbench workloads never reach the simple
    # strategy's window phases, so this is what pins them.
    s, _ = run_pinned_workload(strategy, 3)
    snap = s.counters.snapshot()
    snap["rounds"] = sum(snap["rounds_by_batch_level"].values())
    assert {key: snap[key] for key in PINNED[strategy]} == PINNED[strategy]
    # and the tour sequences themselves, with every loop's charges
    digest = hashlib.sha256(repr(tour_sequences(s)).encode())
    assert digest.hexdigest() == PINNED_TOURS[strategy]
    # and the adjacency arrays' order with every edge's level history
    digest = hashlib.sha256(repr(array_state(s)).encode())
    assert digest.hexdigest() == PINNED_ARRAYS[strategy]


@pytest.mark.parametrize("strategy", sorted(PINNED))
def test_pinned_workload_does_not_depend_on_the_structure_seed(strategy):
    # priorities shape the treaps only: answers, counters, tour sequences
    # and fetch orders follow from the operations alone
    runs = []
    reprs = set()
    for seed in range(8):
        s, answers = run_pinned_workload(strategy, seed)
        runs.append((answers, s.counters.snapshot(), tour_sequences(s), fetch_orders(s)))
        reprs.add(tuple(s.forests[s.levels].batch_find_repr(range(s.n))))
    assert len(reprs) > 1     # the seeds did build different treaps
    for run in runs[1:]:
        assert run == runs[0]


def state_snapshot(s):
    """Everything a batch may change, as text: every edge's key, level, status
    and history, every adjacency array's order, every tour's (uid, own)
    sequence, which holds every loop's charges, the counters and the array
    write count."""
    return repr((array_state(s), tour_sequences(s), s.counters.snapshot(), s.adj.slot_writes))


def rejected_batches(s):
    """One invalid batch per rejection kind, built against the live edges."""
    n = s.n
    live = s.live_edges()
    fresh = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in s.edges]
    absent = fresh[0]
    return [
        ("self loop", "I", [absent, (3, 3)], SelfLoopError),
        ("self loop", "D", [(5, 5)], SelfLoopError),
        ("repeated pair", "I", [absent, absent[::-1]], DuplicateEdgeError),
        ("repeated pair", "D", [live[0], live[0]], DuplicateEdgeError),
        ("already present", "I", [absent, live[-1]], DuplicateEdgeError),
        ("missing edge", "D", [live[0], absent], MissingEdgeError),
        ("out of range", "I", [(0, n)], InvalidVertexError),
        ("out of range", "D", [(-1, 0)], InvalidVertexError),
        ("out of range", "Q", [(0, 1), (n, 0)], InvalidVertexError),
        ("bool vertex", "I", [(True, 2)], InvalidVertexError),
        ("bool vertex", "D", [(0, False)], InvalidVertexError),
        ("bool vertex", "Q", [(True, 1)], InvalidVertexError),
        ("non-pair", "I", [(0, 1, 2)], MalformedEdgeError),
        ("non-pair", "D", [5], MalformedEdgeError),
        ("non-pair", "Q", [None], MalformedEdgeError),
        ("bad after good", "I", fresh[:3] + [(1, n + 4)], InvalidVertexError),
        ("bad after good", "D", live[:3] + [absent], MissingEdgeError),
        ("bad after good", "Q", [(0, 1), (1, 2), (2,)], MalformedEdgeError),
    ]


@pytest.mark.parametrize("strategy", ["simple", "interleaved"])
def test_rejected_batch_leaves_the_state_unchanged(strategy):
    script = generate(64, 60, 6, mix=(0.5, 0.35, 0.15), seed=12)
    s = LevelStructure(64, seed=12, strategy=strategy)
    calls = {"I": s.batch_insert, "D": s.batch_delete, "Q": s.batch_connected}
    checked = 0
    for idx, (kind, pairs) in enumerate(script.batches):
        if idx % 3 == 0 and len(s.edges) >= 3:
            before = state_snapshot(s)
            for name, bad_kind, batch, err in rejected_batches(s):
                with pytest.raises(err):
                    calls[bad_kind](batch)
                assert state_snapshot(s) == before, (name, bad_kind, batch)
                checked += 1
        calls[kind](pairs)
    assert checked > 300
    assert s.counters.deletion_batches > 10
    assert s.audit().ok
