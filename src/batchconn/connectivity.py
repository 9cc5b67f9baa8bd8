"""Fully dynamic connectivity engine over a hierarchy of spanning forests.

The structure keeps L = max(1, ceil(log2 n)) nested forests F_1 .. F_L, one
Euler tour forest per level, a shared adjacency store, and a global edge
dictionary. Every edge carries a level in [1, L] that never increases.
Maintained invariants:

  * every connected component of the subgraph of edges with level <= i has
    at most 2^i vertices;
  * F_L is a minimum spanning forest when edges are weighted by level, so a
    non-tree edge's endpoints are always connected within the forest of its
    own level;
  * a tree edge of level l is linked in exactly F_l .. F_L.

A level-i edge is stored twice: in its endpoints' level-i adjacency arrays
and in the charges of F_i. Edges enter and leave both only through F_i's
``insert_level_edges``, ``remove_level_edges`` and ``take_level_edges``,
which keeps the two copies in step.

Batches are validated up front and applied atomically; after an error escapes
a validated batch, every call raises RuntimeError. Deleting tree edges
triggers a bottom-up replacement search over the affected levels, using one
of two strategies: ``simple`` restarts a doubling scan per round; it moves
examined edges down a level and links each round's replacements into
F_i .. F_L at once. ``interleaved`` keeps one global doubling schedule per
level and tracks merged components in a supercomponent map so oversized
merges stop pushing; one pass per round decides each piece's fate and
moves the windows it examined down a level at once, and only the
replacements' links into F_i .. F_L wait for the end of the level, because
F_i must stay fixed during its rounds. A new batch's tree edges are chosen
by the same replacement test and spanning forest the searches use. Every
edge move and status change happens once, where it is decided. Work
counters record every level decrease for amortization checks.
"""

from __future__ import annotations

from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

from .adjstore import AdjacencyStore
from .errors import (
    DuplicateEdgeError,
    MissingEdgeError,
    SelfLoopError,
)
from .etforest import EulerTourForest, as_pair, check_size, check_vertex
from .primitives import BatchDictionary, DisjointSets, semisort, spanning_forest

TREE = "tree"
NONTREE = "nontree"


class EdgeRecord:
    """One live undirected edge: canonical endpoints, level, status, level history."""

    __slots__ = ("u", "v", "level", "status", "levels_seen")

    def __init__(self, u, v, level, status):
        self.u = u
        self.v = v
        self.level = level
        self.status = status
        self.levels_seen = [level]

    @property
    def key(self):
        return (self.u, self.v)

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"<edge ({self.u},{self.v}) l={self.level} {self.status}>"


class WorkCounters:
    """Work-accounting instrumentation for the amortization structure.

    ``pushes`` counts every level decrease; the per-(deletion batch, level)
    matrix, per-level round counts, and replacement-search call counts allow
    the push bound P <= m * L and the per-round doubling guarantee to be
    checked from the outside.
    """

    def __init__(self, n, levels):
        self.n = n
        self.levels = levels
        self.edges_inserted = 0          # m: edges ever inserted
        self.edges_deleted = 0           # K: edges ever deleted
        self.insert_batches = 0
        self.deletion_batches = 0        # d
        self.query_batches = 0
        self.queries = 0
        self.pushes = 0                  # P: total level decreases
        self.deletion_batch_sizes = []   # k_b per deletion batch
        self.search_calls = 0            # replacement-search invocations
        self.phases_total = 0
        # (b, i) -> count, per deletion batch b and level i
        self.pushes_by_batch_level = defaultdict(int)
        self.rounds_by_batch_level = defaultdict(int)
        self.phases_by_batch_level = defaultdict(int)
        self.search_calls_by_batch_level = defaultdict(int)
        self.doubling_checks = 0
        self.doubling_violations = 0
        self.level_regressions = 0

    def record_push(self, from_level, batch):
        self.pushes += 1
        if batch is not None:
            self.pushes_by_batch_level[batch, from_level] += 1

    def record_round(self, level, batch):
        if batch is not None:
            self.rounds_by_batch_level[batch, level] += 1

    def record_phase(self, level, batch):
        self.phases_total += 1
        if batch is not None:
            self.phases_by_batch_level[batch, level] += 1

    def record_search_call(self, level, batch):
        self.search_calls += 1
        if batch is not None:
            self.search_calls_by_batch_level[batch, level] += 1

    def delta(self):
        if self.deletion_batches == 0:
            return 0.0
        return self.edges_deleted / self.deletion_batches

    def push_bound(self):
        return self.edges_inserted * self.levels

    def within_push_bound(self):
        return self.pushes <= self.push_bound()

    def snapshot(self):
        """Deterministic dict of all counters (no wall-clock data)."""
        out = {
            "n": self.n,
            "levels": self.levels,
            "m": self.edges_inserted,
            "K": self.edges_deleted,
            "d": self.deletion_batches,
            "insert_batches": self.insert_batches,
            "query_batches": self.query_batches,
            "queries": self.queries,
            "P": self.pushes,
            "delta": self.delta(),
            "push_bound": self.push_bound(),
            "push_bound_ok": self.within_push_bound(),
            "search_calls": self.search_calls,
            "phases": self.phases_total,
            "doubling_checks": self.doubling_checks,
            "doubling_violations": self.doubling_violations,
            "level_regressions": self.level_regressions,
            "deletion_batch_sizes": list(self.deletion_batch_sizes),
        }
        for name in ("pushes", "rounds", "phases", "search_calls"):
            key = f"{name}_by_batch_level"
            out[key] = {f"{b}:{i}": c for (b, i), c in sorted(getattr(self, key).items())}
        return out


@dataclass
class AuditReport:
    ok: bool
    failures: list = field(default_factory=list)

    def first(self):
        return self.failures[0] if self.failures else None


class _SuperMap(DisjointSets):
    """Union-find over original split components with sizes and found edges.

    Tracks, per supercomponent, the replacement tree edges that merged it, so
    a pushing component can take every tree edge of its supercomponent down
    with it.
    """

    def __init__(self, sizes):
        super().__init__(sizes)
        self.tree_edges = {h: [] for h in sizes}

    def union(self, a, b, edge):
        ra, rb = self.find(a), self.find(b)
        root = super().union(ra, rb)
        if root is None:
            raise AssertionError("supercomponent union on merged components")
        lost = rb if root == ra else ra
        self.tree_edges[root].extend(self.tree_edges[lost])
        self.tree_edges[lost] = []
        self.tree_edges[root].append(edge)
        return root

    def take_tree_edges(self, root):
        out = self.tree_edges[root]
        self.tree_edges[root] = []
        return out


class LevelStructure:
    """The batch-dynamic connectivity structure."""

    def __init__(self, n: int, seed: int = 0, strategy: str = "simple"):
        n = check_size(n)
        if strategy not in ("simple", "interleaved"):
            raise ValueError(f"unknown strategy {strategy!r}")
        self.n = n
        self.strategy = strategy
        self.levels = max(1, (n - 1).bit_length())
        self.adj = AdjacencyStore()
        self.forests = {
            i: EulerTourForest(n, level=i, adj=self.adj, seed=seed)
            for i in range(1, self.levels + 1)
        }
        self.edges = BatchDictionary()
        self.counters = WorkCounters(n, self.levels)
        self._batch = None       # the deletion batch being applied, if any
        self._broken = None      # the error that escaped a batch midway, if any

    # ------------------------------------------------------------------
    # validation helpers
    # ------------------------------------------------------------------

    def _check_usable(self):
        if self._broken is not None:
            raise RuntimeError(f"unusable after an error mid-batch: {self._broken!r}")

    @contextmanager
    def _applying(self, batch=None):
        """Apply a validated batch; an error escaping it marks the structure broken."""
        self._batch = batch
        try:
            yield
        except BaseException as exc:
            self._broken = exc
            raise
        finally:
            self._batch = None

    def _canon_batch(self, pairs, expect_present):
        self._check_usable()
        out = []
        seen = set()
        for item in pairs:
            u, v = as_pair(item)
            u, v = check_vertex(u, self.n), check_vertex(v, self.n)
            if u == v:
                raise SelfLoopError(f"self loop at {u}")
            key = (u, v) if u < v else (v, u)
            if key in seen:
                raise DuplicateEdgeError(f"edge {key} repeated in batch")
            seen.add(key)
            if expect_present and key not in self.edges:
                raise MissingEdgeError(f"edge {key} not present")
            if not expect_present and key in self.edges:
                raise DuplicateEdgeError(f"edge {key} already present")
            out.append(key)
        return out

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def batch_connected(self, queries):
        self._check_usable()
        answers = self.forests[self.levels].batch_connected(queries)
        self.counters.query_batches += 1
        self.counters.queries += len(answers)
        return answers

    # ------------------------------------------------------------------
    # insertion
    # ------------------------------------------------------------------

    def batch_insert(self, pairs):
        edges = self._canon_batch(pairs, expect_present=False)
        with self._applying():
            self.counters.insert_batches += 1
            if not edges:
                return
            top = self.levels
            fl = self.forests[top]
            self.counters.edges_inserted += len(edges)
            records = [EdgeRecord(u, v, top, NONTREE) for u, v in edges]
            # the new tree edges are a spanning forest of the edges that join
            # different trees of F_L, as a level search selects its replacements
            tree = self._select(self._replacements(top, records))
            self.edges.apply([("insert", rec.key, rec) for rec in records])
            # F_L files each status group; every array gets its edges in batch order
            for status, run in semisort([(rec.status, rec) for rec in records]).items():
                fl.insert_level_edges(run, status)
            for rec in tree:
                fl.link(rec.u, rec.v)

    # ------------------------------------------------------------------
    # deletion
    # ------------------------------------------------------------------

    def batch_delete(self, pairs):
        keys = self._canon_batch(pairs, expect_present=True)
        with self._applying(self.counters.deletion_batches):
            records = [self.edges.get(k) for k in keys]
            self.counters.deletion_batches += 1
            self.counters.edges_deleted += len(keys)
            self.counters.deletion_batch_sizes.append(len(keys))
            if not keys:
                return
            self.edges.apply([("delete", k) for k in keys])
            # drop adjacency entries and charges at each edge's own level
            by_level = {}
            for rec in records:
                by_level.setdefault((rec.level, rec.status), []).append(rec)
            for (lvl, kind), recs in by_level.items():
                self.forests[lvl].remove_level_edges(recs[0].u, recs, kind)
            tree_recs = [rec for rec in records if rec.status == TREE]
            if not tree_recs:
                return
            # cut each tree edge from every forest of its level and above
            for i in range(1, self.levels + 1):
                cuts = [rec.key for rec in tree_recs if rec.level <= i]
                if cuts:
                    self.forests[i].batch_cut(cuts)
            buckets = {}
            for rec in tree_recs:
                buckets.setdefault(rec.level, []).extend((rec.u, rec.v))
            search = (
                self.interleaved_level_search
                if self.strategy == "interleaved"
                else self.parallel_level_search
            )
            carried = []
            for i in range(min(buckets), self.levels + 1):
                carried = search(i, carried + buckets.get(i, []))

    # ------------------------------------------------------------------
    # shared search plumbing
    # ------------------------------------------------------------------

    def _group_components(self, i, handles):
        """Deduplicate handles by their current tree; keep the smallest.

        Returns a dict from each tree's representative to its handle.
        """
        if not handles:
            return {}
        hs = sorted(set(handles))
        by_repr = {}
        for h, r in zip(hs, self.forests[i].batch_find_repr(hs)):
            by_repr.setdefault(r, h)
        return by_repr

    def _set_level(self, rec, new_level):
        if new_level != rec.level - 1:
            self.counters.level_regressions += 1
            raise AssertionError(
                f"level change {rec.level} -> {new_level} for ({rec.u},{rec.v})"
            )
        rec.level = new_level
        rec.levels_seen.append(new_level)
        self.counters.record_push(new_level + 1, self._batch)

    def _push_tree_edges(self, i, handle):
        """Move all level-i tree edges of handle's tree down to level i-1.

        F_i's ``take_level_edges`` hands over the tree's level-i tree arrays
        whole and zeroes their charges in one walk, and returns the edges in
        fetch order, the order in which ``_lower`` files them at i-1.
        """
        self._lower(i, self.forests[i].take_level_edges(handle, TREE))

    def _push_edges(self, i, edges):
        """Move level-i edges out of their non-tree arrays down to level i-1."""
        if edges:
            self.forests[i].remove_level_edges(edges[0].u, edges, NONTREE)
            self._lower(i, edges)

    def _lower(self, i, edges):
        """File edges that just left level i at level i-1 under their own
        status, and link the tree edges among them in F_(i-1)."""
        if not edges:
            return
        for rec in edges:
            self._set_level(rec, i - 1)
        lower = self.forests[i - 1]
        tree = [rec for rec in edges if rec.status == TREE]
        lower.insert_level_edges([rec for rec in edges if rec.status == NONTREE], NONTREE)
        if tree:
            lower.insert_level_edges(tree, TREE)
            for rec in tree:
                lower.link(rec.u, rec.v)

    def _adopt(self, i, selected):
        """Turn replacements selected at level i (already marked ``TREE``) into
        tree edges: those still at level i move from their non-tree to their
        tree arrays (pushed ones were filed at i-1), and all join F_i .. F_L."""
        if not selected:
            return
        fi = self.forests[i]
        still = [rec for rec in selected if rec.level == i]
        if still:
            fi.remove_level_edges(still[0].u, still, NONTREE)
            fi.insert_level_edges(still, TREE)
        for j in range(i, self.levels + 1):
            for rec in selected:
                self.forests[j].link(rec.u, rec.v)

    def _select(self, repl):
        """Mark a spanning forest of ``(edge, repr_u, repr_v)`` triples as
        ``TREE`` and return its edges in triple order: edges between different
        trees, no two of which close a cycle, so the caller links them with
        ``EulerTourForest.link`` unchecked."""
        selected = [repl[j][0] for j in spanning_forest([(ru, rv) for _, ru, rv in repl])]
        for rec in selected:
            rec.status = TREE
        return selected

    def _replacements(self, i, window):
        """``(edge, repr_u, repr_v)`` for the edges whose endpoints lie in
        different trees of F_i: a search window's replacements, or a new
        batch's candidate tree edges at level L."""
        if not window:
            return []
        verts = []
        for rec in window:
            verts.append(rec.u)
            verts.append(rec.v)
        reprs = self.forests[i].batch_find_repr(verts)
        return [
            (rec, reprs[2 * j], reprs[2 * j + 1])
            for j, rec in enumerate(window)
            if reprs[2 * j] != reprs[2 * j + 1]
        ]

    # ------------------------------------------------------------------
    # replacement search, per-round doubling variant
    # ------------------------------------------------------------------

    def component_search(self, i, c):
        """Search component ``c`` for a replacement among level-i non-tree edges.

        Runs doubling phases: each phase examines the first w available
        edges, moves the non-replacements down to level i-1, and stops at the
        first replacement (returned as a one-element list of
        ``(edge, repr_u, repr_v)``) or when everything has been examined
        (empty list).
        """
        fi = self.forests[i]
        self.counters.record_search_call(i, self._batch)
        w = 1
        while True:
            w_max = fi.num_nontree_edges(c)
            if w_max == 0:
                return []
            self.counters.record_phase(i, self._batch)
            w_eff = min(w, w_max)
            window = fi.fetch_level_edges(c, w_eff, NONTREE)
            repl = self._replacements(i, window)
            keys = {rec.key for rec, _, _ in repl}
            self._push_edges(i, [rec for rec in window if rec.key not in keys])
            if repl or w_eff >= w_max:
                return repl[:1]
            w <<= 1

    def parallel_level_search(self, i, components):
        """Round-based replacement search at level i, eager level decreases.

        ``components`` are vertex handles of the disconnected pieces. Each
        round links its selected replacements into F_i .. F_L at once.
        Returns the handles to carry to level i+1, one per tree of F_i.
        """
        fi = self.forests[i]
        half = 1 << (i - 1)
        groups = list(self._group_components(i, components).values())
        active = []
        done = []
        for h in groups:
            if fi.component_size(h) <= half:
                active.append(h)
            else:
                done.append(h)
        guard = 0
        while active:
            guard += 1
            if guard > 8 * (len(groups) + 40):
                raise AssertionError("level search failed to make progress")
            self.counters.record_round(i, self._batch)
            for h in active:
                self._push_tree_edges(i, h)
            # the searches push edges down but never link or cut F_i, so the
            # representatives they report are still current here; two pieces
            # may report the same edge, which the spanning forest selects once
            replacements = []
            for h in active:
                replacements.extend(self.component_search(i, h))
            if replacements:
                self._adopt(i, self._select(replacements))
            survivors = []
            for h in self._group_components(i, active).values():
                if fi.component_size(h) > half or fi.num_nontree_edges(h) == 0:
                    done.append(h)
                else:
                    survivors.append(h)
            active = survivors
        return done

    # ------------------------------------------------------------------
    # replacement search, interleaved variant
    # ------------------------------------------------------------------

    def interleaved_level_search(self, i, components):
        """Replacement search with one global doubling schedule per level.

        F_i stays fixed during the rounds: selected replacement edges
        accumulate in T, merged components are tracked in a supercomponent
        map, and T is linked into F_i .. F_L only at the end of the level.
        One pass per round decides each piece: it moves its window down a
        level, with the tree edges merged into its supercomponent so far,
        exactly when the supercomponent has at most 2^(i-1) vertices and the
        window was not the rest; every other piece is done. A moved piece
        stays active while its tree keeps non-tree edges. Taking the tree
        edges along keeps every moved non-tree edge's forest path at or below
        its new level; a moved edge of T is filed as a tree edge at level i-1
        and linked in F_(i-1). Returns the handles to carry to level i+1.
        """
        fi = self.forests[i]
        half = 1 << (i - 1)
        piece_by_repr = self._group_components(i, components)
        groups = list(piece_by_repr.values())
        sizes = {h: fi.component_size(h) for h in groups}
        active = [h for h in groups if sizes[h] <= half]
        done = [h for h in groups if sizes[h] > half]
        for h in active:
            self._push_tree_edges(i, h)
        supers = _SuperMap(sizes)
        selected = []            # T, in selection order
        r = 0
        while active:
            w = 1 << r
            self.counters.record_round(i, self._batch)
            windows = {}
            w_maxes = {}
            for h in active:
                self.counters.record_search_call(i, self._batch)
                w_max = fi.num_nontree_edges(h)
                w_maxes[h] = w_max
                windows[h] = (
                    fi.fetch_level_edges(h, min(w, w_max), NONTREE) if w_max else []
                )
            # classify replacements against the per-level piece partition; an
            # edge in two windows comes with the same pair twice, and an edge
            # already in T is a self loop, so the spanning forest adds each
            # supercomponent merge once
            repl = self._replacements(i, [rec for h in active for rec in windows[h]])
            pairs = []
            for rec, ru, rv in repl:
                hu = piece_by_repr.get(ru)
                hv = piece_by_repr.get(rv)
                if hu is None or hv is None:
                    # a level-i non-tree edge always joins trees of the
                    # incoming pieces; anything else is a structural bug
                    raise AssertionError(
                        f"window edge {rec.key} touches a tree outside the search"
                    )
                pairs.append((supers.find(hu), supers.find(hv)))
            for j in spanning_forest(pairs):
                rec = repl[j][0]
                rec.status = TREE
                selected.append(rec)
                supers.union(pairs[j][0], pairs[j][1], rec)
            # the one decision per piece: move (window and supercomponent
            # tree edges, all in one push) or done
            moving = {}
            moved = []
            for h in active:
                root = supers.find(h)
                if supers.size(root) <= half and w < w_maxes[h]:
                    for rec in windows[h] + supers.take_tree_edges(root):
                        moving[rec.key] = rec
                    moved.append(h)
                else:
                    done.append(h)
            self._push_edges(i, list(moving.values()))
            active = []
            for h in moved:
                if not fi.num_nontree_edges(h):
                    done.append(h)
                    continue
                # doubling: a piece kept active moved a full window of w edges
                self.counters.doubling_checks += 1
                if len(windows[h]) < w:
                    self.counters.doubling_violations += 1
                active.append(h)
            r += 1
        # level end: T joins F_i .. F_L; its unmoved part is refiled as tree edges
        self._adopt(i, selected)
        return done

    # ------------------------------------------------------------------
    # audit
    # ------------------------------------------------------------------

    def live_edges(self):
        return sorted(self.edges.keys())

    def audit(self) -> AuditReport:
        """Verify every maintained invariant; collects labeled failures."""
        failures = []
        recs = [rec for _, rec in sorted(self.edges.items())]
        by_level = {}
        for rec in recs:
            by_level.setdefault(rec.level, []).append(rec)
        # component size bound: components of G_i must have <= 2^i vertices
        comps = DisjointSets()
        largest = 1
        for i in range(1, self.levels + 1):
            for rec in by_level.get(i, []):
                root = comps.union(rec.u, rec.v)
                if root is not None:
                    largest = max(largest, comps.size(root))
            if largest > 1 << i:
                failures.append(
                    f"component-size-bound: level {i} component of {largest} > {1 << i}"
                )
        # minimality: a non-tree edge's endpoints are connected in the forest
        # of its level (tree-path levels never exceed the edge's level)
        trees = DisjointSets()
        for i in range(1, self.levels + 1):
            for rec in by_level.get(i, []):
                if rec.status == TREE and trees.union(rec.u, rec.v) is None:
                    failures.append(f"minimality: tree edge {rec.key} closes a cycle")
            for rec in by_level.get(i, []):
                if rec.status == NONTREE and trees.find(rec.u) != trees.find(rec.v):
                    failures.append(
                        f"minimality: non-tree edge {rec.key} at level {i} "
                        f"not connected by tree edges of level <= {i}"
                    )
        # nesting: forest i holds exactly the tree edges of level <= i
        want = set()
        for i in range(1, self.levels + 1):
            want |= {rec.key for rec in by_level.get(i, []) if rec.status == TREE}
            got = set(self.forests[i].edge_pairs())
            if got != want:
                failures.append(
                    f"nesting: forest {i} links {sorted(got ^ want)} unexpectedly"
                )
        # per-forest structure: tour validity, augmented sums and charges
        for i in range(1, self.levels + 1):
            for problem in self.forests[i].audit():
                failures.append(f"forest {i}: {problem}")
        # adjacency arrays: membership (each forest checks its charges
        # against them above)
        filed = set()
        for (vertex, level, kind), arr in self.adj.arrays():
            for rec in arr:
                filed.add((rec, vertex))
                if rec.level != level or rec.status != kind or vertex not in (rec.u, rec.v):
                    failures.append(
                        f"arrays: edge {rec.key} misfiled under {(vertex, level, kind)}"
                    )
                if rec.key not in self.edges:
                    failures.append(f"arrays: stale edge {rec.key}")
        for rec in recs:
            for vertex in (rec.u, rec.v):
                if (rec, vertex) not in filed:
                    failures.append(f"arrays: edge {rec.key} missing from vertex {vertex}")
        # per-edge level monotonicity and the global push bound
        for rec in recs:
            hist = rec.levels_seen
            if any(hist[j] <= hist[j + 1] for j in range(len(hist) - 1)):
                failures.append(f"level-monotonic: edge {rec.key} history {hist}")
        if not self.counters.within_push_bound():
            failures.append(
                f"push-bound: P={self.counters.pushes} exceeds "
                f"m*L={self.counters.push_bound()}"
            )
        if self.counters.level_regressions:
            failures.append("push-bound: recorded level regressions")
        return AuditReport(ok=not failures, failures=failures)
