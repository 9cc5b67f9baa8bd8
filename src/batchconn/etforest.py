"""Euler tour forest over treaps with per-tour edge counters.

One instance represents one forest level. Each tree is stored as the Euler
tour of its arcs and vertex loops: a tree edge {u, v} contributes the two arc
nodes u->v and v->u, and every vertex contributes exactly one loop node. The
tour is a sequence kept as a treap ordered by tour position (Seidel and
Aragon, "Randomized Search Trees"), with parent pointers so that any node can
reach its tree's root and split the sequence at itself.

Every node keeps its counts in plain slots, so that a node is a single
object: its own charges ``own_nontree`` and ``own_tree`` (non-tree and tree
edge endpoints), and its subtree's sums ``nontree``, ``tree`` and ``size``
(vertex count). Charges live on vertex loops only; arcs carry zeros. A
node's own vertex count is 1 for a loop and 0 for an arc, so it needs no
slot. The root's sums are the tour's totals, which give component size,
per-kind edge counts, and the guide for count-guided prefix fetches.

A link splits u's tour after u's loop and v's tour before v's loop and joins
the pieces; a cut takes the two arcs out and joins the outer pieces. Neither
moves the first node of the tour that keeps it, so every tour's sequence, and
with it every fetch order, follows from the links and cuts alone. Node
priorities come from a per-forest seeded generator and only shape the
treaps, and with them the representative that ``find_repr`` reports.
"""

from __future__ import annotations

import operator
import random

from .errors import (
    CycleError,
    GraphError,
    InvalidVertexError,
    MalformedEdgeError,
    MissingEdgeError,
)
from .primitives import DisjointSets

# edge kind -> the slot holding a loop's own charges of that kind; the
# subtree sum of a kind is the slot named after the kind itself
_OWN = {"nontree": "own_nontree", "tree": "own_tree"}


def _index(x):
    """``x`` as a plain int if it is an ``operator.index`` integer but no bool."""
    if isinstance(x, bool):
        return None
    try:
        return operator.index(x)
    except TypeError:
        return None


def check_vertex(v, n):
    """``v`` as a plain int in [0, n); anything else is an InvalidVertexError."""
    x = v if type(v) is int else _index(v)
    if x is None or not 0 <= x < n:
        raise InvalidVertexError(f"vertex {v!r} is not an int in [0, {n})")
    return x


def check_size(n):
    """A vertex count ``n`` as a plain int of at least 1, integers taken as by
    ``check_vertex``; anything else is an InvalidVertexError."""
    x = _index(n)
    if x is None or x < 1:
        raise InvalidVertexError(f"need at least one vertex, got n={n!r}")
    return x


def as_pair(item):
    """``item`` unpacked as ``(u, v)``; anything else is a MalformedEdgeError."""
    try:
        u, v = item
    except (TypeError, ValueError):
        raise MalformedEdgeError(f"{item!r} is not a (u, v) pair") from None
    return u, v


class TourNode:
    __slots__ = (
        "uid", "vertex", "arc", "prio", "left", "right", "parent",
        "own_nontree", "own_tree", "nontree", "tree", "size",
    )

    def __init__(self, uid, vertex, arc, prio):
        self.uid = uid
        self.vertex = vertex      # loop nodes only
        self.arc = arc            # (u, v) for arc nodes, else None
        self.prio = prio          # no child outranks its parent
        self.left = self.right = self.parent = None
        self.own_nontree = self.own_tree = 0    # this node's charges
        self.nontree = self.tree = 0            # its subtree's
        self.size = 1 if arc is None else 0

    @property
    def own(self):
        """This node's (non-tree charges, tree charges, vertex count)."""
        return (self.own_nontree, self.own_tree, 1 if self.arc is None else 0)


# ----------------------------------------------------------------------
# treap plumbing
# ----------------------------------------------------------------------

def _root(x):
    while x.parent is not None:
        x = x.parent
    return x


def _charge(x, kind, delta):
    """Add ``delta`` to loop x's own charge of ``kind`` and to every sum above it."""
    if kind == "tree":
        x.own_tree += delta
        while x is not None:
            x.tree += delta
            x = x.parent
    else:
        x.own_nontree += delta
        while x is not None:
            x.nontree += delta
            x = x.parent


def _merge(a, b):
    """Join two treaps, every node of ``a`` before every node of ``b``.

    One loop down a's right spine and b's left spine: the current node of
    higher priority joins the merged spine next, and since its subtree takes
    in all that is left of the other side, it adds that side's sums on the
    way down. Links are written only where the spine switches sides.
    """
    if a is None:
        return b
    if b is None:
        return a
    root = a if a.prio > b.prio else b
    side = None         # the side of ``last`` that the spine goes on from
    while True:
        if a.prio > b.prio:
            a.nontree += b.nontree
            a.tree += b.tree
            a.size += b.size
            if side == "left":
                last.left = a
                a.parent = last
            last, side, a = a, "right", a.right
            if a is None:
                last.right = b
                b.parent = last
                return root
        else:
            b.nontree += a.nontree
            b.tree += a.tree
            b.size += a.size
            if side == "right":
                last.right = b
                b.parent = last
            last, side, b = b, "left", b.left
            if b is None:
                last.left = a
                a.parent = last
                return root


def _rise(x, left, right):
    """Finish a split at x: climb to the root, handing each ancestor with its
    other subtree to the side it lies on. Returns both sides' roots.

    ``left`` and ``right`` hold x's subtree, x's own counts included, so an
    ancestor loses exactly the other side's sums, which it subtracts inline.
    """
    child, p = x, x.parent
    while p is not None:
        up = p.parent
        if p.left is child:
            p.left = right
            if right is not None:
                right.parent = p
            if left is not None:
                p.nontree -= left.nontree
                p.tree -= left.tree
                p.size -= left.size
            right = p
        else:
            p.right = left
            if left is not None:
                left.parent = p
            if right is not None:
                p.nontree -= right.nontree
                p.tree -= right.tree
                p.size -= right.size
            left = p
        child, p = p, up
    if left is not None:
        left.parent = None
    if right is not None:
        right.parent = None
    return left, right


def _split(x, after):
    """Split x's sequence just after x, or just before it; return both roots."""
    if after:
        left = x
        right = off = x.right
        x.right = None
    else:
        left = off = x.left
        right = x
        x.left = None
    if off is not None:
        x.nontree -= off.nontree
        x.tree -= off.tree
        x.size -= off.size
    return _rise(x, left, right)


def _excise(x):
    """Take x out of its sequence; return the roots before and after it.

    x must have no counts of its own, as arcs do, since ``_rise`` takes
    only its subtrees' sums off its ancestors.
    """
    left, right = x.left, x.right
    x.left = x.right = None
    out = _rise(x, left, right)
    x.parent = None
    return out


def _descend(root, seen):
    """root's subtree in sequence order, skipping (and adding to) ``seen``."""
    tour, stack, x = [], [], root
    while True:
        while x is not None and id(x) not in seen:
            seen.add(id(x))
            stack.append(x)
            x = x.left
        if not stack:
            return tour
        x = stack.pop()
        tour.append(x)
        x = x.right


class EulerTourForest:
    def __init__(self, n, level=1, adj=None, seed=0):
        self.n = n = check_size(n)
        self.level = level
        self._adj = adj
        self._rng = random.Random((seed * 0x9E3779B1 + level * 0x85EBCA77) & 0x7FFFFFFFFFFF)
        rand = self._rng.random
        self._loops = [TourNode(v, v, None, rand()) for v in range(n)]
        self._next_uid = n
        self._arcs = {}

    # ------------------------------------------------------------------
    # representatives and totals
    # ------------------------------------------------------------------

    def _top(self, v):
        n = self.n
        x = self._loops[v if type(v) is int and 0 <= v < n else check_vertex(v, n)]
        while x.parent is not None:
            x = x.parent
        return x

    def find_repr(self, v):
        """Identity of v's tour: its treap root's uid, stable until a mutation."""
        return self._top(v).uid

    def batch_find_repr(self, vertices):
        """``find_repr`` of each vertex, in order; the first bad vertex raises
        what ``find_repr`` would.

        One loop with the vertex check and the root climb inline: on small
        trees the calls around a climb cost more than the climb itself.
        """
        loops, n = self._loops, self.n
        out = []
        for v in vertices:
            x = loops[v if type(v) is int and 0 <= v < n else check_vertex(v, n)]
            while x.parent is not None:
                x = x.parent
            out.append(x.uid)
        return out

    def batch_connected(self, queries):
        """Whether each (u, v) query's endpoints share a tour, in order.

        Items are checked one at a time as by ``as_pair`` and
        ``check_vertex``, so the first bad item raises their error. Like
        ``batch_find_repr``, one loop that climbs inline; the endpoints share
        a tour when both climbs reach the same root.
        """
        loops, n = self._loops, self.n
        out = []
        for item in queries:
            if type(item) is tuple and len(item) == 2:
                u, v = item
            else:
                u, v = as_pair(item)
            x = loops[u if type(u) is int and 0 <= u < n else check_vertex(u, n)]
            while x.parent is not None:
                x = x.parent
            y = loops[v if type(v) is int and 0 <= v < n else check_vertex(v, n)]
            while y.parent is not None:
                y = y.parent
            out.append(x is y)
        return out

    def component_size(self, v) -> int:
        return self._top(v).size

    def num_nontree_edges(self, v) -> int:
        """Level-matching non-tree edge endpoints charged within v's tree."""
        return self._top(v).nontree

    def num_tree_edges(self, v) -> int:
        """Level-matching tree edge endpoints charged within v's tree."""
        return self._top(v).tree

    # ------------------------------------------------------------------
    # links and cuts
    # ------------------------------------------------------------------

    def edge_pairs(self):
        """Canonical (u, v) pairs currently linked in this forest."""
        return [(u, v) for (u, v) in self._arcs if u < v]

    def batch_link(self, edges):
        """Add forest edges; the batch must keep the forest acyclic.

        The checked entry for callers outside the engine: each vertex is
        checked, and a self loop or a link that would close a cycle, within
        the batch or with the forest, is a CycleError raised before any
        link. The engine's links come from spanning forests it has just
        selected over different trees, so it calls ``link`` directly.
        """
        if not edges:
            return
        # validate jointly before mutating anything: check each vertex, key
        # the arcs by the plain ints, and climb once per distinct vertex
        loops, n = self._loops, self.n
        reprs = {}
        pairs = []
        for u, v in edges:
            u = u if type(u) is int and 0 <= u < n else check_vertex(u, n)
            v = v if type(v) is int and 0 <= v < n else check_vertex(v, n)
            for w in (u, v):
                if w not in reprs:
                    x = loops[w]
                    while x.parent is not None:
                        x = x.parent
                    reprs[w] = x.uid
            pairs.append((u, v))
        trees = DisjointSets()
        for u, v in pairs:
            if u == v:
                raise CycleError(f"self loop at {u}")
            if trees.union(reprs[u], reprs[v]) is None:
                raise CycleError(f"link ({u},{v}) would close a cycle")
        for u, v in pairs:
            self.link(u, v)

    def batch_cut(self, edges):
        """Remove forest edges; all must currently be linked."""
        if not edges:
            return
        seen = set()
        pairs = []
        for u, v in edges:
            u = check_vertex(u, self.n)
            v = check_vertex(v, self.n)
            key = (u, v) if u < v else (v, u)
            if key in seen or (u, v) not in self._arcs:
                raise MissingEdgeError(f"({u},{v}) is not a forest edge here")
            seen.add(key)
            pairs.append((u, v))
        for u, v in pairs:
            self._cut(u, v)

    def link(self, u, v):
        """Link the trees of u and v by the edge {u, v}, unchecked.

        u and v must be plain ints in [0, n) that lie in different trees;
        ``batch_link`` is the checked entry. A bad link breaks the tours,
        which ``audit`` reports.
        """
        uid = self._next_uid
        self._next_uid = uid + 2
        rand = self._rng.random
        arc, back = (u, v), (v, u)      # one tuple each, as key and as label
        a1 = self._arcs[arc] = TourNode(uid, None, arc, rand())
        a2 = self._arcs[back] = TourNode(uid + 1, None, back, rand())
        # u's tour becomes: .. lu, a1, lv .., .. before lv, a2, after lu ..;
        # a one-node tour needs no split
        lu, lv = self._loops[u], self._loops[v]
        if lu.parent is None and lu.left is None and lu.right is None:
            head, rest = lu, None
        else:
            head, rest = _split(lu, True)
        if lv.parent is None and lv.left is None and lv.right is None:
            before, from_lv = None, lv
        else:
            before, from_lv = _split(lv, False)
        _merge(_merge(_merge(_merge(_merge(head, a1), from_lv), before), a2), rest)

    def _cut(self, u, v):
        a1 = self._arcs.pop((u, v))
        a2 = self._arcs.pop((v, u))
        left, right = _excise(a1)
        if _root(a2) is left:
            left, _ = _excise(a2)       # left, a2, cut-off tour, a1, right
        else:
            _, right = _excise(a2)      # left, a1, cut-off tour, a2, right
        _merge(left, right)

    # ------------------------------------------------------------------
    # augmented counts and count-guided fetches
    # ------------------------------------------------------------------

    def adjust_edge_counts(self, deltas):
        """Apply (vertex, kind, delta) charge changes, batch-atomically."""
        pending = {}
        for v, kind, delta in deltas:
            v = check_vertex(v, self.n)
            pending[(v, kind)] = pending.get((v, kind), 0) + delta
        for (v, kind), delta in pending.items():
            if getattr(self._loops[v], _OWN[kind]) + delta < 0:
                raise GraphError(f"charge for vertex {v} would go negative")
        for (v, kind), delta in pending.items():
            if delta:
                _charge(self._loops[v], kind, delta)

    def fetch_level_edges(self, v, l, kind):
        """First ``l`` distinct level-matching edges of ``kind`` in v's tree.

        Order is canonical: tour order of charged vertex loops from the tour's
        first node, then insertion order within a loop's array. The sequence
        depends only on the links and cuts made, so neither the seed nor
        queries change it, and repeated calls without intervening mutations
        return the same prefix. Charges are per endpoint, so when both
        endpoints of an edge lie in the tree the distinct edges can run out
        before ``l`` does; everything available is returned in that case.
        """
        root = self._top(v)
        available = getattr(root, kind)
        if l > available:
            raise GraphError(f"fetch of {l} exceeds available charge {available}")
        return self._collect(root, kind, l) if l else []

    def _collect(self, root, kind, need):
        """Up to ``need`` distinct edges of root's subtree, in tour order.

        An in-order walk with an explicit stack that enters only subtrees
        holding a charge of ``kind`` and stops once ``need`` edges are out.
        """
        own = _OWN[kind]
        fetch, level = self._adj.fetch_edges, self.level
        out, seen, stack, x = [], set(), [], root
        while True:
            while x is not None and getattr(x, kind):
                stack.append(x)
                x = x.left
            if not stack:
                return out
            x = stack.pop()
            charged = getattr(x, own)
            if charged:
                for e in fetch(x.vertex, level, kind, charged):
                    if e not in seen:
                        seen.add(e)
                        out.append(e)
                        need -= 1
                        if not need:
                            return out
            x = x.right

    def take_level_edges(self, v, kind):
        """Take every level-matching edge of ``kind`` out of v's tree.

        Returns the edges in ``fetch_level_edges`` order. One walk over the
        charged part of the treap hands each charged loop's array over whole
        (``AdjacencyStore.take_edges``, which drops the emptied array) and
        zeroes the loop's charge and the sums above it. An edge is kept at
        the first of its endpoints that the walk reaches.

        Both endpoints of every such edge must lie in v's tree, as they do
        for the engine's edges of this level, so the tree's whole charge of
        ``kind`` goes. An edge reaching outside the tree is a GraphError,
        raised after the take.
        """
        own = _OWN[kind]
        root = self._top(v)
        total = getattr(root, kind)
        if not total:
            return []
        take, level = self._adj.take_edges, self.level
        out, seen, stack, x = [], set(), [], root
        while True:
            while x is not None and getattr(x, kind):
                setattr(x, kind, 0)
                stack.append(x)
                x = x.left
            if not stack:
                break
            x = stack.pop()
            if getattr(x, own):
                setattr(x, own, 0)
                for e in take(x.vertex, level, kind):
                    if e not in seen:
                        seen.add(e)
                        out.append(e)
            x = x.right
        if 2 * len(out) != total:
            raise GraphError(f"a {kind} edge of vertex {v}'s tree reaches outside it")
        return out

    def _runs(self, edges, kind, stored):
        """Group level-matching edges into per-endpoint runs, in edge order,
        each checked (``check_vertex``, ``AdjacencyStore.check_runs``) before
        any is returned, so writing them one by one keeps the batch atomic."""
        if kind not in _OWN:
            raise KeyError(kind)
        runs = {}
        for e in edges:
            if e.level != self.level:
                raise GraphError(
                    f"edge ({e.u},{e.v}) at level {e.level}, not {self.level}"
                )
            runs.setdefault(e.u, []).append(e)
            runs.setdefault(e.v, []).append(e)
        n = self.n
        for vertex in runs:
            if not (type(vertex) is int and 0 <= vertex < n):
                check_vertex(vertex, n)
        self._adj.check_runs(self.level, kind, runs.items(), stored)
        return runs

    def insert_level_edges(self, edges, kind):
        """Store level-matching edges in both endpoints' arrays and charge them.

        Each endpoint's array receives its edges in the given order, so the
        arrays end up as if the edges had been inserted one at a time, and
        each endpoint's charge rises by its run's length in one climb. An
        edge that repeats or is already stored rejects the batch unchanged.
        """
        if not edges:
            return
        insert, loops, level = self._adj.insert_edges, self._loops, self.level
        for vertex, run in self._runs(edges, kind, False).items():
            insert(vertex, level, kind, run)
            _charge(loops[vertex], kind, len(run))

    def remove_level_edges(self, v, edges, kind):
        """Drop level-matching edges from the adjacency arrays and charges.

        ``v`` is unused. Each endpoint gets one ``delete_edges`` call for its
        run, and its charge falls by the run's length in one climb; the
        survivors keep their insertion order. An edge that repeats or is not
        stored rejects the batch unchanged.
        """
        if not edges:
            return
        delete, loops, level = self._adj.delete_edges, self._loops, self.level
        for vertex, run in self._runs(edges, kind, True).items():
            delete(vertex, level, kind, run)
            _charge(loops[vertex], kind, -len(run))

    # ------------------------------------------------------------------
    # structural audits (test support)
    # ------------------------------------------------------------------

    def _walk(self):
        """Yield (root, nodes in sequence order) per tour, by smallest vertex.

        The parent climbs and the descents each visit a node at most once, so
        a damaged structure ends the walk instead of looping. A loop that no
        root's descent reaches hangs below a parent that does not hold it;
        its tour is walked last, from the node with that stray pointer.
        """
        top = {}        # id(node) -> the root its parent chain reaches
        seen = set()
        for loop in self._loops:
            path, x = [], loop
            while id(x) not in top:
                top[id(x)] = x      # a parent cycle stops here
                path.append(x)
                if x.parent is None:
                    break
                x = x.parent
            root = top[id(x)]
            top.update((id(y), root) for y in path)
            if id(root) not in seen:
                yield root, _descend(root, seen)
        for loop in self._loops:
            x, climbed = loop, set()
            while id(x) not in seen and id(x) not in climbed:
                climbed.add(id(x))
                p = x.parent
                if p is None or (p.left is not x and p.right is not x):
                    yield x, _descend(x, seen)
                else:
                    x = p

    def tours(self):
        """All tours as node lists in sequence order, by smallest vertex; see ``_walk``."""
        return [tour for _, tour in self._walk()]

    def audit(self):
        """Structural self-check: tour sequences, treap links, heap order, exact
        sums, and, with an adjacency store, each loop's charges against its
        arrays."""
        problems = []
        listed = set()
        arc_nodes = []
        for root, tour in self._walk():
            listed.update(id(node) for node in tour)
            sound = len(problems)
            if root.parent is not None:
                problems.append(f"treap: root uid={root.uid} has parent uid={root.parent.uid}")
            for node in tour:
                for child in (node.left, node.right):
                    if child is not None and child.parent is not node:
                        problems.append(f"treap: parent of uid={child.uid} is not uid={node.uid}")
                    if child is not None and child.prio > node.prio:
                        problems.append(f"treap: uid={child.uid} outranks its parent uid={node.uid}")
            # exact sums, children first, on a sound tree only
            if len(problems) == sound:
                order = [root]
                for node in order:
                    order.extend(c for c in (node.left, node.right) if c is not None)
                exact = {}
                for node in reversed(order):
                    kids = [exact[id(c)] for c in (node.left, node.right) if c is not None]
                    s = exact[id(node)] = tuple(map(sum, zip(node.own, *kids)))
                    stored = (node.nontree, node.tree, node.size)
                    if s != stored:
                        problems.append(f"sums: uid={node.uid} stores {stored}, subtree has {s}")
            # the sequence is an Euler tour of a tree
            loops_seen = set()
            arcs_seen = set()
            cur = start = tour[0].arc[0] if tour[0].arc else tour[0].vertex
            for node in tour:
                if node.vertex is not None:
                    if node.vertex != cur:
                        problems.append(f"tour: loop {node.vertex} visited at {cur}")
                    if node.vertex in loops_seen:
                        problems.append(f"tour: loop {node.vertex} repeated")
                    loops_seen.add(node.vertex)
                else:
                    arc_nodes.append(node)
                    x, y = node.arc
                    if x != cur:
                        problems.append(f"tour: arc {node.arc} leaves {cur}")
                    if node.arc in arcs_seen:
                        problems.append(f"tour: arc {node.arc} repeated")
                    arcs_seen.add(node.arc)
                    cur = y
                    if node.own_nontree or node.own_tree:
                        problems.append(f"own: arc {node.arc} carries charges")
            if cur != start:
                problems.append("tour: walk does not return to its start")
            for x, y in arcs_seen:
                if (y, x) not in arcs_seen:
                    problems.append(f"tour: arc {x}->{y} without its reverse")
            if len(arcs_seen) != 2 * (len(loops_seen) - 1):
                problems.append("tour: arc count does not match a tree tour")
        for loop in self._loops:
            if id(loop) not in listed:
                problems.append(f"tour: loop {loop.vertex} is in no tour")
            if self._adj is not None:
                for kind, own in _OWN.items():
                    stored = self._adj.count(loop.vertex, self.level, kind)
                    charged = getattr(loop, own)
                    if charged != stored:
                        problems.append(
                            f"charges: vertex {loop.vertex} level {self.level} "
                            f"{kind} {charged} != array {stored}"
                        )
        if len(arc_nodes) != len(self._arcs) or any(self._arcs.get(a.arc) is not a for a in arc_nodes):
            problems.append("tour: registered arcs differ from toured arcs")
        return problems
