"""Euler tour forest over circular skip lists with per-tour edge counters.

One instance represents one forest level. Each tree is stored as the circular
Euler tour of its arcs and vertex loops: a tree edge {u, v} contributes the
two arc nodes u->v and v->u, and every vertex contributes exactly one loop
node. The tour is a circular doubly linked skip list; a node of height h
participates in rings 0..h-1.

Every node carries one augmented sum per ring it participates in, a triple
(non-tree edge charges, tree edge charges, vertex count). Charges live on
vertex loops only; arcs carry zeros. The sum of a node x at ring k covers the
ring-(k-1) nodes from x up to but not including the next node of height > k,
so the top ring of a tour sums to the whole tour and supports component size,
per-kind edge counts, and count-guided prefix fetches.

Links and cuts are splices: open the circle into linear strands, rearrange,
close, then recompute the sums whose spans crossed a seam. All randomness
(node heights) comes from a per-forest seeded generator, so identical seeds
give identical structures and identical fetch orders.
"""

from __future__ import annotations

import random

from .errors import (
    CycleError,
    GraphError,
    InvalidVertexError,
    MalformedEdgeError,
    MissingEdgeError,
)
from .primitives import DisjointSets

_MAX_HEIGHT = 32

_NONTREE = 0
_TREE = 1
_VERTS = 2

_KIND_INDEX = {"nontree": _NONTREE, "tree": _TREE}


def check_vertex(v, n):
    """Reject anything but an int in [0, n); ``bool`` is not a vertex."""
    if isinstance(v, bool) or not isinstance(v, int) or not 0 <= v < n:
        raise InvalidVertexError(f"vertex {v!r} outside [0, {n})")


def as_pair(item):
    """``item`` unpacked as ``(u, v)``; anything else is a MalformedEdgeError."""
    try:
        u, v = item
    except (TypeError, ValueError):
        raise MalformedEdgeError(f"{item!r} is not a (u, v) pair") from None
    return u, v


class TourNode:
    __slots__ = ("uid", "vertex", "arc", "height", "nxt", "prv", "aug")

    def __init__(self, uid, vertex, arc, height):
        self.uid = uid
        self.vertex = vertex      # loop nodes only
        self.arc = arc            # (u, v) for arc nodes, else None
        self.height = height
        self.nxt = [None] * height
        self.prv = [None] * height
        one = 1 if vertex is not None else 0
        self.aug = [[0, 0, one] for _ in range(height)]

    def __repr__(self):  # pragma: no cover - debugging aid
        if self.vertex is not None:
            return f"<loop {self.vertex} h={self.height}>"
        return f"<arc {self.arc[0]}->{self.arc[1]} h={self.height}>"


class _Strand:
    """A linearized piece of a tour: per-ring first/last nodes."""

    __slots__ = ("heads", "tails")

    def __init__(self, heads, tails):
        self.heads = heads
        self.tails = tails


def _strand_of(node):
    h = node.height
    return _Strand([node] * h, [node] * h)


def _join(s1, s2):
    if not s1.heads:
        return s2
    if not s2.heads:
        return s1
    h1, h2 = len(s1.heads), len(s2.heads)
    for k in range(min(h1, h2)):
        t, h = s1.tails[k], s2.heads[k]
        t.nxt[k] = h
        h.prv[k] = t
    if h2 > h1:
        heads = s1.heads + s2.heads[h1:]
    else:
        heads = s1.heads
    if h1 > h2:
        tails = s2.tails + s1.tails[h2:]
    else:
        tails = s2.tails
    return _Strand(heads, tails)


class EulerTourForest:
    def __init__(self, n, level=1, adj=None, seed=0):
        if n < 1:
            raise InvalidVertexError(f"need at least one vertex, got n={n}")
        self.n = n
        self.level = level
        self._adj = adj
        self._rng = random.Random((seed * 0x9E3779B1 + level * 0x85EBCA77) & 0x7FFFFFFFFFFF)
        self._next_uid = 0
        self._loops = [self._close_single(self._make_node(v, None)) for v in range(n)]
        self._arcs = {}

    # ------------------------------------------------------------------
    # node plumbing
    # ------------------------------------------------------------------

    def _random_height(self):
        h = 1
        while h < _MAX_HEIGHT and self._rng.getrandbits(1):
            h += 1
        return h

    def _make_node(self, vertex, arc):
        node = TourNode(self._next_uid, vertex, arc, self._random_height())
        self._next_uid += 1
        return node

    @staticmethod
    def _close_single(node):
        for k in range(node.height):
            node.nxt[k] = node
            node.prv[k] = node
        return node

    # ------------------------------------------------------------------
    # splice machinery
    # ------------------------------------------------------------------

    def _cut_before(self, y):
        """Open the ring containing ``y`` at the seam just before it.

        Returns the whole ring linearized as a strand starting at ``y``.
        """
        heads, tails = [], []
        a = y.prv[0]
        b = y
        k = 0
        while True:
            heads.append(b)
            tails.append(a)
            a.nxt[k] = None
            b.prv[k] = None
            # last strand node of height > k+1 at or before a
            c = a
            while c is not None and c.height <= k + 1:
                c = c.prv[k]
            if c is None:
                break
            a = c
            b = a.nxt[k + 1]
            k += 1
        return _Strand(heads, tails)

    @staticmethod
    def _split_strand(s, z):
        """Split strand ``s`` at the seam just before node ``z``.

        Returns (left, right) with ``z`` heading the right strand.
        """
        levels = len(s.heads)
        lh, lt, rh, rt = [], [], [], []
        a = z.prv[0]
        k = 0
        while k < levels:
            if a is None:
                # nothing of this height (or above) left of the seam
                rh.extend(s.heads[k:])
                rt.extend(s.tails[k:])
                return _Strand(lh, lt), _Strand(rh, rt)
            lh.append(s.heads[k])
            lt.append(a)
            b = a.nxt[k]
            if b is not None:
                a.nxt[k] = None
                b.prv[k] = None
                rh.append(b)
                rt.append(s.tails[k])
            # else: every node of this height (and above) is left of the seam
            c = a
            while c is not None and c.height <= k + 1:
                c = c.prv[k]
            a = c
            k += 1
        return _Strand(lh, lt), _Strand(rh, rt)

    @staticmethod
    def _close_ring(s):
        for k in range(len(s.heads)):
            t, h = s.tails[k], s.heads[k]
            t.nxt[k] = h
            h.prv[k] = t

    def _recompute(self, c, k):
        base = c.aug[k - 1]
        s0, s1, s2 = base[0], base[1], base[2]
        y = c.nxt[k - 1]
        while y is not c and y.height <= k:
            b = y.aug[k - 1]
            s0 += b[0]
            s1 += b[1]
            s2 += b[2]
            y = y.nxt[k - 1]
        row = c.aug[k]
        row[0] = s0
        row[1] = s1
        row[2] = s2

    def _repair(self, dirty):
        """Recompute the sums covering the given bottom nodes, all rings."""
        frontier = set(dirty)
        k = 1
        while frontier:
            covers = set()
            for d in frontier:
                c = d
                while c.height <= k:
                    c = c.prv[k - 1]
                    if c is d:
                        c = None
                        break
                if c is not None:
                    covers.add(c)
            for c in covers:
                self._recompute(c, k)
            frontier = covers
            k += 1

    # ------------------------------------------------------------------
    # representatives and totals
    # ------------------------------------------------------------------

    def _tree_info(self, v):
        """(min-uid node, (non-tree, tree, vertex) totals, ring index) of v's tour."""
        check_vertex(v, self.n)
        cur = self._loops[v]
        k = cur.height - 1
        while True:
            c = cur.prv[k]
            while c is not cur and c.height <= k + 1:
                c = c.prv[k]
            if c is cur:
                break
            cur = c
            k = cur.height - 1
        rep = cur
        t0, t1, t2 = cur.aug[k]
        node = cur.nxt[k]
        while node is not cur:
            if node.uid < rep.uid:
                rep = node
            row = node.aug[k]
            t0 += row[0]
            t1 += row[1]
            t2 += row[2]
            node = node.nxt[k]
        return rep, (t0, t1, t2), k

    def find_repr(self, v):
        """Identity of the tour's current top node; stable until a mutation."""
        return self._tree_info(v)[0].uid

    def batch_find_repr(self, vertices):
        return [self._tree_info(v)[0].uid for v in vertices]

    def batch_connected(self, queries):
        out = []
        for item in queries:
            u, v = as_pair(item)
            if u != v:
                out.append(self.find_repr(u) == self.find_repr(v))
            else:
                check_vertex(u, self.n)
                check_vertex(v, self.n)
                out.append(True)
        return out

    def component_size(self, v) -> int:
        return self._tree_info(v)[1][_VERTS]

    def num_nontree_edges(self, v) -> int:
        """Level-matching non-tree edge endpoints charged within v's tree."""
        return self._tree_info(v)[1][_NONTREE]

    def num_tree_edges(self, v) -> int:
        """Level-matching tree edge endpoints charged within v's tree."""
        return self._tree_info(v)[1][_TREE]

    # ------------------------------------------------------------------
    # links and cuts
    # ------------------------------------------------------------------

    def edge_pairs(self):
        """Canonical (u, v) pairs currently linked in this forest."""
        return [(u, v) for (u, v) in self._arcs if u < v]

    def batch_link(self, edges):
        """Add forest edges; the batch must keep the forest acyclic."""
        if not edges:
            return
        # validate jointly before mutating anything
        reprs = {}
        for u, v in edges:
            check_vertex(u, self.n)
            check_vertex(v, self.n)
            for x in (u, v):
                if x not in reprs:
                    reprs[x] = self.find_repr(x)
        trees = DisjointSets()
        for u, v in edges:
            if u == v:
                raise CycleError(f"self loop at {u}")
            if trees.union(reprs[u], reprs[v]) is None:
                raise CycleError(f"link ({u},{v}) would close a cycle")
        for u, v in edges:
            self._link(u, v)

    def batch_cut(self, edges):
        """Remove forest edges; all must currently be linked."""
        if not edges:
            return
        seen = set()
        for u, v in edges:
            check_vertex(u, self.n)
            check_vertex(v, self.n)
            key = (u, v) if u < v else (v, u)
            if key in seen or (u, v) not in self._arcs:
                raise MissingEdgeError(f"({u},{v}) is not a forest edge here")
            seen.add(key)
        for u, v in edges:
            self._cut(u, v)

    def _link(self, u, v):
        lu = self._loops[u]
        lv = self._loops[v]
        a1 = self._make_node(None, (u, v))
        a2 = self._make_node(None, (v, u))
        self._arcs[(u, v)] = a1
        self._arcs[(v, u)] = a2
        w = lu.nxt[0]
        s_u = self._cut_before(w)            # [w .. lu], the whole u-ring
        s_v = self._cut_before(lv)           # [lv .. prv(lv)], the whole v-ring
        dirty = [lu, w, lv, s_v.tails[0], a1, a2]
        s = _join(s_u, _strand_of(a1))
        s = _join(s, s_v)
        s = _join(s, _strand_of(a2))
        self._close_ring(s)
        self._repair(dirty)

    def _cut(self, u, v):
        a1 = self._arcs.pop((u, v))
        a2 = self._arcs.pop((v, u))
        s = self._cut_before(a1)
        _, s = self._split_strand(s, a1.nxt[0])     # drop [a1]
        seg_v, s = self._split_strand(s, a2)
        _, seg_u = self._split_strand(s, a2.nxt[0])  # drop [a2]
        self._close_ring(seg_v)
        self._close_ring(seg_u)
        self._repair([seg_v.heads[0], seg_v.tails[0], seg_u.heads[0], seg_u.tails[0]])

    # ------------------------------------------------------------------
    # augmented counts and count-guided fetches
    # ------------------------------------------------------------------

    def adjust_edge_counts(self, deltas):
        """Apply (vertex, kind, delta) charge changes, batch-atomically."""
        pending = {}
        for v, kind, delta in deltas:
            check_vertex(v, self.n)
            idx = _KIND_INDEX[kind]
            pending[(v, idx)] = pending.get((v, idx), 0) + delta
        for (v, idx), delta in pending.items():
            if self._loops[v].aug[0][idx] + delta < 0:
                raise GraphError(f"charge for vertex {v} would go negative")
        for (v, idx), delta in pending.items():
            if delta:
                self._apply_delta(self._loops[v], idx, delta)

    def _apply_delta(self, node, idx, delta):
        node.aug[0][idx] += delta
        cur = node
        k = 0
        while True:
            c = cur
            found = None
            while True:
                if c.height > k + 1:
                    found = c
                    break
                c = c.prv[k]
                if c is cur:
                    break
            if found is None:
                return
            found.aug[k + 1][idx] += delta
            cur = found
            k += 1

    def fetch_level_edges(self, v, l, kind):
        """First ``l`` distinct level-matching edges of ``kind`` in v's tree.

        Order is canonical: tour order of charged vertex loops starting at the
        representative, then adjacency slot order within a loop. Repeated
        calls without intervening mutations return the same prefix. Charges
        are per endpoint, so when both endpoints of an edge lie in the tree
        the distinct edges can run out before ``l`` does; everything
        available is returned in that case.
        """
        idx = _KIND_INDEX[kind]
        rep, totals, k = self._tree_info(v)
        if l > totals[idx]:
            raise GraphError(f"fetch of {l} exceeds available charge {totals[idx]}")
        if l == 0:
            return []
        out = []
        seen = set()
        start = rep
        node = start
        need = l
        while True:
            need = self._collect(node, k, idx, need, out, seen)
            if need == 0:
                break
            node = node.nxt[k]
            if node is start:
                break
        return out

    def _collect(self, node, k, idx, need, out, seen):
        if node.aug[k][idx] == 0:
            return need
        if k == 0:
            vertex = node.vertex
            cnt = self._adj.count(vertex, self.level, _KIND_NAME[idx])
            for e in self._adj.fetch_edges(vertex, self.level, _KIND_NAME[idx], cnt):
                key = (e.u, e.v)
                if key not in seen:
                    seen.add(key)
                    out.append(e)
                    need -= 1
                    if need == 0:
                        return 0
            return need
        y = node
        while True:
            need = self._collect(y, k - 1, idx, need, out, seen)
            if need == 0:
                return 0
            y = y.nxt[k - 1]
            if y is node or y.height > k:
                return need

    def _runs(self, edges):
        """Group level-matching edges into per-endpoint runs, in edge order."""
        runs = {}
        for e in edges:
            if e.level != self.level:
                raise GraphError(
                    f"edge ({e.u},{e.v}) at level {e.level}, not {self.level}"
                )
            runs.setdefault(e.u, []).append(e)
            runs.setdefault(e.v, []).append(e)
        return runs

    def insert_level_edges(self, edges, kind):
        """Store level-matching edges in both endpoints' arrays and charge them.

        Each endpoint's array receives its edges in the given order, so the
        arrays end up as if the edges had been inserted one at a time.
        """
        if not edges:
            return
        runs = self._runs(edges)
        for vertex, run in runs.items():
            self._adj.insert_edges(vertex, self.level, kind, run)
        self.adjust_edge_counts([(vertex, kind, len(run)) for vertex, run in runs.items()])

    def remove_level_edges(self, v, edges, kind):
        """Drop level-matching edges from the adjacency arrays and charges.

        ``v`` is unused. Each endpoint gets one ``delete_edges`` call for its
        run, which removes the edges one at a time in the given order, each
        moving the array's last edge into the hole, so the order fixes the
        survivors' slots. Charges change by one delta per endpoint.
        """
        if not edges:
            return
        runs = self._runs(edges)
        for vertex, run in runs.items():
            self._adj.delete_edges(vertex, self.level, kind, run)
        self.adjust_edge_counts([(vertex, kind, -len(run)) for vertex, run in runs.items()])

    # ------------------------------------------------------------------
    # structural audits (test support)
    # ------------------------------------------------------------------

    def tours(self):
        """All tours as node lists, each starting at its minimum-uid node."""
        seen = set()
        out = []
        for v in range(self.n):
            loop = self._loops[v]
            if id(loop) in seen:
                continue
            ring = []
            node = loop
            while True:
                ring.append(node)
                seen.add(id(node))
                node = node.nxt[0]
                if node is loop:
                    break
            start = min(range(len(ring)), key=lambda i: ring[i].uid)
            out.append(ring[start:] + ring[:start])
        return out

    def audit(self):
        """Structural self-check: tour validity plus augmented-sum exactness."""
        problems = []
        arc_nodes = 0
        for tour in self.tours():
            loops_seen = set()
            arcs_seen = set()
            first = tour[0]
            cur = first.vertex if first.vertex is not None else first.arc[0]
            for node in tour:
                if node.vertex is not None:
                    if node.vertex != cur:
                        problems.append(f"tour: loop {node.vertex} visited at {cur}")
                    if node.vertex in loops_seen:
                        problems.append(f"tour: loop {node.vertex} repeated")
                    loops_seen.add(node.vertex)
                    if node.aug[0][_VERTS] != 1:
                        problems.append(f"aug: loop {node.vertex} vertex count != 1")
                else:
                    arc_nodes += 1
                    x, y = node.arc
                    if x != cur:
                        problems.append(f"tour: arc {node.arc} leaves {cur}")
                    if node.arc in arcs_seen:
                        problems.append(f"tour: arc {node.arc} repeated")
                    arcs_seen.add(node.arc)
                    cur = y
                    if node.aug[0] != [0, 0, 0]:
                        problems.append(f"aug: arc {node.arc} carries charges")
                for k in range(1, node.height):
                    s0 = s1 = s2 = 0
                    y = node
                    while True:
                        row = y.aug[k - 1]
                        s0 += row[0]
                        s1 += row[1]
                        s2 += row[2]
                        y = y.nxt[k - 1]
                        if y is node or y.height > k:
                            break
                    if [s0, s1, s2] != node.aug[k]:
                        problems.append(
                            f"aug: node uid={node.uid} ring {k} stores {node.aug[k]}, "
                            f"spans {[s0, s1, s2]}"
                        )
            start = first.vertex if first.vertex is not None else first.arc[0]
            if cur != start:
                problems.append("tour: walk does not return to its start")
            for x, y in arcs_seen:
                if (y, x) not in arcs_seen:
                    problems.append(f"tour: arc {x}->{y} without its reverse")
            if len(arcs_seen) != 2 * (len(loops_seen) - 1):
                problems.append("tour: arc count does not match a tree tour")
        if arc_nodes != len(self._arcs):
            problems.append("tour: registered arcs differ from toured arcs")
        return problems


_KIND_NAME = {_NONTREE: "nontree", _TREE: "tree"}
