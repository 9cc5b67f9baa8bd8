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

Links and cuts are splices in the sense of Guibas and Stolfi: swapping the
successors of two nodes joins their rings if they differ and splits the ring
if they share one. A circular skip list is fixed by its node order and
heights, so a swap on ring 0 needs only one swap on each ring above it that
it changes. A link splices two new single-arc rings into place, a cut splices
its two arcs out and the rest apart, and one repair then recomputes every
sum whose span changed. All randomness (node heights) comes from a
per-forest seeded generator, so identical seeds give identical structures
and identical fetch orders.
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
        self.nxt = [self] * height    # a new node is a ring of its own
        self.prv = [self] * height
        one = 1 if vertex is not None else 0
        self.aug = [[0, 0, one] for _ in range(height)]

    def __repr__(self):  # pragma: no cover - debugging aid
        if self.vertex is not None:
            return f"<loop {self.vertex} h={self.height}>"
        return f"<arc {self.arc[0]}->{self.arc[1]} h={self.height}>"


class EulerTourForest:
    def __init__(self, n, level=1, adj=None, seed=0):
        if n < 1:
            raise InvalidVertexError(f"need at least one vertex, got n={n}")
        self.n = n
        self.level = level
        self._adj = adj
        self._rng = random.Random((seed * 0x9E3779B1 + level * 0x85EBCA77) & 0x7FFFFFFFFFFF)
        self._next_uid = 0
        self._loops = [self._make_node(v, None) for v in range(n)]
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

    # ------------------------------------------------------------------
    # splice machinery
    # ------------------------------------------------------------------

    @staticmethod
    def _splice(x, y):
        """Swap the ring-0 successors of ``x`` and ``y``, and climb.

        On ring 0 the swap joins two tours into one, or splits one tour in
        two. Ring k+1 then swaps the successors of the last nodes of height
        > k+1 at or before the ring-k pivots. The climb ends on the first
        ring where either pivot has no such node or both share one: from
        there up one side holds the whole ring, which stays as it is. Sums
        are left to the caller's ``_repair``.
        """
        k = 0
        while True:
            up = k + 1
            # the next ring's pivots, found while ring k is intact (after a
            # join, walking back would run on into the other tour)
            cx = x
            while cx.height <= up:
                cx = cx.prv[k]
                if cx is x:
                    break
            cy = y
            while cy.height <= up:
                cy = cy.prv[k]
                if cy is y:
                    break
            xn, yn = x.nxt[k], y.nxt[k]
            x.nxt[k], y.nxt[k] = yn, xn
            yn.prv[k], xn.prv[k] = x, y
            if cx.height <= up or cy.height <= up or cx is cy:
                return
            x, y = cx, cy
            k = up

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
        # tour becomes lu, a1, lv .. p, a2, then the rest of u's tour
        p = lv.prv[0]
        self._splice(lu, a1)
        self._splice(a1, p)
        self._splice(p, a2)
        self._repair([lu, a1, p, a2])

    def _cut(self, u, v):
        a1 = self._arcs.pop((u, v))
        a2 = self._arcs.pop((v, u))
        p1 = a1.prv[0]
        p2 = a2.prv[0]
        self._splice(p1, a1)     # a1 alone
        self._splice(p2, a2)     # a2 alone
        self._splice(p1, p2)     # u's side and v's side apart
        self._repair([p1, p2])
        # no self-rings left behind, so reference counting frees the arcs
        a1.nxt = a1.prv = a2.nxt = a2.prv = None

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
        """Structural self-check: tour validity, ring pointers, augmented-sum exactness."""
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
            # ring k links exactly the tour's nodes of height > k, in tour order
            sound = len(problems)
            ring, k = tour, 0
            while ring:
                for i, node in enumerate(ring):
                    after = ring[(i + 1) % len(ring)]
                    if node.nxt[k] is not after:
                        problems.append(f"ring {k}: nxt of uid={node.uid} is not uid={after.uid}")
                    if after.prv[k] is not node:
                        problems.append(f"ring {k}: prv of uid={after.uid} is not uid={node.uid}")
                k += 1
                ring = [node for node in ring if node.height > k]
            # the sums are walked along the rings, so only once those are sound
            if len(problems) == sound:
                for node in tour:
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
