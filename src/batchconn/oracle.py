"""Brute-force reference connectivity for differential testing.

Keeps only the live edge set and recomputes connectivity from scratch on
demand. Validation mirrors the engine's rules but is implemented
independently, so engine and oracle can be compared on rejections too.
"""

from __future__ import annotations

import operator

from .errors import (
    DuplicateEdgeError,
    InvalidVertexError,
    MalformedEdgeError,
    MissingEdgeError,
    SelfLoopError,
)


class OracleGraph:
    def __init__(self, n: int):
        if isinstance(n, bool) or not hasattr(type(n), "__index__") or operator.index(n) < 1:
            raise InvalidVertexError(f"need at least one vertex, got n={n!r}")
        self.n = operator.index(n)
        self.edges = set()

    def _check_vertex(self, v):
        """``v`` as an int in [0, n); any integer with ``__index__`` but a bool."""
        try:
            value = operator.index(v)
        except TypeError:
            value = None
        if isinstance(v, bool) or value is None or not (0 <= value < self.n):
            raise InvalidVertexError(f"vertex {v!r} is not an integer in [0, {self.n})")
        return value

    def _pairs(self, items):
        """Each item as a vertex-checked ``(u, v)`` pair."""
        for item in items:
            try:
                u, v = item
            except (TypeError, ValueError):
                raise MalformedEdgeError(f"{item!r} is not a (u, v) pair") from None
            yield self._check_vertex(u), self._check_vertex(v)

    def _canon(self, pairs, for_insert):
        out = []
        seen = set()
        for u, v in self._pairs(pairs):
            if u == v:
                raise SelfLoopError(f"self loop at {u}")
            key = (u, v) if u < v else (v, u)
            if key in seen:
                raise DuplicateEdgeError(f"edge {key} repeated in batch")
            seen.add(key)
            if for_insert and key in self.edges:
                raise DuplicateEdgeError(f"edge {key} already present")
            if not for_insert and key not in self.edges:
                raise MissingEdgeError(f"edge {key} not present")
            out.append(key)
        return out

    def apply(self, kind, pairs):
        """Apply one typed batch: kind "I" inserts, kind "D" deletes."""
        if kind == "I":
            for key in self._canon(pairs, for_insert=True):
                self.edges.add(key)
        elif kind == "D":
            for key in self._canon(pairs, for_insert=False):
                self.edges.remove(key)
        else:
            raise ValueError(f"unknown batch kind {kind!r}")

    def _roots(self):
        parent = list(range(self.n))

        def find(x):
            root = x
            while parent[root] != root:
                root = parent[root]
            while parent[x] != root:
                parent[x], x = root, parent[x]
            return root

        for u, v in self.edges:
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[rv] = ru
        return [find(v) for v in range(self.n)]

    def connected(self, u, v) -> bool:
        u, v = self._check_vertex(u), self._check_vertex(v)
        if u == v:
            return True
        roots = self._roots()
        return roots[u] == roots[v]

    def connected_many(self, queries):
        """Answer a batch of (u, v) queries with one recomputation."""
        queries = list(self._pairs(queries))
        roots = self._roots()
        return [u == v or roots[u] == roots[v] for u, v in queries]

    def components(self):
        """Exact partition of the vertices, as a list of sorted lists.

        Components are ordered by their smallest member, so the result is
        deterministic and recomputing twice yields identical output.
        """
        roots = self._roots()
        groups = {}
        for v in range(self.n):
            groups.setdefault(roots[v], []).append(v)
        return sorted(groups.values())
