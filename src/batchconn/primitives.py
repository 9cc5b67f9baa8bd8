"""Deterministic bulk-operation primitives used throughout the engine.

Everything here is a pure batch transformation over plain Python values:
grouping (semisort), a batched dictionary, a union-find, and a static
spanning forest. Fixed inputs always produce bit-identical outputs.
"""

from __future__ import annotations

from .errors import BatchConflictError, DuplicateEdgeError, MissingEdgeError


def semisort(items):
    """Group ``(key, payload)`` pairs by key.

    Returns a dict from each key to its payloads in input order, with keys in
    first-occurrence order, so the result is reproducible without any
    randomness.
    """
    groups: dict = {}
    for key, payload in items:
        groups.setdefault(key, []).append(payload)
    return groups


class BatchDictionary:
    """Dictionary applying batches of inserts and deletes.

    Within one batch at most one mutation per key is allowed. The whole batch
    is validated up front and rejected atomically on any error. Single keys
    are read with ``get`` and ``in``.
    """

    def __init__(self):
        self._data = {}

    def __len__(self):
        return len(self._data)

    def __contains__(self, key):
        return key in self._data

    def get(self, key, default=None):
        return self._data.get(key, default)

    def items(self):
        return self._data.items()

    def keys(self):
        return self._data.keys()

    def apply(self, ops):
        """Apply one batch of ``("insert", k, v)`` and ``("delete", k)`` ops."""
        mutated = set()
        inserts = []
        deletes = []
        for op in ops:
            tag = op[0]
            if tag == "insert":
                _, key, value = op
            elif tag == "delete":
                _, key = op
            else:
                raise ValueError(f"unknown dictionary op {tag!r}")
            if key in mutated:
                raise BatchConflictError(f"two mutations for key {key!r} in one batch")
            mutated.add(key)
            if tag == "insert":
                if key in self._data:
                    raise DuplicateEdgeError(f"insert of present key {key!r}")
                inserts.append((key, value))
            else:
                if key not in self._data:
                    raise MissingEdgeError(f"delete of absent key {key!r}")
                deletes.append(key)
        for key in deletes:
            del self._data[key]
        for key, value in inserts:
            self._data[key] = value


class DisjointSets:
    """Union-find over hashable keys: union by size with path compression.

    ``sizes`` optionally maps keys to their starting weights; any other key
    joins as a weight-1 singleton the first time it is seen. On equal weights
    the root of ``union``'s first argument stays the root. Keys must not be
    None, which ``union`` returns for keys already joined.
    """

    def __init__(self, sizes=()):
        self._size = dict(sizes)
        self._parent = {x: x for x in self._size}

    def find(self, x):
        parent = self._parent
        if x not in parent:
            parent[x] = x
            self._size[x] = 1
            return x
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def size(self, x):
        """Total weight of the set holding ``x``."""
        return self._size[self.find(x)]

    def union(self, a, b):
        """Join the sets of ``a`` and ``b``; the new root, or None if already joined."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return None
        if self._size[ra] < self._size[rb]:
            ra, rb = rb, ra
        self._parent[rb] = ra
        self._size[ra] += self._size[rb]
        return ra


def spanning_forest(edges):
    """Select a maximal acyclic subset of ``edges`` by index order.

    ``edges`` is a sequence of ``(a, b)`` pairs over opaque hashable node
    labels; multi-edges and self-loops are permitted and never selected twice
    (or at all, for self-loops). Returns the list of selected edge indices,
    in increasing order.

    Deterministic: union by size with index-order scanning; the lower edge
    index wins ties.
    """
    sets = DisjointSets()
    return [idx for idx, (a, b) in enumerate(edges) if sets.union(a, b) is not None]
