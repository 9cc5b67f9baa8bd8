"""Per-(vertex, level, kind) edge arrays with run insert/delete and prefix fetch.

Each array is an insertion-ordered dict keyed by the edge objects, with
``None`` values, so membership, insert and delete are O(1) per edge and a
fetch reads a prefix in insertion order. Survivors of a delete keep that
order, whatever order the deletions ran in.

``check_runs`` is the one gate on the run rules (distinct edges, each stored
or none stored). ``insert_edges`` and ``delete_edges`` are plain writers that
assume a run has passed it; a caller checks all its runs first and then
writes them, so a rejected batch changes nothing.
"""

from __future__ import annotations

from itertools import islice

from .errors import DuplicateEdgeError, GraphError, MissingEdgeError


class AdjacencyStore:
    """All adjacency arrays of one level structure, created lazily.

    ``slot_writes`` counts one write per edge that enters or leaves an array,
    so tests can check the O(1)-per-edge accounting.
    """

    def __init__(self):
        self._arrays = {}
        self.slot_writes = 0

    def count(self, vertex, level, kind) -> int:
        return len(self._arrays.get((vertex, level, kind), ()))

    def check_runs(self, level, kind, runs, stored):
        """Raise unless, for each ``(vertex, edges)`` pair of ``runs``, the
        edges are distinct and each is stored for ``vertex`` (``stored``) or
        none is: a repeated or stored edge is a DuplicateEdgeError, a missing
        one a MissingEdgeError. Checking every run first keeps a batch atomic."""
        arrays = self._arrays
        for vertex, edges in runs:
            arr = arrays.get((vertex, level, kind), ())
            for e in edges:
                if (e in arr) is not stored:
                    if stored:
                        raise MissingEdgeError(
                            f"edge ({e.u},{e.v}) not present for vertex {vertex} at level {level}"
                        )
                    raise DuplicateEdgeError(
                        f"edge ({e.u},{e.v}) already stored for vertex {vertex}"
                    )
            if len(edges) > 1 and len(set(edges)) != len(edges):
                raise DuplicateEdgeError(f"repeated edge in run for vertex {vertex}")

    def insert_edges(self, vertex, level, kind, edges):
        """Append ``edges`` in order. A plain writer: the run must have
        passed ``check_runs`` with ``stored=False``, so its edges are
        distinct and none is stored for ``vertex``."""
        if not edges:
            return
        key = (vertex, level, kind)
        arr = self._arrays.get(key)
        if arr is None:
            arr = self._arrays[key] = {}
        for e in edges:
            arr[e] = None
        self.slot_writes += len(edges)

    def delete_edges(self, vertex, level, kind, edges):
        """Remove ``edges``. A plain writer: the run must have passed
        ``check_runs`` with ``stored=True``, so its edges are distinct and
        each is stored for ``vertex``."""
        if not edges:
            return
        arr = self._arrays[vertex, level, kind]
        for e in edges:
            del arr[e]
        self.slot_writes += len(edges)

    def take_edges(self, vertex, level, kind):
        """Remove and return the whole array as a list; the emptied array is
        dropped."""
        arr = self._arrays.pop((vertex, level, kind), ())
        self.slot_writes += len(arr)
        return list(arr)

    def fetch_edges(self, vertex, level, kind, l):
        arr = self._arrays.get((vertex, level, kind), ())
        if l > len(arr):
            raise GraphError(f"fetch of {l} edges from array holding {len(arr)}")
        return list(islice(arr, l))

    def arrays(self):
        """Yield ((vertex, level, kind), dict of edges) pairs; read only."""
        return self._arrays.items()
