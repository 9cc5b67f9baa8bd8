"""Per-(vertex, level, kind) edge arrays with run insert/delete and prefix fetch.

Each array is a plain list. Every stored edge object carries a ``pos`` dict
mapping each of its endpoints to its index in that endpoint's list, kept
correct by every operation. A delete moves the list's last edge into the
hole, so each edge costs O(1) element writes to insert or delete.
"""

from __future__ import annotations

from .errors import DuplicateEdgeError, GraphError, MissingEdgeError


class AdjacencyStore:
    """All adjacency arrays of one level structure, created lazily.

    ``slot_writes`` counts element writes (one per inserted edge, one per
    edge moved into a hole, one per vacated tail slot) so tests can check the
    O(1)-per-edge accounting.
    """

    def __init__(self):
        self._arrays = {}
        self.slot_writes = 0

    def count(self, vertex, level, kind) -> int:
        return len(self._arrays.get((vertex, level, kind), ()))

    def insert_edges(self, vertex, level, kind, edges):
        """Append ``edges`` in order; none may already be stored for ``vertex``."""
        if not edges:
            return
        for e in edges:
            if vertex in e.pos:
                raise DuplicateEdgeError(
                    f"edge ({e.u},{e.v}) already stored for vertex {vertex}"
                )
        arr = self._arrays.setdefault((vertex, level, kind), [])
        for e in edges:
            e.pos[vertex] = len(arr)
            arr.append(e)
        self.slot_writes += len(edges)

    def delete_edges(self, vertex, level, kind, edges):
        """Remove ``edges`` one at a time in the given order.

        Each removal moves the array's last edge into the hole, so the order
        fixes the survivors' slots. The whole run is validated first: a
        missing or repeated edge rejects it without any change.
        """
        if not edges:
            return
        arr = self._arrays.get((vertex, level, kind), ())
        positions = set()
        for e in edges:
            p = e.pos.get(vertex)
            if p is None or p >= len(arr) or arr[p] is not e:
                raise MissingEdgeError(
                    f"edge ({e.u},{e.v}) not present for vertex {vertex} at level {level}"
                )
            positions.add(p)
        if len(positions) != len(edges):
            raise DuplicateEdgeError("repeated edge in delete run")
        for e in edges:
            hole = e.pos.pop(vertex)
            last = arr.pop()
            if last is not e:
                arr[hole] = last
                last.pos[vertex] = hole
                self.slot_writes += 1
        self.slot_writes += len(edges)

    def take_edges(self, vertex, level, kind):
        """Remove and return the whole array; the emptied array is dropped.

        Each edge's ``pos`` loses ``vertex``, and every vacated slot counts as
        one write.
        """
        arr = self._arrays.pop((vertex, level, kind), [])
        for e in arr:
            del e.pos[vertex]
        self.slot_writes += len(arr)
        return arr

    def fetch_edges(self, vertex, level, kind, l):
        arr = self._arrays.get((vertex, level, kind), [])
        if l > len(arr):
            raise GraphError(f"fetch of {l} edges from array holding {len(arr)}")
        return arr[:l]

    def arrays(self):
        """Yield ((vertex, level, kind), list of edges) pairs; read only."""
        return self._arrays.items()

    def audit(self):
        """Return a list of back-index violations (empty if clean)."""
        problems = []
        for key, arr in self._arrays.items():
            for i, e in enumerate(arr):
                if e.pos.get(key[0]) != i:
                    problems.append(
                        f"back-index: edge ({e.u},{e.v}) slot {i} of {key} "
                        f"records {e.pos.get(key[0])}"
                    )
        return problems
