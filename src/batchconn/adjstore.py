"""Per-(vertex, level, kind) edge arrays with batched insert/delete and prefix fetch.

Each array is a dense resizable slot vector. Every stored edge object carries
a ``pos`` dict mapping each of its endpoints to its slot index in that
endpoint's array, kept correct by every operation. Deletion uses a two-phase
scheme: compact the size-l tail window, then swap the surviving tail elements
into the holes left by targets in the head, so a batch of l deletions costs
O(l) slot writes.
"""

from __future__ import annotations

from .errors import DuplicateEdgeError, GraphError, MissingEdgeError

_FLOOR = 4


class AdjacencyArray:
    __slots__ = ("slots", "count", "cap")

    def __init__(self):
        self.slots = [None] * _FLOOR
        self.count = 0
        self.cap = _FLOOR


class AdjacencyStore:
    """All adjacency arrays of one level structure, created lazily.

    ``slot_writes`` counts every slot assignment (including resize copies and
    clears) so tests can check the amortized O(1)-per-edge accounting.
    """

    def __init__(self):
        self._arrays = {}
        self.slot_writes = 0

    def count(self, vertex, level, kind) -> int:
        arr = self._arrays.get((vertex, level, kind))
        return arr.count if arr is not None else 0

    def insert_edges(self, vertex, level, kind, edges):
        if not edges:
            return
        key = (vertex, level, kind)
        arr = self._arrays.get(key)
        if arr is None:
            arr = AdjacencyArray()
            self._arrays[key] = arr
        need = arr.count + len(edges)
        if need > arr.cap:
            cap = arr.cap
            while cap < need:
                cap *= 2
            new_slots = [None] * cap
            for i in range(arr.count):
                new_slots[i] = arr.slots[i]
            self.slot_writes += arr.count
            arr.slots = new_slots
            arr.cap = cap
        i = arr.count
        for e in edges:
            old = e.pos.get(vertex)
            if old is not None:
                raise DuplicateEdgeError(
                    f"edge ({e.u},{e.v}) already stored for vertex {vertex}"
                )
            arr.slots[i] = e
            e.pos[vertex] = i
            self.slot_writes += 1
            i += 1
        arr.count = i

    def delete_edges(self, vertex, level, kind, edges):
        if not edges:
            return
        key = (vertex, level, kind)
        arr = self._arrays.get(key)
        if arr is None:
            raise MissingEdgeError(f"no array for {key}")
        n = arr.count
        l = len(edges)
        positions = set()
        for e in edges:
            p = e.pos.get(vertex)
            if p is None or p >= n or arr.slots[p] is not e:
                raise MissingEdgeError(
                    f"edge ({e.u},{e.v}) not present for vertex {vertex} at level {level}"
                )
            positions.add(p)
        if len(positions) != l:
            raise DuplicateEdgeError("repeated edge in delete batch")
        tail_start = n - l
        # phase 1: survivors of the tail window, in slot order
        kept = []
        for i in range(tail_start, n):
            if i not in positions:
                kept.append(arr.slots[i])
        # phase 2: swap survivors into the head holes
        head_holes = sorted(p for p in positions if p < tail_start)
        for hole, survivor in zip(head_holes, kept):
            arr.slots[hole] = survivor
            survivor.pos[vertex] = hole
            self.slot_writes += 1
        for i in range(tail_start, n):
            arr.slots[i] = None
            self.slot_writes += 1
        arr.count = tail_start
        for e in edges:
            del e.pos[vertex]

    def fetch_edges(self, vertex, level, kind, l):
        arr = self._arrays.get((vertex, level, kind))
        count = arr.count if arr is not None else 0
        if l > count:
            raise GraphError(f"fetch of {l} edges from array holding {count}")
        if l == 0:
            return []
        return arr.slots[:l]

    def arrays(self):
        """Yield ((vertex, level, kind), AdjacencyArray) pairs."""
        return self._arrays.items()

    def audit(self):
        """Return a list of back-index or density violations (empty if clean)."""
        problems = []
        for (vertex, level, kind), arr in self._arrays.items():
            for i in range(arr.count):
                e = arr.slots[i]
                if e is None:
                    problems.append(f"back-index: hole at slot {i} of {(vertex, level, kind)}")
                    continue
                if e.pos.get(vertex) != i:
                    problems.append(
                        f"back-index: edge ({e.u},{e.v}) slot {i} of "
                        f"{(vertex, level, kind)} records {e.pos.get(vertex)}"
                    )
            for i in range(arr.count, arr.cap):
                if arr.slots[i] is not None:
                    problems.append(f"back-index: live ref beyond count in {(vertex, level, kind)}")
        return problems
