"""Spans around the public calls into each layer, recorded from outside.

``Tracer.install`` replaces the traced functions with timing wrappers:
methods on the ``EulerTourForest``, ``AdjacencyStore``, ``LevelStructure``
and ``BatchDictionary`` classes, and the ``spanning_forest`` / ``semisort``
names that ``batchconn.connectivity`` looks up at call time.
``Tracer.uninstall`` puts the originals back. The program's sources are not
touched.

Each call records one span: label, start, end, parent span and an element
count (edges, deltas, queries or vertices, depending on the call). Spans stay
in flat arrays until the run ends. A span's self time is its duration minus
the durations of the spans directly nested in it.
"""

from __future__ import annotations

import math
import time
from array import array
from collections import defaultdict

from batchconn import adjstore, connectivity, etforest, primitives


def _arg_len(k):
    return lambda args, result: len(args[k])


def _result_len(args, result):
    return len(result)


def _one(args, result):
    return 1


_ETF = etforest.EulerTourForest
_ADJ = adjstore.AdjacencyStore
_LS = connectivity.LevelStructure

# (owner, attribute, label or label function of the args, count function)
TARGETS = (
    (_ETF, "__init__", "etforest.init", _one),
    (_ETF, "batch_link", "etforest.batch_link", _arg_len(1)),
    (_ETF, "batch_cut", "etforest.batch_cut", _arg_len(1)),
    (_ETF, "component_size", "etforest.totals", _one),
    (_ETF, "num_tree_edges", "etforest.totals", _one),
    (_ETF, "num_nontree_edges", "etforest.totals", _one),
    (_ETF, "find_repr", "etforest.find_repr", _one),
    (_ETF, "batch_find_repr", "etforest.find_repr", _arg_len(1)),
    (_ETF, "batch_connected", "etforest.batch_connected", _arg_len(1)),
    # every caller passes the kind positionally
    (_ETF, "fetch_level_edges", lambda a: "etforest.fetch_level_edges." + a[3], _result_len),
    (_ETF, "adjust_edge_counts", "etforest.adjust_edge_counts", _arg_len(1)),
    (_ETF, "remove_level_edges", "etforest.remove_level_edges", _arg_len(2)),
    (_ADJ, "insert_edges", "adjstore.insert_edges", _arg_len(4)),
    (_ADJ, "delete_edges", "adjstore.delete_edges", _arg_len(4)),
    (_ADJ, "fetch_edges", "adjstore.fetch_edges", _result_len),
    (_LS, "batch_insert", "connectivity.batch_insert", _arg_len(1)),
    (_LS, "batch_delete", "connectivity.batch_delete", _arg_len(1)),
    (_LS, "batch_connected", "connectivity.batch_connected", _arg_len(1)),
    (_LS, "parallel_level_search", lambda a: f"connectivity.level_search.l{a[1]}", _one),
    (_LS, "interleaved_level_search", lambda a: f"connectivity.level_search.l{a[1]}", _one),
    (connectivity, "spanning_forest", "primitives.spanning_forest", _arg_len(0)),
    (connectivity, "semisort", "primitives.semisort", _arg_len(0)),
    (primitives.BatchDictionary, "apply", "primitives.batch_dict", _arg_len(1)),
)


class Tracer:
    def __init__(self):
        self.labels = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.count = array("q")
        self.start = array("d")
        self.end = array("d")
        self.marks = []            # (phase, first span index)
        self._stack = [-1]
        self._swaps = [
            (owner, attr, vars(owner)[attr], self._wrap(vars(owner)[attr], label, count_of))
            for owner, attr, label, count_of in TARGETS
        ]

    def _label_id(self, label):
        i = self._ids.get(label)
        if i is None:
            i = self._ids[label] = len(self.labels)
            self.labels.append(label)
        return i

    def _wrap(self, fn, label, count_of):
        fixed = self._label_id(label) if isinstance(label, str) else None
        label_id = self._label_id
        name, parent, count = self.name, self.parent, self.count
        start, end, stack = self.start, self.end, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            i = len(start)
            name.append(fixed if fixed is not None else label_id(label(args)))
            parent.append(stack[-1])
            count.append(0)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            count[i] = count_of(args, result)
            return result

        return traced

    def install(self):
        for owner, attr, _, wrapper in self._swaps:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original, _ in self._swaps:
            setattr(owner, attr, original)

    def mark(self, phase):
        self.marks.append((phase, len(self.start)))

    def phase_range(self, phase):
        ends = [i for _, i in self.marks[1:]] + [len(self.start)]
        for (p, lo), hi in zip(self.marks, ends):
            if p == phase:
                return lo, hi
        raise KeyError(phase)

    def _self_times(self):
        """Per span: its duration minus the durations of its direct children."""
        dur = [e - s for s, e in zip(self.start, self.end)]
        own = list(dur)
        for p, d in zip(self.parent, dur):
            if p >= 0:
                own[p] -= d
        return dur, own

    def summary(self, phase):
        """label -> (spans, summed count, self seconds, inclusive seconds)."""
        lo, hi = self.phase_range(phase)
        dur, own = self._self_times()
        spans, counts = defaultdict(int), defaultdict(int)
        selfs, incl = defaultdict(list), defaultdict(list)
        for i in range(lo, hi):
            k = self.name[i]
            spans[k] += 1
            counts[k] += self.count[i]
            selfs[k].append(own[i])
            incl[k].append(dur[i])
        return {
            self.labels[k]: (spans[k], counts[k], math.fsum(selfs[k]), math.fsum(incl[k]))
            for k in spans
        }

    def save(self, path):
        """Write every span as one tab-separated line, under a header line."""
        _, own = self._self_times()
        phase_of = {lo: p for p, lo in self.marks}
        phase = None
        with open(path, "w") as fh:
            fh.write("span\tphase\tlabel\tparent\tcount\tstart\tend\tself_s\n")
            for i, (k, p, c, s, e, o) in enumerate(
                zip(self.name, self.parent, self.count, self.start, self.end, own)
            ):
                phase = phase_of.get(i, phase)
                fh.write(f"{i}\t{phase}\t{self.labels[k]}\t{p}\t{c}\t{s!r}\t{e!r}\t{o!r}\n")
