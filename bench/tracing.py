"""Span tracing from outside the program.

The tracer wraps kbforge functions and methods at run time. Each call of a
wrapped callable becomes one span: name, start, end, parent span, a flag
read when the span opens (the benchmark passes "is the autodiff tape
recording", which splits training from prediction) and an optional work
count computed from the call's arguments and result. Spans stay in memory
until the run ends. The time the work counts take is recorded and cut out
of the time axis afterwards (``cut_out``), so no span, open or later,
includes it. Nothing under src/ is edited: a module-level function
is replaced under every kbforge module name that binds it (for example
``pipeline.subgraph_link`` as well as ``linker.subgraph_link``), and a
method is replaced on its class.
"""

from __future__ import annotations

import bisect
import functools
import sys
import time
from contextlib import contextmanager


class Span:
    __slots__ = ("name", "start", "end", "parent", "flag", "work")

    def __init__(self, name, start, end, parent, flag=None, work=None):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent  # index into the span list, None for a root
        self.flag = flag
        self.work = work

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self, flag=None, clock=time.perf_counter):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self.excluded: list[tuple[float, float]] = []  # work-count intervals
        self._flag = flag
        self._clock = clock

    def _begin(self, name) -> int:
        parent = self._open[-1] if self._open else None
        flag = self._flag() if self._flag is not None else None
        self.spans.append(Span(name, self._clock(), None, parent, flag))
        index = len(self.spans) - 1
        self._open.append(index)
        return index

    def _finish(self, index, work=None) -> None:
        self._open.pop()
        span = self.spans[index]
        span.end = self._clock()
        span.work = work

    @contextmanager
    def span(self, name):
        """A span around the benchmark's own code (phases, pipeline stages)."""
        index = self._begin(name)
        try:
            yield
        finally:
            self._finish(index)

    def wrap(self, fn, name, work=None):
        """``work(args, kwargs, result)`` gives the span's work count; it runs
        after the call, and its interval goes to ``excluded``."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._begin(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._finish(index)
                raise
            self._finish(index)
            if work is not None:
                start = self._clock()
                self.spans[index].work = work(args, kwargs, result)
                self.excluded.append((start, self._clock()))
            return result
        return traced

    def patch_function(self, module, attr, name, work=None) -> int:
        """Replace ``module.attr`` wherever a kbforge module binds that same
        object; returns how many bindings were replaced."""
        original = getattr(module, attr)
        traced = self.wrap(original, name, work)
        replaced = 0
        for mod_name, mod in sorted(sys.modules.items()):
            if mod is None or not (mod_name == "kbforge" or mod_name.startswith("kbforge.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, key, original))
                    setattr(mod, key, traced)
                    replaced += 1
        return replaced

    def patch_method(self, cls, attr, name, work=None) -> None:
        original = cls.__dict__[attr]
        self._undo.append((cls, attr, original))
        setattr(cls, attr, self.wrap(original, name, work))

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def cut_out(spans: list[Span], intervals) -> None:
    """Remove disjoint ``intervals`` from the spans' time axis: a time moves
    earlier by the excluded time before it, so each span loses exactly the
    excluded time it contains and keeps its order with the others."""
    intervals = sorted(intervals)
    starts = [a for a, _ in intervals]
    before = [0.0]  # excluded time before each interval starts
    for a, b in intervals:
        before.append(before[-1] + b - a)

    def shift(t):
        k = bisect.bisect_right(starts, t)
        if k == 0:
            return t
        a, b = intervals[k - 1]
        return t - before[k - 1] - (min(t, b) - a)

    for span in spans:
        span.start, span.end = shift(span.start), shift(span.end)


def covered_length(start: float, end: float, intervals) -> float:
    """Length of the part of [start, end] that the union of intervals covers."""
    clipped = sorted((max(a, start), min(b, end)) for a, b in intervals
                     if min(b, end) > max(a, start))
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval its children cover."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return [span.duration - covered_length(span.start, span.end, kids)
            for span, kids in zip(spans, children)]


def nearest(spans: list[Span], names) -> list[int | None]:
    """For each span, the index of the closest ancestor-or-self whose name is
    in ``names``. Parents precede children in the list, so one pass does."""
    out: list[int | None] = []
    for i, span in enumerate(spans):
        if span.name in names:
            out.append(i)
        elif span.parent is not None:
            out.append(out[span.parent])
        else:
            out.append(None)
    return out


def roots(spans: list[Span]) -> list[int]:
    """For each span, the index of its outermost ancestor."""
    out: list[int] = []
    for i, span in enumerate(spans):
        out.append(i if span.parent is None else out[span.parent])
    return out


def write_spans(spans: list[Span], selfs: list[float], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("index\tname\tstart_s\tend_s\tparent\tself_s\tflag\twork\n")
        for i, (span, own) in enumerate(zip(spans, selfs)):
            parent = "" if span.parent is None else span.parent
            fh.write(f"{i}\t{span.name}\t{span.start!r}\t{span.end!r}\t{parent}\t"
                     f"{own!r}\t{span.flag}\t{span.work}\n")
