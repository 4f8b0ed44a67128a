"""Spans recorded around calls into the program, and self time.

A Tracer wraps callables.  A spanned call records (id, name, start, end,
parent, request).  A call made hundreds of thousands of times per request
is aggregated instead: count and busy time per (parent span, name).
Aggregated calls are leaves: wrapped calls made inside one run unrecorded.

A span's self time is its duration minus the part of it that child spans
and aggregated children cover.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    request: int


class Tracer:
    def __init__(self, request: int) -> None:
        self.request = request
        self.spans: list[Span] = []
        self.aggs: dict[tuple[int | None, str], list] = {}   # -> [count, busy]
        self._stack: list[int | None] = []                   # None marks an aggregated call
        self._next_id = 0

    def _parent(self) -> int | None:
        return self._stack[-1] if self._stack else None

    def _in_aggregate(self) -> bool:
        return bool(self._stack) and self._stack[-1] is None

    def wrap(self, name: str, fn, aggregate: bool = False):
        """`fn`, recording each call as a span or into an aggregate."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._in_aggregate():
                return fn(*args, **kwargs)
            parent = self._parent()
            span_id = None if aggregate else self._next_id
            if not aggregate:
                self._next_id += 1
            self._stack.append(span_id)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                if aggregate:
                    entry = self.aggs.setdefault((parent, name), [0, 0.0])
                    entry[0] += 1
                    entry[1] += end - start
                else:
                    self.spans.append(Span(span_id, name, start, end, parent, self.request))

        return traced

    def record(self, name: str, start: float, end: float) -> None:
        """A span for an interval timed by the caller, under the current span."""
        if self._in_aggregate():
            return
        self.spans.append(Span(self._next_id, name, start, end, self._parent(), self.request))
        self._next_id += 1

    def to_json(self) -> dict:
        return {
            "spans": [[s.id, s.name, s.start, s.end, s.parent, s.request] for s in self.spans],
            "aggs": [[parent, name, count, busy] for (parent, name), (count, busy) in self.aggs.items()],
        }


def spans_from_json(data: dict) -> tuple[list[Span], list[tuple[int | None, str, int, float]]]:
    return [Span(*row) for row in data["spans"]], [tuple(row) for row in data["aggs"]]


def covered(start: float, end: float, intervals) -> float:
    """Length of the union of `intervals`, clipped to [start, end]."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans: list[Span], aggs) -> dict[int, float]:
    """Span id -> duration minus what child spans and aggregates cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    agg_busy = defaultdict(float)
    for parent, _name, _count, busy in aggs:
        agg_busy[parent] += busy
    return {
        s.id: max(0.0, s.end - s.start - covered(s.start, s.end, children[s.id]) - agg_busy[s.id])
        for s in spans
    }
