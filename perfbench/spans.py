"""Spans and counters around the benchmark's calls into the program.

A span records a name, its start and end, its parent span and the item
it belongs to.  Spans are kept in memory and written out when the run
ends.  A layer's self time is its span's duration minus its child spans.
The untraced run uses ``NullTracer``, whose spans record nothing.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict


class _Span:
    __slots__ = ("tracer", "name", "start", "parent")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        stack = self.tracer._stack
        self.parent = stack[-1] if stack else None
        stack.append(len(self.tracer.spans))
        self.tracer.spans.append(None)  # filled in on exit, keeps start order
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        end = time.perf_counter()
        tracer = self.tracer
        index = tracer._stack.pop()
        tracer.spans[index] = (self.name, self.start, end, self.parent, tracer.item)
        return False


class Tracer:
    enabled = True

    def __init__(self):
        # (name, start, end, parent index, item id) in start order
        self.spans: list = []
        self._stack: list[int] = []
        self.item = None
        self.counts: dict[str, int] = defaultdict(int)

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    def count(self, name: str, n: int):
        self.counts[name] += n

    def self_times(self) -> list[tuple[str, float, object]]:
        """(name, self time, item id) per span."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        return [(name, end - start - child[i], item)
                for i, (name, start, end, _, item) in enumerate(self.spans)]

    def write(self, path: str):
        with open(path, "w") as f:
            for name, start, end, parent, item in self.spans:
                f.write(json.dumps({"name": name, "start": start, "end": end,
                                    "parent": parent, "item": item}) + "\n")


class NullTracer:
    enabled = False
    item = None
    _null = contextlib.nullcontext()

    def span(self, name: str):
        return self._null

    def count(self, name: str, n: int):
        pass
