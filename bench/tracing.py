"""In-memory spans recorded by the benchmark around calls into the program.

A span holds a name, start, end, parent span and run id. Spans opened on a
worker thread with no span of their own take the span the main thread
has open as their parent, so provider calls made from the runner's pool
become children of the runner call. ``NullTracer`` stands in for untraced
runs, where the end-to-end metrics are measured.
"""

from __future__ import annotations

import contextlib
import itertools
import threading
import time
from dataclasses import dataclass


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    run_id: str
    start: float
    end: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_thread = threading.get_ident()
        self._main_stack: list[Span] = []

    def _stack(self) -> list[Span]:
        if threading.get_ident() == self._main_thread:
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextlib.contextmanager
    def span(self, name: str):
        stack = self._stack()
        outer = stack or self._main_stack
        with self._lock:
            span = Span(next(self._ids), name, outer[-1].id if outer else None, self.run_id, 0.0)
            self.spans.append(span)
        stack.append(span)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()

    def children(self, span: Span) -> list[Span]:
        return [s for s in self.spans if s.parent == span.id]

    def self_time(self, span: Span) -> float:
        """The span's duration minus the union of its children's intervals."""
        covered = 0.0
        reach = span.start
        for child in sorted(self.children(span), key=lambda s: s.start):
            lo, hi = max(child.start, reach), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        return span.duration - covered

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def total(self, name: str) -> float:
        return sum(s.duration for s in self.named(name))

    def to_json(self) -> list[dict]:
        return [
            {"id": s.id, "name": s.name, "parent": s.parent, "run_id": s.run_id, "start": s.start, "end": s.end}
            for s in self.spans
        ]


class NullTracer:
    """Records nothing; ``span`` costs one context-manager entry."""

    _null = contextlib.nullcontext()

    def span(self, name: str):
        return self._null
