"""In-memory spans around the benchmark's own calls into each layer.

A span records its name, start, end, parent and the outermost span of
its thread (the *round*), so one traced round of a workload can be
split into per-layer self time. Nothing here touches ``src/``: the
benchmark opens a span around each public function it calls.
"""

from __future__ import annotations

import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    root: int
    thread: str


class Tracer:
    """Collects spans from any thread; each thread nests its own."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0

    @contextmanager
    def span(self, name: str):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        parent = stack[-1] if stack else None
        root = stack[0] if stack else span_id
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            record = Span(span_id, name, start, end, parent, root,
                          threading.current_thread().name)
            with self._lock:
                self.spans.append(record)

    def self_times(self) -> Dict[int, Dict[str, float]]:
        """round id -> span name -> seconds not covered by child spans."""
        children: Dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span.parent is not None:
                children[span.parent] += span.end - span.start
        rounds: Dict[int, Dict[str, float]] = defaultdict(
            lambda: defaultdict(float)
        )
        for span in self.spans:
            own = span.end - span.start - children.get(span.id, 0.0)
            rounds[span.root][span.name] += own
        return {root: dict(names) for root, names in rounds.items()}

    def round_totals(self, name: str) -> List[float]:
        """Durations of the outermost spans called ``name``."""
        return [
            span.end - span.start
            for span in self.spans
            if span.parent is None and span.name == name
        ]

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump([asdict(span) for span in self.spans], handle)
            handle.write("\n")


class NullTracer:
    """The untraced run: spans cost one no-op context manager."""

    @contextmanager
    def span(self, name: str):
        yield
