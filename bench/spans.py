"""In-memory spans recorded around the benchmark's calls into the package.

A span is ``[name, start, end, parent, request]``: ``name`` is
``<layer>.<step>`` where the layer is the package module called (``bench``
for the benchmark's own code), ``parent`` is the index of the enclosing span
(-1 for a root) and ``request`` numbers the program or search the span
belongs to.  Spans stay in memory and are written out when the run ends.
"""
from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext

_OFF = nullcontext()


class Spans:
    def __init__(self) -> None:
        self.enabled = False
        self.records: list[list] = []
        self._stack: list[int] = []
        self.request = 0

    def span(self, name: str, new_request: bool = False):
        """Context manager timing one call; a no-op while tracing is off."""
        if not self.enabled:
            return _OFF
        if new_request:
            self.request += 1
        return self._span(name)

    @contextmanager
    def _span(self, name: str):
        index = len(self.records)
        parent = self._stack[-1] if self._stack else -1
        record = [name, time.perf_counter(), 0.0, parent, self.request]
        self.records.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            record[2] = time.perf_counter()

    def durations(self) -> dict[str, list[float]]:
        """Seconds per span name, in recording order."""
        out: dict[str, list[float]] = defaultdict(list)
        for name, start, end, _, _ in self.records:
            out[name].append(end - start)
        return out

    def self_seconds(self) -> dict[str, float]:
        """Per layer: span time minus the part covered by child spans."""
        own = [end - start for _, start, end, _, _ in self.records]
        for _, start, end, parent, _ in self.records:
            if parent >= 0:
                own[parent] -= end - start
        out: dict[str, float] = defaultdict(float)
        for (name, *_), seconds in zip(self.records, own):
            out[name.split(".", 1)[0]] += seconds
        return out

    def write(self, path: str, meta: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"meta": meta,
                       "fields": ["name", "start_s", "end_s", "parent", "request"],
                       "spans": self.records}, fh)
