"""In-memory spans and counts for the traced run.

A span records its name, start, end and the span open around it when it
began; a layer's self time is its spans' duration minus the time of
their direct children. Spans stay in memory; the runner writes them out
when the run ends.
"""

from __future__ import annotations

import contextlib
import time


class Trace:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.counts: dict[str, int] = {}
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        rec = {"id": len(self.spans), "name": name,
               "parent": self._open[-1] if self._open else None,
               "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield
        finally:
            self._open.pop()
            rec["end"] = time.perf_counter()

    def wrap(self, name: str, fn):
        """``fn`` with every call recorded as a ``name`` span."""

        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def total(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)

    def self_time(self, name: str) -> float:
        ids = {s["id"] for s in self.spans if s["name"] == name}
        children = sum(
            s["end"] - s["start"] for s in self.spans if s["parent"] in ids
        )
        return self.total(name) - children
