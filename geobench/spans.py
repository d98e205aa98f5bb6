"""In-memory spans for the traced run.

A span records a name, start and end (perf_counter seconds), the index of the
span that caused it, and the run id shared by every span of one traced pass.
Spans stay in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager


class Tracer:
    """Collects spans; with enabled=False every span is a no-op, which gives
    the untraced pass the same code path minus the bookkeeping."""

    def __init__(self, run_id: str, enabled: bool = True):
        self.run_id = run_id
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        """Yields the span dict, so the caller can attach an item count."""
        if not self.enabled:
            yield {}
            return
        index = len(self.spans)
        span = {"name": name, "start": time.perf_counter(), "end": None,
                "parent": self._stack[-1] if self._stack else None, "run_id": self.run_id}
        self.spans.append(span)
        self._stack.append(index)
        try:
            yield span
        finally:
            self._stack.pop()
            span["end"] = time.perf_counter()

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fp:
            for span in self.spans:
                fp.write(json.dumps(span, sort_keys=True) + "\n")


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the part of its interval that its direct
    children cover (overlapping children are counted once)."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append((span["start"], span["end"]))
    out = []
    for i, span in enumerate(spans):
        covered, reach = 0.0, span["start"]
        for start, end in sorted(children.get(i, ())):
            start, end = max(start, reach), min(end, span["end"])
            if end > start:
                covered += end - start
                reach = end
        out.append(span["end"] - span["start"] - covered)
    return out


def aggregate(spans: list[dict]) -> dict[str, dict]:
    """Per span name: calls, total wall, total self time, summed item count."""
    out: dict[str, dict] = {}
    for span, own in zip(spans, self_times(spans)):
        row = out.setdefault(span["name"], {"calls": 0, "wall_s": 0.0, "self_s": 0.0, "items": 0})
        row["calls"] += 1
        row["wall_s"] += span["end"] - span["start"]
        row["self_s"] += own
        row["items"] += span.get("items", 0)
    return out
