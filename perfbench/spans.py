"""In-memory spans and per-layer self time.

A span records one call into a layer: its name (``layer.call``), start and
end on the monotonic clock, the span that caused it and the trace id it
belongs to (one per scenario row). Spans stay in memory and are written
once, at the end of the traced run.

A span's self time is its duration minus the part of its interval that its
child spans cover; a layer's self time is the sum over its spans.
"""

from __future__ import annotations

import time
from contextlib import contextmanager


class Tracer:
    """Collects spans as plain dicts; nesting follows the ``with`` blocks."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, trace: str | None = None):
        parent = self._open[-1] if self._open else None
        if trace is None:
            trace = self.spans[parent]["trace"] if parent is not None else "main"
        record = {
            "id": len(self.spans),
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": parent,
            "trace": trace,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()


def self_times(spans: list[dict]) -> dict[int, float]:
    """Self time of every span, keyed by span id."""
    children: dict[int, list[dict]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        edge = s["start"]
        for c in sorted(children.get(s["id"], ()), key=lambda c: c["start"]):
            lo = max(c["start"], edge)
            hi = min(c["end"], s["end"])
            if hi > lo:
                covered += hi - lo
                edge = hi
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


def by_name(spans: list[dict], selfs: dict[int, float]) -> dict[str, float]:
    """Total self time per span name."""
    out: dict[str, float] = {}
    for s in spans:
        out[s["name"]] = out.get(s["name"], 0.0) + selfs[s["id"]]
    return out


def by_layer(spans: list[dict], selfs: dict[int, float]) -> dict[str, float]:
    """Total self time per layer, the part of a span name before the first dot."""
    out: dict[str, float] = {}
    for name, value in by_name(spans, selfs).items():
        layer = name.split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + value
    return out
