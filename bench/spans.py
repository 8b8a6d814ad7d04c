"""Spans recorded around calls into the package, kept in memory.

A span has a name ``<layer>.<call>``, a start and an end (perf_counter
seconds), the index of its parent span, the id of the operation it belongs
to, lattice node counts before and after, and an optional count of work
done (states, tuples, compositions).  Self time is a span's duration minus
the time its child spans cover; calls run on one thread, so children never
overlap and that time is the sum of their durations.
"""

from __future__ import annotations

import time


class _Span:
    __slots__ = ("tracer", "record", "nodes")

    def __init__(self, tracer, record, nodes):
        self.tracer = tracer
        self.record = record
        self.nodes = nodes

    def __enter__(self):
        tr = self.tracer
        rec = self.record
        rec["parent"] = tr.stack[-1] if tr.stack else None
        rec["op"] = tr.op
        rec["nodes_before"] = self.nodes() if self.nodes is not None else None
        tr.stack.append(len(tr.spans))
        tr.spans.append(rec)
        rec["start"] = time.perf_counter()
        return self

    def __exit__(self, *exc):
        rec = self.record
        rec["end"] = time.perf_counter()
        rec["nodes_after"] = self.nodes() if self.nodes is not None else None
        self.tracer.stack.pop()
        return False

    def work(self, count: int) -> None:
        self.record["work"] = count


class Tracer:
    """Collects spans; ``op`` tags the spans of the operation running now."""

    def __init__(self):
        self.spans: list[dict] = []
        self.stack: list[int] = []
        self.op: str | None = None

    def span(self, name: str, nodes=None) -> _Span:
        """Context manager for one call; ``nodes`` returns a node count."""
        return _Span(self, {"name": name}, nodes)


class _NoSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def work(self, count: int) -> None:
        pass


class NullTracer:
    """Stands in for a Tracer in untraced runs; records nothing."""

    op = None
    _span = _NoSpan()

    def span(self, name: str, nodes=None) -> _NoSpan:
        return self._span


def duration(rec: dict) -> float:
    return rec["end"] - rec["start"]


def self_times(spans: list[dict]) -> list[float]:
    out = [duration(s) for s in spans]
    for s in spans:
        if s["parent"] is not None:
            out[s["parent"]] -= duration(s)
    return out


def total(spans: list[dict], name: str) -> float:
    return sum(duration(s) for s in spans if s["name"] == name)


def count(spans: list[dict], name: str) -> int:
    return sum(1 for s in spans if s["name"] == name)


def work(spans: list[dict], name: str) -> int:
    return sum(s.get("work", 0) for s in spans if s["name"] == name)
