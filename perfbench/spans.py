"""In-memory spans recorded from the benchmark's own code.

The program under test carries no tracing of its own.  The traced run
instead wraps the public functions of each layer (``patched``) so that
every call into them records a span: name, start, end, parent span and,
for served requests, a request id.  Spans stay in memory and are written
once at the end as Chrome trace-event JSON (Perfetto and
``chrome://tracing`` open it) and summarised as a per-layer self-time
table.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    request_id: int | None = None
    index: int = 0

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """A flat list of spans plus the stack of currently open ones.

    Single-threaded by design: the traced runs call the program serially,
    so a plain stack gives every span its parent.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.request_id: int | None = None
        #: The most recent return value of each wrapped span, for counts
        #: read off the layer's own result (index sizes, pair lists).
        self.results: dict[str, Any] = {}
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        parent = self._stack[-1] if self._stack else None
        record = Span(name, time.perf_counter(), parent=parent,
                      request_id=self.request_id, index=len(self.spans))
        self.spans.append(record)
        self._stack.append(record.index)
        try:
            yield record
        finally:
            self._stack.pop()
            record.end = time.perf_counter()

    def add(self, name: str, start: float, seconds: float, parent: Span) -> None:
        """Record a child span measured by the program itself."""
        self.spans.append(
            Span(name, start, start + seconds, parent=parent.index,
                 request_id=parent.request_id, index=len(self.spans))
        )

    def wrap(self, function: Callable, name: str) -> Callable:
        @functools.wraps(function)
        def traced(*args, **kwargs):
            with self.span(name):
                result = function(*args, **kwargs)
            self.results[name] = result
            return result

        return traced

    # ------------------------------------------------------------------ #
    # Summaries
    # ------------------------------------------------------------------ #
    def durations(self, name: str) -> list[float]:
        return [span.seconds for span in self.spans if span.name == name]

    def self_times(self, name: str) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.seconds
        return [
            span.seconds - child_time[index]
            for index, span in enumerate(self.spans)
            if span.name == name
        ]

    def median(self, name: str, *, self_time: bool = False) -> float:
        values = self.self_times(name) if self_time else self.durations(name)
        return statistics.median(values)

    def table(self) -> str:
        """Per-layer totals: calls, total seconds, self seconds."""
        names = list(dict.fromkeys(span.name for span in self.spans))
        rows = [
            (name, len(self.durations(name)), sum(self.durations(name)),
             sum(self.self_times(name)))
            for name in names
        ]
        rows.sort(key=lambda row: row[3], reverse=True)
        width = max([len("span")] + [len(row[0]) for row in rows])
        lines = [f"{'span':<{width}}  {'calls':>7}  {'total_s':>10}  {'self_s':>10}"]
        lines += [
            f"{name:<{width}}  {calls:>7}  {total:>10.4f}  {own:>10.4f}"
            for name, calls, total, own in rows
        ]
        return "\n".join(lines)

    def write_chrome_trace(self, path: Path) -> None:
        origin = min((span.start for span in self.spans), default=0.0)
        events = []
        for index, span in enumerate(self.spans):
            args: dict[str, Any] = {"span": index, "parent": span.parent}
            if span.request_id is not None:
                args["request_id"] = span.request_id
            events.append({
                "name": span.name,
                "cat": span.name.split(".", 1)[0],
                "ph": "X",
                "ts": (span.start - origin) * 1e6,
                "dur": span.seconds * 1e6,
                "pid": 1,
                "tid": 1,
                "args": args,
            })
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events,
                                    "displayTimeUnit": "ms"}))


def wrapper_cost(calls: int = 20_000) -> float:
    """Seconds one wrapped call adds over a direct call of the same function."""

    def noop() -> None:
        return None

    wrapped = Tracer().wrap(noop, "noop")
    started = time.perf_counter()
    for _ in range(calls):
        noop()
    direct = time.perf_counter() - started
    started = time.perf_counter()
    for _ in range(calls):
        wrapped()
    return (time.perf_counter() - started - direct) / calls


@contextmanager
def patched(tracer: Tracer, targets: list[tuple[Any, str, str]]) -> Iterator[None]:
    """Wrap ``owner.attr`` for each ``(owner, attr, span_name)``; restore after.

    Owners are classes or modules.  A classmethod is re-wrapped as a
    classmethod, so callers see the original binding.
    """
    saved: list[tuple[Any, str, Any]] = []
    try:
        for owner, attr, name in targets:
            raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            if isinstance(raw, classmethod):
                replacement: Any = classmethod(tracer.wrap(raw.__func__, name))
            else:
                replacement = tracer.wrap(raw, name)
            saved.append((owner, attr, raw))
            setattr(owner, attr, replacement)
        yield
    finally:
        for owner, attr, raw in reversed(saved):
            setattr(owner, attr, raw)
