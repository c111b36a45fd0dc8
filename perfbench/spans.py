"""In-memory span recording and the self-time arithmetic of the traced run.

A span is ``(name, start, end, parent)``: ``parent`` is the index of the
enclosing span in the same list, or -1 for a root. A span's self time is
its duration minus the part of its interval that its children cover;
time inside a traced pass that no root span covers is unattributed.
"""

from __future__ import annotations

import functools
import json
from collections import Counter
from pathlib import Path
from time import perf_counter
from typing import Callable, Sequence

Span = Sequence  # [name: str, start: float, end: float, parent: int]


def covered(intervals: Sequence[tuple[float, float]]) -> float:
    """Length of the union of ``(start, end)`` intervals; empty ones count 0."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: Sequence[Span]) -> list[float]:
    """Per span: duration minus the union of its children, clipped to the span."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for index, (name, start, end, parent) in enumerate(spans):
        clipped = [
            (max(s, start), min(e, end)) for s, e in children.get(index, ()) if s < end and e > start
        ]
        out.append(end - start - covered(clipped))
    return out


def unattributed(spans: Sequence[Span], start: float, end: float) -> float:
    """Time in ``[start, end]`` that no root span covers."""
    roots = [
        (max(s, start), min(e, end)) for _, s, e, parent in spans if parent < 0 and s < end and e > start
    ]
    return (end - start) - covered(roots)


Work = Callable[[Counter, tuple, dict, object, float], None]


class Recorder:
    """Collects spans and work counters from wrapped callables.

    Spans nest by call order, so one recorder serves one thread; the
    benchmark runs every workload on a single thread.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def wrap(self, name: str, fn: Callable, work: Work | None = None, span: bool = True) -> Callable:
        """``fn`` recording a span named ``name`` (or only a call count when
        ``span`` is false); ``work`` adds counters from the call's arguments,
        result and duration."""
        spans, stack, counts = self.spans, self._stack, self.counts
        calls_key = name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[calls_key] += 1
            if not span:
                result = fn(*args, **kwargs)
                if work is not None:
                    work(counts, args, kwargs, result, 0.0)
                return result
            index = len(spans)
            record = [name, perf_counter(), 0.0, stack[-1] if stack else -1]
            spans.append(record)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()
            if work is not None:
                work(counts, args, kwargs, result, record[2] - record[1])
            return result

        return wrapper

    def write(self, path: str | Path) -> Path:
        """Dump spans (times relative to the first span) and counters as JSON."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.spans[0][1] if self.spans else 0.0
        payload = {
            "spans": [[n, s - origin, e - origin, p] for n, s, e, p in self.spans],
            "counts": dict(sorted(self.counts.items())),
        }
        path.write_text(json.dumps(payload, separators=(",", ":")) + "\n", encoding="utf-8")
        return path
