"""In-memory spans around the library's public calls.

A span is ``[name, start, end, parent, item, counts]``: times come from
``time.perf_counter``, ``parent`` is the index of the enclosing span (or
None), ``item`` identifies the workload item that caused it, and ``counts``
holds the work counts recorded at that boundary.  Spans stay in memory while
the run goes and are written out once, when it ends.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext

FIELDS = ("name", "start", "end", "parent", "item", "counts")


class Tracer:
    """Records nested spans when enabled; a disabled tracer records nothing."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.item: int | None = None
        self.spans: list[list] = []
        self._open: list[int] = []

    def span(self, name: str):
        return self._span(name) if self.enabled else nullcontext()

    @contextmanager
    def _span(self, name: str):
        parent = self._open[-1] if self._open else None
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, self.item, {}])
        self._open.append(index)
        try:
            yield
        finally:
            self.spans[index][2] = time.perf_counter()
            self._open.pop()

    def count(self, **counts: int) -> None:
        """Add work counts to the innermost open span."""
        if self.enabled and self._open:
            totals = self.spans[self._open[-1]][5]
            for key, value in counts.items():
                totals[key] = totals.get(key, 0) + value

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump([dict(zip(FIELDS, s)) for s in self.spans], fh)
            fh.write("\n")


def self_times(spans: list[list]) -> list[float]:
    """Self time in seconds of each span (None while it is still open).

    Self time is the span's duration minus the part of its interval that its
    child spans cover, overlapping children counted once.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for _, start, end, parent, *_ in spans:
        if parent is not None and end is not None:
            children.setdefault(parent, []).append((start, end))
    out: list[float] = []
    for index, (_, start, end, *_) in enumerate(spans):
        if end is None:
            out.append(None)
            continue
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append(end - start - covered)
    return out
