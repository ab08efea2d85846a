"""In-memory spans recorded around the benchmark's calls into csq.

A span is ``[name, start_ns, end_ns, parent, request]``: ``parent`` is the
index of the enclosing span (-1 at top level) and ``request`` groups every
span of one query or one gadget instance.  Span names are
``<layer>.<function>``; the layer is the csq module the call enters, or
``bench`` for the benchmark's own request spans.  Spans stay in memory and
are written out once, when the run ends.
"""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator

_ns = time.perf_counter_ns


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []
        self._requests = 0

    def new_request(self) -> int:
        """A fresh id for the spans of one query or one gadget instance."""
        self._requests += 1
        return self._requests

    def _parent(self) -> int:
        return self._open[-1] if self._open else -1

    @contextmanager
    def span(self, name: str, request: int = -1) -> Iterator[None]:
        """Record the enclosed block as one span that may hold children."""
        sid = len(self.spans)
        self.spans.append([name, _ns(), 0, self._parent(), request])
        self._open.append(sid)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[sid][2] = _ns()

    def record(self, name: str, start: int, end: int, request: int = -1) -> None:
        """Add a leaf span timed by the caller (used inside tight loops)."""
        self.spans.append([name, start, end, self._parent(), request])

    def durations_ns(self, name: str) -> list[int]:
        return [s[2] - s[1] for s in self.spans if s[0] == name]

    def total_s(self, name: str) -> float:
        return sum(self.durations_ns(name)) / 1e9

    def median_us(self, name: str) -> float:
        return statistics.median(self.durations_ns(name)) / 1e3

    def percentile_us(self, name: str, q: int) -> float:
        return percentile(self.durations_ns(name), q) / 1e3

    def self_time_by_layer(self) -> dict[str, float]:
        """Seconds each layer spent outside the spans nested in its own.

        Children of one span run one after another, so the part of the
        parent's interval they cover is the sum of their durations.
        """
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[str, float] = {}
        for (name, start, end, _, _), inner in zip(self.spans, child_ns):
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + (end - start - inner) / 1e9
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="ascii") as handle:
            handle.write("id,parent,request,name,start_ns,end_ns\n")
            for sid, (name, start, end, parent, request) in enumerate(self.spans):
                handle.write(f"{sid},{parent},{request},{name},{start},{end}\n")


def percentile(values: list[int] | list[float], q: int) -> float:
    """The q-th percentile (nearest rank) of a nonempty sample."""
    ordered = sorted(values)
    rank = max(1, -(-q * len(ordered) // 100))
    return ordered[rank - 1]
