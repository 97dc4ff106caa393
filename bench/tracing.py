"""In-memory spans around the benchmark's calls into the package's layers.

A span records its name, start, end, parent span and the instance it belongs
to. Spans are kept in a list and written out once the run ends. The layer of a
span is the part of its name before the first dot (`dynamics.integrate` ->
`dynamics`); spans named without a dot belong to the harness itself.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    instance: int
    start: float
    end: float = 0.0

    @property
    def layer(self) -> str:
        head, dot, _ = self.name.partition(".")
        return head if dot else "harness"


class Tracer:
    """Records nested spans; one tracer per run."""

    enabled = True

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, instance: int):
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), name, parent, instance, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span.id)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def self_times(self, elapsed) -> dict[int, dict[str, float]]:
        """Per instance and layer: the parts of each span that none of its
        child spans cover, each measured as `elapsed(start, end)`. Measuring
        the parts, not the span less its children, keeps self time from going
        negative when `elapsed` scales each interval by its own factor."""
        children: dict[int, list[Span]] = defaultdict(list)
        for s in self.spans:
            if s.parent is not None:
                children[s.parent].append(s)  # in start order: spans nest
        out: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for s in self.spans:
            t = s.start
            for child in children[s.id]:
                out[s.instance][s.layer] += elapsed(t, child.start)
                t = child.end
            out[s.instance][s.layer] += elapsed(t, s.end)
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump([asdict(s) for s in self.spans], handle)
            handle.write("\n")


class NullTracer:
    """Stands in for a Tracer in untraced runs; records nothing."""

    enabled = False

    def span(self, name: str, instance: int) -> nullcontext:
        return _NULL


_NULL = nullcontext()


def span_cost_s(n: int = 20000) -> float:
    """Measured cost of opening and closing one span, in seconds."""
    tracer = Tracer()
    start = time.perf_counter()
    for _ in range(n):
        with tracer.span("harness_calibration", 0):
            pass
    return (time.perf_counter() - start) / n
