"""Outside-in timing: wrap public functions at their call sites.

A `Recorder` keeps, per span name, the cumulative time and call count, plus
free-form counters.  With `spans=True` it also keeps every span in memory
(name, start, end, parent span, operation id) so self times can be derived:
a span's self time is its duration minus the time covered by its child
spans.  Nothing is written to disk.

Wrapping is done by replacing a module attribute (for example
`nbvplan.planner.evaluate_all`, the name `run_iteration` calls) for the
duration of a `with patched(...)` block and restoring it afterwards.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into Recorder.spans
    op: int | None      # operation id shared by the spans of one operation

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Cumulative clocks and counters; span records when `spans` is set."""

    def __init__(self, spans: bool):
        self.keep_spans = spans
        self.spans: list[Span] = []
        self.total: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.op: int | None = None
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        idx = None
        if self.keep_spans:
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append(Span(name, 0.0, 0.0, parent, self.op))
            self._stack.append(idx)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self.total[name] += t1 - t0
            self.calls[name] += 1
            if idx is not None:
                self.spans[idx].start = t0
                self.spans[idx].end = t1
                self._stack.pop()

    def count(self, key: str, n: float = 1) -> None:
        self.counts[key] += n

    def wrapper(self, name: str, observe=None):
        """Factory for `patched`: time each call under `name`.

        `observe(args, kwargs, result)` runs after the call, outside the
        span, to update counters or check the result.
        """

        def make(fn):
            def wrapped(*args, **kwargs):
                with self.span(name):
                    result = fn(*args, **kwargs)
                if observe is not None:
                    observe(args, kwargs, result)
                return result

            return wrapped

        return make

    def own_times(self) -> list[float]:
        """Self time of each span: its duration minus its child spans' durations."""
        own = [sp.duration for sp in self.spans]
        for sp in self.spans:
            if sp.parent is not None:
                own[sp.parent] -= sp.duration
        return own


@contextlib.contextmanager
def patched(targets):
    """Replace each (module, attribute, factory) target for the block."""
    saved = []
    try:
        for module, attr, make in targets:
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, make(original))
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
