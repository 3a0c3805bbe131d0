"""Span recorder for the traced benchmark run.

The benchmark wraps every call it makes into a qrd module in
``Tracer.call``.  With tracing off that is a plain call; with tracing on
it records a span (name, start, end, parent span, operation id) in
memory.  Spans are written out once, when the run ends.
"""

from __future__ import annotations

import json
from collections import Counter
from time import perf_counter


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        # each span: [name, start, end, parent index or -1, operation id]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op = -1
        #: outcome counts at the layer boundaries (fallbacks, convergence)
        self.counts: Counter = Counter()

    def call(self, name: str, fn, *args, **kwargs):
        """Call fn; when tracing, record a span named '<module>.<function>'."""
        if not self.enabled:
            return fn(*args, **kwargs)
        idx = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx)

    def op(self, op_id: int, name: str):
        """Context manager around one operation: the root span of its calls."""
        return _OpSpan(self, op_id, name)

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self._op])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int) -> None:
        self._stack.pop()
        self.spans[idx][2] = perf_counter()

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def module_totals(self) -> dict[str, tuple[int, float]]:
        """(calls, busy seconds) per module, from span names '<module>.<fn>'."""
        totals: dict[str, list] = {}
        for span, own in zip(self.spans, self.self_times()):
            module = span[0].split(".", 1)[0]
            entry = totals.setdefault(module, [0, 0.0])
            entry[0] += 1
            entry[1] += own
        return {k: (v[0], v[1]) for k, v in totals.items()}

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps([name, start, end, parent, op]) + "\n")


class _OpSpan:
    def __init__(self, tracer: Tracer, op_id: int, name: str):
        self.tracer, self.op_id, self.name = tracer, op_id, name

    def __enter__(self):
        t = self.tracer
        if t.enabled:
            t._op = self.op_id
            self.idx = t._open("op." + self.name)
        return self

    def __exit__(self, *exc):
        t = self.tracer
        if t.enabled:
            t._close(self.idx)
            t._op = -1
        return False
