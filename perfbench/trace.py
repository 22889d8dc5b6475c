"""In-memory span and counter recorder for the traced benchmark run.

A span is (name, start, end, parent span, op id).  Span names are
``<layer>:<function>`` where the layer is the library module the benchmark
called into (``query.exec:segment_topk``) or ``op`` for the benchmark's own
root spans.  Nothing is written until ``write`` at exit.  With tracing off
``span`` is a no-op context manager and no spans are kept.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []
        self._op = 0

    def new_op(self) -> int:
        self._op += 1
        return self._op

    @contextmanager
    def span(self, name: str, op: int | None = None):
        if not self.enabled:
            yield
            return
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        if op is None and parent is not None:
            op = self.spans[parent]["op"]
        rec = {"id": sid, "name": name, "parent": parent, "op": op,
               "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, value: float = 1) -> None:
        if self.enabled:
            self.counters[name] = self.counters.get(name, 0) + value

    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, minus the time its direct children cover
        (children of one span never overlap: the client is single-threaded)."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        out: dict[str, float] = {}
        for s in self.spans:
            out[s["name"]] = out.get(s["name"], 0.0) + (s["end"] - s["start"]) - child[s["id"]]
        return out

    def layer_self_times(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for name, secs in self.self_times().items():
            layer = name.split(":", 1)[0]
            out[layer] = out.get(layer, 0.0) + secs
        return out

    def write(self, path: str, extra: dict) -> None:
        with open(path, "w") as f:
            json.dump({"spans": self.spans, "counters": self.counters,
                       "self_s": self.self_times(), **extra}, f)
