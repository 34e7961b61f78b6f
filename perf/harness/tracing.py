"""In-memory span recorder for the traced run.

Spans are recorded from the harness, around the calls it makes into
each module's public functions; nothing inside ``src/`` is
instrumented.  They stay in memory and are written out when the run
ends.  A span's self time is its duration minus its children's.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List


class Tracer:
    def __init__(self) -> None:
        self.spans: List[dict] = []
        self._stack: List[int] = []
        self._workload = ""
        self._op = -1

    @contextmanager
    def op(self, workload: str, op_id: int) -> Iterator[dict]:
        """The root span of one op; every span opened inside is its
        descendant and shares its ``op`` id."""
        self._workload, self._op = workload, op_id
        with self.span("op") as rec:
            yield rec

    @contextmanager
    def span(self, name: str, **attrs) -> Iterator[dict]:
        """Record one span; *attrs* (``bytes_in``/``bytes_out`` where
        known) may also be set on the yielded record before it closes."""
        rec = {"id": len(self.spans),
               "parent": self._stack[-1] if self._stack else None,
               "name": name, "workload": self._workload, "op": self._op,
               "t0": time.perf_counter(), "t1": None}
        rec.update(attrs)
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["t1"] = time.perf_counter()
            self._stack.pop()

    def finish(self) -> List[dict]:
        """Close the books: add ``dur_ms`` and ``self_ms`` to each span."""
        child_ms: Dict[int, float] = {}
        for s in self.spans:
            s["dur_ms"] = (s["t1"] - s["t0"]) * 1e3
            if s["parent"] is not None:
                child_ms[s["parent"]] = (child_ms.get(s["parent"], 0.0)
                                         + s["dur_ms"])
        for s in self.spans:
            s["self_ms"] = s["dur_ms"] - child_ms.get(s["id"], 0.0)
        return self.spans

    def write(self, path: str, workload: str) -> None:
        """One JSON object per line: the spans of *workload*."""
        with open(path, "w") as f:
            for s in self.finish():
                if s["workload"] == workload:
                    f.write(json.dumps(s) + "\n")

    def self_time_by_name(self, workload: str) -> Dict[str, float]:
        """Mean self time per op (ms) of each span name of *workload*."""
        spans = [s for s in self.finish() if s["workload"] == workload]
        n_ops = len({s["op"] for s in spans}) or 1
        out: Dict[str, float] = {}
        for s in spans:
            out[s["name"]] = out.get(s["name"], 0.0) + s["self_ms"] / n_ops
        return out


class _NullTracer:
    """What untraced ops get: the same surface, nothing recorded."""

    _sink: dict = {}

    @contextmanager
    def _nothing(self) -> Iterator[dict]:
        yield self._sink

    def op(self, workload: str, op_id: int):
        return self._nothing()

    def span(self, name: str, **attrs):
        return self._nothing()


NULL = _NullTracer()
