"""In-memory span recorder for the benchmark's traced runs.

A span is ``(name, start, end, thread, op, parent)``.  The benchmark
opens spans around its own calls into the library's public functions;
the library's own spans arrive through the ``metrics=`` parameter: a
:class:`repro.obs.MetricsRegistry` built with this tracer as its
``trace`` sink hands every closed span to :meth:`Tracer.emit`.

Parents are assigned after the run by time containment on the same
thread: a span's parent is the innermost span of its thread whose
interval encloses it.  A span without an ``op`` inherits its parent's.
A span's *self time* is its duration minus the durations of its direct
children (children of one thread never overlap).  Spans stay in memory
and are written as JSONL once, at the end of the run.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path

clock = time.perf_counter

#: containment slack: a library span's start is derived as end - dt
_EPS = 2e-6


@dataclass
class Span:
    name: str
    start: float
    end: float
    thread: int
    op: int | None = None
    parent: int | None = None  # index into Tracer.spans
    self_s: float = 0.0
    children: int = 0
    #: the library closed it (through the registry), not the benchmark
    library: bool = False
    #: traffic and flops the library charged inside the span, if any
    bytes: int | None = None
    flops: int | None = None
    meta: dict | None = None

    @property
    def dur(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans from the benchmark and from the library."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._lock = threading.Lock()

    def record(self, name: str, start: float, end: float,
               op: int | None = None, **extra) -> None:
        with self._lock:
            self.spans.append(
                Span(name, start, end, threading.get_ident(), op, **extra))

    @contextmanager
    def span(self, name: str, op: int | None = None):
        start = clock()
        try:
            yield
        finally:
            self.record(name, start, clock(), op)

    def emit(self, record: dict) -> None:
        """``MetricsRegistry`` trace sink: one closed library span."""
        end = clock()
        meta = {k: v for k, v in record.items()
                if k not in ("name", "dt", "phase", "bytes", "flops")}
        self.record(record["name"], end - float(record["dt"]), end,
                    bytes=record.get("bytes"), flops=record.get("flops"),
                    meta=meta or None, library=True)

    def finish(self) -> None:
        """Assign parents, ops, child counts and self times; call once,
        after the run.

        A root span recorded without an op (a server batch on the
        server's thread) becomes an op of its own, numbered after the
        benchmark's ops.
        """
        next_op = 1 + max((s.op for s in self.spans if s.op is not None),
                          default=0)
        by_thread: dict[int, list[int]] = {}
        for i, s in enumerate(self.spans):
            by_thread.setdefault(s.thread, []).append(i)
        for idx in by_thread.values():
            idx.sort(key=lambda i: (self.spans[i].start, -self.spans[i].end))
            stack: list[int] = []
            for i in idx:
                s = self.spans[i]
                while stack and self.spans[stack[-1]].end < s.end - _EPS:
                    stack.pop()
                s.parent = stack[-1] if stack else None
                if s.op is None:
                    if s.parent is not None:
                        s.op = self.spans[s.parent].op
                    else:
                        s.op, next_op = next_op, next_op + 1
                stack.append(i)
        for s in self.spans:
            s.self_s = s.dur
        for s in self.spans:
            if s.parent is not None:
                self.spans[s.parent].self_s -= s.dur
                self.spans[s.parent].children += 1

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                rec = asdict(s)
                rec["id"] = i
                fh.write(json.dumps(rec, separators=(",", ":")) + "\n")


class NullTracer(Tracer):
    """Tracing off: spans cost one no-op context manager."""

    @contextmanager
    def span(self, name: str, op: int | None = None):
        yield
