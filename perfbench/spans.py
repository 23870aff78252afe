"""Span recording for the traced benchmark run.

The benchmark wraps public calls into each layer (``EventSink.record``,
``DetectionEngine.capture_phase``, ``SnapshotStore.write``, …) on the
*instances* the run builds, so the program's classes stay unmodified;
untraced runs span ``capture_phase`` alone, for the world-stop latency.  Every wrapped call becomes one span: ``(id, parent, name,
thread, start, end, cpu)``.  Spans stay in memory while the run
executes and are written out once it ends.

A run's wall time is attributed to layers by these rules:

* A span's *self time* is its duration minus the part of that interval
  covered by its child spans on the same thread.
* Spans on the main thread are charged by wall time: the sim kernel runs
  every workload process there, so the main thread's wall is the run.
* Off the main thread (the evaluation pool's dispatch thread), while the
  main thread runs, a span is charged its thread CPU time: under the
  interpreter lock that is the time it took the processor away from the
  main thread, while its waits on a worker process or the disk overlapped
  the workload.
* While the main thread blocks waiting for other threads (a ``blocking``
  span such as the pool's ``drain``), the other threads are the critical
  path: their spans are charged the wall self time they spent inside the
  blocking interval, and the blocking span keeps only what no span
  covered.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Iterable

__all__ = ["Tracer", "self_times"]

_MAIN = threading.main_thread().ident


class Tracer:
    """In-memory span recorder; :meth:`wrap` instruments one bound method."""

    def __init__(self) -> None:
        #: ``(id, parent, name, thread ident, start, end, cpu seconds)``;
        #: ``cpu`` is thread CPU time, recorded off the main thread only.
        self.spans: list[tuple] = []
        #: Return value of every call to methods wrapped with ``keep=True``.
        self.results: dict[str, list] = defaultdict(list)
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, owner, method: str, name: str, *, keep: bool = False) -> None:
        """Replace ``owner.method`` (an instance attribute) with a spanned call."""
        setattr(owner, method, self.spanned(getattr(owner, method), name, keep=keep))

    def spanned(self, inner: Callable, name: str, *, keep: bool = False) -> Callable:
        """``inner`` wrapped so that every call records one span."""
        spans, results, ids = self.spans, self.results, self._ids
        stack_of = self._stack
        clock, thread_clock = time.perf_counter, time.thread_time
        get_ident = threading.get_ident

        @functools.wraps(inner)
        def call(*args, **kwargs):
            stack = stack_of()
            span_id = next(ids)
            parent = stack[-1] if stack else 0
            thread = get_ident()
            off_main = thread != _MAIN
            cpu_start = thread_clock() if off_main else 0.0
            stack.append(span_id)
            start = clock()
            try:
                value = inner(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                cpu = thread_clock() - cpu_start if off_main else 0.0
                spans.append((span_id, parent, name, thread, start, end, cpu))
            if keep:
                results[name].append(value)
            return value

        return call

    def dump(self, path: Path) -> None:
        """Write the recorded spans as one JSON document."""
        path.parent.mkdir(parents=True, exist_ok=True)
        fields = ("id", "parent", "name", "thread", "start", "end", "cpu")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {"fields": fields, "spans": self.spans},
                handle,
                separators=(",", ":"),
            )


def self_times(spans: Iterable[tuple], *, blocking: str = "") -> tuple[dict, dict, dict]:
    """Per-name ``(wall self seconds, attributed seconds, call count)``.

    *Wall self* is the duration minus same-thread children.  *Attributed*
    is the part of the main thread's wall the name accounts for, by the
    module rules; ``blocking`` names the main-thread span that waits for
    the other threads.
    """
    spans = list(spans)
    blocked = [(s[4], s[5]) for s in spans if s[3] == _MAIN and s[2] == blocking]

    def blocked_time(start: float, end: float) -> float:
        return sum(max(0.0, min(end, b_end) - max(start, b_start)) for b_start, b_end in blocked)

    child_wall: dict[int, float] = defaultdict(float)
    child_cpu: dict[int, float] = defaultdict(float)
    inside: dict[int, float] = {}  # off-main span -> its wall inside blocking spans
    child_inside: dict[int, float] = defaultdict(float)
    for span_id, parent, __, thread, start, end, cpu in spans:
        if parent:
            child_wall[parent] += end - start
            child_cpu[parent] += cpu
        if thread != _MAIN:
            inside[span_id] = blocked_time(start, end)
            if parent:
                child_inside[parent] += inside[span_id]

    wall: dict[str, float] = defaultdict(float)
    attributed: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    covered = 0.0  # blocking wall charged to the spans that ran inside it
    for span_id, __, name, thread, start, end, cpu in spans:
        duration = end - start
        own_wall = duration - child_wall[span_id]
        wall[name] += own_wall
        calls[name] += 1
        if thread == _MAIN:
            attributed[name] += own_wall
            continue
        own_inside = inside[span_id] - child_inside[span_id]
        outside = 1.0 - inside[span_id] / duration if duration > 0 else 0.0
        attributed[name] += max(0.0, cpu - child_cpu[span_id]) * outside + own_inside
        covered += own_inside
    if blocking in attributed:
        attributed[blocking] = max(0.0, attributed[blocking] - covered)
    return dict(wall), dict(attributed), dict(calls)
