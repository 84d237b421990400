"""Spans recorded around calls into the program, and the arithmetic on them.

A span is opened around each call of a wrapped entry point. Each thread keeps
its own span stack, so nesting is tracked per thread. A span opened on a
worker thread whose stack is empty is attributed to the innermost span open
on the caller thread, the one that started the pool.

A span's self time is its duration minus the part of its interval that its
children cover. Children on other threads may overlap one another; the union
of their intervals is what is subtracted.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
import tracemalloc
from collections import Counter, defaultdict
from contextlib import contextmanager


class Span:
    __slots__ = ("name", "thread", "start", "end", "parent")

    def __init__(self, name, thread, start=0.0, end=0.0, parent=None):
        self.name = name
        self.thread = thread
        self.start = start
        self.end = end
        self.parent = parent

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans and counts; create one per traced round."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.caller = threading.get_ident()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._caller_stack = self._stack()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, name, count=None):
        """``fn`` timed as span ``name``; ``count(args, kwargs, result)``
        returns a mapping of counts to add when the call returns."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            thread = threading.get_ident()
            if stack:
                parent = stack[-1]
            elif thread != self.caller and self._caller_stack:
                parent = self._caller_stack[-1]
            else:
                parent = None
            span = Span(name, thread, parent=parent)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                with self._lock:
                    self.spans.append(span)
            if count is not None:
                tally = count(args, kwargs, result)
                with self._lock:
                    self.counts.update(tally)
            return result

        return traced


class MemoryProbe:
    """Peak tracemalloc-traced bytes allocated inside each wrapped call.

    tracemalloc keeps one process-wide peak, so the probe is only meaningful
    when the wrapped calls run on a single thread. A nested call's peak is
    folded into its parent's before the peak counter is reset.
    """

    def __init__(self):
        self.peak_bytes = defaultdict(int)
        self._frames = []  # [current bytes at entry, highest peak seen so far]

    def wrap(self, fn, name, count=None):
        @functools.wraps(fn)
        def probed(*args, **kwargs):
            current, peak = tracemalloc.get_traced_memory()
            if self._frames:
                self._frames[-1][1] = max(self._frames[-1][1], peak)
            tracemalloc.reset_peak()
            frame = [current, current]
            self._frames.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                self._frames.pop()
                peak = max(frame[1], tracemalloc.get_traced_memory()[1])
                self.peak_bytes[name] = max(self.peak_bytes[name], peak - frame[0])
                if self._frames:
                    self._frames[-1][1] = max(self._frames[-1][1], peak)
                tracemalloc.reset_peak()

        return probed


@contextmanager
def patched(entry_points, wrap, counters=None):
    """Replace each (module, attribute) entry point by ``wrap(fn, span_name,
    count)`` for the duration of the block. Entry points that no longer
    exist are skipped, so their layer reports zero calls."""
    counters = counters or {}
    saved = []
    try:
        for module_name, attr, span_name in entry_points:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                continue
            fn = getattr(module, attr, None)
            if fn is None:
                continue
            saved.append((module, attr, fn))
            setattr(module, attr, wrap(fn, span_name, counters.get(span_name)))
        yield
    finally:
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)


def merged(intervals):
    """Sorted, disjoint [start, end) intervals covering the same points."""
    out = []
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if out and start <= out[-1][1]:
            out[-1][1] = max(out[-1][1], end)
        else:
            out.append([start, end])
    return out


def covered(intervals) -> float:
    return sum(end - start for start, end in merged(intervals))


def self_times(spans) -> dict:
    """Span -> its duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    out = {}
    for span in spans:
        kids = [
            (max(c.start, span.start), min(c.end, span.end)) for c in children.get(span, ())
        ]
        out[span] = span.duration - covered(kids)
    return out


def layer_table(spans) -> dict:
    """Span name -> {"self_s": total self time, "calls": number of spans}."""
    table = defaultdict(lambda: {"self_s": 0.0, "calls": 0})
    for span, own in self_times(spans).items():
        row = table[span.name]
        row["self_s"] += own
        row["calls"] += 1
    return dict(table)


def busy_by_thread(spans) -> dict:
    """Thread -> merged intervals during which one of ``spans`` was open."""
    per_thread = defaultdict(list)
    for span in spans:
        per_thread[span.thread].append((span.start, span.end))
    return {thread: merged(iv) for thread, iv in per_thread.items()}


def concurrency_excess(spans, caller) -> float:
    """Time during which more than one non-caller thread had a span open,
    counted once per thread beyond the first.

    Summed self times exceed the caller's wall time by exactly this amount
    when worker threads run children of a caller span side by side.
    """
    roots = [
        s for s in spans
        if s.thread != caller and (s.parent is None or s.parent.thread != s.thread)
    ]
    events = []
    for intervals in busy_by_thread(roots).values():
        for start, end in intervals:
            events.append((start, 1))
            events.append((end, -1))
    events.sort()
    excess, active, previous = 0.0, 0, None
    for t, step in events:
        if active > 1:
            excess += (active - 1) * (t - previous)
        active += step
        previous = t
    return excess


def accounted_time(spans, caller) -> float:
    """Summed self times, less the concurrency excess of worker threads.

    Equals the time the caller thread spent inside root spans; compare it
    with the wall time of the round to see how much the spans leave out.
    """
    return sum(self_times(spans).values()) - concurrency_excess(spans, caller)
