"""Span recorder for the traced benchmark run.

`tracing(recorder)` wraps the public functions of each wfmini layer from the
outside (no program source changes) and records one span per call: name,
start, end, and the span that caused it. Spans stay in memory; the caller
reads `recorder.spans` when the sample ends.

A span's parent is the innermost open span on the same thread. Task threads
and rank-lane threads start with no open span, so their first span is
anchored explicitly: a `tasks.run_task` span to the `engine.execute` span
that launched it, a `kernels.execute` span to the `tasks.run_task` span of
its task.
"""
from __future__ import annotations

import itertools
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

OPS_FUNCTIONS = ("matmul", "fft", "axpy", "scatter_add", "reduction", "inplace_compute")


class Span:
    """`cpu` is the CPU time of the span's own thread while it was open;
    `local` is true when the parent is open on the same thread."""

    __slots__ = ("sid", "name", "parent", "start", "end", "attrs", "cpu", "local")

    def __init__(self, sid, name, parent, start, end=0.0, attrs=None, local=True):
        self.sid, self.name, self.parent = sid, name, parent
        self.start, self.end, self.attrs = start, end, attrs
        self.cpu, self.local = 0.0, local

    @property
    def duration(self):
        return self.end - self.start


class Recorder:
    """In-memory spans plus call counters for functions too hot to span."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.count_s = defaultdict(float)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._anchors = {}

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, args, kwargs, anchor=None, attrs=None, publish=None):
        """Run fn inside a span. `anchor` names the parent for a thread with
        no open span; `publish` makes this span the anchor for that key."""
        stack = self._stack()
        parent = stack[-1].sid if stack else self._anchors.get(anchor)
        span = Span(next(self._ids), name, parent, 0.0, attrs=attrs, local=bool(stack))
        if publish is not None:
            self._anchors[publish] = span.sid
        stack.append(span)
        cpu = time.thread_time()
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            span.cpu = time.thread_time() - cpu
            stack.pop()
            self.spans.append(span)
        return result, span

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs)[0]
        return traced

    def counted(self, name, fn):
        def counted(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.count_s[name] += time.perf_counter() - t0
                self.counts[name] += 1
        return counted


class _TimeWithTracedSleep:
    """Stand-in for the `time` module inside wfmini.kernels: `sleep` is the
    kernels' emulated dwell, everything else is the real module."""

    def __init__(self, sleep):
        self.sleep = sleep

    def __getattr__(self, attr):
        return getattr(time, attr)


@contextmanager
def tracing(rec: Recorder):
    """Patch wfmini's layer entry points to record into `rec`; undo on exit."""
    from wfmini import engine, exemplars, kernels, metrics, ops, tasks, trace

    def execute(*a, **kw):
        return rec.call("engine.execute", engine_execute, a, kw, publish="execute")[0]

    def run_task(spec, *a, **kw):
        return rec.call("tasks.run_task", engine_run_task, (spec,) + a, kw,
                        anchor="execute", publish=("task", spec.name))[0]

    def execute_kernel(call, *a, **kw):
        ctx = kw.get("ctx")
        anchor = ("task", ctx.task_name) if ctx is not None else None
        result, span = rec.call("kernels.execute", tasks_execute_kernel, (call,) + a, kw,
                                anchor=anchor, attrs={"kernel": call.kernel_name})
        span.attrs["wall_time"] = result.wall_time
        span.attrs["bytes"] = result.bytes_read + result.bytes_written
        return result

    def read_jsonl(cls, path):
        return rec.call("trace.read", trace_read, (cls, path), {})[0]

    engine_execute = engine.execute
    engine_run_task = engine.run_task
    tasks_execute_kernel = tasks.execute_kernel
    trace_read = vars(trace.RunTrace)["read_jsonl"].__func__

    patches = [
        (engine, "execute", execute),
        (engine, "run_task", run_task),
        (tasks, "execute_kernel", execute_kernel),
        (engine, "load_workflow", rec.wrap("engine.load", engine.load_workflow)),
        (exemplars, "build", rec.wrap("engine.load", exemplars.build)),
        (engine, "validate_dag", rec.wrap("engine.validate", engine.validate_dag)),
        (engine.WorkflowSpec, "task",
         rec.counted("engine.task_lookups", engine.WorkflowSpec.task)),
        (kernels, "seeded_buffer", rec.wrap("kernels.buffer", kernels.seeded_buffer)),
        (kernels, "time", _TimeWithTracedSleep(rec.wrap("kernels.sleep", time.sleep))),
        (kernels.Communicator, "barrier",
         rec.wrap("kernels.barrier", kernels.Communicator.barrier)),
        (trace.MetricsSink, "append", rec.wrap("trace.append", trace.MetricsSink.append)),
        (trace.RunTrace, "write_jsonl", rec.wrap("trace.write", trace.RunTrace.write_jsonl)),
        (trace.RunTrace, "read_jsonl", classmethod(read_jsonl)),
        (metrics, "summarize", rec.wrap("metrics.summarize", metrics.summarize)),
    ]
    patches += [(ops, fn, rec.wrap("ops." + fn, getattr(ops, fn))) for fn in OPS_FUNCTIONS]

    saved = [(owner, attr, vars(owner)[attr]) for owner, attr, _ in patches]
    try:
        for owner, attr, new in patches:
            setattr(owner, attr, new)
        yield rec
    finally:
        for owner, attr, old in reversed(saved):
            setattr(owner, attr, old)


# --------------------------------------------------------------------------
# interval arithmetic

def merge(intervals):
    """Union of (start, end) intervals as a sorted disjoint list."""
    out = []
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if out and start <= out[-1][1]:
            if end > out[-1][1]:
                out[-1][1] = end
        else:
            out.append([start, end])
    return [(s, e) for s, e in out]


def covered(intervals, lo=None, hi=None) -> float:
    """Length of the union of intervals, clipped to [lo, hi] when given."""
    if lo is not None:
        intervals = [(max(s, lo), min(e, hi)) for s, e in intervals]
    return sum(e - s for s, e in merge(intervals))


def subtract(lo, hi, holes):
    """Pieces of [lo, hi] not covered by any hole."""
    out, cursor = [], lo
    for s, e in merge(holes):
        if e <= cursor or s >= hi:
            continue
        if s > cursor:
            out.append((cursor, s))
        cursor = max(cursor, e)
    if cursor < hi:
        out.append((cursor, hi))
    return out


def children_of(spans) -> dict:
    """parent span id -> list of child spans."""
    out = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            out[s.parent].append(s)
    return out


def self_time(span, children) -> float:
    """Span duration minus the part of its interval the children cover.

    Children on other threads may overlap each other; their union counts
    once, and any part outside the parent's interval does not count."""
    return span.duration - covered([(c.start, c.end) for c in children],
                                   span.start, span.end)


def self_cpu(span, children) -> float:
    """Span CPU time minus that of its children on the same thread, which
    run one after another inside it."""
    return span.cpu - sum(c.cpu for c in children if c.local)
