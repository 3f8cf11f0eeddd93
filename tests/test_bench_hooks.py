"""The benchmark's hook contract: `perfbench/spans.py` wraps wfmini's layer
entry points from outside, and `perfbench/layers.py` turns the spans into
per-layer metrics. These tests run a small workflow under that tracing so a
change to the names or call shapes it patches fails here, not only in a
traced benchmark run. The benchmark's correctness checks must pass on the
run and on its re-read trace, whose records are derived from events."""
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.insert(0, str(PERFBENCH))

from wfmini import engine, exemplars, kernels, metrics, ops, tasks, trace  # noqa: E402
from wfmini.trace import ResourcePool  # noqa: E402

import checks  # noqa: E402
import layers  # noqa: E402
import spans  # noqa: E402

WORKFLOW = {
    "tasks": [
        {"name": "solo", "program": [
            {"kernel": "RNG", "params": {"data_size": 64}},
            {"kernel": "writeNonMPI", "params": {"data_size": 256}}]},
        {"name": "pair", "num_ranks": 2, "program": [
            {"kernel": "MPIallReduce", "params": {"data_size": 8}},
            {"kernel": "axpy", "params": {"data_size": 16}}]},
    ],
    "edges": [["solo", "pair"]],
}

OWNERS = (engine, exemplars, kernels, metrics, ops, tasks, trace, engine.WorkflowSpec,
          kernels.Communicator, trace.MetricsSink, trace.RunTrace)


def namespaces():
    return [dict(vars(owner)) for owner in OWNERS]


def traced_run(tmp_path):
    """A run as a benchmark sample makes it: execute, then write, re-read and
    summarize the trace."""
    spec = engine.load_workflow(WORKFLOW)
    rec = spans.Recorder()
    path = tmp_path / "trace.jsonl"
    with spans.tracing(rec):
        run = engine.execute(spec, ResourcePool(1, 2), seed=3)
        run.write_jsonl(path)
        back = trace.RunTrace.read_jsonl(path)
        metrics.summarize(back)
    return spec, run, rec, back


def test_spans_nest_execute_task_kernel(tmp_path):
    _, run, rec, _ = traced_run(tmp_path)
    by_id = {s.sid: s for s in rec.spans}
    named = {}
    for s in rec.spans:
        named.setdefault(s.name, []).append(s)
    (execute,) = named["engine.execute"]
    assert len(named["tasks.run_task"]) == 2
    kernel_events = [e for e in run.events if e["kind"] == "kernel"]
    assert len(named["kernels.execute"]) == len(kernel_events) == 6
    for k in named["kernels.execute"]:
        assert by_id[k.parent].name == "tasks.run_task"
    for t in named["tasks.run_task"]:
        assert t.parent == execute.sid


def test_trace_layer_spans_once_per_run(tmp_path):
    _, run, rec, back = traced_run(tmp_path)
    names = [s.name for s in rec.spans]
    for name in ("trace.write", "trace.read", "metrics.summarize"):
        assert names.count(name) == 1, name
    assert back.events == run.events


def test_sink_append_runs_once_per_event(tmp_path):
    # the benchmark counts trace.events as the spans of this one hook; the
    # hand-off of a task's events and the re-read append none
    _, run, rec, back = traced_run(tmp_path)
    appends = [s for s in rec.spans if s.name == "trace.append"]
    assert len(appends) == len(run.events) == len(back.events) == 16


def test_checks_pass_on_the_run_and_its_re_read_trace(tmp_path):
    spec, run, _, back = traced_run(tmp_path)
    assert back.records == run.records
    for t in (run, back):
        assert checks.check_trace(spec, t, kernels.DEFAULT_COPY_BANDWIDTH) == []


def test_layer_metrics_cover_every_per_layer_key(tmp_path):
    spec, run, rec, _ = traced_run(tmp_path)
    out = layers.span_metrics(rec.spans, rec.counts)
    out.update(layers.schedule_metrics(spec, run))
    # perfbench/run.py adds the other two from the written trace and the
    # untraced runs
    assert set(out) == set(layers.PER_LAYER) - {"trace.bytes", "bench.trace_overhead_s"}


def test_tracing_restores_patched_attributes(tmp_path):
    before = namespaces()
    traced_run(tmp_path)
    after = namespaces()
    for owner, old, new in zip(OWNERS, before, after):
        assert new.keys() == old.keys(), owner
        changed = [k for k in old if new[k] is not old[k]]
        assert changed == [], (owner, changed)
