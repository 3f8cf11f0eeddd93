"""Metric derivation: summaries from synthetic traces, published-ratio
arithmetic, variation statistics against a two-pass oracle, and trace
serialization."""
import json
import math
import statistics
import tracemalloc

import pytest

from wfmini.errors import (
    EmptyTrace,
    InsufficientSamples,
    LengthMismatch,
    ZeroDenominator,
)
from wfmini.metrics import (
    MetricsSummary,
    compute_ratios,
    io_timeline,
    reproducibility_stats,
    summarize,
    utilization_timeline,
)
from wfmini.engine import execute, load_workflow
from wfmini.trace import READ_BATCH, SCHEMA, ResourcePool, RunTrace, TaskRecord


def make_trace(records, events=None, pool=None):
    return RunTrace(run_id="test", pool=pool or ResourcePool(1, 2),
                    events=events or [], records=records)


def record(name, start, end, read=0, write=0, category="work"):
    return TaskRecord(task_name=name, start=start, end=end, ranks=1,
                      slots_used=[], bytes_read=read, bytes_written=write,
                      category=category)


def slot_events(slot, task, start, end):
    return [{"kind": "slot_busy", "slot": slot, "task": task, "t": start},
            {"kind": "slot_idle", "slot": slot, "task": task, "t": end}]


def summary(makespan, read, write, cpu=0.0, gpu=0.0, per_task=None):
    return MetricsSummary(makespan=makespan, cpu_util_pct=cpu, gpu_util_pct=gpu,
                          read_bytes=read, write_bytes=write,
                          per_task=per_task or {})


def test_summarize_basic():
    trace = make_trace(
        records=[record("a", 0.0, 4.0, read=100, write=10),
                 record("b", 4.0, 10.0, read=50, write=20)],
        events=slot_events(["cpu", 0, 0], "a", 0.0, 4.0)
        + slot_events(["cpu", 0, 0], "b", 4.0, 10.0))
    s = summarize(trace)
    assert s.makespan == 10.0
    assert s.read_bytes == 150 and s.write_bytes == 30
    # one of two cpu slots busy the whole time
    assert s.cpu_util_pct == pytest.approx(50.0)
    assert s.per_task["a"]["makespan"] == 4.0


def test_summarize_gpu_utilization():
    pool = ResourcePool(1, 1, gpus_per_node=2)
    trace = make_trace(
        records=[record("g", 0.0, 2.0)],
        events=slot_events(["gpu", 0, 0], "g", 0.0, 1.0),
        pool=pool)
    s = summarize(trace)
    # one of two gpu slots busy half the makespan
    assert s.gpu_util_pct == pytest.approx(25.0)


def test_summarize_empty_trace():
    with pytest.raises(EmptyTrace):
        summarize(make_trace([]))
    with pytest.raises(EmptyTrace):
        utilization_timeline(make_trace([]))
    with pytest.raises(EmptyTrace):
        io_timeline(make_trace([]))


def test_timelines():
    trace = make_trace(
        records=[record("a", 0.0, 1.0, read=5), record("b", 1.0, 2.0, write=7)],
        events=slot_events(["cpu", 0, 0], "a", 0.0, 1.0))
    util = utilization_timeline(trace)
    assert util == {"cpu-0-0": [(0.0, 1.0, "a")]}
    segs = io_timeline(trace)
    assert [s["task"] for s in segs] == ["a", "b"]
    assert segs[0]["read_bytes"] == 5 and segs[1]["write_bytes"] == 7


def test_published_ratio_arithmetic():
    # makespans from the serial CPU inverse-problem measurements: workflow
    # 1840.3 s vs mini-app 428.3 s, and 560.5 s vs 128.2 s
    originals = [summary(1840.3, 1000, 500), summary(560.5, 1000, 500)]
    minis = [summary(428.3, 230, 115), summary(128.2, 230, 115)]
    report = compute_ratios(originals, minis)
    assert report.per_config[0]["r_time"] == pytest.approx(0.23274, abs=1e-4)
    assert report.per_config[1]["r_time"] == pytest.approx(0.22872, abs=1e-4)
    assert report.constant["r_time"] is True   # 0.2327/0.2287 < 1.15
    assert report.constant["r_read"] is True
    assert report.r_read == pytest.approx(0.23)


def test_self_ratio_is_one():
    s = summary(10.0, 100, 50)
    report = compute_ratios([s], [s])
    assert report.r_time == report.r_read == report.r_write == 1.0
    assert all(report.constant.values())


def test_ratio_constancy_flag():
    originals = [summary(10.0, 100, 100), summary(10.0, 100, 100)]
    minis = [summary(2.0, 25, 25), summary(4.0, 25, 25)]  # 0.2 vs 0.4 spread 2x
    report = compute_ratios(originals, minis, tolerance=1.15)
    assert report.constant["r_time"] is False
    assert report.constant["r_read"] is True


def test_ratio_errors():
    s = summary(10.0, 100, 50)
    with pytest.raises(LengthMismatch):
        compute_ratios([s], [s, s])
    with pytest.raises(LengthMismatch):
        compute_ratios([], [])
    with pytest.raises(ZeroDenominator):
        compute_ratios([summary(0.0, 1, 1)], [s])


def test_variation_stats_match_two_pass_oracle():
    makespans = [10.0, 11.0, 9.5, 10.5, 10.0]
    sums = [summary(m, 100, 50, per_task={"stage": {"makespan": m / 2}})
            for m in makespans]
    report = reproducibility_stats(sums)
    m = report.per_metric["makespan"]
    assert m["mean"] == pytest.approx(statistics.fmean(makespans))
    assert m["std"] == pytest.approx(statistics.pstdev(makespans))
    assert m["coefficient_of_variation"] == pytest.approx(
        statistics.pstdev(makespans) / statistics.fmean(makespans))
    assert report.per_stage["stage"]["mean"] == pytest.approx(
        statistics.fmean(makespans) / 2)
    assert report.per_metric["read_bytes"]["std"] == 0.0


def test_variation_needs_samples():
    with pytest.raises(InsufficientSamples):
        reproducibility_stats([summary(1.0, 1, 1)])


def test_trace_jsonl_round_trip(tmp_path):
    trace = make_trace(
        records=[record("a", 0.0, 1.0, read=5, write=3)],
        events=[{"kind": "task_start", "task": "a", "t": 0.0}]
        + slot_events(["cpu", 0, 0], "a", 0.0, 1.0))
    path = tmp_path / "trace.jsonl"
    trace.write_jsonl(path)
    back = RunTrace.read_jsonl(path)
    assert back.run_id == "test"
    assert back.pool.to_dict() == trace.pool.to_dict()
    assert len(back.events) == 3
    assert back.records[0].bytes_read == 5
    assert back.task_record("a").task_name == "a"
    with pytest.raises(KeyError):
        back.task_record("ghost")


def kernel_events(n):
    return [{"kind": "kernel", "task": f"sim_{i % 7}", "rank": i % 2,
             "kernel": ("RNG", "axpy", "dataCopyH2D")[i % 3], "t_start": i * 1.2345e-3,
             "t_end": i * 1.2345e-3 + 7.7e-4, "wall_time": 7.654321e-4,
             "bytes_read": 4096 * (i % 5), "bytes_written": 0, "bytes_communicated": 0,
             "checksum": 12345.678901 + i} for i in range(n)]


def test_trace_jsonl_round_trip_of_a_run(tmp_path):
    spec = load_workflow({"tasks": [
        {"name": "a", "program": [{"kernel": "RNG", "params": {"data_size": 64}},
                                  {"kernel": "writeNonMPI", "params": {"data_size": 256}}]},
        {"name": "b", "num_ranks": 2, "program": [
            {"kernel": "MPIallReduce", "params": {"data_size": 8}}]}],
        "edges": [["a", "b"]]})
    run = execute(spec, ResourcePool(1, 2), seed=5)
    path = tmp_path / "trace.jsonl"
    run.write_jsonl(path)
    back = RunTrace.read_jsonl(path)
    assert back.events == run.events
    assert back.records == run.records
    # one batch: every event's key strings and repeated values are shared
    keys = {}
    for e in back.events:
        for k in e:
            assert keys.setdefault(k, k) is k
    values = {}
    for e in back.events:
        for k in ("kind", "task", "kernel"):
            if k in e:
                assert values.setdefault(e[k], e[k]) is e[k]


def test_read_jsonl_batches_blank_lines_and_malformed_input(tmp_path):
    events = kernel_events(2 * READ_BATCH + 3)
    trace = make_trace(records=[record("sim_0", 0.0, 1.0, read=5)], events=events)
    path = tmp_path / "trace.jsonl"
    trace.write_jsonl(path)
    lines = path.read_text().splitlines(keepends=True)
    spaced = tmp_path / "spaced.jsonl"
    spaced.write_text("\n" + "".join(line + "  \t\n" for line in lines) + "\n")
    for p in (path, spaced):
        back = RunTrace.read_jsonl(p)
        assert back.events == events
        assert back.records == trace.records
        # a key object per batch, not per event
        assert len({id(k) for e in back.events for k in e}) <= 3 * len(events[0])

    headless = tmp_path / "headless.jsonl"
    headless.write_text("".join(lines[1:]))
    with pytest.raises(ValueError, match="missing run header"):
        RunTrace.read_jsonl(headless)
    joined = tmp_path / "joined.jsonl"
    joined.write_text("".join(lines[:3]) + lines[3].rstrip("\n") + "," + "".join(lines[4:]))
    with pytest.raises(ValueError):
        RunTrace.read_jsonl(joined)


def test_trace_schema_versions(tmp_path):
    trace = make_trace(records=[], events=kernel_events(2))
    path = tmp_path / "trace.jsonl"
    trace.write_jsonl(path)
    header, *rest = path.read_text().splitlines(keepends=True)
    assert json.loads(header)["schema"] == SCHEMA == 1
    for schema, readable in ((None, True), (1, True), (2, False), ("1", False)):
        doc = json.loads(header)
        if schema is None:
            del doc["schema"]  # schema 0: the same layout without the field
        else:
            doc["schema"] = schema
        path.write_text(json.dumps(doc) + "\n" + "".join(rest))
        if readable:
            assert RunTrace.read_jsonl(path).events == trace.events
        else:
            with pytest.raises(ValueError, match="unknown trace schema"):
                RunTrace.read_jsonl(path)


def test_read_jsonl_memory_per_event(tmp_path):
    n = 2000
    path = tmp_path / "trace.jsonl"
    make_trace(records=[], events=kernel_events(n)).write_jsonl(path)
    tracemalloc.start()
    try:
        back = RunTrace.read_jsonl(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(back.events) == n
    # a line-at-a-time decode peaks near 1400 B per event: private copies of
    # the 11 keys and of the repeated names
    assert peak / n < 800


def test_summary_round_trip():
    s = summary(3.0, 10, 20, cpu=50.0, per_task={"a": {"makespan": 3.0}})
    assert MetricsSummary.from_dict(s.to_dict()) == s
