"""Metric derivation: summaries from synthetic traces, published-ratio
arithmetic, variation statistics against a two-pass oracle, and trace
serialization."""
import copy
import gc
import json
import math
import re
import statistics
import sys
import threading
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
from wfmini.kernels import KernelResult, catalog_names, register_kernel
from wfmini.trace import (
    READ_BATCH,
    SCHEMA,
    KernelEvent,
    MetricsSink,
    ResourcePool,
    RunTrace,
    TaskRecord,
)


def slot_events(slot, task, start, end):
    return [{"kind": "slot_busy", "slot": slot, "task": task, "t": start},
            {"kind": "slot_idle", "slot": slot, "task": task, "t": end}]


def task_start(task, t, category="work"):
    return {"kind": "task_start", "task": task, "t": t, "ranks": 1, "category": category}


def task_end(task, t, status="ok"):
    return {"kind": "task_end", "task": task, "t": t, "status": status}


def task_events(task, start, end, read=0, write=0):
    """The start, one kernel and the end of a task moving these bytes."""
    kernel = {"kind": "kernel", "task": task, "rank": 0, "kernel": "readNonMPI",
              "t_start": start, "t_end": end, "wall_time": end - start, "bytes_read": read,
              "bytes_written": write, "bytes_communicated": 0, "checksum": 0.0}
    return [task_start(task, start), kernel, task_end(task, end)]


def traced(events, names, pool=None):
    """A trace of these events with records for these task names, derived
    from the events as a run's are."""
    return RunTrace(run_id="test", pool=pool or ResourcePool(1, 2), events=events,
                    tasks=names)


def summary(makespan, read, write, cpu=0.0, gpu=0.0, per_task=None):
    return MetricsSummary(makespan=makespan, cpu_util_pct=cpu, gpu_util_pct=gpu,
                          read_bytes=read, write_bytes=write,
                          per_task=per_task or {})


def test_summarize_basic():
    trace = traced(
        task_events("a", 0.0, 4.0, read=100, write=10)
        + task_events("b", 4.0, 10.0, read=50, write=20)
        + slot_events(["cpu", 0, 0], "a", 0.0, 4.0)
        + slot_events(["cpu", 0, 0], "b", 4.0, 10.0), ["a", "b"])
    s = summarize(trace)
    assert s.makespan == 10.0
    assert s.read_bytes == 150 and s.write_bytes == 30
    # one of two cpu slots busy the whole time
    assert s.cpu_util_pct == pytest.approx(50.0)
    assert s.per_task["a"]["makespan"] == 4.0


def test_summarize_gpu_utilization():
    pool = ResourcePool(1, 1, gpus_per_node=2)
    trace = traced(task_events("g", 0.0, 2.0) + slot_events(["gpu", 0, 0], "g", 0.0, 1.0),
                   ["g"], pool=pool)
    s = summarize(trace)
    # one of two gpu slots busy half the makespan
    assert s.gpu_util_pct == pytest.approx(25.0)


def test_summarize_empty_trace():
    with pytest.raises(EmptyTrace):
        summarize(traced([], []))
    with pytest.raises(EmptyTrace):
        utilization_timeline(traced([], []))
    with pytest.raises(EmptyTrace):
        io_timeline(traced([], []))


def test_timelines():
    trace = traced(task_events("a", 0.0, 1.0, read=5) + task_events("b", 1.0, 2.0, write=7)
                   + slot_events(["cpu", 0, 0], "a", 0.0, 1.0), ["a", "b"])
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
    kernel = {"kind": "kernel", "task": "a", "rank": 0, "kernel": "readNonMPI",
              "t_start": 0.1, "t_end": 0.9, "wall_time": 0.8, "bytes_read": 5,
              "bytes_written": 3, "bytes_communicated": 0, "checksum": 0.0}
    trace = traced([task_start("a", 0.0), kernel, task_end("a", 1.0)]
                   + slot_events(["cpu", 0, 0], "a", 0.0, 1.0), ["a"])
    path = tmp_path / "trace.jsonl"
    trace.write_jsonl(path)
    back = RunTrace.read_jsonl(path)
    assert back.run_id == "test"
    assert back.pool.to_dict() == trace.pool.to_dict()
    assert len(back.events) == 5
    assert back.records == trace.records == [TaskRecord(
        task_name="a", start=0.0, end=1.0, ranks=1, slots_used=[["cpu", 0, 0]],
        bytes_read=5, bytes_written=3, status="ok", category="work")]
    assert back.task_record("a").task_name == "a"
    with pytest.raises(KeyError):
        back.task_record("ghost")


def kernel_events(n):
    return [{"kind": "kernel", "task": f"sim_{i % 7}", "rank": i % 2,
             "kernel": ("RNG", "axpy", "dataCopyH2D")[i % 3], "t_start": i * 1.2345e-3,
             "t_end": i * 1.2345e-3 + 7.7e-4, "wall_time": 7.654321e-4,
             "bytes_read": 4096 * (i % 5), "bytes_written": 0, "bytes_communicated": 0,
             "checksum": 12345.678901 + i} for i in range(n)]


def framed_kernel_trace(n):
    """n kernel events between the start and end events of the tasks they
    belong to (7 from n = 7 on), with the records derived from them."""
    kernels = kernel_events(n)
    names = list(dict.fromkeys(e["task"] for e in kernels))
    end = kernels[-1]["t_end"]
    events = ([task_start(name, 0.0) for name in names] + kernels
              + [task_end(name, end) for name in names])
    return traced(events, names)


def test_trace_jsonl_round_trip_of_a_run(tmp_path):
    # "b" is declared first but runs after "a": records and the header's task
    # list keep declaration order, which completion order does not give
    spec = load_workflow({"tasks": [
        {"name": "b", "num_ranks": 2, "program": [
            {"kernel": "MPIallReduce", "params": {"data_size": 8}}]},
        {"name": "a", "program": [{"kernel": "RNG", "params": {"data_size": 64}},
                                  {"kernel": "writeNonMPI", "params": {"data_size": 256}}]}],
        "edges": [["a", "b"]]})
    run = execute(spec, ResourcePool(1, 2), seed=5)
    assert [e["task"] for e in run.events if e["kind"] == "task_end"] == ["a", "b"]
    assert [r.task_name for r in run.records] == ["b", "a"]
    assert [r.slots_used for r in run.records] == [[["cpu", 0, 0], ["cpu", 0, 1]],
                                                   [["cpu", 0, 0]]]
    assert run.task_record("a").bytes_written == 256
    path = tmp_path / "trace.jsonl"
    run.write_jsonl(path)
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert lines[0]["schema"] == SCHEMA and lines[0]["tasks"] == ["b", "a"]
    assert all(line["kind"] != "record" for line in lines)
    back = RunTrace.read_jsonl(path)
    assert back.events == run.events
    assert back.records == run.records
    again = tmp_path / "again.jsonl"
    back.write_jsonl(again)
    assert again.read_bytes() == path.read_bytes()
    # kernel events re-read as slotted rows, and repeated values are shared
    kernel_lines = [e for e in back.events if e["kind"] == "kernel"]
    assert kernel_lines and all(type(e) is KernelEvent for e in kernel_lines)
    values = {}
    for e in back.events:
        for k in ("kind", "task", "kernel"):
            if k in e:
                assert values.setdefault(e[k], e[k]) is e[k]


def test_a_nan_checksum_survives_the_round_trip(tmp_path):
    name = "returnsNaN"
    if name not in catalog_names():
        register_kernel(name, lambda ctx, params: KernelResult(checksum=float("nan")))
    spec = load_workflow({"tasks": [{"name": "a", "program": [{"kernel": name}]}]})
    run = execute(spec, ResourcePool(1, 1), seed=0)
    path = tmp_path / "trace.jsonl"
    run.write_jsonl(path)
    back = RunTrace.read_jsonl(path)
    (ev,) = (e for e in back.events if e["kind"] == "kernel")
    assert math.isnan(ev["checksum"])
    assert run.events == run.events and back.events == run.events
    assert back.events != MetricsSink(dict(e, checksum=0.0) if e["kind"] == "kernel" else e
                                      for e in run.events)


def test_read_jsonl_batches_blank_lines_and_malformed_input(tmp_path):
    trace = framed_kernel_trace(2 * READ_BATCH + 3)
    events = trace.events
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
        keys = {k for e in events for k in e}
        assert len({id(k) for e in back.events for k in e}) <= 3 * len(keys)

    headless = tmp_path / "headless.jsonl"
    headless.write_text("".join(lines[1:]))
    with pytest.raises(ValueError, match="missing run header"):
        RunTrace.read_jsonl(headless)
    joined = tmp_path / "joined.jsonl"
    joined.write_text("".join(lines[:3]) + lines[3].rstrip("\n") + "," + "".join(lines[4:]))
    with pytest.raises(ValueError):
        RunTrace.read_jsonl(joined)


def test_trace_schema_versions(tmp_path):
    trace = framed_kernel_trace(2)
    path = tmp_path / "trace.jsonl"
    trace.write_jsonl(path)
    header, *rest = path.read_text().splitlines(keepends=True)
    assert json.loads(header)["schema"] == SCHEMA == 2
    # schema 2 is the one layout read; a header without the field is schema 0
    for schema in (None, 1, 3, "1", True):
        doc = json.loads(header)
        if schema is None:
            del doc["schema"]
        else:
            doc["schema"] = schema
        path.write_text(json.dumps(doc) + "\n" + "".join(rest))
        found = 0 if schema is None else schema
        with pytest.raises(ValueError, match=re.escape(f"{path}: trace schema {found!r} "
                                                       "is not read")):
            RunTrace.read_jsonl(path)


def test_a_record_line_in_a_schema_2_file_is_an_event(tmp_path):
    trace = framed_kernel_trace(2)
    record = {"kind": "record", "task_name": "r0", "ranks": 9}
    path = tmp_path / "trace.jsonl"
    traced(list(trace.events) + [record], trace.tasks).write_jsonl(path)
    back = RunTrace.read_jsonl(path)
    assert list(back.events)[-1] == record
    assert back.records == trace.records


def test_read_jsonl_rejects_schema_2_without_task_facts(tmp_path):
    events = [task_start("a", 0.0), task_end("a", 1.0),
              task_start("other", 0.0), task_end("other", 1.0)]
    path = tmp_path / "trace.jsonl"
    traced(events, ["a"]).write_jsonl(path)
    header, *rest = path.read_text().splitlines(keepends=True)
    back = RunTrace.read_jsonl(path)
    # events of an unlisted task stay events and make no record
    assert back.events == events
    assert [r.task_name for r in back.records] == ["a"]

    def rejected(doc, lines, match):
        path.write_text(json.dumps(doc) + "\n" + "".join(lines))
        with pytest.raises(ValueError, match=re.escape(str(path)) + ".*" + match):
            RunTrace.read_jsonl(path)

    doc = json.loads(header)
    del doc["tasks"]
    rejected(doc, rest, "no 'tasks' list")
    rejected(dict(doc, tasks="a"), rest, "no 'tasks' list")
    second = json.dumps(dict(json.loads(header), run_id="later")) + "\n"
    rejected(json.loads(header), rest[:1] + [second] + rest[1:],
             "a second run header line, of run 'later'")
    rejected(dict(doc, tasks=["a", "ghost"]), rest, "'ghost' has no task_start")
    rejected(dict(doc, tasks=["a"]), rest[:1] + rest[2:], "'a' has no task_end")
    start = dict(events[0])
    del start["ranks"]
    rejected(dict(doc, tasks=["a"]), [json.dumps(start) + "\n"] + rest[1:],
             "lacks 'ranks'")
    rejected(dict(doc, tasks=["a"]), [json.dumps(dict(events[0], task=["a"])) + "\n"]
             + rest[1:], r"'task' is \['a'\]")
    # a kernel line holds exactly the eleven kernel keys
    kernel = kernel_events(1)[0]
    kernel["task"] = "a"
    del kernel["checksum"]
    rejected(dict(doc, tasks=["a"]), [json.dumps(kernel) + "\n"] + rest,
             "kernel event lacks 'checksum'")
    kernel.update(checksum=1.0, colour="red")
    rejected(dict(doc, tasks=["a"]), [json.dumps(kernel) + "\n"] + rest,
             "kernel event has unknown field 'colour'")


def test_read_jsonl_memory_per_event(tmp_path):
    n = 2000
    path = tmp_path / "trace.jsonl"
    framed_kernel_trace(n).write_jsonl(path)
    tracemalloc.start()
    try:
        back = RunTrace.read_jsonl(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(back.events) == n + 14
    assert len(back.records) == 7
    # a line-at-a-time decode peaks near 1400 B per event: private copies of
    # the 11 keys and of the repeated names
    assert peak / n < 800


def looped_run(count):
    """A function running a two-task workflow of 6 * count + 1 kernel events."""
    spec = load_workflow({"tasks": [
        {"name": "a", "num_ranks": 2, "program": [{"loop": True, "count": count, "body": [
            {"kernel": "reduction", "params": {"data_size": 8}},
            {"kernel": "axpy", "params": {"data_size": 8}},
            {"kernel": "MPIallReduce", "params": {"data_size": 8}}]}]},
        {"name": "b", "program": [{"kernel": "RNG", "params": {"data_size": 64}}]}],
        "edges": [["a", "b"]]})
    return lambda: execute(spec, ResourcePool(1, 2), seed=5)


def test_re_read_kernel_events_are_small_read_only_rows(tmp_path):
    run = looped_run(100)()
    path = tmp_path / "trace.jsonl"
    run.write_jsonl(path)
    tracemalloc.start()
    try:
        back = RunTrace.read_jsonl(path)
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(back.events) == 601 + 10
    # a dict per kernel event retains about 565 B: its 11-key table and values
    assert retained / len(back.events) < 300

    lines = path.read_text().splitlines()[1:]
    for ev, line in zip(back.events, lines):
        if ev["kind"] != "kernel":
            continue
        assert ev == dict(ev)
        # the line layout trace files have always had: these keys in this order
        as_dict = {
            "kind": "kernel", "task": ev["task"], "rank": ev["rank"],
            "kernel": ev["kernel"], "t_start": ev["t_start"], "t_end": ev["t_end"],
            "wall_time": ev["wall_time"], "bytes_read": ev["bytes_read"],
            "bytes_written": ev["bytes_written"],
            "bytes_communicated": ev["bytes_communicated"],
            "checksum": ev["checksum"],
        }
        assert json.dumps(dict(ev)) == json.dumps(as_dict) == line
    ev = next(e for e in back.events if e["task"] == "b" and e["kind"] == "kernel")
    assert ev["kernel"] == "RNG" and len(ev) == 11
    with pytest.raises(TypeError):
        ev["x"] = 1
    with pytest.raises(KeyError):
        ev["nope"]
    assert ev.get("nope") is None and "nope" not in ev and "checksum" in ev


def live_kernel_events():
    return sum(type(o) is KernelEvent for o in gc.get_objects())


def test_a_run_log_holds_no_object_per_kernel_event():
    run_once = looped_run(200)
    run_once()
    before = live_kernel_events()
    run = run_once()
    kernels = 3 * 200 * 2 + 1
    assert len(run.events) == kernels + 10
    assert live_kernel_events() == before
    ev = run.events[-3]     # task b: start, its one kernel, end, slot release
    assert type(ev) is KernelEvent and ev["kernel"] == "RNG"
    assert live_kernel_events() == before + 1


def test_a_run_log_retains_under_100_bytes_per_kernel_event():
    run_once = looped_run(200)
    run_once()
    gc.collect()
    tracemalloc.start()
    try:
        run = run_once()
        gc.collect()
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    kernels = sum(e["kind"] == "kernel" for e in run.events)
    # everything the run keeps, dict events included (records are built on
    # first access); a KernelEvent row per event retains about 217 B
    assert retained / kernels < 100


def test_the_log_reads_as_a_sequence_of_its_events():
    events = framed_kernel_trace(9).events
    plain = list(events)
    log = MetricsSink(plain)
    assert log == plain and plain == log and log == tuple(plain) and log == events
    assert log != plain[:-1] and log != plain[::-1] and log != "text"
    assert len(log) == 9 + 14
    assert log[0] is plain[0] and log[-1] is plain[-1]
    assert log[7] == plain[7] and type(log[7]) is KernelEvent
    assert list(reversed(log)) == plain[::-1]
    with pytest.raises(IndexError):
        log[len(plain)]
    assert RunTrace("r", ResourcePool(1, 1), plain) == RunTrace("r", ResourcePool(1, 1), log)
    # another log's columns append with their names re-indexed
    tail = MetricsSink(kernel_events(3)[::-1])
    log.extend(tail)
    log += [task_start("x", 1.0)]
    assert log == plain + kernel_events(3)[::-1] + [task_start("x", 1.0)]
    log.remove(plain[7])
    log.remove(plain[0])
    assert log == plain[1:7] + plain[8:] + kernel_events(3)[::-1] + [task_start("x", 1.0)]
    assert copy.deepcopy(log) == log


def test_two_threads_appending_to_one_log_keep_every_row_whole():
    # one log may be shared: two lanes can be handed the same sink through
    # KernelContext(sink=...); a switch between two column appends of one
    # event must not let the other thread's event in
    n = 20_000
    log = MetricsSink()

    def append(k):
        for i in range(n):
            log.append(KernelEvent(f"t{k}", k, f"k{k}", i, i, k, i, i, k, float(i)))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=append, args=(k,)) for k in (0, 1)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    finally:
        sys.setswitchinterval(interval)
    assert len(log) == 2 * n
    seen = {0: [], 1: []}
    for e in log:
        k = e["rank"]
        i = e["bytes_read"]
        assert dict(e) == dict(KernelEvent(f"t{k}", k, f"k{k}", i, i, k, i, i, k, float(i)))
        seen[k].append(i)
    assert seen == {0: list(range(n)), 1: list(range(n))}


def test_the_log_rejects_values_its_columns_cannot_hold(tmp_path):
    log = MetricsSink()
    good = kernel_events(1)[0]
    for key, value in (("rank", 1.5), ("checksum", "x"), ("bytes_read", 2 ** 64)):
        with pytest.raises(ValueError, match=f"'{key}' is {value!r}"):
            log.append(dict(good, **{key: value}))
        assert len(log) == 0 and log == []
    log.append(good)
    assert log == [good]
    path = tmp_path / "trace.jsonl"
    framed_kernel_trace(1).write_jsonl(path)
    header, *rest = path.read_text().splitlines(keepends=True)
    path.write_text(header + "".join(rest).replace('"rank": 0', '"rank": 0.5'))
    with pytest.raises(ValueError, match=re.escape(str(path)) + ".*'rank' is 0.5"):
        RunTrace.read_jsonl(path)


def test_kernel_lines_render_as_json_dumps_of_their_dicts(tmp_path):
    name = 'sim "é"\n'
    events = [task_start(name, 0.0)]
    for i, value in enumerate((0.1, float("nan"), float("inf"), -float("inf"), 1e16, 5e-324)):
        events.append(dict(kernel_events(1)[0], task=name, kernel=f"k{i % 2}",
                           t_start=value, checksum=value, bytes_read=2 ** 62 + i))
    events.append(task_end(name, 1.0))
    trace = traced(events, [name])
    path = tmp_path / "trace.jsonl"
    trace.write_jsonl(path)
    assert path.read_text().splitlines(keepends=True)[1:] == \
        [json.dumps(e) + "\n" for e in events]
    back = RunTrace.read_jsonl(path)
    assert back.records == trace.records and len(back.events) == len(events)
    again = tmp_path / "again.jsonl"
    back.write_jsonl(again)
    assert again.read_bytes() == path.read_bytes()


def test_summary_round_trip():
    s = summary(3.0, 10, 20, cpu=50.0, per_task={"a": {"makespan": 3.0}})
    assert MetricsSummary.from_dict(s.to_dict()) == s
