"""Tests of the benchmark's own code: the dag_wide generator, the
correctness checks, and the span arithmetic.

    PYTHONPATH=src python -m pytest -q perfbench/test_perfbench.py
"""
import copy
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
for path in (HERE, HERE.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

from wfmini import engine                              # noqa: E402
from wfmini.kernels import Scratch                     # noqa: E402
from wfmini.trace import ResourcePool                  # noqa: E402

import checks                                          # noqa: E402
import workloads                                       # noqa: E402
from spans import Span, covered, merge, self_cpu, self_time, subtract  # noqa: E402

SMALL = {
    "execution_model": "parallel",
    "tasks": [
        {"name": "a", "program": [{"kernel": "reduction", "params": {"data_size": 64}},
                                  {"kernel": "writeNonMPI", "params": {"data_size": 512}}]},
        {"name": "b", "program": [{"loop": True, "count": 3, "body": [
            {"kernel": "readNonMPI", "params": {"data_size": 256}}]}]},
        {"name": "c", "num_ranks": 2, "program": [
            {"kernel": "MPIallReduce", "params": {"data_size": 8}},
            {"kernel": "axpy", "params": {"data_size": 16, "repetitions": 2}}]},
    ],
    "edges": [["a", "b"], ["a", "c"]],
}


def run_small(tmp_path, seed=1):
    spec = engine.load_workflow(SMALL)
    run = engine.execute(spec, ResourcePool(1, 2), seed=seed, scratch=Scratch(tmp_path),
                         copy_bandwidth=workloads.COPY_BANDWIDTH)
    return spec, run


def problems(spec, run):
    return checks.check_trace(spec, run, workloads.COPY_BANDWIDTH)


def test_generator_is_deterministic_for_a_seed():
    doc = workloads.dag_wide_document(5)
    assert doc == workloads.dag_wide_document(5)
    assert doc != workloads.dag_wide_document(6)
    width = workloads.STAGE_WIDTH
    assert len(doc["tasks"]) == 1 + workloads.STAGES * (width + 1)
    stage1 = [t for t in doc["tasks"] if t["name"].startswith("stage1_")]
    assert sum(t["num_ranks"] == 2 for t in stage1) == round(workloads.TWO_RANK_SHARE * width)
    engine.validate_dag(engine.load_workflow(doc))


def test_expected_counts_and_bytes_follow_the_spec():
    spec = engine.load_workflow(SMALL)
    counts = checks.expected_kernel_counts(spec)
    assert counts[("b", "readNonMPI")] == 3
    assert counts[("c", "axpy")] == 2          # one event per call, two ranks
    assert checks.expected_io(spec) == {"a": (0, 512), "b": (768, 0), "c": (0, 0)}


def test_untampered_trace_passes_and_checksums_repeat(tmp_path):
    spec, run = run_small(tmp_path / "one")
    assert problems(spec, run) == []
    _, again = run_small(tmp_path / "two")
    _, other = run_small(tmp_path / "three", seed=2)
    assert checks.fingerprint(run) == checks.fingerprint(again)
    assert checks.fingerprint(run) != checks.fingerprint(other)


def test_dropped_kernel_event_fails(tmp_path):
    spec, run = run_small(tmp_path)
    bad = copy.deepcopy(run)
    bad.events.remove(next(e for e in bad.events if e["kind"] == "kernel" and e["task"] == "b"))
    assert any("kernel event counts" in p for p in problems(spec, bad))


def test_overlapping_slot_intervals_fail(tmp_path):
    spec, run = run_small(tmp_path)
    bad = copy.deepcopy(run)
    busy = next(e for e in bad.events if e["kind"] == "slot_busy")
    idle = next(e for e in bad.events if e["kind"] == "slot_idle" and e["slot"] == busy["slot"])
    bad.events += [{"kind": "slot_busy", "slot": busy["slot"], "task": "intruder",
                    "t": (busy["t"] + idle["t"]) / 2},
                   {"kind": "slot_idle", "slot": busy["slot"], "task": "intruder",
                    "t": idle["t"] + 1.0}]
    assert any("overlaps" in p for p in problems(spec, bad))


def test_successor_starting_early_fails(tmp_path):
    spec, run = run_small(tmp_path)
    bad = copy.deepcopy(run)
    a = next(r for r in bad.records if r.task_name == "a")
    next(r for r in bad.records if r.task_name == "c").start = a.end - 1e-3
    assert any("before predecessor a" in p for p in problems(spec, bad))


def test_wrong_bytes_and_failed_record_fail(tmp_path):
    spec, run = run_small(tmp_path)
    bad = copy.deepcopy(run)
    rec = next(r for r in bad.records if r.task_name == "b")
    rec.bytes_read += 1
    rec.status = "failed"
    found = problems(spec, bad)
    assert any("not ok" in p for p in found)
    assert any("b: bytes" in p for p in found)


def test_makespan_below_modeled_dwell_fails(tmp_path):
    spec, run = run_small(tmp_path)
    # a bandwidth this low models hours of copy sleep on the critical path
    doc = copy.deepcopy(SMALL)
    doc["tasks"][2]["program"].append(
        {"kernel": "dataCopyH2D", "params": {"data_size": 10, "bandwidth": 1e-3}})
    slow = engine.load_workflow(doc)
    assert checks.longest_path(slow.task_names, slow.edges,
                               checks.modeled_dwell(slow, 1.0)) >= 1e4
    assert any("copy dwell" in p for p in checks.check_trace(slow, run, 1.0))


def test_interval_arithmetic():
    assert merge([(2, 5), (1, 3), (8, 9), (9, 10)]) == [(1, 5), (8, 10)]
    assert covered([(1, 3), (2, 5), (8, 12)], 0, 10) == 6
    assert subtract(0, 10, [(1, 3), (2, 5), (8, 12)]) == [(0, 1), (5, 8)]


def test_self_time_on_a_hand_built_span_tree():
    parent = Span(1, "tasks.run_task", None, 0.0, 10.0)
    # two lanes overlap between 2 and 3; one child runs past the parent's end
    kids = [Span(2, "kernels.execute", 1, 1.0, 3.0, local=False),
            Span(3, "kernels.execute", 1, 2.0, 5.0, local=False),
            Span(4, "trace.append", 1, 8.0, 12.0)]
    assert self_time(parent, kids) == 4.0
    assert self_time(parent, []) == 10.0
    parent.cpu, kids[0].cpu, kids[1].cpu, kids[2].cpu = 3.0, 1.0, 1.0, 0.5
    # only the same-thread child's CPU is the parent thread's
    assert self_cpu(parent, kids) == 2.5
