"""Task runtime: spec parsing, SPMD execution, seeding, and parameter
scaling/addressing."""
import json
import threading

import pytest

from wfmini import kernels
from wfmini.engine import execute, load_workflow
from wfmini.errors import (
    InvalidParameter,
    KernelFailure,
    SchemaError,
    UnknownKernel,
    UnknownParameter,
)
from wfmini.kernels import KernelDef, KernelResult
from wfmini.tasks import (
    get_param,
    parse_task_spec,
    rank_seed,
    run_task,
    scale_task,
    scale_values,
    task_seed,
)
from wfmini.trace import MetricsSink, ResourcePool, task_records

MIB = 2 ** 20


def simple_doc(**overrides):
    doc = {
        "name": "t", "category": "work", "num_ranks": 1,
        "program": [{"kernel": "RNG", "params": {"data_size": 16}}],
    }
    doc.update(overrides)
    return doc


def test_parse_roundtrip():
    doc = {
        "name": "train", "category": "training", "num_ranks": 2, "phase": 1,
        "program": [
            {"loop": True, "count": 3,
             "body": [{"kernel": "axpy", "params": {"data_size": 8}}]},
            {"kernel": "writeNonMPI", "params": {"data_size": 100}},
        ],
    }
    spec = parse_task_spec(doc)
    assert spec.num_ranks == 2 and spec.phase == 1
    again = parse_task_spec(spec.to_dict())
    assert again.to_dict() == spec.to_dict()


@pytest.mark.parametrize("mutation", [
    {"name": ""},
    {"program": []},
    {"program": "nope"},
    {"num_ranks": 0},
    {"cpus_per_rank": 0},
    {"gpus_per_rank": -1},
    {"num_ranks": True},
    {"program": [{"loop": True, "count": 0,
                  "body": [{"kernel": "RNG", "params": {"data_size": 1}}]}]},
    {"program": [{"loop": True, "count": 2, "body": []}]},
    {"program": [{"params": {}}]},
])
def test_parse_rejects_bad_documents(mutation):
    with pytest.raises(SchemaError):
        parse_task_spec(simple_doc(**mutation))


def test_parse_rejects_unknown_kernel():
    with pytest.raises(UnknownKernel):
        parse_task_spec(simple_doc(program=[{"kernel": "warp", "params": {}}]))


def test_accelerator_kernels_need_gpus():
    doc = simple_doc(program=[{"kernel": "axpy", "params": {
        "data_size": 8, "device": {"kind": "accelerator", "slowdown_factor": 2.0}}}])
    with pytest.raises(SchemaError):
        parse_task_spec(doc)
    doc["gpus_per_rank"] = 1
    assert parse_task_spec(doc).gpus_per_rank == 1


@pytest.mark.parametrize("device", [
    "tpu", {"kind": "accelerator", "slowdown_factor": 0},
    {"kind": "accelerator", "slowdown_factor": "2"}, 17,
    {"kind": "accelerator", "slowdown_factor": True},
    {"kind": "accelerator", "slowdown_factor": float("nan")},
    {"kind": "accelerator", "slowdown_factor": float("inf")}],
    ids=["tpu", "zero-slowdown", "text-slowdown", "number", "bool-slowdown",
         "nan-slowdown", "inf-slowdown"])
def test_parse_rejects_bad_device_naming_the_step(device):
    doc = simple_doc(gpus_per_rank=1, program=[{"loop": True, "count": 2, "body": [
        {"kernel": "axpy", "params": {"data_size": 8, "device": device}}]}])
    with pytest.raises(SchemaError, match=r"t\.program\.0\.body\.0"):
        parse_task_spec(doc)


@pytest.mark.parametrize("bandwidth", ["true", "NaN", "Infinity", "-1"])
def test_parse_rejects_bad_copy_bandwidth(bandwidth):
    # json.loads reads NaN and Infinity, so a workflow document can hold them
    doc = json.loads('{"name": "t", "program": [{"kernel": "dataCopyH2D", "params": '
                     '{"data_size": 8, "bandwidth": %s}}]}' % bandwidth)
    with pytest.raises(SchemaError, match=r"t\.program\.0: bandwidth"):
        parse_task_spec(doc)


def test_spmd_byte_additivity(isolated_scratch):
    def bytes_for(ranks):
        spec = parse_task_spec({
            "name": "w", "category": "c", "num_ranks": ranks,
            "program": [{"kernel": "writeNonMPI", "params": {"data_size": MIB}},
                        {"kernel": "readNonMPI", "params": {"data_size": MIB}}]})
        return run_task(spec)

    one = bytes_for(1)
    four = bytes_for(4)
    assert one.bytes_written == MIB and one.bytes_read == MIB
    assert four.bytes_written == 4 * MIB and four.bytes_read == 4 * MIB


def test_task_record_and_events():
    sink = MetricsSink()
    spec = parse_task_spec(simple_doc(num_ranks=2, program=[
        {"kernel": "writeNonMPI", "params": {"data_size": 100}}]))
    record = run_task(spec, sink=sink, seed=5)
    assert record.status == "ok" and record.ranks == 2 and record.category == "work"
    assert record.bytes_written == 200
    assert record.slots_used == []  # slots are granted, and traced, by the engine
    kinds = [e["kind"] for e in sink]
    assert kinds == ["task_start", "kernel", "kernel", "task_end"]
    assert sink[0]["ranks"] == 2 and sink[0]["category"] == "work"
    assert task_records(sink, ["t"]) == [record]


def test_failed_task_records_failure():
    sink = MetricsSink()
    spec = parse_task_spec(simple_doc(program=[
        {"kernel": "writeNonMPI", "params": {"data_size": 100}},
        {"kernel": "readNonMPI", "params": {"data_size": 30}},
        {"kernel": "fft", "params": {"data_size": 3}}]))
    with pytest.raises(KernelFailure):
        run_task(spec, sink=sink)
    (record,) = task_records(sink, ["t"])
    assert record.status == "failed"
    # the kernels that completed before the failure
    assert (record.bytes_read, record.bytes_written) == (30, 100)


@pytest.fixture
def thread_starts(monkeypatch):
    """Names of the threads started while the test runs."""
    started = []

    class Counting(threading.Thread):
        def start(self):
            started.append(self.name)
            super().start()

    monkeypatch.setattr(threading, "Thread", Counting)
    return started


@pytest.mark.parametrize("ranks", [1, 3])
def test_run_task_runs_rank_zero_on_the_calling_thread(thread_starts, ranks):
    sink = MetricsSink()
    spec = parse_task_spec(simple_doc(num_ranks=ranks, program=[
        {"kernel": "MPIallReduce", "params": {"data_size": 4}}]))
    run_task(spec, sink=sink)
    assert len(thread_starts) == ranks - 1
    assert sorted(e["rank"] for e in sink if e["kind"] == "kernel") == \
        list(range(ranks))


def test_execute_starts_one_thread_per_rank(thread_starts):
    spec = load_workflow({"tasks": [
        simple_doc(name="a"), simple_doc(name="b", num_ranks=2), simple_doc(name="c")],
        "edges": [["a", "b"]]})
    execute(spec, ResourcePool(1, 2))
    assert len(thread_starts) == sum(t.num_ranks for t in spec.tasks) == 4


def test_run_task_cleans_up_its_own_scratch(isolated_scratch):
    spec = parse_task_spec(simple_doc(name="w", program=[
        {"kernel": "writeNonMPI", "params": {"data_size": 1000}}]))
    for _ in range(2):
        assert run_task(spec).bytes_written == 1000
    # the staged read source goes too
    spec = parse_task_spec(simple_doc(name="r", program=[
        {"kernel": "readNonMPI", "params": {"data_size": 1000}}]))
    assert run_task(spec).bytes_read == 1000
    assert list(isolated_scratch.iterdir()) == []


def test_seeds_are_salted():
    assert task_seed(0, "a") != task_seed(0, "b")
    assert task_seed(1, "a") != task_seed(2, "a")
    seeds = {rank_seed(0, "a", r) for r in range(8)}
    assert len(seeds) == 8


def test_rank_lanes_decorrelate_but_reproduce():
    spec = parse_task_spec(simple_doc(num_ranks=3, program=[
        {"kernel": "axpy", "params": {"data_size": 1000}}]))

    def checksums():
        sink = MetricsSink()
        run_task(spec, sink=sink, seed=11)
        return sorted((e["rank"], e["checksum"]) for e in sink
                      if e["kind"] == "kernel")

    first = checksums()
    assert first == checksums()            # reproducible
    assert len({c for _, c in first}) == 3  # ranks decorrelated


def test_a_tasks_event_order_does_not_depend_on_thread_timing():
    # each lane logs on its own and the logs join in rank order: with one
    # shared log, 20 runs of this task gave 13 distinct orders
    spec = parse_task_spec(simple_doc(num_ranks=3, program=[
        {"loop": True, "count": 20, "body": [
            {"kernel": "reduction", "params": {"data_size": 8}},
            {"kernel": "RNG", "params": {"data_size": 8}}]},
        {"kernel": "MPIallReduce", "params": {"data_size": 8}}]))

    def order():
        sink = MetricsSink()
        run_task(spec, sink=sink, seed=2)
        return [(e["rank"], e["kernel"]) if e["kind"] == "kernel" else e["kind"]
                for e in sink]

    orders = {tuple(order()) for _ in range(20)}
    assert len(orders) == 1
    (events,) = orders
    assert events[0] == "task_start" and events[-1] == "task_end"
    assert [e[0] for e in events[1:-1]] == sorted(e[0] for e in events[1:-1])


def test_get_param_and_errors():
    spec = parse_task_spec({
        "name": "t", "category": "c", "num_ranks": 1,
        "program": [{"loop": True, "count": 4,
                     "body": [{"kernel": "RNG", "params": {"data_size": 10}}]}]})
    assert get_param(spec, "program.0.count") == 4
    assert get_param(spec, "program.0.body.0.params.data_size") == 10
    with pytest.raises(UnknownParameter):
        get_param(spec, "program.0.body.9.params.data_size")
    with pytest.raises(UnknownParameter):
        get_param(spec, "program.0.nope")


def test_a_list_segment_must_be_an_index():
    spec = parse_task_spec(simple_doc())
    with pytest.raises(UnknownParameter, match="'first' is not a list index"):
        get_param(spec, "program.first.kernel")
    with pytest.raises(UnknownParameter, match="is not a list index"):
        scale_values({"sizes": [4]}, {"sizes.x": 2.0})


def test_scale_values_multiplies_a_float_without_rounding():
    doc = {"a": 2.5, "params": [{"alpha": 0.1}]}
    scale_values(doc, {"a": 0.1, "params.0.alpha": 3.0})
    assert doc == {"a": 2.5 * 0.1, "params": [{"alpha": 0.1 * 3.0}]}


def test_scale_task_identity_and_floor():
    spec = parse_task_spec({
        "name": "t", "category": "c", "num_ranks": 1,
        "program": [{"loop": True, "count": 10,
                     "body": [{"kernel": "RNG", "params": {"data_size": 100}}]}]})
    same = scale_task(spec, {"program.0.count": 1.0})
    assert same.to_dict() == spec.to_dict()
    floored = scale_task(spec, {"program.0.count": 0.001})
    assert get_param(floored, "program.0.count") == 1
    spec2 = scale_task(spec, {"program.0.count": 2.0,
                              "program.0.body.0.params.data_size": 0.5})
    assert get_param(spec2, "program.0.count") == 20
    assert get_param(spec2, "program.0.body.0.params.data_size") == 50


def test_scale_task_multiplicative_for_exact_factors():
    spec = parse_task_spec({
        "name": "t", "category": "c", "num_ranks": 1,
        "program": [{"loop": True, "count": 8,
                     "body": [{"kernel": "RNG", "params": {"data_size": 1}}]}]})
    twice_thrice = scale_task(scale_task(spec, {"program.0.count": 2.0}),
                              {"program.0.count": 3.0})
    six = scale_task(spec, {"program.0.count": 6.0})
    assert get_param(twice_thrice, "program.0.count") == get_param(six, "program.0.count")


def test_scale_task_rejects_nonsense():
    spec = parse_task_spec(simple_doc())
    with pytest.raises(Exception):
        scale_task(spec, {"program.0.params.data_size": 0.0})
    with pytest.raises(UnknownParameter):
        scale_task(spec, {"name": 2.0})


def test_a_failure_on_every_rank_is_named_by_rank_0():
    # every rank reaches fft past the last collective and fails there on its
    # own; the rank that failed first in time used to be named
    spec = parse_task_spec({
        "name": "bad", "category": "c", "num_ranks": 3,
        "program": [{"loop": True, "count": 5,
                     "body": [{"kernel": "reduction", "params": {"data_size": 8}}]},
                    {"kernel": "fft", "params": {"data_size": 3}}]})
    named = set()
    for _ in range(30):
        with pytest.raises(KernelFailure) as failure:
            run_task(spec)
        named.add(str(failure.value).split(":")[0])
    assert named == {"task bad rank 0"}


def test_the_rank_that_failed_is_named_not_the_ranks_its_abort_broke(monkeypatch):
    def fail_on_rank_2(ctx, params):
        if ctx.rank_id == 2:
            raise InvalidParameter("rank 2 refuses")
        return KernelResult()

    monkeypatch.setitem(kernels._CATALOG, "failOnRank2",
                        KernelDef("failOnRank2", fail_on_rank_2))
    spec = parse_task_spec({
        "name": "one-bad", "category": "c", "num_ranks": 3,
        "program": [{"kernel": "failOnRank2"},
                    {"kernel": "MPIallReduce", "params": {"data_size": 4}}]})
    for _ in range(10):
        sink = MetricsSink()
        with pytest.raises(KernelFailure, match="^task one-bad rank 2: rank 2 refuses$"):
            run_task(spec, sink=sink)
        # ranks 0 and 1 got to the allreduce, whose barrier the abort broke
        ran = sorted((e["rank"], e["kernel"]) for e in sink if e["kind"] == "kernel")
        assert ran == [(0, "failOnRank2"), (1, "failOnRank2")]
        assert sink[-1]["status"] == "failed"
