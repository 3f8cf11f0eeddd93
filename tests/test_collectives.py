"""Collective semantics: allreduce/allgather against gather-then-combine
oracles, barrier failure modes, and communicated-byte accounting."""
import threading
import time

import numpy as np
import pytest

from wfmini.errors import CollectiveMismatch, InvalidParameter, KernelFailure, SizeMismatch
from wfmini.kernels import ELEMENT_WIDTH, Communicator
from wfmini.tasks import parse_task_spec, run_task
from wfmini.trace import MetricsSink


def on_all_ranks(comm, fn):
    """Run fn(rank_id) on comm.size threads; returns results by rank."""
    out = [None] * comm.size
    errs = []

    def lane(r):
        try:
            out[r] = fn(r)
        except Exception as e:
            errs.append(e)

    threads = [threading.Thread(target=lane, args=(r,)) for r in range(comm.size)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errs:
        raise errs[0]
    return out


def test_allreduce_rank_id_sum():
    comm = Communicator(4)
    results = on_all_ranks(comm, lambda r: comm.allreduce(r, np.full(5, float(r))))
    for res in results:
        assert (res == 6.0).all()  # 0+1+2+3


def test_allreduce_matches_gather_then_sum(rng):
    comm = Communicator(3)
    data = [rng.random(16) for _ in range(3)]
    results = on_all_ranks(comm, lambda r: comm.allreduce(r, data[r]))
    want = np.zeros(16)
    for d in data:
        want = want + d
    for res in results:
        assert np.allclose(res, want, rtol=1e-12)


def test_allgather_concatenates_in_rank_order(rng):
    comm = Communicator(3)
    data = [rng.random(4) for _ in range(3)]
    results = on_all_ranks(comm, lambda r: comm.allgather(r, data[r]))
    want = np.concatenate(data)
    for res in results:
        assert np.allclose(res, want, rtol=1e-12)


def test_size_one_is_identity(rng):
    comm = Communicator(1)
    x = rng.random(8)
    assert np.allclose(comm.allreduce(0, x), x)
    assert np.allclose(comm.allgather(0, x), x)


def test_missing_rank_breaks_collective():
    comm = Communicator(2, timeout=0.2)
    with pytest.raises(CollectiveMismatch):
        comm.allreduce(0, np.ones(3))  # rank 1 never shows up


def test_shape_mismatch_across_ranks():
    comm = Communicator(2)
    data = {0: np.ones(3), 1: np.ones(5)}
    with pytest.raises(SizeMismatch):
        on_all_ranks(comm, lambda r: comm.allreduce(r, data[r]))


def test_rank_out_of_range():
    comm = Communicator(1)
    with pytest.raises(InvalidParameter):
        comm.allreduce(5, np.ones(2))
    with pytest.raises(InvalidParameter):
        Communicator(0)


def test_allreduce_kernel_ring_bytes():
    spec = parse_task_spec({
        "name": "coll", "category": "c", "num_ranks": 4,
        "program": [{"kernel": "MPIallReduce", "params": {"data_size": 5}}]})
    sink = MetricsSink()
    run_task(spec, sink=sink)
    events = [e for e in sink if e.get("kind") == "kernel"]
    assert len(events) == 4
    for ev in events:
        assert ev["bytes_communicated"] == 5 * ELEMENT_WIDTH * 3


def test_allgather_kernel_all_ranks_agree():
    spec = parse_task_spec({
        "name": "gath", "category": "c", "num_ranks": 3,
        "program": [{"kernel": "MPIallGather", "params": {"data_size": 7}}]})
    sink = MetricsSink()
    run_task(spec, sink=sink)
    sums = {e["checksum"] for e in sink if e.get("kind") == "kernel"}
    assert len(sums) == 1  # every rank sees the identical gathered buffer


def test_mpi_io_shared_file(isolated_scratch):
    from wfmini.kernels import Scratch
    scratch = Scratch(isolated_scratch)
    spec = parse_task_spec({
        "name": "mpiio", "category": "c", "num_ranks": 3,
        "program": [
            {"kernel": "writeWithMPI", "params": {"data_size": 1000}},
            {"kernel": "readWithMPI", "params": {"data_size": 1000}},
        ]})
    record = run_task(spec, scratch=scratch)
    assert record.bytes_written == 3000
    assert record.bytes_read == 3000
    shared = scratch.shared_path("mpiio")
    assert shared.stat().st_size >= 3000


def test_collective_abort_on_rank_failure(isolated_scratch):
    # rank-dependent failure: all ranks run fft, which rejects data_size 3;
    # the broken barrier must not deadlock the run
    spec = parse_task_spec({
        "name": "bad", "category": "c", "num_ranks": 2,
        "program": [
            {"kernel": "fft", "params": {"data_size": 3}},
            {"kernel": "MPIallReduce", "params": {"data_size": 2}},
        ]})
    with pytest.raises(KernelFailure):
        run_task(spec, collective_timeout=2.0)


def test_accelerator_slowdown_does_not_scale_collective_wait():
    # a slowed rank must not stretch its wait for the other rank, or each
    # rank's slowed wait feeds the next allreduce until the barrier times out
    accel = {"kind": "accelerator", "slowdown_factor": 10.0}
    spec = parse_task_spec({
        "name": "gpu-coll", "category": "c", "num_ranks": 2, "gpus_per_rank": 1,
        "program": [{"loop": True, "count": 6, "body": [
            {"kernel": "matMulGeneral",
             "params": {"dim_list": [[64, 64, 64]], "device": accel}},
            {"kernel": "MPIallReduce", "params": {"data_size": 1000, "device": accel}},
        ]}]})
    sink = MetricsSink()
    t0 = time.perf_counter()
    run_task(spec, sink=sink, collective_timeout=10)
    assert time.perf_counter() - t0 < 5.0
    waits = [e["wall_time"] for e in sink
             if e.get("kind") == "kernel" and e["kernel"] == "MPIallReduce"]
    assert len(waits) == 12 and max(waits) < 1.0
