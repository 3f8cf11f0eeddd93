"""Kernel catalog tests: every numeric kernel against an independent
brute-force oracle, byte-exact I/O accounting, device emulation, registry
behavior, and determinism."""
import math
import threading
import time
import tracemalloc

import numpy as np
import pytest

from wfmini import kernels, ops
from wfmini.errors import (
    CommunicatorRequired,
    DuplicateKernel,
    InvalidParameter,
    MissingParameter,
    ScratchUnavailable,
    ShortRead,
    ShortWrite,
    UnknownKernel,
)
from wfmini.kernels import (
    IO_BLOCK,
    SCRATCH_ENV,
    WORK_BLOCK,
    Communicator,
    Device,
    KernelCall,
    KernelContext,
    KernelResult,
    Scratch,
    catalog_names,
    execute_kernel,
    register_kernel,
    seeded_buffer,
)
from wfmini.tasks import parse_task_spec, run_task
from wfmini.trace import MetricsSink


def ctx_with(seed=42, **kw):
    return KernelContext(rng=np.random.default_rng(seed), **kw)


def run(name, seed=42, **params):
    return execute_kernel(KernelCall(name, params), ctx=ctx_with(seed))


# --------------------------------------------------------------------------
# brute-force oracles (plain loops, no numpy reductions)

def matmul_oracle(a, b):
    m, k = len(a), len(a[0])
    n = len(b[0])
    out = [[0.0] * n for _ in range(m)]
    for i in range(m):
        for j in range(n):
            acc = 0.0
            for p in range(k):
                acc += a[i][p] * b[p][j]
            out[i][j] = acc
    return out


def dft_oracle(x):
    n = len(x)
    out = []
    for k in range(n):
        acc = 0j
        for t in range(n):
            acc += x[t] * complex(math.cos(-2 * math.pi * k * t / n),
                                  math.sin(-2 * math.pi * k * t / n))
        out.append(acc)
    return out


def test_matmul_against_triple_loop(rng):
    for dim in (1, 2, 3, 5, 8, 13):
        a = rng.random((dim, dim))
        b = rng.random((dim, dim))
        got = ops.matmul(a, b)
        want = matmul_oracle(a.tolist(), b.tolist())
        assert np.allclose(got, want, rtol=1e-9, atol=0)


def test_matmul_integer_exact(rng):
    a = rng.integers(-50, 50, (7, 7))
    b = rng.integers(-50, 50, (7, 7))
    got = ops.matmul(a, b)
    want = matmul_oracle(a.tolist(), b.tolist())
    assert (got == np.array(want)).all()


def test_matmul_shape_mismatch():
    with pytest.raises(InvalidParameter):
        ops.matmul(np.ones((2, 3)), np.ones((2, 3)))


def test_matmul_kernel_checksum_matches_oracle():
    dim = 6
    probe = np.random.default_rng(42)
    a = seeded_buffer(probe, dim * dim).reshape(dim, dim)
    b = seeded_buffer(probe, dim * dim).reshape(dim, dim)
    want = sum(sum(row) for row in matmul_oracle(a.tolist(), b.tolist()))
    got = run("matMulSimple2D", dim=dim).checksum
    assert got == pytest.approx(want, rel=1e-9)


def test_matmul_general_triples():
    res = run("matMulGeneral", dim_list=[[2, 3, 4], [5, 5, 5]])
    probe = np.random.default_rng(42)
    want = 0.0
    for m, k, n in ((2, 3, 4), (5, 5, 5)):
        a = seeded_buffer(probe, m * k).reshape(m, k)
        b = seeded_buffer(probe, k * n).reshape(k, n)
        want += sum(sum(row) for row in matmul_oracle(a.tolist(), b.tolist()))
    assert res.checksum == pytest.approx(want, rel=1e-9)
    with pytest.raises(InvalidParameter):
        run("matMulGeneral", dim_list=[[2, 3]])
    with pytest.raises(InvalidParameter):
        run("matMulGeneral", dim_list=7)


def test_fft_against_direct_dft(rng):
    for n in (2, 4, 8, 16, 32, 64):
        x = rng.random(n) + 1j * rng.random(n)
        got = ops.fft(x)
        want = np.array(dft_oracle(list(x)))
        scale = np.abs(want).max()
        assert np.abs(got - want).max() / scale < 1e-9


def test_fft_rejects_bad_sizes():
    with pytest.raises(InvalidParameter):
        run("fft", data_size=3)
    with pytest.raises(InvalidParameter):
        run("fft", data_size=0)
    with pytest.raises(InvalidParameter):
        run("fft", data_size=16, transform_dim=3)
    # transform_dim must divide data_size
    with pytest.raises(InvalidParameter):
        ops.fft(np.ones(5))


def test_fft_kernel_batches_by_transform_dim():
    whole = run("fft", data_size=16)
    split = run("fft", data_size=16, transform_dim=4)
    assert whole.checksum > 0 and split.checksum > 0
    assert whole.checksum != split.checksum


def test_axpy_oracle(rng):
    x = rng.random(64)
    y = rng.random(64)
    got = ops.axpy(2.5, x, y)
    for i in range(64):
        assert got[i] == pytest.approx(2.5 * x[i] + y[i], rel=1e-12)
    with pytest.raises(InvalidParameter):
        ops.axpy(1.0, np.ones(3), np.ones(4))


def test_axpy_kernel_checksum():
    probe = np.random.default_rng(42)
    x = seeded_buffer(probe, 50)
    y = seeded_buffer(probe, 50)
    want = sum(3.0 * xi + yi for xi, yi in zip(x, y))
    assert run("axpy", data_size=50, a=3.0).checksum == pytest.approx(want, rel=1e-9)


def test_scatter_add_oracle(rng):
    x = rng.random(64)
    idx = rng.integers(0, 10, 64)
    got = ops.scatter_add(x, idx, np.zeros(10))
    want = [0.0] * 10
    for i in range(64):
        want[idx[i]] += x[i]
    assert np.allclose(got, want, rtol=1e-12)
    # repeated indices must accumulate, not overwrite
    got2 = ops.scatter_add([1.0, 1.0], [3, 3], np.zeros(5))
    assert got2[3] == 2.0


def test_scatter_add_rejects_bad_index():
    with pytest.raises(InvalidParameter):
        ops.scatter_add([1.0], [7], np.zeros(3))
    with pytest.raises(InvalidParameter):
        ops.scatter_add([1.0, 2.0], [0], np.zeros(3))


def test_scatter_add_kernel_checksum_matches_ops():
    probe = np.random.default_rng(42)
    x = seeded_buffer(probe, 50)
    idx = probe.integers(0, 7, 50)
    want = float(ops.scatter_add(x, idx, np.zeros(7)).sum())
    assert [run("scatterAdd", x_size=50, y_size=7).checksum for _ in range(2)] == [want, want]
    assert run("scatterAdd", seed=43, x_size=50, y_size=7).checksum != want


@pytest.mark.parametrize("params", [{"x_size": 0, "y_size": 4}, {"x_size": 4, "y_size": 0}])
def test_scatter_add_kernel_rejects_sizes_below_one(params):
    with pytest.raises(InvalidParameter):
        run("scatterAdd", **params)


def test_reduction_oracle(rng):
    x = rng.random(64)
    want = 0.0
    for v in x:
        want += v
    assert ops.reduction(x) == pytest.approx(want, rel=1e-9)
    assert run("reduction", data_size=10).checksum > 0


def test_inplace_compute_functors(rng):
    y = rng.random(32)
    for name, fn in (("square", lambda v: v * v),
                     ("sqrt", math.sqrt),
                     ("negate", lambda v: -v)):
        got = ops.inplace_compute(name, y)
        for i in range(32):
            assert got[i] == pytest.approx(fn(y[i]), rel=1e-12)
    with pytest.raises(InvalidParameter):
        ops.inplace_compute("cube", y)


def test_rng_uniform_moments():
    n = 200_000
    res = run("RNG", data_size=n, seed=9)
    mean = res.checksum / n
    sigma = (1 / math.sqrt(12)) / math.sqrt(n)
    assert abs(mean - 0.5) < 3 * sigma
    data = np.random.default_rng(9).random(n)
    assert abs(data.var() - 1 / 12) / (1 / 12) < 0.05


def test_rng_normal_and_validation():
    n = 100_000
    res = run("RNG", data_size=n, distribution="normal", seed=5)
    assert abs(res.checksum) < 4 * math.sqrt(n)
    with pytest.raises(InvalidParameter):
        run("RNG", data_size=10, distribution="poisson")
    with pytest.raises(InvalidParameter):
        run("RNG", data_size=0)


@pytest.mark.parametrize("dist", ["uniform", "normal"])
def test_rng_streams_blocks_like_one_whole_draw(dist):
    n = 3 * WORK_BLOCK + 7
    draw = "random" if dist == "uniform" else "standard_normal"
    res = run("RNG", data_size=n, distribution=dist, seed=11)
    want = getattr(np.random.default_rng(11), draw)(n).sum()
    assert res.checksum == pytest.approx(want, rel=1e-12)

    # without a seed the kernel draws from the lane generator, and leaves it
    # where one whole-array draw would
    ctx = ctx_with(seed=4)
    execute_kernel(KernelCall("RNG", {"data_size": n, "distribution": dist}), ctx=ctx)
    ref = np.random.default_rng(4)
    getattr(ref, draw)(n)
    assert ctx.rng.random() == ref.random()


def test_rng_memory_does_not_grow_with_data_size():
    ctx = ctx_with()
    tracemalloc.start()
    try:
        execute_kernel(KernelCall("RNG", {"data_size": 2_000_000}), ctx=ctx)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2 ** 20


def test_copy_memory_does_not_grow_with_data_size():
    ctx = ctx_with(copy_bandwidth=1e12)
    tracemalloc.start()
    try:
        for name in ("dataCopyH2D", "dataCopyD2H"):
            execute_kernel(KernelCall(name, {"data_size": 8 * 2 ** 20}), ctx=ctx)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_seeded_buffer_tiles_deterministically():
    a = seeded_buffer(np.random.default_rng(3), 10_000)
    b = seeded_buffer(np.random.default_rng(3), 10_000)
    assert (a == b).all()
    assert (a[:4096] == a[4096:8192]).all()  # tiled block
    u8 = seeded_buffer(np.random.default_rng(3), 100, dtype=np.uint8)
    assert u8.dtype == np.uint8 and u8.size == 100


def count_draws(monkeypatch):
    """Count the calls of kernels.seeded_buffer made from here on."""
    calls = []
    draw = kernels.seeded_buffer

    def counted(rng, n, *a, **kw):
        calls.append(n)
        return draw(rng, n, *a, **kw)

    monkeypatch.setattr(kernels, "seeded_buffer", counted)
    return calls


def test_lane_draws_operands_once_per_shape(monkeypatch):
    calls = count_draws(monkeypatch)
    spec = parse_task_spec({
        "name": "memo", "category": "c",
        "program": [{"loop": True, "count": 5, "body": [
            {"kernel": "axpy", "params": {"data_size": 10_000}}]}]})
    sink = MetricsSink()
    run_task(spec, sink=sink)
    sums = [e["checksum"] for e in sink if e.get("kind") == "kernel"]
    assert calls == [10_000, 10_000]  # x and y, drawn on the first call only
    assert len(sums) == 5 and len(set(sums)) == 1


def test_repetitions_reuse_operands(monkeypatch):
    calls = count_draws(monkeypatch)
    run("axpy", data_size=10_000, repetitions=3)
    assert len(calls) == 2


def test_operands_are_read_only():
    name = "writesOperand"
    if name not in catalog_names():
        def scribble(ctx, params):
            ctx.operand(8)[0] = 1.0
            return KernelResult()
        register_kernel(name, scribble)
    with pytest.raises(ValueError):
        run(name)


# --------------------------------------------------------------------------
# file I/O byte exactness

def test_write_nonmpi_exact_bytes(isolated_scratch):
    size = IO_BLOCK + 12_345  # spans a block boundary
    ctx = ctx_with(scratch=Scratch(isolated_scratch))
    res = execute_kernel(KernelCall("writeNonMPI", {"data_size": size}), ctx=ctx)
    assert res.bytes_written == size
    path = ctx.scratch.write_path(ctx.task_name, ctx.rank_id)
    assert path.stat().st_size == size


def test_task_names_get_distinct_scratch_files(isolated_scratch):
    scratch = Scratch(isolated_scratch)
    names = ["a/b", "a_b", "a%2Fb", "a-r0", "..", ""]
    paths = ([scratch.write_path(n, r) for n in names for r in (0, 1)]
             + [scratch.shared_path(n) for n in names])
    assert len(set(paths)) == len(paths)
    assert {p.parent for p in paths} == {scratch.root}


def test_read_nonmpi_exact_bytes(isolated_scratch):
    size = 3 * IO_BLOCK + 7
    res = execute_kernel(KernelCall("readNonMPI", {"data_size": size}),
                         ctx=ctx_with(scratch=Scratch(isolated_scratch)))
    assert res.bytes_read == size
    assert res.bytes_written == 0


def test_mpi_io_exact_bytes_across_blocks(isolated_scratch):
    size = IO_BLOCK + 12_345  # spans a block boundary on every rank
    comm = Communicator(2)
    scratch = Scratch(isolated_scratch)
    results = {}

    def lane(rank_id):
        ctx = ctx_with(rank_id=rank_id, comm=comm, scratch=scratch)
        for name in ("writeWithMPI", "readWithMPI"):
            results[name, rank_id] = execute_kernel(
                KernelCall(name, {"data_size": size}), ctx=ctx)

    threads = [threading.Thread(target=lane, args=(r,)) for r in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
        assert not t.is_alive()
    for r in range(2):
        assert results["writeWithMPI", r].bytes_written == size
        assert results["readWithMPI", r].bytes_read == size
    assert scratch.shared_path("task").stat().st_size == 2 * size


@pytest.mark.parametrize("kernel", ["readNonMPI", "readWithMPI"])
def test_truncated_source_raises_short_read(isolated_scratch, kernel):
    size = 2 * IO_BLOCK
    scratch = Scratch(isolated_scratch)
    stage = scratch.staged_source

    def truncated(n, name="stage-src.dat"):
        path = stage(n, name=name)
        with path.open("r+b") as f:
            f.truncate(n - IO_BLOCK - 3)
        return path

    scratch.staged_source = truncated
    comm = Communicator(1) if kernel == "readWithMPI" else None
    with pytest.raises(ShortRead):
        execute_kernel(KernelCall(kernel, {"data_size": size}),
                       ctx=ctx_with(comm=comm, scratch=scratch))


def test_scratch_root_that_is_a_file_is_unavailable(isolated_scratch):
    root = isolated_scratch / "not-a-dir"
    root.write_bytes(b"")
    with pytest.raises(ScratchUnavailable):
        Scratch(root)


@pytest.mark.parametrize("kernel", ["writeNonMPI", "writeWithMPI"])
def test_write_onto_a_directory_raises_short_write(isolated_scratch, kernel):
    comm = Communicator(1) if kernel == "writeWithMPI" else None
    ctx = ctx_with(comm=comm, scratch=Scratch(isolated_scratch))
    if comm is None:
        ctx.scratch.write_path(ctx.task_name, ctx.rank_id).mkdir()
    else:
        ctx.scratch.shared_path(ctx.task_name).mkdir()
    with pytest.raises(ShortWrite):
        execute_kernel(KernelCall(kernel, {"data_size": 8}), ctx=ctx)


@pytest.mark.parametrize("kernel", ["readNonMPI", "readWithMPI"])
def test_read_from_a_directory_raises_short_read(isolated_scratch, kernel):
    comm = Communicator(1) if kernel == "readWithMPI" else None
    ctx = ctx_with(comm=comm, scratch=Scratch(isolated_scratch))
    if comm is None:
        (ctx.scratch.root / "stage-src.dat").mkdir()
    else:
        ctx.scratch.shared_path(ctx.task_name).mkdir()
    with pytest.raises(ShortRead):
        execute_kernel(KernelCall(kernel, {"data_size": 8}), ctx=ctx)


def test_contextless_compute_kernel_builds_no_scratch(isolated_scratch, monkeypatch):
    root = isolated_scratch / "lazy"
    monkeypatch.setenv(SCRATCH_ENV, str(root))
    execute_kernel(KernelCall("reduction", {"data_size": 8}))
    assert not root.exists()
    execute_kernel(KernelCall("writeNonMPI", {"data_size": 8}))
    assert root.is_dir()


def test_zero_byte_io_is_noop(isolated_scratch):
    ctx = ctx_with(scratch=Scratch(isolated_scratch))
    assert execute_kernel(KernelCall("readNonMPI", {"data_size": 0}), ctx=ctx).bytes_read == 0
    assert execute_kernel(KernelCall("writeNonMPI", {"data_size": 0}), ctx=ctx).bytes_written == 0


def test_repetitions_aggregate_bytes(isolated_scratch):
    ctx = ctx_with(scratch=Scratch(isolated_scratch))
    res = execute_kernel(
        KernelCall("writeNonMPI", {"data_size": 1000, "repetitions": 3}), ctx=ctx)
    assert res.bytes_written == 3000
    for bad in (0, True, 2.0):
        with pytest.raises(InvalidParameter):
            run("RNG", data_size=10, repetitions=bad)


def test_staged_source_grows_not_shrinks(isolated_scratch):
    scratch = Scratch(isolated_scratch)
    p = scratch.staged_source(1000)
    assert p.stat().st_size == 1000
    scratch.staged_source(500)
    assert p.stat().st_size == 1000
    scratch.staged_source(2000)
    assert p.stat().st_size == 2000


# --------------------------------------------------------------------------
# data movement

def test_data_copy_bandwidth_window(isolated_scratch):
    # small buffer, slow link: the modeled transfer dwarfs allocation cost
    size = 2 ** 20
    bw = 2 * 2 ** 20
    ctx = ctx_with(scratch=Scratch(isolated_scratch), copy_bandwidth=bw)
    t0 = time.perf_counter()
    res = execute_kernel(KernelCall("dataCopyH2D", {"data_size": size}), ctx=ctx)
    elapsed = time.perf_counter() - t0
    expected = size / bw
    assert 0.5 * expected <= elapsed <= 3.0 * expected
    assert res.checksum > 0


class FakeTime:
    """Stands in for kernels.time: every sleep oversleeps by 1 ms."""

    def __init__(self):
        self.now = 0.0
        self.sleeps = []

    def perf_counter(self):
        return self.now

    def sleep(self, seconds):
        self.sleeps.append(seconds)
        self.now += seconds + 1e-3


def test_dwell_credits_oversleep_to_the_next_dwell(monkeypatch):
    fake = FakeTime()
    monkeypatch.setattr(kernels, "time", fake)
    ctx = ctx_with(copy_bandwidth=1e6)
    for _ in range(10):
        execute_kernel(KernelCall("dataCopyH2D", {"data_size": 2000}), ctx=ctx)
    assert fake.sleeps[0] == pytest.approx(2e-3)
    assert fake.sleeps[1:] == pytest.approx([1e-3] * 9)
    assert 20e-3 <= fake.now <= 21e-3 + 1e-12


def test_data_copy_round_trip_checksum(isolated_scratch):
    ctx = ctx_with(scratch=Scratch(isolated_scratch))
    up = execute_kernel(KernelCall("dataCopyH2D", {"data_size": 1000}), ctx=ctx)
    down = execute_kernel(KernelCall("dataCopyD2H", {"data_size": 1000}), ctx=ctx)
    assert up.checksum == down.checksum  # same buffer comes back
    assert "default" in ctx.pools["device"]


@pytest.mark.parametrize("size", [1, 4095, 4096, 4097, 3 * 4096 + 7, 150_000])
def test_tiled_copy_checksums_match_the_whole_buffer(monkeypatch, size):
    ref = np.random.default_rng(42)

    def ref_checksum():
        block = ref.integers(0, 256, min(size, 4096), dtype=np.uint8)
        return float(np.resize(block, size).sum(dtype=np.float64))

    ctx = ctx_with(copy_bandwidth=1e12)
    calls = count_draws(monkeypatch)
    up = execute_kernel(KernelCall("dataCopyH2D", {"data_size": size}), ctx=ctx)
    assert up.checksum == ref_checksum()
    down = execute_kernel(KernelCall("dataCopyD2H", {"data_size": size}), ctx=ctx)
    assert down.checksum == up.checksum and len(calls) == 1  # no draw
    other = execute_kernel(KernelCall("dataCopyD2H", {"data_size": size, "buffer": "b"}),
                           ctx=ctx)
    assert other.checksum == ref_checksum() and len(calls) == 2
    assert ctx.rng.bit_generator.state == ref.bit_generator.state


def test_copy_rejected_for_its_bandwidth_leaves_the_lane_unchanged():
    ctx = ctx_with(copy_bandwidth=1e12)
    execute_kernel(KernelCall("dataCopyH2D", {"data_size": 1000}), ctx=ctx)
    state = ctx.rng.bit_generator.state
    pools = {name: dict(pool) for name, pool in ctx.pools.items()}
    for size, key in ((10_000, "default"), (10_000, "b"), (1000, "default")):
        with pytest.raises(InvalidParameter, match="bandwidth"):
            execute_kernel(KernelCall("dataCopyH2D", {"data_size": size, "buffer": key,
                                                      "bandwidth": 0}), ctx=ctx)
    assert ctx.rng.bit_generator.state == state
    assert ctx.pools.keys() == pools.keys()
    for name, pool in ctx.pools.items():
        assert pool.keys() == pools[name].keys()
        assert all(pool[k] is pools[name][k] for k in pool)


# --------------------------------------------------------------------------
# devices

def test_device_validation():
    with pytest.raises(InvalidParameter):
        Device(kind="tpu")
    with pytest.raises(InvalidParameter):
        Device(kind="accelerator", slowdown_factor=0)
    with pytest.raises(InvalidParameter):
        Device(kind="host", slowdown_factor=2.0)
    assert Device.parse("host").kind == "host"
    assert Device.parse({"kind": "accelerator", "slowdown_factor": 3.0}).slowdown_factor == 3.0
    with pytest.raises(InvalidParameter):
        Device.parse(17)


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("kernel,params", [
    ("fft", {"data_size": 16, "transform_dim": 4.0}),
    ("fft", {"data_size": 16, "transform_dim": "4"}),
    ("RNG", {"data_size": 8, "seed": 1.5}),
    ("axpy", {"data_size": 8, "a": "x"}),
    ("axpy", {"data_size": 8, "a": NAN}),
    ("inplaceCompute", {"data_size": 8, "functor": ["square"]}),
    ("matMulGeneral", {"dim_list": [[True, 2, 2]]}),
    ("matMulGeneral", {"dim_list": [4]}),
], ids=["fft-float-dim", "fft-text-dim", "rng-float-seed", "axpy-text-a", "axpy-nan-a",
        "functor-list", "matmul-bool-dim", "matmul-bare-dim"])
def test_mistyped_kernel_parameters_are_invalid(kernel, params):
    with pytest.raises(InvalidParameter):
        execute_kernel(KernelCall(kernel, params), ctx=ctx_with())


@pytest.mark.parametrize("bad", [True, NAN, INF, 0, "fast"])
def test_dwell_model_rejects_bool_and_non_finite_inputs(bad):
    ctx = ctx_with(copy_bandwidth=1e9)
    with pytest.raises(InvalidParameter, match="bandwidth"):
        execute_kernel(KernelCall("dataCopyH2D", {"data_size": 64, "bandwidth": bad}), ctx=ctx)
    # nothing was slept, so no oversleep credit was recorded
    assert ctx._overslept == 0.0
    with pytest.raises(InvalidParameter, match="bandwidth"):
        execute_kernel(KernelCall("dataCopyD2H", {"data_size": 64}),
                       ctx=ctx_with(copy_bandwidth=bad))
    with pytest.raises(InvalidParameter, match="slowdown_factor"):
        Device(kind="accelerator", slowdown_factor=bad)
    with pytest.raises(InvalidParameter, match="slowdown_factor"):
        run("reduction", data_size=8, device={"kind": "accelerator", "slowdown_factor": bad})


def test_accelerator_scales_wall_time():
    host = run("reduction", data_size=200_000, repetitions=20)
    accel = run("reduction", data_size=200_000, repetitions=20,
                device={"kind": "accelerator", "slowdown_factor": 10.0})
    assert accel.checksum == host.checksum  # results are device-neutral
    assert accel.wall_time > 3.0 * host.wall_time


# --------------------------------------------------------------------------
# registry and dispatch

def test_catalog_contents():
    names = catalog_names()
    for expected in ("matMulSimple2D", "matMulGeneral", "fft", "RNG", "axpy",
                     "scatterAdd", "reduction", "inplaceCompute", "readNonMPI",
                     "writeNonMPI", "readWithMPI", "writeWithMPI", "MPIallReduce",
                     "MPIallGather", "MPIallReduceAsync", "dataCopyH2D",
                     "dataCopyD2H", "dataCopyH2DAsync", "dataCopyD2HAsync"):
        assert expected in names


def test_register_rejects_duplicates():
    with pytest.raises(DuplicateKernel):
        register_kernel("RNG", lambda ctx, params: KernelResult())


def test_register_custom_kernel():
    name = "customNoop"
    if name not in catalog_names():
        register_kernel(name, lambda ctx, params: KernelResult(checksum=1.0))
    assert run(name).checksum == 1.0


def test_unknown_kernel_and_missing_params():
    with pytest.raises(UnknownKernel):
        run("noSuchKernel")
    with pytest.raises(MissingParameter):
        run("axpy")
    with pytest.raises(InvalidParameter):
        run("axpy", data_size=-1)


def test_communicator_rules():
    with pytest.raises(CommunicatorRequired):
        run("MPIallReduce", data_size=4)


def test_determinism_same_seed():
    assert run("axpy", data_size=1000, seed=7).checksum == \
        run("axpy", data_size=1000, seed=7).checksum
    assert run("axpy", data_size=1000, seed=7).checksum != \
        run("axpy", data_size=1000, seed=8).checksum


def test_kernel_event_emitted():
    from wfmini.trace import MetricsSink
    sink = MetricsSink()
    execute_kernel(KernelCall("RNG", {"data_size": 10}),
                   ctx=ctx_with(sink=sink, task_name="t0"))
    assert len(sink) == 1
    ev = sink[0]
    assert ev["kind"] == "kernel" and ev["kernel"] == "RNG" and ev["task"] == "t0"
    assert ev["t_end"] >= ev["t_start"]
