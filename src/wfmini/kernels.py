"""The tunable kernel catalog: compute, file I/O, collectives, and
host<->device data movement, each parameterized and byte-exact in its
accounting.

Kernels execute on the invoking rank only; the catalog is immutable after
registration. Accelerator execution is emulated on host compute: results are
identical, compute time is scaled by the device slowdown factor and time
spent waiting in collectives is not.
"""
from __future__ import annotations

import math
import os
import tempfile
import threading
import time
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from urllib.parse import quote

import numpy as np

from . import ops
from .errors import (
    CollectiveMismatch,
    CommunicatorRequired,
    DuplicateKernel,
    InvalidParameter,
    MissingParameter,
    ScratchUnavailable,
    ShortRead,
    ShortWrite,
    SizeMismatch,
    UnknownKernel,
)
from .events import KernelEvent, MetricsSink

IO_BLOCK = 4 * 2 ** 20    # writes happen in 4 MiB blocks
WORK_BLOCK = 64 * 2 ** 10  # float64 elements in a lane's work block (512 KiB)
ELEMENT_WIDTH = 8          # communicated elements are double width

SCRATCH_ENV = "WFMINI_SCRATCH"
SEED_ENV = "WFMINI_SEED"
DEFAULT_COPY_BANDWIDTH = 4 * 2 ** 30  # bytes/s for emulated host<->device copies


def finite_number(value, label, positive=False) -> float:
    """`value` as a float if it is a finite real number (> 0 when
    `positive`); a bool, NaN or infinity raises InvalidParameter. JSON
    documents can carry NaN and Infinity, and the dwell model sleeps on
    these values."""
    x = None
    if isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool):
        try:
            x = float(value)
        except OverflowError:
            pass
    if x is None or not math.isfinite(x) or (positive and x <= 0):
        raise InvalidParameter(f"{label} must be a finite number{' > 0' if positive else ''}, "
                               f"got {value!r}")
    return x


@dataclass(frozen=True)
class Device:
    kind: str = "host"
    slowdown_factor: float = 1.0

    def __post_init__(self):
        if self.kind not in ("host", "accelerator"):
            raise InvalidParameter(f"unknown device kind {self.kind!r}")
        finite_number(self.slowdown_factor, "slowdown_factor", positive=True)
        if self.kind == "host" and self.slowdown_factor != 1.0:
            raise InvalidParameter("host device must have slowdown_factor 1.0")

    @classmethod
    def parse(cls, value):
        if isinstance(value, str):
            return cls(kind=value)
        if isinstance(value, dict):
            return cls(kind=value.get("kind", "host"),
                       slowdown_factor=value.get("slowdown_factor", 1.0))
        raise InvalidParameter(f"cannot interpret device {value!r}")


@dataclass
class KernelResult:
    wall_time: float = 0.0
    bytes_read: int = 0
    bytes_written: int = 0
    bytes_communicated: int = 0
    checksum: float = 0.0


@dataclass(frozen=True)
class KernelCall:
    kernel_name: str
    params: dict = field(default_factory=dict)


class Communicator:
    """In-process message links between the ranks of one task.

    Collectives require all ranks to participate; a rank that never shows up
    breaks the barrier for everyone after `timeout` seconds, and `abort()`
    breaks it at once. `waited[r]` is the total time rank r has spent in
    `barrier`, the one wait point.
    """

    def __init__(self, size, timeout=30.0):
        if size < 1:
            raise InvalidParameter("communicator size must be >= 1")
        self.size = size
        self.timeout = timeout
        self._barrier = threading.Barrier(size)
        self._slots = [None] * size
        self.waited = [0.0] * size
        self.aborted = False

    def abort(self):
        """Break the barrier for every rank, now and at every later
        collective; `aborted` then tells a rank why its collective failed."""
        self.aborted = True
        self._barrier.abort()

    def barrier(self, rank_id):
        t0 = time.perf_counter()
        try:
            self._barrier.wait(self.timeout)
        except threading.BrokenBarrierError:
            raise CollectiveMismatch(
                f"collective abandoned: not all {self.size} ranks participated")
        finally:
            self.waited[rank_id] += time.perf_counter() - t0

    def _exchange(self, rank_id, value):
        if not 0 <= rank_id < self.size:
            raise InvalidParameter(f"rank {rank_id} out of range for size {self.size}")
        self._slots[rank_id] = value
        self.barrier(rank_id)
        values = list(self._slots)
        self.barrier(rank_id)  # everyone has read; slots may be reused
        return values

    def allreduce(self, rank_id, data):
        """Elementwise sum across ranks; every rank gets the same result."""
        arr = np.asarray(data, dtype=np.float64)
        values = self._exchange(rank_id, arr)
        if len({v.shape for v in values}) != 1:
            raise SizeMismatch("allreduce buffers differ in shape across ranks")
        out = np.zeros_like(arr)
        for v in values:
            out = out + v
        return out

    def allgather(self, rank_id, data):
        """Concatenation of all ranks' buffers in rank order."""
        arr = np.asarray(data, dtype=np.float64)
        values = self._exchange(rank_id, arr)
        return np.concatenate([np.atleast_1d(v) for v in values])


class Scratch:
    """Scratch-directory manager: lazily staged read sources, per-rank write
    files, shared files for collective I/O. Thread-safe."""

    def __init__(self, root=None):
        root = Path(root or os.environ.get(SCRATCH_ENV)
                    or Path(tempfile.gettempdir()) / "wfmini-scratch")
        try:
            root.mkdir(parents=True, exist_ok=True)
            # unique probe name: concurrent Scratch instances may share root
            fd, probe = tempfile.mkstemp(prefix=".probe-", dir=root)
            os.close(fd)
            os.unlink(probe)
        except OSError as e:
            raise ScratchUnavailable(f"scratch {root} not writable: {e}")
        self.root = root
        self._lock = threading.Lock()
        self._written = set()

    def staged_source(self, size, name="stage-src.dat"):
        """Grow (never shrink) a staged file to at least `size` bytes."""
        path = self.root / name
        with self._lock:
            try:
                current = path.stat().st_size
            except FileNotFoundError:
                current = -1
            if current < size:
                with path.open("ab") as f:
                    f.truncate(size)
            self._written.add(path)
        return path

    def write_path(self, task_name, rank_id):
        return self._task_path(task_name, f"r{rank_id}")

    def shared_path(self, task_name):
        return self._task_path(task_name, "shared")

    def _task_path(self, task_name, suffix):
        # %-escaping every character outside [A-Za-z0-9_.~-] maps distinct
        # task names to distinct file names, "/" included
        path = self.root / f"{quote(task_name, safe='')}-{suffix}.dat"
        with self._lock:
            self._written.add(path)
        return path

    def cleanup(self):
        with self._lock:
            paths, self._written = self._written, set()
        for p in paths:
            try:
                p.unlink(missing_ok=True)
            except OSError:
                pass


@dataclass
class KernelContext:
    """Per-rank execution context handed to every kernel: one rank lane.

    The host/device pools, work block, operand memo and dwell clock are
    lane state, kept for the context's life. Both pools map a copy buffer's
    name to one shared read-only `(seed block, size, checksum)` entry; the
    buffer is the block tiled to `size` bytes. The default scratch manager
    (see `files`) and the work block are built on first use, so a context
    that runs only compute kernels touches no file system."""

    rank_id: int = 0
    comm: Communicator | None = None
    scratch: Scratch | None = None
    rng: np.random.Generator = None
    sink: MetricsSink | None = None
    task_name: str = "task"
    clock: callable = time.perf_counter
    copy_bandwidth: float = DEFAULT_COPY_BANDWIDTH
    pools: dict = field(default_factory=lambda: {"host": {}, "device": {}},
                        init=False, repr=False, compare=False)
    _block: np.ndarray | None = field(default=None, init=False, repr=False,
                                      compare=False)
    _operands: dict = field(default_factory=dict, init=False, repr=False,
                            compare=False)
    _ordinal: int = field(default=0, init=False, repr=False, compare=False)
    _overslept: float = field(default=0.0, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.rng is None:
            self.rng = np.random.default_rng(int(os.environ.get(SEED_ENV, "0")))

    def files(self) -> Scratch:
        """The lane's scratch manager, a default one built on first use."""
        if self.scratch is None:
            self.scratch = Scratch()
        return self.scratch

    def work_block(self) -> np.ndarray:
        """The lane's reusable float64 block of WORK_BLOCK elements: large
        kernel buffers stream through it instead of being allocated whole."""
        if self._block is None:
            self._block = np.empty(WORK_BLOCK)
        return self._block

    def operand(self, n) -> np.ndarray:
        """The lane's read-only float64 operand of length n for this position
        among the current kernel call's requests.

        The first request for a (length, position) draws it from the lane
        generator, so a kernel's first call draws what a fresh buffer would;
        later calls of the same shape reuse it."""
        key = (n, self._ordinal)
        self._ordinal += 1
        buf = self._operands.get(key)
        if buf is None:
            buf = seeded_buffer(self.rng, n)
            buf.setflags(write=False)
            self._operands[key] = buf
        return buf

    def dwell(self, seconds):
        """Emulated busy time: sleep `seconds` less the previous oversleep.

        The OS wakes a sleeper late; crediting that to the next dwell keeps
        the lane's total dwell at or above the modelled total and above it
        by at most one oversleep."""
        want = seconds - self._overslept
        slept = 0.0
        if want > 0:
            t0 = time.perf_counter()
            time.sleep(want)
            slept = time.perf_counter() - t0
        self._overslept = slept - want


# --------------------------------------------------------------------------
# catalog machinery

@dataclass(frozen=True)
class KernelDef:
    name: str
    fn: callable
    required: tuple = ()
    needs_comm: bool = False


_CATALOG: dict[str, KernelDef] = {}


def register_kernel(name, impl, required=(), needs_comm=False):
    """Add a kernel `impl(ctx, params) -> KernelResult` to the catalog;
    registered kernels dispatch and trace identically to built-ins."""
    if name in _CATALOG:
        raise DuplicateKernel(name)
    _CATALOG[name] = KernelDef(name=name, fn=impl, required=tuple(required),
                               needs_comm=needs_comm)


def catalog_names():
    return sorted(_CATALOG)


def kernel_def(name) -> KernelDef:
    try:
        return _CATALOG[name]
    except KeyError:
        raise UnknownKernel(name)


def _positive_int(params, key, minimum=1):
    value = params[key]
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool) or value < minimum:
        raise InvalidParameter(f"{key} must be an integer >= {minimum}, got {value!r}")
    return int(value)


def _waited(ctx):
    """Seconds the context's rank has spent in collective barriers so far."""
    return ctx.comm.waited[ctx.rank_id] if ctx.comm is not None else 0.0


def execute_kernel(call: KernelCall, ctx: KernelContext | None = None) -> KernelResult:
    """Run one catalog kernel `repetitions` times on the lane `ctx` and
    aggregate the result.

    One kernel event is appended to the ctx's sink, if it has one.
    """
    kdef = kernel_def(call.kernel_name)
    if ctx is None:
        ctx = KernelContext()
    if kdef.needs_comm and ctx.comm is None:
        raise CommunicatorRequired(f"{kdef.name} is a collective and needs a communicator")

    params = {"repetitions": 1, **call.params}
    reps = _positive_int(params, "repetitions")
    del params["repetitions"]
    for key in kdef.required:
        if key not in params:
            raise MissingParameter(f"{kdef.name} requires parameter {key!r}")
    slowdown = Device.parse(params.pop("device")).slowdown_factor if "device" in params else 1.0

    agg = KernelResult()
    t_start = ctx.clock()
    wall = 0.0
    for _ in range(reps):
        ctx._ordinal = 0
        wait0 = _waited(ctx)
        t0 = time.perf_counter()
        part = kdef.fn(ctx, params)
        elapsed = time.perf_counter() - t0
        if slowdown != 1.0:
            # the device slows compute; time spent waiting for other ranks
            # is not scaled, or each rank's slowed wait would feed the next
            wait = _waited(ctx) - wait0
            compute = elapsed - wait
            extra = compute * (slowdown - 1.0)
            if extra > 0:
                ctx.dwell(extra)
            elapsed = compute * slowdown + wait
        wall += elapsed
        agg.bytes_read += part.bytes_read
        agg.bytes_written += part.bytes_written
        agg.bytes_communicated += part.bytes_communicated
        agg.checksum = part.checksum
    agg.wall_time = wall
    if ctx.sink is not None:
        ctx.sink.append(KernelEvent(
            ctx.task_name, ctx.rank_id, kdef.name, t_start, ctx.clock(), wall,
            agg.bytes_read, agg.bytes_written, agg.bytes_communicated, agg.checksum))
    return agg


# --------------------------------------------------------------------------
# compute kernels

_SEED_BLOCK = 4096


def seeded_buffer(rng, n, dtype=np.float64):
    """Deterministic length-n buffer from a small seeded block.

    Tiling a block of at most 4 Ki values keeps rank lanes from serializing
    on the GIL-held generator while staying reproducible: each call makes
    one block draw. Kernels get their operands through
    `KernelContext.operand`, which calls this once per lane and shape; data
    copies call it with n at most the block size and keep only the block."""
    m = min(n, _SEED_BLOCK)
    if dtype == np.uint8:
        block = rng.integers(0, 256, m, dtype=np.uint8)
    else:
        block = rng.random(m)
    return block if n == m else np.resize(block, n)


def _k_matmul_simple2d(ctx, params):
    """matMulGeneral of the one square triple (dim, dim, dim)."""
    dim = _positive_int(params, "dim")
    return _k_matmul_general(ctx, {"dim_list": [(dim, dim, dim)]})


def _k_matmul_general(ctx, params):
    dims = params["dim_list"]
    if not isinstance(dims, (list, tuple)):
        raise InvalidParameter("dim_list must be a list of (m, k, n) triples")
    checksum = 0.0
    for triple in dims:
        if (not isinstance(triple, (list, tuple)) or len(triple) != 3
                or any(not isinstance(d, (int, np.integer)) or isinstance(d, bool) or d < 1
                       for d in triple)):
            raise InvalidParameter(f"bad dimension triple {triple!r}")
        m, k, n = (int(d) for d in triple)
        a = ctx.operand(m * k).reshape(m, k)
        b = ctx.operand(k * n).reshape(k, n)
        c = ops.matmul(a, b)
        checksum += float(c.sum())
    return KernelResult(checksum=checksum)


def _k_fft(ctx, params):
    n = _positive_int(params, "data_size", minimum=0)
    if not ops.is_power_of_two(n) or n < 2:
        raise InvalidParameter(f"fft data_size must be a power of two >= 2, got {n}")
    span = _positive_int(params, "transform_dim", minimum=2) if "transform_dim" in params else n
    if not ops.is_power_of_two(span) or span < 2 or n % span:
        raise InvalidParameter(
            f"transform_dim must be a power of two >= 2 dividing data_size, got {span}")
    data = ctx.operand(n) + 1j * ctx.operand(n)
    checksum = 0.0
    for chunk in data.reshape(n // span, span):
        checksum += float(np.abs(ops.fft(chunk)).sum())
    return KernelResult(checksum=checksum)


def _k_rng(ctx, params):
    n = _positive_int(params, "data_size")
    dist = params.get("distribution", "uniform")
    if dist not in ("uniform", "normal"):
        raise InvalidParameter(f"unknown distribution {dist!r}")
    if "seed" in params:
        gen = np.random.default_rng(_positive_int(params, "seed", minimum=0))
    else:
        gen = ctx.rng
    fill = gen.random if dist == "uniform" else gen.standard_normal
    # drawing block by block consumes the stream exactly as one whole draw
    # would; the checksum is the sum of the per-block sums
    block = ctx.work_block()
    checksum = 0.0
    for start in range(0, n, block.size):
        part = block[:n - start]
        fill(out=part)
        checksum += float(part.sum())
    return KernelResult(checksum=checksum)


def _k_axpy(ctx, params):
    n = _positive_int(params, "data_size")
    a = finite_number(params.get("a", 1.0), "a")
    x = ctx.operand(n)
    y = ctx.operand(n)
    out = ops.axpy(a, x, y)
    return KernelResult(checksum=float(out.sum()))


def _k_scatter_add(ctx, params):
    x_size = _positive_int(params, "x_size")
    y_size = _positive_int(params, "y_size")
    x = ctx.operand(x_size)
    idx = ctx.rng.integers(0, y_size, x_size)
    y = ops.scatter_add(x, idx, np.zeros(y_size))
    return KernelResult(checksum=float(y.sum()))


def _k_reduction(ctx, params):
    n = _positive_int(params, "data_size")
    return KernelResult(checksum=ops.reduction(ctx.operand(n)))


def _k_inplace_compute(ctx, params):
    n = _positive_int(params, "data_size")
    functor = params["functor"]
    y = ops.inplace_compute(functor, ctx.operand(n))
    return KernelResult(checksum=float(y.sum()))


# --------------------------------------------------------------------------
# file I/O kernels

# writes send slices of this view, so no block is copied per write
_ZERO_BLOCK = memoryview(bytes(IO_BLOCK))


def _transfer(ctx, path, size, offset, mode):
    """Move `size` bytes at `offset` of `path`, reading them into the lane's
    work block ("rb") or writing zeros ("ab" appends, "r+b" overwrites). A
    short read or any OS error raises ShortRead or ShortWrite."""
    reading = mode == "rb"
    error = ShortRead if reading else ShortWrite
    buf = memoryview(ctx.work_block()).cast("B") if reading else _ZERO_BLOCK
    count = 0
    try:
        with open(path, mode, buffering=0) as f:
            f.seek(offset)
            while count < size:
                chunk = buf[:size - count]
                n = f.readinto(chunk) if reading else f.write(chunk)
                if not n:
                    raise error(f"moved {count} of {size} bytes at {path}:{offset}")
                count += n
    except OSError as e:
        raise error(f"moved {count} of {size} bytes at {path}:{offset}: {e}")
    if reading:
        return KernelResult(bytes_read=count)
    return KernelResult(bytes_written=count)


def _k_read_nonmpi(ctx, params):
    size = _positive_int(params, "data_size", minimum=0)
    if size == 0:
        return KernelResult()
    return _transfer(ctx, ctx.files().staged_source(size), size, 0, "rb")


def _k_write_nonmpi(ctx, params):
    size = _positive_int(params, "data_size", minimum=0)
    if size == 0:
        return KernelResult()
    path = ctx.files().write_path(ctx.task_name, ctx.rank_id)
    return _transfer(ctx, path, size, 0, "ab")


def _mpi_io(ctx, params, mode):
    size = _positive_int(params, "data_size", minimum=0)
    scratch = ctx.files()
    path = scratch.shared_path(ctx.task_name)
    # a read needs every rank's bytes staged; a write needs the file to exist
    staged = ctx.comm.size * size if mode == "rb" else 0
    scratch.staged_source(staged, name=path.name)
    ctx.comm.barrier(ctx.rank_id)
    return _transfer(ctx, path, size, ctx.rank_id * size, mode)


_k_read_mpi = partial(_mpi_io, mode="rb")
_k_write_mpi = partial(_mpi_io, mode="r+b")


# --------------------------------------------------------------------------
# collectives

def _k_allreduce(ctx, params):
    n = _positive_int(params, "data_size")
    data = ctx.operand(n)
    out = ctx.comm.allreduce(ctx.rank_id, data)
    comm_bytes = n * ELEMENT_WIDTH * (ctx.comm.size - 1)  # ring model, per rank
    return KernelResult(bytes_communicated=comm_bytes, checksum=float(out.sum()))


def _k_allgather(ctx, params):
    n = _positive_int(params, "data_size")
    data = ctx.operand(n)
    out = ctx.comm.allgather(ctx.rank_id, data)
    comm_bytes = n * ELEMENT_WIDTH * (ctx.comm.size - 1)
    return KernelResult(bytes_communicated=comm_bytes, checksum=float(out.sum()))


# --------------------------------------------------------------------------
# host<->device data movement

def _data_copy(ctx, params, direction):
    size = _positive_int(params, "data_size", minimum=0)
    bandwidth = finite_number(params.get("bandwidth", ctx.copy_bandwidth), "bandwidth",
                              positive=True)
    if size == 0:
        return KernelResult()
    src_pool, dst_pool = (("host", "device") if direction == "h2d"
                          else ("device", "host"))
    key = params.get("buffer", "default")
    entry = ctx.pools[src_pool].get(key)
    if entry is None or entry[1] != size:
        # exact checksum of the block tiled to `size`, without building it
        block = seeded_buffer(ctx.rng, min(size, _SEED_BLOCK), dtype=np.uint8)
        block.setflags(write=False)
        full, rest = divmod(size, block.size)
        total = full * int(block.sum(dtype=np.int64)) + int(block[:rest].sum(dtype=np.int64))
        entry = ctx.pools[src_pool][key] = (block, size, float(total))
    ctx.pools[dst_pool][key] = entry
    ctx.dwell(size / bandwidth)
    return KernelResult(checksum=entry[2])


_k_copy_h2d = partial(_data_copy, direction="h2d")
_k_copy_d2h = partial(_data_copy, direction="d2h")


register_kernel("matMulSimple2D", _k_matmul_simple2d, required=("dim",))
register_kernel("matMulGeneral", _k_matmul_general, required=("dim_list",))
register_kernel("fft", _k_fft, required=("data_size",))
register_kernel("RNG", _k_rng, required=("data_size",))
register_kernel("axpy", _k_axpy, required=("data_size",))
register_kernel("scatterAdd", _k_scatter_add, required=("x_size", "y_size"))
register_kernel("reduction", _k_reduction, required=("data_size",))
register_kernel("inplaceCompute", _k_inplace_compute, required=("data_size", "functor"))
register_kernel("readNonMPI", _k_read_nonmpi, required=("data_size",))
register_kernel("writeNonMPI", _k_write_nonmpi, required=("data_size",))
register_kernel("readWithMPI", _k_read_mpi, required=("data_size",), needs_comm=True)
register_kernel("writeWithMPI", _k_write_mpi, required=("data_size",), needs_comm=True)
register_kernel("MPIallReduce", _k_allreduce, required=("data_size",), needs_comm=True)
register_kernel("MPIallReduceAsync", _k_allreduce, required=("data_size",),
                needs_comm=True)
register_kernel("MPIallGather", _k_allgather, required=("data_size",), needs_comm=True)
register_kernel("dataCopyH2D", _k_copy_h2d, required=("data_size",))
register_kernel("dataCopyD2H", _k_copy_d2h, required=("data_size",))
register_kernel("dataCopyH2DAsync", _k_copy_h2d, required=("data_size",))
register_kernel("dataCopyD2HAsync", _k_copy_d2h, required=("data_size",))
