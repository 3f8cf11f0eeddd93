"""Emulated tasks: programs of catalog kernels executed SPMD across ranks.

A task runs `num_ranks` concurrent lanes joined by in-process message
channels; every lane executes the identical program. RNG state is salted by
rank id, so rank-dependent kernels decorrelate while staying reproducible.
"""
from __future__ import annotations

import threading
import time
import zlib
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    CollectiveMismatch,
    InvalidParameter,
    KernelFailure,
    SchemaError,
    UnknownKernel,
    UnknownParameter,
)
from .kernels import (
    DEFAULT_COPY_BANDWIDTH,
    Communicator,
    Device,
    KernelCall,
    KernelContext,
    Scratch,
    _CATALOG,
    execute_kernel,
    finite_number,
)
from .trace import MetricsSink, TaskRecord, task_records


@dataclass
class ProgramStep:
    kind: str  # "kernel" | "loop"
    kernel: KernelCall | None = None
    count: int = 1
    body: list = field(default_factory=list)

    def to_dict(self):
        if self.kind == "kernel":
            return {"kernel": self.kernel.kernel_name, "params": dict(self.kernel.params)}
        return {"loop": True, "count": self.count,
                "body": [s.to_dict() for s in self.body]}


@dataclass
class TaskSpec:
    name: str
    category: str
    num_ranks: int
    cpus_per_rank: int = 1
    gpus_per_rank: int = 0
    program: list = field(default_factory=list)
    phase: int | None = None

    def to_dict(self):
        d = {"name": self.name, "category": self.category,
             "num_ranks": self.num_ranks, "cpus_per_rank": self.cpus_per_rank,
             "gpus_per_rank": self.gpus_per_rank,
             "program": [s.to_dict() for s in self.program]}
        if self.phase is not None:
            d["phase"] = self.phase
        return d


def _parse_step(doc, where):
    if not isinstance(doc, dict):
        raise SchemaError(f"{where}: program step must be an object")
    if "loop" in doc or "body" in doc:
        count = doc.get("count")
        if not isinstance(count, int) or isinstance(count, bool) or count < 1:
            raise SchemaError(f"{where}: loop count must be an integer >= 1")
        body = doc.get("body")
        if not isinstance(body, list) or not body:
            raise SchemaError(f"{where}: loop body must be a non-empty list")
        steps = [_parse_step(b, f"{where}.body.{i}") for i, b in enumerate(body)]
        return ProgramStep(kind="loop", count=count, body=steps)
    name = doc.get("kernel")
    if not isinstance(name, str):
        raise SchemaError(f"{where}: step needs a 'kernel' name or 'loop'")
    if name not in _CATALOG:
        raise UnknownKernel(f"{where}: {name}")
    params = doc.get("params", {})
    if not isinstance(params, dict):
        raise SchemaError(f"{where}: params must be an object")
    try:
        Device.parse(params.get("device", "host"))
        if "bandwidth" in params:
            finite_number(params["bandwidth"], "bandwidth", positive=True)
    except InvalidParameter as e:
        raise SchemaError(f"{where}: {e}")
    return ProgramStep(kind="kernel", kernel=KernelCall(name, dict(params)))


def parse_task_spec(document) -> TaskSpec:
    """Validate a task document; unknown kernels are rejected here, not at
    run time."""
    if not isinstance(document, dict):
        raise SchemaError("task document must be an object")
    name = document.get("name")
    if not isinstance(name, str) or not name:
        raise SchemaError("task needs a non-empty 'name'")
    program_doc = document.get("program")
    if not isinstance(program_doc, list) or not program_doc:
        raise SchemaError(f"task {name}: program must be a non-empty list")
    num_ranks = document.get("num_ranks", 1)
    cpus = document.get("cpus_per_rank", 1)
    gpus = document.get("gpus_per_rank", 0)
    for label, value, minimum in (("num_ranks", num_ranks, 1),
                                  ("cpus_per_rank", cpus, 1),
                                  ("gpus_per_rank", gpus, 0)):
        if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
            raise SchemaError(f"task {name}: {label} must be an integer >= {minimum}")
    program = [_parse_step(s, f"{name}.program.{i}") for i, s in enumerate(program_doc)]
    spec = TaskSpec(name=name, category=document.get("category", "task"),
                    num_ranks=num_ranks, cpus_per_rank=cpus, gpus_per_rank=gpus,
                    program=program, phase=document.get("phase"))
    if gpus < 1 and _uses_accelerator(program):
        raise SchemaError(f"task {name}: accelerator kernels need gpus_per_rank >= 1")
    return spec


def walk_program(program, prefix="program"):
    """Yield (dotted path, step) for every step of a program, pre-order:
    each loop before its body."""
    for i, step in enumerate(program):
        path = f"{prefix}.{i}"
        yield path, step
        if step.kind == "loop":
            yield from walk_program(step.body, f"{path}.body")


def _uses_accelerator(program):
    for _, step in walk_program(program):
        if step.kind == "kernel":
            device = Device.parse(step.kernel.params.get("device", "host"))
            if device.kind == "accelerator":
                return True
    return False


def task_seed(global_seed: int, name: str) -> int:
    return (int(global_seed) ^ zlib.crc32(name.encode())) & 0xFFFFFFFF


def rank_seed(global_seed: int, name: str, rank_id: int) -> int:
    return task_seed(global_seed, name) ^ rank_id


# --------------------------------------------------------------------------
# execution

def _run_program(program, ctx):
    for step in program:
        if step.kind == "loop":
            for _ in range(step.count):
                _run_program(step.body, ctx)
        else:
            execute_kernel(step.kernel, ctx=ctx)


def run_task(spec: TaskSpec, sink: MetricsSink | None = None,
             seed: int = 0, clock=None, scratch: Scratch | None = None,
             copy_bandwidth: float = DEFAULT_COPY_BANDWIDTH,
             collective_timeout: float = 30.0) -> TaskRecord:
    """Execute one task: all ranks run the identical program concurrently.

    Each rank is one lane, a KernelContext on one thread that alone writes
    the lane's log: the calling thread runs rank 0 and one thread is started
    for each further rank. Rank 0's log is the task's: `task_start`, rank
    0's events, then, after the joins, the other lanes' logs in rank order
    and `task_end`, so the order does not depend on thread timing. The
    record is derived from that log, which goes to `sink` in one locked
    `extend`. It holds no slots: slots are the engine's to grant.

    Raises KernelFailure if any rank fails, naming the lowest rank that did
    not fail only by another rank's abort, else the lowest failing rank; the
    failed task's events still go to the sink. A scratch made here is
    cleaned up before returning.
    """
    own_scratch = scratch is None
    if own_scratch:
        scratch = Scratch()
    if clock is None:
        t0 = time.perf_counter()
        clock = lambda: time.perf_counter() - t0
    comm = Communicator(spec.num_ranks, timeout=collective_timeout)
    lane_logs = [MetricsSink() for _ in range(spec.num_ranks)]
    errors = [None] * spec.num_ranks

    def lane(rank_id):
        ctx = KernelContext(
            rank_id=rank_id, comm=comm, scratch=scratch,
            rng=np.random.default_rng(rank_seed(seed, spec.name, rank_id)),
            sink=lane_logs[rank_id], task_name=spec.name, clock=clock,
            copy_bandwidth=copy_bandwidth)
        try:
            _run_program(spec.program, ctx)
        except BaseException as e:  # the first failure aborts all ranks
            # (broken by another rank's abort, rank, error): min() names a cause first
            errors[rank_id] = (isinstance(e, CollectiveMismatch) and comm.aborted, rank_id, e)
            comm.abort()

    log = lane_logs[0]
    log.append({"kind": "task_start", "task": spec.name, "t": clock(),
                "ranks": spec.num_ranks, "category": spec.category})
    threads = [threading.Thread(target=lane, args=(r,), name=f"{spec.name}-r{r}")
               for r in range(1, spec.num_ranks)]
    for t in threads:
        t.start()
    lane(0)
    for t in threads:
        t.join()
    end = clock()
    for other in lane_logs[1:]:
        log.extend(other)
    failures = [e for e in errors if e is not None]
    status = "ok" if not failures else "failed"
    log.append({"kind": "task_end", "task": spec.name, "t": end, "status": status})
    if sink is not None:
        sink.extend(log)
    if own_scratch:
        scratch.cleanup()
    if failures:
        _, rank_id, err = min(failures)
        raise KernelFailure(f"task {spec.name} rank {rank_id}: {err}") from err
    return task_records(log, [spec.name])[0]


# --------------------------------------------------------------------------
# parameter addressing and scaling

def _walk(doc, path):
    """Resolve a dotted path against nested dicts/lists; returns (parent, key)."""
    *head, last = path.split(".")
    node = doc
    for seg in head:
        node = node[_key(node, seg, path)]
    return node, _key(node, last, path)


def _key(node, seg, path):
    if isinstance(node, list):
        try:
            idx = int(seg)
        except ValueError:
            raise UnknownParameter(f"{path}: {seg!r} is not a list index")
        if not 0 <= idx < len(node):
            raise UnknownParameter(f"{path}: index {idx} out of range")
        return idx
    if not isinstance(node, dict) or seg not in node:
        raise UnknownParameter(f"{path}: no element {seg!r}")
    return seg


def get_param(spec: TaskSpec, path: str):
    doc = spec.to_dict()
    parent, key = _walk(doc, path)
    return parent[key]


def scale_values(doc: dict, factors: dict):
    """Multiply addressed numeric values in a task/workflow document in
    place; integer values round to >= 1."""
    for path, factor in factors.items():
        if factor <= 0:
            raise InvalidParameter(f"factor for {path} must be > 0")
        parent, key = _walk(doc, path)
        value = parent[key]
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise UnknownParameter(f"{path}: value {value!r} is not numeric")
        if isinstance(value, int):
            parent[key] = max(1, int(value * factor + 0.5))
        else:
            parent[key] = value * factor


def scale_task(spec: TaskSpec, factors: dict) -> TaskSpec:
    """New spec with addressed counts/sizes multiplied; original unchanged.

    Paths address the task document, e.g. "program.0.count" or
    "program.1.body.0.params.dim".
    """
    doc = spec.to_dict()
    scale_values(doc, factors)
    return parse_task_spec(doc)
