"""The benchmark's workloads and the code that runs one sample of each.

Every workload is set up and run through wfmini's public functions, looked
up on their modules at call time so the span recorder can wrap them. The
program only ever receives generated documents or exemplar selectors; the
`dag_wide` generator below is benchmark code and is not timed.
"""
from __future__ import annotations

import os
import random
import shutil
import time
from dataclasses import dataclass
from pathlib import Path

from wfmini import engine, exemplars, metrics, trace
from wfmini.kernels import DEFAULT_COPY_BANDWIDTH, Scratch

import checks

# Every pool is capped at this many slots of each kind, and a pool wider than
# the machine's core count is refused: each rank lane is an OS thread, and
# more busy lanes than cores would measure the OS scheduler, not wfmini.
POOL_CAP = 2
COPY_BANDWIDTH = DEFAULT_COPY_BANDWIDTH
DESK_SCALE = 0.02

# dag_wide shape: fork-join stages, each STAGE_WIDTH tasks wide, joined by one
# task. TWO_RANK_SHARE of each stage are 2-rank tasks that need the whole
# 2-slot pool and so exercise the scheduler's blocked-task rescan.
STAGES = 2
STAGE_WIDTH = 250
TWO_RANK_SHARE = 0.15


class PoolTooWide(Exception):
    pass


def core_count():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def capped_pool(spec):
    """The spec's fitting pool, capped at POOL_CAP slots of each kind."""
    fit = engine.fitting_pool(spec)
    return trace.ResourcePool(1, min(fit.cpus_per_node, POOL_CAP),
                              min(fit.gpus_per_node, POOL_CAP))


def refuse_wide(pool):
    cores = core_count()
    if pool.num_cpu_slots > cores or pool.num_gpu_slots > cores:
        raise PoolTooWide(f"pool of {pool.num_cpu_slots} cpu / {pool.num_gpu_slots} gpu "
                          f"slots is wider than the {cores} cores here")


def dag_wide_document(seed: int) -> dict:
    """A seeded WfCommons-like fork-join workflow document.

    The shape (task count, stage widths, number of 2-rank tasks) is fixed;
    the seed picks which tasks have 2 ranks, their declaration order inside
    a stage, and their small kernel sizes."""
    rng = random.Random(seed)

    def task(name, ranks):
        io = rng.randrange(1, 5) * 1024
        program = [
            {"kernel": "reduction", "params": {"data_size": rng.randrange(64, 257)}},
            {"kernel": "writeNonMPI", "params": {"data_size": io}},
            {"kernel": "readNonMPI", "params": {"data_size": io}},
        ]
        if ranks == 2:
            program.append({"kernel": "MPIallReduce",
                            "params": {"data_size": rng.randrange(8, 33)}})
        return {"name": name, "category": name.split("_")[0], "num_ranks": ranks,
                "program": program}

    tasks = [task("fork_0", 1)]
    edges = []
    previous = "fork_0"
    two_rank = round(TWO_RANK_SHARE * STAGE_WIDTH)
    for stage in range(1, STAGES + 1):
        ranks = [2] * two_rank + [1] * (STAGE_WIDTH - two_rank)
        rng.shuffle(ranks)
        names = [f"stage{stage}_{i}" for i in range(STAGE_WIDTH)]
        for name, r in zip(names, ranks):
            tasks.append(task(name, r))
            edges.append([previous, name])
        join = f"join_{stage}"
        tasks.append(task(join, 1))
        edges += [[name, join] for name in names]
        previous = join
    return {"execution_model": "parallel", "tasks": tasks, "edges": edges}


@dataclass
class Sample:
    setup_s: float
    turnaround_s: float
    makespan_s: float
    problems: list
    fingerprint: str
    spec: object
    run: object         # the RunTrace execute returned
    trace_bytes: int


class Workload:
    """A workload is a setup (program calls only, timed as setup_s) plus a
    sample that runs the workflow end to end."""

    name = ""

    def __init__(self, seed):
        self.seed = seed

    def load(self):
        """The workflow spec, built by the program from its input."""
        raise NotImplementedError

    def setup(self):
        spec = self.load()
        engine.validate_dag(spec)
        return spec, capped_pool(spec)

    def sample(self, scratch_root: Path) -> Sample:
        """setup + execute + write_jsonl + read_jsonl + summarize, then the
        correctness checks (not timed)."""
        t0 = time.perf_counter()
        spec, pool = self.setup()
        t1 = time.perf_counter()
        run = engine.execute(spec, pool, seed=self.seed, scratch=Scratch(scratch_root),
                             copy_bandwidth=COPY_BANDWIDTH)
        path = scratch_root / "trace.jsonl"
        run.write_jsonl(path)
        summary = metrics.summarize(trace.RunTrace.read_jsonl(path))
        t2 = time.perf_counter()
        problems = checks.check_trace(spec, run, COPY_BANDWIDTH)
        want = checks.expected_io(spec).values()
        if (summary.read_bytes, summary.write_bytes) != (sum(r for r, _ in want),
                                                         sum(w for _, w in want)):
            problems.append("byte totals of the re-read trace differ from the spec")
        return Sample(setup_s=t1 - t0, turnaround_s=t2 - t0, makespan_s=summary.makespan,
                      problems=problems, fingerprint=checks.fingerprint(run), spec=spec,
                      run=run, trace_bytes=path.stat().st_size)


class IpSerial(Workload):
    name = "ip_serial"

    def load(self):
        return exemplars.build("ip:serial_cpu:V1", desk_scale=DESK_SCALE)


class DdmdAsync(Workload):
    name = "ddmd_async"

    def load(self):
        return exemplars.build("ddmd:async:V1", desk_scale=DESK_SCALE)


class DagWide(Workload):
    name = "dag_wide"

    def __init__(self, seed):
        super().__init__(seed)
        self.document = dag_wide_document(seed)

    def load(self):
        return engine.load_workflow(self.document)


WORKLOADS = {w.name: w for w in (IpSerial, DdmdAsync, DagWide)}


def warm_up(scratch_root: Path):
    """Run every kernel family the workloads use once, so lazy set-up (BLAS
    threads, first file creation, code paths) is done before timing."""
    doc = {"execution_model": "parallel", "tasks": [{
        "name": "warm", "num_ranks": 2, "gpus_per_rank": 1, "program": [
            {"kernel": "RNG", "params": {"data_size": 1000}},
            {"kernel": "matMulSimple2D", "params": {"dim": 32}},
            {"kernel": "matMulGeneral", "params": {"dim_list": [[16, 16, 16]]}},
            {"kernel": "axpy", "params": {"data_size": 1000}},
            {"kernel": "reduction", "params": {"data_size": 1000}},
            {"kernel": "inplaceCompute", "params": {"data_size": 1000, "functor": "square"}},
            {"kernel": "readNonMPI", "params": {"data_size": 4096}},
            {"kernel": "writeNonMPI", "params": {"data_size": 4096}},
            {"kernel": "dataCopyH2D", "params": {"data_size": 1000}},
            {"kernel": "dataCopyD2H", "params": {"data_size": 1000}},
            {"kernel": "MPIallReduce", "params": {"data_size": 100}},
        ]}]}
    spec = engine.load_workflow(doc)
    engine.execute(spec, trace.ResourcePool(1, 2, 2), seed=0, scratch=Scratch(scratch_root))
    shutil.rmtree(scratch_root, ignore_errors=True)
