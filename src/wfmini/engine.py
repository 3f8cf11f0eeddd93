"""DAG workflow specification and a pilot-style executor.

The executor acquires a fixed slot pool once, then schedules ready tasks
onto free slots, FIFO by declaration order. The pool is held for the whole
run, so idle slots count toward the utilization denominator.
"""
from __future__ import annotations

import heapq
import queue
import threading
import time
import uuid
from dataclasses import dataclass, field, replace

from .errors import (
    CycleDetected,
    InsufficientPool,
    SchemaError,
    ShapeMismatch,
    TaskFailed,
    UnknownTaskReference,
)
from .kernels import DEFAULT_COPY_BANDWIDTH, Scratch
from .tasks import TaskSpec, parse_task_spec, run_task
from .trace import MetricsSink, ResourcePool, RunTrace

EXECUTION_MODELS = ("serial", "parallel", "sync", "async")


@dataclass
class WorkflowConfig:
    """The configuration knobs a workflow family varies across experiments."""

    num_nodes: int = 1
    num_cpus: int = 1
    num_gpus: int = 0
    ranks: dict = field(default_factory=dict)  # category -> rank count
    epochs: int = 1
    data_scale: float = 1.0
    phases: int = 1
    steps: int = 1

    def __post_init__(self):
        if self.data_scale <= 0:
            raise ValueError("data_scale must be > 0")
        for label in ("num_nodes", "epochs", "phases", "steps"):
            if getattr(self, label) < 1:
                raise ValueError(f"{label} must be >= 1")

    def to_dict(self):
        return {"num_nodes": self.num_nodes, "num_cpus": self.num_cpus,
                "num_gpus": self.num_gpus, "ranks": dict(self.ranks),
                "epochs": self.epochs, "data_scale": self.data_scale,
                "phases": self.phases, "steps": self.steps}

    @classmethod
    def from_dict(cls, d):
        return cls(**d)


@dataclass(frozen=True)
class WorkflowSpec:
    tasks: tuple = ()
    edges: tuple = ()  # (predecessor, successor) names
    phases: int = 1
    execution_model: str = "parallel"

    def __post_init__(self):
        fields = self.__dict__  # frozen: fields are set past __setattr__
        fields["tasks"] = tuple(fields["tasks"])
        fields["edges"] = tuple(fields["edges"])

    @property
    def index(self) -> DagIndex:
        """The DAG index, built on first use and kept. Not a cached_property:
        on Python 3.11 its first access takes a lock, 1.5 µs or more."""
        index = self.__dict__.get("_index")
        if index is None:
            index = self.__dict__["_index"] = DagIndex(self)
        return index

    def task(self, name) -> TaskSpec:
        at = self.index.pos.get(name)
        if at is None:
            raise UnknownTaskReference(name)
        return self.tasks[at]

    @property
    def task_names(self):
        return [t.name for t in self.tasks]

    def to_dict(self):
        return {"execution_model": self.execution_model, "phases": self.phases,
                "tasks": [t.to_dict() for t in self.tasks],
                "edges": [list(e) for e in self.edges]}


class DagIndex:
    """A spec's DAG by declaration position: `pos` (name -> position), the
    `names`, each task's `preds` and `succs` (a repeated edge repeats) and
    the topological `order`, by Kahn's algorithm: sources in declaration
    order, then tasks as their last predecessor releases them."""

    _cycle = None  # the names along one cycle, if the edges hold one

    def __init__(self, spec: WorkflowSpec):
        self.pos = pos = {t.name: i for i, t in enumerate(spec.tasks)}
        if len(pos) < len(spec.tasks):
            raise SchemaError("duplicate task names in workflow")
        self.names = names = list(pos)
        self.preds = preds = [[] for _ in names]
        self.succs = succs = [[] for _ in names]
        try:
            for p, s in spec.edges:
                p, s = pos[p], pos[s]
                preds[s].append(p)
                succs[p].append(s)
        except KeyError as e:
            raise UnknownTaskReference(f"edge endpoint {e.args[0]!r} not declared") from None
        indeg = list(map(len, preds))
        self._order = order = [i for i, d in enumerate(indeg) if not d]
        for i in order:  # order grows as tasks are released
            for s in succs[i]:
                indeg[s] -= 1
                if not indeg[s]:
                    order.append(s)
        if len(order) < len(indeg):
            # every left-over task has a left-over predecessor, so walking back
            # through them must repeat a task; the walk from there is a cycle
            i = next(i for i, d in enumerate(indeg) if d)
            walk, seen = [], {}
            while i not in seen:
                seen[i] = len(walk)
                walk.append(i)
                i = next(p for p in preds[i] if indeg[p])
            self._cycle = [names[j] for j in [i] + walk[seen[i]:][::-1]]

    @property
    def order(self) -> list:
        """Raises CycleDetected, reporting one cycle, if the edges hold one."""
        if self._cycle is not None:
            raise CycleDetected(self._cycle)
        return self._order


def load_workflow(document) -> WorkflowSpec:
    if not isinstance(document, dict):
        raise SchemaError("workflow document must be an object")
    model = document.get("execution_model", "parallel")
    if model not in EXECUTION_MODELS:
        raise SchemaError(f"unknown execution_model {model!r}")
    tasks_doc = document.get("tasks")
    if not isinstance(tasks_doc, list) or not tasks_doc:
        raise SchemaError("workflow needs a non-empty 'tasks' list")
    tasks = [parse_task_spec(t) for t in tasks_doc]
    edges = []
    for e in document.get("edges", []):
        if not isinstance(e, (list, tuple)) or len(e) != 2:
            raise SchemaError(f"edge {e!r} must be a [pred, succ] pair")
        edges.append(tuple(e))
    phases = document.get("phases", 1)
    if not isinstance(phases, int) or phases < 1:
        raise SchemaError("phases must be an integer >= 1")
    spec = WorkflowSpec(tasks=tasks, edges=edges, phases=phases, execution_model=model)
    spec.index  # rejects repeated task names and undeclared edge endpoints
    return spec


def validate_dag(spec: WorkflowSpec):
    """Raise CycleDetected (reporting one cycle) unless the edge relation is
    acyclic."""
    spec.index.order


def topological_order(spec: WorkflowSpec):
    index = spec.index
    return [index.names[i] for i in index.order]


def critical_path(spec: WorkflowSpec, durations: dict) -> float:
    """Length of the longest dependency-weighted path."""
    missing = set(spec.task_names) - set(durations)
    if missing:
        raise KeyError(f"durations missing for tasks: {sorted(missing)}")
    index = spec.index
    finish = [0.0] * len(index.names)
    for i in index.order:
        start = max((finish[p] for p in index.preds[i]), default=0.0)
        finish[i] = start + durations[index.names[i]]
    return max(finish, default=0.0)


# --------------------------------------------------------------------------
# executor

def _demand(task: TaskSpec):
    """The (cpu, gpu) slot counts a task takes."""
    return task.num_ranks * task.cpus_per_rank, task.num_ranks * task.gpus_per_rank


class _Scheduler:
    """The start rule, with no threads, clock or sink. Ready tasks wait in
    one heap of declaration positions per slot demand `(cpus, gpus)`, and
    `starts()` takes the earliest head that fits until none fits (none while
    a task runs under the serial model). Within a demand only the head can
    fit first, and taking slots never makes a skipped task fit, so this
    starts what a first-fit scan of the ready tasks in declaration order
    would, in the same order, on the lowest free slot ids."""

    def __init__(self, spec: WorkflowSpec, pool: ResourcePool):
        for t in spec.tasks:
            # each rank's lane is a thread, so each rank takes a cpu slot
            if t.num_ranks < 1 or t.cpus_per_rank < 1:
                raise SchemaError(f"task {t.name}: num_ranks and cpus_per_rank must be >= 1")
            n_cpu, n_gpu = _demand(t)
            if n_cpu > pool.num_cpu_slots or n_gpu > pool.num_gpu_slots:
                raise InsufficientPool(
                    f"task {t.name} needs {n_cpu} cpu / {n_gpu} gpu slots; pool has "
                    f"{pool.num_cpu_slots} / {pool.num_gpu_slots}")
        self.succs = spec.index.succs
        self.demands = [_demand(t) for t in spec.tasks]
        # slot ids are lists, as a re-read trace holds them
        self.free = {"cpu": [list(s) for s in pool.slots if s[0] == "cpu"],
                     "gpu": [list(s) for s in pool.slots if s[0] == "gpu"]}
        self.pending = [len(ps) for ps in spec.index.preds]
        self.ready = {}  # slot demand -> heap of declaration positions
        for i, demand in enumerate(self.demands):
            if not self.pending[i]:
                heapq.heappush(self.ready.setdefault(demand, []), i)
        self.running = {}  # position -> slots
        self.serial = spec.execution_model == "serial"

    def fits(self, demand):
        n_cpu, n_gpu = demand
        return len(self.free["cpu"]) >= n_cpu and len(self.free["gpu"]) >= n_gpu

    def starts(self) -> list:
        """(position, slots) of each task to start now, in start order."""
        started = []
        while not (self.serial and self.running):
            heads = [(h[0], d) for d, h in self.ready.items() if h and self.fits(d)]
            if not heads:
                break
            i, (n_cpu, n_gpu) = min(heads)
            heapq.heappop(self.ready[n_cpu, n_gpu])
            cpu, gpu = self.free["cpu"], self.free["gpu"]
            slots = self.running[i] = cpu[:n_cpu] + gpu[:n_gpu]
            del cpu[:n_cpu], gpu[:n_gpu]
            started.append((i, slots))
        return started

    def complete(self, i, ok) -> list:
        """Free task `i`'s slots and return them; if `ok`, release its successors."""
        slots = self.running.pop(i)
        for s in slots:
            self.free[s[0]].append(s)
        self.free["cpu"].sort()
        self.free["gpu"].sort()
        if ok:
            for s in self.succs[i]:
                self.pending[s] -= 1
                if not self.pending[s]:
                    heapq.heappush(self.ready.setdefault(self.demands[s], []), s)
        return slots


def execute(spec: WorkflowSpec, pool: ResourcePool, seed: int = 0,
            scratch: Scratch | None = None,
            copy_bandwidth: float = DEFAULT_COPY_BANDWIDTH,
            run_id: str | None = None) -> RunTrace:
    """Run every task exactly once, honoring dependencies and slot
    exclusivity. A task failure aborts the run (TaskFailed, naming the
    failed task declared first): nothing more starts, and the running tasks
    are waited for. A `_Scheduler` decides every start; this thread launches
    one thread per start and feeds each completion back to it. A task's
    thread writes the task's log; this thread alone writes the run's log."""
    validate_dag(spec)
    scheduler = _Scheduler(spec, pool)
    own_scratch = scratch is None
    if own_scratch:
        scratch = Scratch()
    sink = MetricsSink()
    t0 = time.perf_counter()
    clock = lambda: time.perf_counter() - t0
    done_q = queue.Queue()
    names = spec.index.names
    failure = None

    def body(i):
        events = MetricsSink()
        try:
            run_task(spec.tasks[i], sink=events, seed=seed, clock=clock, scratch=scratch,
                     copy_bandwidth=copy_bandwidth)
            done_q.put((i, events, None))
        except BaseException as e:  # SystemExit too, or the run waits forever
            done_q.put((i, events, e))

    # only this thread grows the run's log, so a task's events land just
    # before its slot_idle events with no other task's events between them
    while True:
        starts = scheduler.starts() if failure is None else []
        for i, slots in starts:
            now = clock()
            for s in slots:
                sink.append({"kind": "slot_busy", "slot": list(s), "task": names[i], "t": now})
            threading.Thread(target=body, args=(i,), name=f"task-{names[i]}").start()
        if not scheduler.running:
            break
        i, events, err = done_q.get()
        sink.extend(events)
        now = clock()
        for s in scheduler.complete(i, err is None):
            sink.append({"kind": "slot_idle", "slot": list(s), "task": names[i], "t": now})
        if err is not None and (failure is None or i < failure[0]):
            failure = (i, err)

    if own_scratch:
        scratch.cleanup()
    if failure is not None:
        i, err = failure
        raise TaskFailed(f"task {names[i]} failed: {err}") from err
    # records in declaration order: completion order depends on thread timing
    return RunTrace(run_id=run_id or uuid.uuid4().hex[:12], pool=pool,
                    events=sink, tasks=spec.task_names)


# --------------------------------------------------------------------------
# execution-model transforms

def async_overlap(spec: WorkflowSpec) -> WorkflowSpec:
    """Drop the next phase's simulation dependency on this phase's training
    so simulations of phase i+1 overlap training of phase i.

    Training keeps its phase-to-phase chain; selection/agent dependencies are
    preserved.
    """
    by_phase_cat = {}
    for t in spec.tasks:
        if t.phase is None:
            raise ShapeMismatch(f"task {t.name} has no phase annotation")
        by_phase_cat.setdefault((t.phase, t.category), []).append(t.name)
    phases = sorted({p for p, _ in by_phase_cat})
    for p in phases:
        if not by_phase_cat.get((p, "simulation")):
            raise ShapeMismatch(f"phase {p} has no simulation tasks")
        if len(by_phase_cat.get((p, "training"), [])) != 1:
            raise ShapeMismatch(f"phase {p} must have exactly one training task")
    if len(phases) < 2:
        return replace(spec, execution_model="async")
    drop = set()
    for p in phases[:-1]:
        train = by_phase_cat[(p, "training")][0]
        next_sims = set(by_phase_cat.get((p + 1, "simulation"), []))
        drop |= {(train, s) for s in next_sims}
    edges = [e for e in spec.edges if e not in drop]
    return WorkflowSpec(tasks=spec.tasks, edges=edges, phases=spec.phases,
                        execution_model="async")


def fitting_pool(spec: WorkflowSpec) -> ResourcePool:
    """A single-node pool large enough for the widest group of tasks that
    may run at once: a phase, or under the serial model a single task."""
    serial = spec.execution_model == "serial"
    cpus, gpus = {}, {}  # phase, or position under serial -> summed _demand
    for i, t in enumerate(spec.tasks):
        key = i if serial else t.phase
        cpus[key] = cpus.get(key, 0) + t.num_ranks * t.cpus_per_rank
        gpus[key] = gpus.get(key, 0) + t.num_ranks * t.gpus_per_rank
    return ResourcePool(num_nodes=1, cpus_per_node=max(max(cpus.values()), 1),
                        gpus_per_node=max(gpus.values()))
