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
from .trace import MetricsSink, ResourcePool, RunTrace, task_records

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


@dataclass
class WorkflowSpec:
    tasks: list = field(default_factory=list)
    edges: list = field(default_factory=list)  # (predecessor, successor) names
    phases: int = 1
    execution_model: str = "parallel"

    def task(self, name) -> TaskSpec:
        for t in self.tasks:
            if t.name == name:
                return t
        raise UnknownTaskReference(name)

    @property
    def task_names(self):
        return [t.name for t in self.tasks]

    def to_dict(self):
        return {"execution_model": self.execution_model, "phases": self.phases,
                "tasks": [t.to_dict() for t in self.tasks],
                "edges": [list(e) for e in self.edges]}


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
    names = {t.name for t in tasks}
    if len(names) != len(tasks):
        raise SchemaError("duplicate task names in workflow")
    edges = []
    for e in document.get("edges", []):
        if not isinstance(e, (list, tuple)) or len(e) != 2:
            raise SchemaError(f"edge {e!r} must be a [pred, succ] pair")
        pred, succ = e
        for endpoint in (pred, succ):
            if endpoint not in names:
                raise UnknownTaskReference(f"edge endpoint {endpoint!r} not declared")
        edges.append((pred, succ))
    phases = document.get("phases", 1)
    if not isinstance(phases, int) or phases < 1:
        raise SchemaError("phases must be an integer >= 1")
    return WorkflowSpec(tasks=tasks, edges=edges, phases=phases, execution_model=model)


def _graph(spec: WorkflowSpec):
    """Per-task predecessor and successor lists; a repeated edge repeats."""
    preds = {name: [] for name in spec.task_names}
    succs = {name: [] for name in preds}
    for p, s in spec.edges:
        preds[s].append(p)
        succs[p].append(s)
    return preds, succs


def _kahn(preds, succs):
    """Topological order by Kahn's algorithm: sources in declaration order,
    then tasks as their last predecessor releases them. Raises CycleDetected
    (reporting one cycle) when tasks are left over."""
    indeg = {name: len(ps) for name, ps in preds.items()}
    order = [name for name, d in indeg.items() if d == 0]
    for name in order:  # order grows as tasks are released
        for s in succs[name]:
            indeg[s] -= 1
            if indeg[s] == 0:
                order.append(s)
    if len(order) < len(indeg):
        # every left-over task has a left-over predecessor, so walking back
        # through them must repeat a task; the walk from there is a cycle
        name = next(n for n, d in indeg.items() if d)
        walk, seen = [], {}
        while name not in seen:
            seen[name] = len(walk)
            walk.append(name)
            name = next(p for p in preds[name] if indeg[p])
        raise CycleDetected([name] + walk[seen[name]:][::-1])
    return order


def validate_dag(spec: WorkflowSpec):
    """Raise CycleDetected (reporting one cycle) unless the edge relation is
    acyclic."""
    _kahn(*_graph(spec))


def topological_order(spec: WorkflowSpec):
    return _kahn(*_graph(spec))


def critical_path(spec: WorkflowSpec, durations: dict) -> float:
    """Length of the longest dependency-weighted path."""
    missing = set(spec.task_names) - set(durations)
    if missing:
        raise KeyError(f"durations missing for tasks: {sorted(missing)}")
    preds, succs = _graph(spec)
    finish = {}
    for name in _kahn(preds, succs):
        start = max((finish[p] for p in preds[name]), default=0.0)
        finish[name] = start + durations[name]
    return max(finish.values(), default=0.0)


# --------------------------------------------------------------------------
# executor

def _demand(task: TaskSpec):
    """The (cpu, gpu) slot counts a task takes."""
    return task.num_ranks * task.cpus_per_rank, task.num_ranks * task.gpus_per_rank


class _SlotBank:
    """Free lists of cpu/gpu slot ids; first-fit by node, cpus before gpus."""

    def __init__(self, pool: ResourcePool):
        # slot ids are lists, as a re-read trace holds them
        self.free = {"cpu": [list(s) for s in pool.slots if s[0] == "cpu"],
                     "gpu": [list(s) for s in pool.slots if s[0] == "gpu"]}

    def fits(self, spec: TaskSpec):
        n_cpu, n_gpu = _demand(spec)
        return len(self.free["cpu"]) >= n_cpu and len(self.free["gpu"]) >= n_gpu

    def take(self, spec: TaskSpec):
        n_cpu, n_gpu = _demand(spec)
        slots = self.free["cpu"][:n_cpu] + self.free["gpu"][:n_gpu]
        self.free["cpu"] = self.free["cpu"][n_cpu:]
        self.free["gpu"] = self.free["gpu"][n_gpu:]
        return slots

    def release(self, slots):
        for s in slots:
            self.free[s[0]].append(s)
        self.free["cpu"].sort()
        self.free["gpu"].sort()


def execute(spec: WorkflowSpec, pool: ResourcePool, seed: int = 0,
            scratch: Scratch | None = None,
            copy_bandwidth: float = DEFAULT_COPY_BANDWIDTH,
            run_id: str | None = None) -> RunTrace:
    """Run every task exactly once, honoring dependencies and slot
    exclusivity. A task failure aborts the run (TaskFailed)."""
    validate_dag(spec)
    for t in spec.tasks:
        # each rank's lane is a thread, so each rank takes a cpu slot
        if t.num_ranks < 1 or t.cpus_per_rank < 1:
            raise SchemaError(f"task {t.name}: num_ranks and cpus_per_rank must be >= 1")
        n_cpu, n_gpu = _demand(t)
        if n_cpu > pool.num_cpu_slots or n_gpu > pool.num_gpu_slots:
            raise InsufficientPool(
                f"task {t.name} needs {n_cpu} cpu / {n_gpu} gpu slots; pool has "
                f"{pool.num_cpu_slots} / {pool.num_gpu_slots}")

    own_scratch = scratch is None
    if own_scratch:
        scratch = Scratch()
    sink = MetricsSink()
    t0 = time.perf_counter()
    clock = lambda: time.perf_counter() - t0
    bank = _SlotBank(pool)
    done_q = queue.Queue()
    by_name = {t.name: t for t in spec.tasks}
    pos = {name: i for i, name in enumerate(by_name)}
    preds, succs = _graph(spec)
    pending = {name: len(ps) for name, ps in preds.items()}
    ready = {}  # slot demand -> heap of declaration positions
    for t in spec.tasks:
        if not pending[t.name]:
            heapq.heappush(ready.setdefault(_demand(t), []), pos[t.name])
    running = {}  # name -> slots
    failure = None
    serial = spec.execution_model == "serial"

    # A task's events reach the run's log on this thread when its completion
    # is taken. So one thread grows the log, and a task's events land just
    # before its slot_idle events in the order completions are taken, not
    # the order in which task threads end.
    def launch(task_spec):
        def body():
            events = MetricsSink()
            try:
                run_task(task_spec, sink=events, seed=seed, clock=clock, scratch=scratch,
                         copy_bandwidth=copy_bandwidth)
                done_q.put((task_spec.name, events, None))
            except BaseException as e:  # SystemExit too, or the run waits forever
                done_q.put((task_spec.name, events, e))
        threading.Thread(target=body, name=f"task-{task_spec.name}").start()

    while True:
        # start the earliest fitting head until none fits; within a demand
        # only the head can fit first, and taking slots never makes a skipped
        # task fit, so this starts what a first-fit scan of the ready tasks in
        # declaration order would, in the same order
        while failure is None and not (serial and running):
            heads = [h for h in ready.values() if h and bank.fits(spec.tasks[h[0]])]
            if not heads:
                break
            task_spec = spec.tasks[heapq.heappop(min(heads, key=lambda h: h[0]))]
            slots = bank.take(task_spec)
            now = clock()
            for s in slots:
                sink.append({"kind": "slot_busy", "slot": list(s),
                             "task": task_spec.name, "t": now})
            running[task_spec.name] = slots
            launch(task_spec)
        if not running:
            break
        name, events, err = done_q.get()
        sink.extend(events)
        slots = running.pop(name)
        now = clock()
        for s in slots:
            sink.append({"kind": "slot_idle", "slot": list(s), "task": name, "t": now})
        bank.release(slots)
        if err is not None:
            failure = (name, err)
        else:
            for s in succs[name]:
                pending[s] -= 1
                if pending[s] == 0:
                    heapq.heappush(ready.setdefault(_demand(by_name[s]), []), pos[s])

    if own_scratch:
        scratch.cleanup()
    if failure is not None:
        name, err = failure
        raise TaskFailed(f"task {name} failed: {err}") from err
    # declaration order: completion order depends on thread timing
    return RunTrace(run_id=run_id or uuid.uuid4().hex[:12], pool=pool,
                    events=sink, records=task_records(sink, spec.task_names))


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
    """A single-node pool large enough for the spec's execution model:
    the max single task for serial, the widest phase otherwise."""
    if spec.execution_model == "serial":
        sizes = [_demand(t) for t in spec.tasks]
    else:
        groups = {}  # phase -> summed (cpu, gpu) demand
        for t in spec.tasks:
            cpu, gpu = groups.get(t.phase, (0, 0))
            n_cpu, n_gpu = _demand(t)
            groups[t.phase] = (cpu + n_cpu, gpu + n_gpu)
        sizes = groups.values()
    cpu = max(c for c, _ in sizes)
    gpu = max(g for _, g in sizes)
    return ResourcePool(num_nodes=1, cpus_per_node=max(cpu, 1),
                        gpus_per_node=gpu)
