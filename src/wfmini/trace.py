"""Run traces: a run's event log with its pool and the names of its tasks,
the task records derived from them, and the JSON Lines file that holds them.

Events are mappings with a "kind" discriminator, written one per line as
JSON Lines. All timestamps are seconds relative to run start (monotonic
clock). A task's facts live in its events alone:
- `task_start` (`t`, `ranks`, `category`) and `task_end` (`t`, `status`);
- one `slot_busy` per slot it held;
- one `kernel` event per kernel call of each rank, with exact byte counts.

`RunTrace.events` is a `MetricsSink` (see `wfmini.events`): kernel events
in typed columns, read as `KernelEvent` rows, and the other kinds as dicts.

`task_records` derives a `TaskRecord` per task from them, the one builder
of records: `RunTrace.records` calls it on first access and keeps the list.
A trace file has one layout: a header line carrying the run id, the pool,
`"schema": 2` and `tasks`, the record names in declaration order, then one
line per event. A header of any other schema, or of none (schema 0), is
rejected with a ValueError that names the file and the schema found.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from itertools import islice
from pathlib import Path

# KernelEvent is re-exported: callers name the event types through trace
from .events import READ_BATCH, KernelEvent, MetricsSink  # noqa: F401

SCHEMA = 2
# values that repeat across a run, shared through one dict per read: the
# names the kernel columns index, and the dict events' kinds and tasks
SHARED_VALUES = ("kind", "task", "kernel")


@dataclass
class TaskRecord:
    task_name: str
    start: float
    end: float
    ranks: int
    slots_used: list
    bytes_read: int
    bytes_written: int
    status: str = "ok"
    category: str = ""


def task_records(events, names) -> list:
    """One TaskRecord per name, in the order given, from the run's events (a
    log, or any sequence of events, which is converted to one).

    Events of tasks not named are skipped. Raises ValueError when a named
    task has no task_start or no task_end event."""
    log = events if isinstance(events, MetricsSink) else MetricsSink(events)
    facts = {name: {"start": None, "end": None, "slots": []} for name in names}
    for e in log.dict_events():
        f = facts.get(e.get("task"))
        if f is None:
            continue
        kind = e["kind"]
        if kind == "slot_busy":
            f["slots"].append(e["slot"])
        elif kind == "task_start":
            f["start"] = e
        elif kind == "task_end":
            f["end"] = e
    moved = log.bytes_by_task()
    records = []
    for name, f in facts.items():
        start, end = f["start"], f["end"]
        if start is None or end is None:
            missing = "task_start" if start is None else "task_end"
            raise ValueError(f"task {name!r} has no {missing} event")
        read, written = moved.get(name, (0, 0))
        records.append(TaskRecord(
            task_name=name, start=start["t"], end=end["t"], ranks=start["ranks"],
            slots_used=f["slots"], bytes_read=read, bytes_written=written,
            status=end["status"], category=start["category"]))
    return records


@dataclass
class ResourcePool:
    """A fixed pool of exclusively-assignable cpu/gpu slots."""

    num_nodes: int
    cpus_per_node: int
    gpus_per_node: int = 0

    def __post_init__(self):
        for name, dim in self.to_dict().items():
            if type(dim) is not int:
                raise ValueError(f"pool {name} must be an integer, got {dim!r}")
        if self.num_nodes < 1 or self.cpus_per_node < 0 or self.gpus_per_node < 0:
            raise ValueError("pool dimensions must be non-negative, num_nodes >= 1")

    @property
    def slots(self):
        """Slot ids tagged with kind and node, e.g. ('cpu', node, idx)."""
        out = []
        for node in range(self.num_nodes):
            for c in range(self.cpus_per_node):
                out.append(("cpu", node, c))
            for g in range(self.gpus_per_node):
                out.append(("gpu", node, g))
        return out

    @property
    def num_cpu_slots(self):
        return self.num_nodes * self.cpus_per_node

    @property
    def num_gpu_slots(self):
        return self.num_nodes * self.gpus_per_node

    def to_dict(self):
        return {"num_nodes": self.num_nodes, "cpus_per_node": self.cpus_per_node,
                "gpus_per_node": self.gpus_per_node}

    @classmethod
    def from_dict(cls, d):
        return cls(num_nodes=d["num_nodes"], cpus_per_node=d["cpus_per_node"],
                   gpus_per_node=d.get("gpus_per_node", 0))


@dataclass
class RunTrace:
    """A run: its id, pool, event log and `tasks`, the names of its records
    in declaration order. `records` is derived from the events on first
    access and kept."""

    run_id: str
    pool: ResourcePool
    events: MetricsSink = field(default_factory=MetricsSink)
    tasks: list = field(default_factory=list)

    def __post_init__(self):
        if not isinstance(self.events, MetricsSink):
            self.events = MetricsSink(self.events)

    @cached_property
    def records(self) -> list:
        return task_records(self.events, self.tasks)

    @cached_property
    def _record_of(self) -> dict:
        return {r.task_name: r for r in self.records}

    def task_record(self, name) -> TaskRecord:
        return self._record_of[name]

    def write_jsonl(self, path):
        path = Path(path)
        with path.open("w", encoding="utf-8") as f:
            header = {"kind": "run", "schema": SCHEMA, "run_id": self.run_id,
                      "pool": self.pool.to_dict(), "tasks": self.tasks}
            f.write(json.dumps(header) + "\n")
            f.writelines(self.events.lines())

    @classmethod
    def read_jsonl(cls, path):
        pool = None
        log = MetricsSink()
        shared = {}

        def share(key, value):
            try:
                return shared.setdefault(value, value)
            except TypeError:
                raise ValueError(f"{path}: an event's {key!r} is {value!r}, "
                                 "not a name") from None

        with Path(path).open("r", encoding="utf-8") as f:
            lines = (line for line in f if not line.isspace())
            while batch := list(islice(lines, READ_BATCH)):
                objs = json.loads("[" + ",".join(batch) + "]")
                if len(objs) != len(batch):
                    raise ValueError(f"{path}: {len(batch)} lines hold {len(objs)} "
                                     "JSON values; expected one per line")
                events = []
                for obj in objs:
                    for key in SHARED_VALUES:
                        value = obj.get(key)
                        if value is not None:
                            obj[key] = share(key, value)
                    kind = obj.get("kind")
                    if kind == "run":
                        if pool is not None:
                            raise ValueError(f"{path}: a second run header line, of run "
                                             f"{obj.get('run_id')!r}; a trace holds the "
                                             f"one run {run_id!r}")
                        schema = obj.get("schema", 0)  # no field: schema 0
                        if type(schema) is not int or schema != SCHEMA:
                            raise ValueError(f"{path}: trace schema {schema!r} is not "
                                             f"read; only schema {SCHEMA} is")
                        try:
                            run_id = obj["run_id"]
                            pool = ResourcePool.from_dict(obj["pool"])
                        except (KeyError, TypeError, ValueError) as e:
                            raise ValueError(f"{path}: bad run header line: "
                                             f"{type(e).__name__}: {e}") from None
                        names = obj.get("tasks")
                        if not isinstance(names, list) or not all(
                                isinstance(n, str) for n in names):
                            raise ValueError(f"{path}: header has no 'tasks' list of names")
                    else:
                        events.append(obj)
                try:
                    log.extend(events)
                except ValueError as e:
                    raise ValueError(f"{path}: {e}") from None
        if pool is None:
            raise ValueError(f"{path}: missing run header line")
        trace = cls(run_id=run_id, pool=pool, events=log, tasks=names)
        try:
            trace.records  # so a file that lacks a task fact fails here
        except KeyError as e:
            raise ValueError(f"{path}: an event of a listed task lacks {e}") from None
        except ValueError as e:
            raise ValueError(f"{path}: {e}") from None
        return trace
