"""Run traces: the append-only event log of a run, and the task records
derived from it.

Events are mappings with a "kind" discriminator, written one per line as
JSON Lines. All timestamps are seconds relative to run start (monotonic
clock). A task's facts live in its events alone:
- `task_start` (`t`, `ranks`, `category`) and `task_end` (`t`, `status`);
- one `slot_busy` per slot it held;
- one `kernel` event per kernel call of each rank, with exact byte counts.

Kernel events are most of a trace, so they are `KernelEvent`s: read-only
mappings with slots, not dicts. The other kinds are plain dicts.

`task_records` derives a `TaskRecord` per task from them. The first line of
a trace file is a header carrying the run id, the pool, the schema version
and, from schema 2, `tasks`: the record names in declaration order. A
schema-2 file holds events only and its records are derived on reading.
Schemas 0 (no version field) and 1 also hold one `"record"` line per task;
those lines are read as they are.
"""
from __future__ import annotations

import json
import threading
from collections.abc import Mapping
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path

SCHEMA = 2
KNOWN_SCHEMAS = (0, 1, 2)
# Lines decoded per json.loads call. The decoder keeps one object per
# distinct key within a call, so a batch of events shares its key strings
# where a call per line gave every event its own copies. A single call for
# the whole file would hold the text twice at the peak; a batch of 256 lines
# keeps that copy to a few tens of KB.
READ_BATCH = 256
# values of the dict events that repeat across a run, shared through one
# dict per read (a KernelEvent shares its task and kernel names through it)
SHARED_VALUES = ("kind", "task")


class KernelEvent(Mapping):
    """The event of one kernel call on one rank: a read-only mapping of the
    eleven keys in `KEYS`, which is also the order a trace line writes them.

    A run emits one per kernel call and a re-read holds one per kernel line,
    so the fields live in slots rather than in a dict's hash table. `kind`
    is a class constant. Being a `Mapping`, an event indexes, iterates and
    compares equal like the dict it renders (`dict(ev)`)."""

    __slots__ = ("task", "rank", "kernel", "t_start", "t_end", "wall_time",
                 "bytes_read", "bytes_written", "bytes_communicated", "checksum")
    kind = "kernel"
    KEYS = ("kind",) + __slots__
    _KEY_SET = frozenset(KEYS)

    def __init__(self, task, rank, kernel, t_start, t_end, wall_time,
                 bytes_read, bytes_written, bytes_communicated, checksum):
        self.task = task
        self.rank = rank
        self.kernel = kernel
        self.t_start = t_start
        self.t_end = t_end
        self.wall_time = wall_time
        self.bytes_read = bytes_read
        self.bytes_written = bytes_written
        self.bytes_communicated = bytes_communicated
        self.checksum = checksum

    def __getitem__(self, key):
        if key in self._KEY_SET:
            return getattr(self, key)
        raise KeyError(key)

    def __iter__(self):
        return iter(self.KEYS)

    def __len__(self):
        return len(self.KEYS)

    def __repr__(self):
        return f"KernelEvent({dict(self)!r})"


def _render(obj):
    """JSON encoder fallback: a KernelEvent renders as its dict."""
    if isinstance(obj, KernelEvent):
        return {key: getattr(obj, key) for key in obj.KEYS}
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


_encode = json.JSONEncoder(default=_render).encode


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


class MetricsSink:
    """Thread-safe collector of kernel/task/slot events."""

    def __init__(self):
        self._lock = threading.Lock()
        self.events = []

    def append(self, event: dict):
        with self._lock:
            self.events.append(event)

    def extend(self, events):
        with self._lock:
            self.events.extend(events)


def task_records(events, names) -> list:
    """One TaskRecord per name, in the order given, from the run's events.

    Events of tasks not named are skipped. Raises ValueError when a named
    task has no task_start or no task_end event."""
    facts = {name: {"start": None, "end": None, "slots": [], "read": 0, "written": 0}
             for name in names}
    for e in events:
        f = facts.get(e.get("task"))
        if f is None:
            continue
        kind = e["kind"]
        if kind == "kernel":
            f["read"] += e["bytes_read"]
            f["written"] += e["bytes_written"]
        elif kind == "slot_busy":
            f["slots"].append(e["slot"])
        elif kind == "task_start":
            f["start"] = e
        elif kind == "task_end":
            f["end"] = e
    records = []
    for name, f in facts.items():
        start, end = f["start"], f["end"]
        if start is None or end is None:
            missing = "task_start" if start is None else "task_end"
            raise ValueError(f"task {name!r} has no {missing} event")
        records.append(TaskRecord(
            task_name=name, start=start["t"], end=end["t"], ranks=start["ranks"],
            slots_used=f["slots"], bytes_read=f["read"], bytes_written=f["written"],
            status=end["status"], category=start["category"]))
    return records


@dataclass
class ResourcePool:
    """A fixed pool of exclusively-assignable cpu/gpu slots."""

    num_nodes: int
    cpus_per_node: int
    gpus_per_node: int = 0

    def __post_init__(self):
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
    run_id: str
    pool: ResourcePool
    events: list = field(default_factory=list)
    records: list = field(default_factory=list)

    def task_record(self, name) -> TaskRecord:
        for r in self.records:
            if r.task_name == name:
                return r
        raise KeyError(name)

    def write_jsonl(self, path):
        path = Path(path)
        with path.open("w", encoding="utf-8") as f:
            header = {"kind": "run", "schema": SCHEMA, "run_id": self.run_id,
                      "pool": self.pool.to_dict(),
                      "tasks": [r.task_name for r in self.records]}
            f.write(json.dumps(header) + "\n")
            for ev in self.events:
                f.write(_encode(ev) + "\n")

    @classmethod
    def read_jsonl(cls, path):
        run_id, pool, schema, names, events, records = "run", None, 0, None, [], []
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
                for obj in objs:
                    kind = obj.get("kind")
                    if kind == "kernel":
                        events.append(_kernel_event(obj, share, path))
                    elif kind == "run":
                        schema = obj.get("schema", 0)
                        if type(schema) is not int or schema not in KNOWN_SCHEMAS:
                            raise ValueError(f"{path}: unknown trace schema {schema!r}")
                        run_id = obj["run_id"]
                        pool = ResourcePool.from_dict(obj["pool"])
                        names = obj.get("tasks")
                    elif kind == "record":
                        obj.pop("kind")
                        try:
                            records.append(TaskRecord(**obj))
                        except TypeError as e:
                            raise ValueError(f"{path}: bad record line: {e}") from None
                    else:
                        for key in SHARED_VALUES:
                            value = obj.get(key)
                            if value is not None:
                                obj[key] = share(key, value)
                        events.append(obj)
        if pool is None:
            raise ValueError(f"{path}: missing run header line")
        if schema >= 2:
            if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
                raise ValueError(f"{path}: schema-{schema} header has no 'tasks' "
                                 "list of names")
            try:
                records = task_records(events, names)
            except KeyError as e:
                raise ValueError(f"{path}: an event of a listed task lacks {e}") from None
            except ValueError as e:
                raise ValueError(f"{path}: {e}") from None
        return cls(run_id=run_id, pool=pool, events=events, records=records)


def _kernel_event(obj, share, path) -> KernelEvent:
    """The KernelEvent of a decoded kernel line, which must hold exactly the
    keys of `KernelEvent.KEYS`."""
    try:
        ev = KernelEvent(share("task", obj["task"]), obj["rank"],
                         share("kernel", obj["kernel"]), obj["t_start"], obj["t_end"],
                         obj["wall_time"], obj["bytes_read"], obj["bytes_written"],
                         obj["bytes_communicated"], obj["checksum"])
    except KeyError as e:
        raise ValueError(f"{path}: a kernel event lacks {e}") from None
    if len(obj) != len(KernelEvent.KEYS):
        extra = sorted(obj.keys() - KernelEvent._KEY_SET)
        raise ValueError(f"{path}: a kernel event has unknown field {extra[0]!r}")
    return ev
