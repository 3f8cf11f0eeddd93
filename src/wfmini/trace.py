"""Run traces: the append-only event log of a run and its task records.

Events are plain dicts with a "kind" discriminator so they serialize
directly to JSON Lines. All timestamps are seconds relative to run start
(monotonic clock). The first line is a header carrying the run id, the
pool and the trace's schema version; a header without one is schema 0,
which has the same layout.
"""
from __future__ import annotations

import json
import threading
from dataclasses import dataclass, field, asdict
from itertools import islice
from pathlib import Path

SCHEMA = 1
KNOWN_SCHEMAS = (0, 1)
# Lines decoded per json.loads call. The decoder keeps one object per
# distinct key within a call, so a batch of events shares its key strings
# where a call per line gave every event its own copies. A single call for
# the whole file would hold the text twice at the peak; a batch of 256 lines
# keeps that copy to a few tens of KB.
READ_BATCH = 256
# event values that repeat across a run, shared through one dict per read
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

    def to_dict(self):
        return asdict(self)

    @classmethod
    def from_dict(cls, d):
        return cls(**d)


class MetricsSink:
    """Thread-safe collector of kernel/task/slot events."""

    def __init__(self):
        self._lock = threading.Lock()
        self.events = []
        self.records = []

    def append(self, event: dict):
        with self._lock:
            self.events.append(event)

    def add_record(self, record: TaskRecord):
        with self._lock:
            self.records.append(record)


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
                      "pool": self.pool.to_dict()}
            f.write(json.dumps(header) + "\n")
            for ev in self.events:
                f.write(json.dumps(ev) + "\n")
            for rec in self.records:
                f.write(json.dumps({"kind": "record", **rec.to_dict()}) + "\n")

    @classmethod
    def read_jsonl(cls, path):
        run_id, pool, events, records = "run", None, [], []
        shared = {}
        with Path(path).open("r", encoding="utf-8") as f:
            lines = (line for line in f if not line.isspace())
            while batch := list(islice(lines, READ_BATCH)):
                objs = json.loads("[" + ",".join(batch) + "]")
                if len(objs) != len(batch):
                    raise ValueError(f"{path}: {len(batch)} lines hold {len(objs)} "
                                     "JSON values; expected one per line")
                for obj in objs:
                    kind = obj.get("kind")
                    if kind == "run":
                        schema = obj.get("schema", 0)
                        if schema not in KNOWN_SCHEMAS:
                            raise ValueError(f"{path}: unknown trace schema {schema!r}")
                        run_id = obj["run_id"]
                        pool = ResourcePool.from_dict(obj["pool"])
                    elif kind == "record":
                        obj.pop("kind")
                        records.append(TaskRecord.from_dict(obj))
                    else:
                        for key in SHARED_VALUES:
                            value = obj.get(key)
                            if value is not None:
                                obj[key] = shared.setdefault(value, value)
                        events.append(obj)
        if pool is None:
            raise ValueError(f"{path}: missing run header line")
        return cls(run_id=run_id, pool=pool, events=events, records=records)
