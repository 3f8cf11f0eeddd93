"""Metric derivation from run traces: makespan, slot-occupancy utilization,
byte-exact I/O totals, cross-configuration ratio reports, and run-to-run
variation statistics.

Utilization is computed from the scheduler's slot-occupancy intervals over
pool-held wall time, not OS counters. Byte counters stay exact integers.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, asdict

from .errors import EmptyTrace, InsufficientSamples, LengthMismatch, ZeroDenominator
from .trace import RunTrace


@dataclass
class MetricsSummary:
    makespan: float
    cpu_util_pct: float
    gpu_util_pct: float
    read_bytes: int
    write_bytes: int
    per_task: dict = field(default_factory=dict)

    def to_dict(self):
        return asdict(self)

    @classmethod
    def from_dict(cls, d):
        return cls(makespan=d["makespan"], cpu_util_pct=d["cpu_util_pct"],
                   gpu_util_pct=d["gpu_util_pct"], read_bytes=d["read_bytes"],
                   write_bytes=d["write_bytes"], per_task=d.get("per_task", {}))


@dataclass
class RatioReport:
    r_time: float
    r_read: float
    r_write: float
    per_config: list
    tolerance: float
    constant: dict

    def to_dict(self):
        return asdict(self)


@dataclass
class VariationReport:
    samples: int
    per_metric: dict
    per_stage: dict

    def to_dict(self):
        return asdict(self)


def _slot_key(slot):
    return "-".join(str(p) for p in slot)


def _busy_intervals(trace: RunTrace):
    """Per slot id, the (start, end, task) intervals from busy/idle events."""
    open_at = {}
    intervals = {}
    events = sorted((e for e in trace.events if e["kind"] in ("slot_busy", "slot_idle")),
                    key=lambda e: e["t"])
    for e in events:
        key = _slot_key(e["slot"])
        if e["kind"] == "slot_busy":
            open_at[key] = (e["t"], e["task"])
        else:
            start, task = open_at.pop(key)
            intervals.setdefault(key, []).append((start, e["t"], task))
    return intervals


def summarize(trace: RunTrace) -> MetricsSummary:
    """Makespan, per-class utilization percentage, and byte totals."""
    if not trace.records:
        raise EmptyTrace("trace has no task records")
    start = min(r.start for r in trace.records)
    end = max(r.end for r in trace.records)
    makespan = end - start
    busy = {"cpu": 0.0, "gpu": 0.0}
    for key, ivals in _busy_intervals(trace).items():
        kind = key.split("-")[0]
        busy[kind] += sum(e - s for s, e, _ in ivals)
    n_cpu = trace.pool.num_cpu_slots
    n_gpu = trace.pool.num_gpu_slots

    def pct(cls_busy, n_slots):
        if n_slots == 0 or makespan <= 0:
            return 0.0
        return 100.0 * cls_busy / (makespan * n_slots)

    per_task = {
        r.task_name: {"makespan": r.end - r.start, "read_bytes": r.bytes_read,
                      "write_bytes": r.bytes_written, "category": r.category,
                      "start": r.start, "end": r.end}
        for r in trace.records
    }
    return MetricsSummary(
        makespan=makespan,
        cpu_util_pct=pct(busy["cpu"], n_cpu),
        gpu_util_pct=pct(busy["gpu"], n_gpu),
        read_bytes=sum(r.bytes_read for r in trace.records),
        write_bytes=sum(r.bytes_written for r in trace.records),
        per_task=per_task)


def utilization_timeline(trace: RunTrace) -> dict:
    """Per-slot maximal busy intervals labeled with task names."""
    if not trace.records:
        raise EmptyTrace("trace has no task records")
    return _busy_intervals(trace)


def io_timeline(trace: RunTrace) -> list:
    """Per-task segments: start, end, and total read/write bytes."""
    if not trace.records:
        raise EmptyTrace("trace has no task records")
    return [{"task": r.task_name, "category": r.category, "start": r.start,
             "end": r.end, "read_bytes": r.bytes_read,
             "write_bytes": r.bytes_written}
            for r in sorted(trace.records, key=lambda r: r.start)]


def _ratio(num, den, what):
    if den == 0:
        raise ZeroDenominator(f"original {what} is zero")
    return num / den


def compute_ratios(original: list, mini: list, tolerance: float = 1.15) -> RatioReport:
    """Mini-app/original ratios per aligned configuration, with a constancy
    flag per metric (max/min spread vs. tolerance)."""
    if len(original) != len(mini):
        raise LengthMismatch(f"{len(original)} original vs {len(mini)} mini summaries")
    if not original:
        raise LengthMismatch("need at least one configuration")
    per_config = []
    for o, m in zip(original, mini):
        per_config.append({
            "r_time": _ratio(m.makespan, o.makespan, "makespan"),
            "r_read": _ratio(m.read_bytes, o.read_bytes, "read bytes"),
            "r_write": _ratio(m.write_bytes, o.write_bytes, "write bytes"),
        })
    constant = {}
    for key in ("r_time", "r_read", "r_write"):
        values = [c[key] for c in per_config]
        constant[key] = (max(values) / min(values)) <= tolerance if min(values) > 0 else False
    means = {key: sum(c[key] for c in per_config) / len(per_config)
             for key in ("r_time", "r_read", "r_write")}
    return RatioReport(r_time=means["r_time"], r_read=means["r_read"],
                       r_write=means["r_write"], per_config=per_config,
                       tolerance=tolerance, constant=constant)


def _stats(values):
    n = len(values)
    mean = sum(values) / n
    var = sum((v - mean) ** 2 for v in values) / n
    std = math.sqrt(var)
    return {"mean": mean, "std": std,
            "coefficient_of_variation": (std / mean) if mean > 0 else 0.0}


def reproducibility_stats(summaries: list) -> VariationReport:
    """Mean/std/CV per metric and per stage over repeated runs."""
    if len(summaries) < 2:
        raise InsufficientSamples("need at least 2 summaries")
    per_metric = {
        "makespan": _stats([s.makespan for s in summaries]),
        "read_bytes": _stats([float(s.read_bytes) for s in summaries]),
        "write_bytes": _stats([float(s.write_bytes) for s in summaries]),
        "cpu_util_pct": _stats([s.cpu_util_pct for s in summaries]),
        "gpu_util_pct": _stats([s.gpu_util_pct for s in summaries]),
    }
    stages = set()
    for s in summaries:
        stages |= set(s.per_task)
    per_stage = {}
    for stage in sorted(stages):
        durations = [s.per_task[stage]["makespan"] for s in summaries
                     if stage in s.per_task]
        per_stage[stage] = _stats(durations)
    return VariationReport(samples=len(summaries), per_metric=per_metric,
                           per_stage=per_stage)
