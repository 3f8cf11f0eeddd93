"""Per-layer metrics of one traced sample, from its spans and run traces.

Times summed over spans are lane-seconds: concurrent rank lanes each add
their own time. The `split.*_pct` shares are wall-clock instead: the part of
the task window (first task start to last task end) during which at least
one lane was in that kind of work.

A lane inside a kernel may be waiting for the interpreter lock while another
thread (often the scheduler) runs, so wall-clock kernel intervals overstate
kernel work when the run is bound by Python code. The `cpu.*` metrics count
thread CPU time instead: each span's own CPU minus that of its children on
the same thread, summed by layer over everything that runs inside execute.
"""
from __future__ import annotations

import statistics
from collections import defaultdict

import checks
from spans import children_of, covered, self_cpu, self_time, subtract

IO_KERNELS = checks.READ_KERNELS | checks.WRITE_KERNELS

# name -> unit, in report order; every traced run reports all of them
PER_LAYER = {
    "engine.load_s": "s",
    "engine.validate_s": "s",
    "engine.task_lookups": "count",
    "engine.self_s": "s",
    "engine.start_lag_ms": "ms",
    "engine.slot_util_pct": "%",
    "engine.harness_gap_s": "s",
    "tasks.self_s": "s",
    "tasks.launch_ms": "ms",
    "tasks.join_ms": "ms",
    "kernels.calls": "count",
    "kernels.dispatch_us": "us",
    "kernels.compute_s": "s",
    "kernels.buffer_s": "s",
    "ops.s": "s",
    "kernels.io_s": "s",
    "kernels.io_bytes": "bytes",
    "kernels.dwell_s": "s",
    "kernels.wait_s": "s",
    "trace.events": "count",
    "trace.append_s": "s",
    "trace.write_s": "s",
    "trace.read_s": "s",
    "trace.bytes": "bytes",
    "metrics.summarize_s": "s",
    "split.compute_pct": "%",
    "split.io_pct": "%",
    "split.dwell_pct": "%",
    "split.wait_pct": "%",
    "split.outside_kernels_pct": "%",
    "cpu.engine_s": "s",
    "cpu.tasks_s": "s",
    "cpu.kernels_s": "s",
    "cpu.ops_s": "s",
    "cpu.trace_s": "s",
    "split.outside_kernels_cpu_pct": "%",
    "bench.trace_overhead_s": "s",
}


def schedule_metrics(spec, run) -> dict:
    """Harness lags and slot use derived from run traces alone.

    start lag: task start minus the moment its predecessors had ended and
    the previous occupants of the slots it got had ended; launch: task start
    to its first kernel start; join: last kernel end to task end. All three
    are means over tasks."""
    recs = {r.task_name: r for r in run.records}
    preds = defaultdict(list)
    for p, s in spec.edges:
        preds[s].append(p)
    intervals = checks.slot_intervals(run)
    freed_by = defaultdict(float)   # task -> end of the previous occupant
    for ivals in intervals.values():
        ivals.sort(key=lambda iv: iv[0])
        for (_, _, before), (_, _, task) in zip(ivals, ivals[1:]):
            freed_by[task] = max(freed_by[task], recs[before].end)
    lags = [r.start - max([recs[p].end for p in preds[name]] + [freed_by[name]])
            for name, r in recs.items()]
    first, last = {}, {}
    for e in run.events:
        if e["kind"] == "kernel":
            first[e["task"]] = min(first.get(e["task"], e["t_start"]), e["t_start"])
            last[e["task"]] = max(last.get(e["task"], e["t_end"]), e["t_end"])
    launches = [first[t] - recs[t].start for t in first]
    joins = [recs[t].end - last[t] for t in last]

    makespan = max(r.end for r in recs.values()) - min(r.start for r in recs.values())
    slots = run.pool.num_cpu_slots + run.pool.num_gpu_slots
    busy_slot_s = sum(e - s for ivals in intervals.values() for s, e, _ in ivals)
    work = {"cpu": 0.0, "gpu": 0.0}
    for r in recs.values():
        for slot in r.slots_used:
            work[slot[0]] += r.end - r.start
    bound = max(work["cpu"] / max(run.pool.num_cpu_slots, 1),
                work["gpu"] / max(run.pool.num_gpu_slots, 1),
                checks.longest_path(spec.task_names, spec.edges,
                                    {n: r.end - r.start for n, r in recs.items()}))
    return {
        "engine.start_lag_ms": 1e3 * statistics.fmean(lags),
        "engine.slot_util_pct": 100.0 * busy_slot_s / (makespan * slots),
        "engine.harness_gap_s": makespan - bound,
        "tasks.launch_ms": 1e3 * statistics.fmean(launches),
        "tasks.join_ms": 1e3 * statistics.fmean(joins),
    }


def span_metrics(spans, counts) -> dict:
    kids = children_of(spans)
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)

    def total(name):
        return sum(s.duration for s in by_name[name])

    out = {
        "engine.load_s": total("engine.load"),
        "engine.validate_s": total("engine.validate"),
        "engine.task_lookups": counts["engine.task_lookups"],
        "engine.self_s": sum(self_time(s, kids[s.sid]) for s in by_name["engine.execute"]),
        "tasks.self_s": sum(self_time(s, kids[s.sid]) for s in by_name["tasks.run_task"]),
        "kernels.calls": len(by_name["kernels.execute"]),
        "kernels.buffer_s": total("kernels.buffer"),
        "ops.s": sum(s.duration for s in spans if s.name.startswith("ops.")),
        "kernels.dwell_s": total("kernels.sleep"),
        "kernels.wait_s": total("kernels.barrier"),
        "trace.events": len(by_name["trace.append"]),
        "trace.append_s": total("trace.append"),
        "trace.write_s": total("trace.write"),
        "trace.read_s": total("trace.read"),
        "metrics.summarize_s": total("metrics.summarize"),
    }

    compute = io = 0.0
    io_bytes = 0
    dispatch = []
    body, work = [], defaultdict(list)      # wall-clock intervals for the split
    for k in by_name["kernels.execute"]:
        wall = k.attrs["wall_time"]
        dwells = [(c.start, c.end) for c in kids[k.sid] if c.name == "kernels.sleep"]
        waits = [(c.start, c.end) for c in kids[k.sid] if c.name == "kernels.barrier"]
        busy = wall - sum(e - s for s, e in dwells + waits)
        dispatch.append(k.duration - wall)
        kind = "io" if k.attrs["kernel"] in IO_KERNELS else "compute"
        if kind == "io":
            io += busy
            io_bytes += k.attrs["bytes"]
        else:
            compute += busy
        # the body is the `wall` seconds that end where the kernel event is
        # appended; before it is dispatch (lookup, parameter checks)
        end = min((c.start for c in kids[k.sid] if c.name == "trace.append"), default=k.end)
        body.append((max(k.start, end - wall), end))
        work[kind] += subtract(*body[-1], dwells + waits)
        work["dwell"] += dwells
        work["wait"] += waits
    out.update({"kernels.compute_s": compute, "kernels.io_s": io, "kernels.io_bytes": io_bytes,
                "kernels.dispatch_us": 1e6 * statistics.median(dispatch)})

    lanes = by_name["tasks.run_task"]
    lo, hi = min(c.start for c in lanes), max(c.end for c in lanes)
    for kind in ("compute", "io", "dwell", "wait"):
        out[f"split.{kind}_pct"] = 100.0 * covered(work[kind], lo, hi) / (hi - lo)
    out["split.outside_kernels_pct"] = 100.0 * (1 - covered(body, lo, hi) / (hi - lo))

    under = {}          # span id -> inside an execute; parents open first
    cpu = defaultdict(float)
    for s in sorted(spans, key=lambda s: s.sid):
        under[s.sid] = s.name == "engine.execute" or under.get(s.parent, False)
        if under[s.sid]:
            cpu[s.name.split(".")[0]] += self_cpu(s, kids[s.sid])
    for layer in ("engine", "tasks", "kernels", "ops", "trace"):
        out[f"cpu.{layer}_s"] = cpu[layer]
    outside = cpu["engine"] + cpu["tasks"] + cpu["trace"]
    inside = cpu["kernels"] + cpu["ops"]
    out["split.outside_kernels_cpu_pct"] = (100.0 * outside / (outside + inside)
                                            if outside + inside else 0.0)
    return out
