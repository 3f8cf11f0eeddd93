"""Correctness checks applied to every benchmark sample.

Each check compares a run trace against values derived from the workflow
spec alone, so a check can only pass if the program did the work the spec
asks for. `check_trace` returns a list of problem strings; an empty list
means the sample is correct.

`RunTrace.records` is in completion order, which depends on thread timing,
so every check that needs an order sorts by start time.
"""
from __future__ import annotations

import hashlib
from collections import Counter, defaultdict

READ_KERNELS = {"readNonMPI", "readWithMPI"}
WRITE_KERNELS = {"writeNonMPI", "writeWithMPI"}
COPY_KERNELS = {"dataCopyH2D", "dataCopyD2H", "dataCopyH2DAsync", "dataCopyD2HAsync"}


def _expand(program, multiplier=1):
    """Yield (kernel_name, params, times_run) for every kernel step."""
    for step in program:
        if step.kind == "loop":
            yield from _expand(step.body, multiplier * step.count)
        else:
            yield step.kernel.kernel_name, step.kernel.params, multiplier


def expected_kernel_counts(spec) -> Counter:
    """(task, kernel) -> number of kernel events: program expansion x ranks."""
    out = Counter()
    for task in spec.tasks:
        for name, _, times in _expand(task.program):
            out[(task.name, name)] += times * task.num_ranks
    return out


def expected_io(spec) -> dict:
    """task -> (bytes_read, bytes_written) computed from the spec."""
    out = {}
    for task in spec.tasks:
        read = written = 0
        for name, params, times in _expand(task.program):
            n = params.get("data_size", 0) * params.get("repetitions", 1) * times
            if name in READ_KERNELS:
                read += n
            elif name in WRITE_KERNELS:
                written += n
        out[task.name] = (read * task.num_ranks, written * task.num_ranks)
    return out


def modeled_dwell(spec, copy_bandwidth) -> dict:
    """task -> seconds of modeled copy sleep one rank lane performs."""
    out = {}
    for task in spec.tasks:
        dwell = 0.0
        for name, params, times in _expand(task.program):
            if name in COPY_KERNELS:
                bandwidth = params.get("bandwidth", copy_bandwidth)
                dwell += (params["data_size"] / bandwidth
                          * params.get("repetitions", 1) * times)
        out[task.name] = dwell
    return out


def topological(names, edges):
    """Kahn's order over `names`; raises ValueError on a cycle."""
    indeg = {n: 0 for n in names}
    succs = defaultdict(list)
    for p, s in edges:
        succs[p].append(s)
        indeg[s] += 1
    ready = [n for n in names if indeg[n] == 0]
    order = []
    while ready:
        n = ready.pop()
        order.append(n)
        for s in succs[n]:
            indeg[s] -= 1
            if indeg[s] == 0:
                ready.append(s)
    if len(order) != len(indeg):
        raise ValueError("edge relation has a cycle")
    return order


def longest_path(names, edges, weight) -> float:
    preds = defaultdict(list)
    for p, s in edges:
        preds[s].append(p)
    finish = {}
    for n in topological(names, edges):
        finish[n] = max((finish[p] for p in preds[n]), default=0.0) + weight[n]
    return max(finish.values(), default=0.0)


def slot_intervals(trace) -> dict:
    """slot key -> list of (start, end, task) from slot_busy/slot_idle events.

    Raises ValueError when two busy intervals of one slot overlap or a slot
    is released without being taken; a slot never released gets end None."""
    events = sorted((e for e in trace.events if e["kind"] in ("slot_busy", "slot_idle")),
                    key=lambda e: (e["t"], e["kind"] == "slot_busy"))
    open_at, out = {}, defaultdict(list)
    for e in events:
        key = tuple(e["slot"])
        if e["kind"] == "slot_busy":
            if key in open_at:
                raise ValueError(f"slot {key}: {e['task']} overlaps {open_at[key][1]}")
            open_at[key] = (e["t"], e["task"])
        else:
            if key not in open_at:
                raise ValueError(f"slot {key} released by {e['task']} but never taken")
            start, task = open_at.pop(key)
            out[key].append((start, e["t"], task))
    for key, (start, task) in open_at.items():
        out[key].append((start, None, task))
    return dict(out)


def check_trace(spec, trace, copy_bandwidth) -> list:
    """Problems found in one run's trace; empty when the run is correct."""
    problems = []
    records = sorted(trace.records, key=lambda r: r.start)
    by_name = {r.task_name: r for r in records}

    bad = [r.task_name for r in records if r.status != "ok"]
    if bad:
        problems.append(f"records not ok: {bad[:5]}")
    if len(by_name) != len(records) or set(by_name) != set(spec.task_names):
        problems.append(f"{len(records)} records for {len(spec.tasks)} tasks")
        return problems

    want_io = expected_io(spec)
    for name, (read, written) in want_io.items():
        r = by_name[name]
        if (r.bytes_read, r.bytes_written) != (read, written):
            problems.append(f"{name}: bytes {r.bytes_read}/{r.bytes_written}, "
                            f"spec says {read}/{written}")
    total_read = sum(r.bytes_read for r in records)
    total_written = sum(r.bytes_written for r in records)
    if (total_read, total_written) != (sum(v[0] for v in want_io.values()),
                                       sum(v[1] for v in want_io.values())):
        problems.append("byte totals differ from the spec")

    got = Counter((e["task"], e["kernel"]) for e in trace.events if e["kind"] == "kernel")
    want = expected_kernel_counts(spec)
    if got != want:
        diff = sorted(set(got.items()) ^ set(want.items()))[:4]
        problems.append(f"kernel event counts differ from spec: {diff}")

    for p, s in spec.edges:
        if by_name[s].start < by_name[p].end:
            problems.append(f"{s} started at {by_name[s].start:.6f} before "
                            f"predecessor {p} ended at {by_name[p].end:.6f}")

    try:
        intervals = slot_intervals(trace)
    except ValueError as e:
        problems.append(str(e))
    else:
        for key, ivals in intervals.items():
            if any(end is None for _, end, _ in ivals):
                problems.append(f"slot {key} never released")

    makespan = max(r.end for r in records) - records[0].start
    dwell = longest_path(spec.task_names, spec.edges, modeled_dwell(spec, copy_bandwidth))
    if makespan < dwell:
        problems.append(f"makespan {makespan:.4f} s below modeled critical-path "
                        f"copy dwell {dwell:.4f} s")
    return problems


def fingerprint(trace) -> str:
    """Digest of every rank lane's kernel checksum sequence.

    Events of one lane are appended by that lane's thread in program order,
    so grouping by (task, rank) gives an order that does not depend on
    thread timing."""
    lanes = defaultdict(list)
    for e in trace.events:
        if e["kind"] == "kernel":
            lanes[(e["task"], e["rank"])].append(f"{e['kernel']}:{e['checksum']!r}")
    h = hashlib.sha256()
    for key in sorted(lanes):
        h.update(f"{key}|{'|'.join(lanes[key])}\n".encode())
    return h.hexdigest()
