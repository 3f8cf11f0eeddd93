"""Workflow engine: DAG validation, critical path against a path-enumeration
oracle, execution-model semantics, slot accounting, and failure handling."""
import itertools
import random
import threading
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from wfmini import engine, exemplars
from wfmini.engine import (
    WorkflowSpec,
    async_overlap,
    critical_path,
    execute,
    fitting_pool,
    load_workflow,
    topological_order,
    validate_dag,
)
from wfmini.errors import (
    CycleDetected,
    InsufficientPool,
    SchemaError,
    ShapeMismatch,
    TaskFailed,
    UnknownTaskReference,
)
from wfmini.kernels import catalog_names, register_kernel
from wfmini.trace import MetricsSink, ResourcePool


def task_doc(name, ranks=1, phase=None, category="work", program=None, gpus=0):
    doc = {"name": name, "category": category, "num_ranks": ranks, "gpus_per_rank": gpus,
           "program": program or [{"kernel": "RNG", "params": {"data_size": 64}}]}
    if phase is not None:
        doc["phase"] = phase
    return doc


def wf(names, edges, model="parallel", **kw):
    return load_workflow({
        "execution_model": model,
        "tasks": [task_doc(n, **kw.get(n, {})) for n in names],
        "edges": [list(e) for e in edges],
    })


# dataCopy sleeps deterministically for data_size/bandwidth seconds; with
# SLEEP_BW below, a 1 MiB copy takes 0.1 s without allocating much
SLEEP_BW = 10 * 2 ** 20


def sleep_task(name, tenths=1, phase=None, category="work"):
    return task_doc(name, phase=phase, category=category, program=[
        {"kernel": "dataCopyH2D", "params": {"data_size": tenths * 2 ** 20}}])


# --------------------------------------------------------------------------
# graph machinery

def test_load_workflow_errors():
    with pytest.raises(SchemaError):
        load_workflow({"tasks": []})
    with pytest.raises(SchemaError):
        load_workflow({"execution_model": "chaotic",
                       "tasks": [task_doc("a")]})
    with pytest.raises(SchemaError):
        load_workflow({"tasks": [task_doc("a"), task_doc("a")]})
    with pytest.raises(UnknownTaskReference):
        load_workflow({"tasks": [task_doc("a")], "edges": [["a", "ghost"]]})
    with pytest.raises(SchemaError):
        load_workflow({"tasks": [task_doc("a")], "edges": [["a"]]})


@pytest.mark.parametrize("names, edges, loop", [
    (["a", "b", "c"], [("a", "b"), ("b", "c"), ("c", "a")], {"a", "b", "c"}),
    # a cycle with a tail in and a tail out: only the loop is reported
    (["x", "a", "b", "c", "d"],
     [("x", "a"), ("a", "b"), ("b", "c"), ("c", "a"), ("c", "d")], {"a", "b", "c"}),
    (["a"], [("a", "a")], {"a"}),
], ids=["three-cycle", "cycle-with-tails", "self-loop"])
def test_validate_dag_reports_cycle(names, edges, loop):
    spec = wf(names, edges)
    with pytest.raises(CycleDetected) as exc:
        validate_dag(spec)
    cycle = exc.value.cycle
    assert cycle[0] == cycle[-1] and set(cycle) == loop
    assert len(cycle) == len(loop) + 1
    assert all(edge in edges for edge in zip(cycle, cycle[1:]))


def test_one_dag_index_per_spec(monkeypatch):
    builds = []
    init = engine.DagIndex.__init__

    def counted(self, spec):
        builds.append(spec)
        init(self, spec)

    monkeypatch.setattr(engine.DagIndex, "__init__", counted)
    spec = wf(["a", "b", "c"], [("a", "b"), ("a", "c")])
    validate_dag(spec)
    execute(spec, ResourcePool(1, 2), seed=0)
    assert builds == [spec]
    assert topological_order(spec) == ["a", "b", "c"]
    assert critical_path(spec, {"a": 1.0, "b": 2.0, "c": 3.0}) == 4.0
    assert spec.task("c") is spec.tasks[2]
    with pytest.raises(UnknownTaskReference):
        spec.task("ghost")
    assert builds == [spec]
    # a spec that was never validated: execute builds its index once
    fresh = wf(["a", "b"], [("a", "b")])
    execute(fresh, ResourcePool(1, 1), seed=0)
    assert builds == [spec, fresh]
    # a spec made from another builds its own on first use
    relaxed = replace(spec, execution_model="serial")
    assert builds == [spec, fresh]
    validate_dag(relaxed)
    assert len(builds) == 3 and builds[-1] is relaxed


def test_a_spec_built_with_a_repeated_name_is_rejected():
    spec = wf(["a", "b"], [("a", "b")])
    with pytest.raises(SchemaError, match="duplicate task names"):
        execute(replace(spec, tasks=spec.tasks + spec.tasks[:1]), ResourcePool(1, 1), seed=0)


def test_a_spec_built_with_an_undeclared_edge_endpoint_is_rejected():
    spec = wf(["a", "b"], [("a", "b")])
    with pytest.raises(UnknownTaskReference, match="'zz' not declared"):
        validate_dag(replace(spec, edges=spec.edges + (("a", "zz"),)))


def test_long_chain_needs_no_recursion():
    n = 10_000
    names = [f"t{i}" for i in range(n)]
    spec = wf(names, list(zip(names, names[1:])))
    validate_dag(spec)
    assert topological_order(spec) == names
    assert critical_path(spec, dict.fromkeys(names, 1.0)) == n


def test_long_chain_executes_in_order():
    n = 1_200
    names = [f"t{i}" for i in range(n)]
    spec = wf(names, list(zip(names, names[1:])), **{name: {"program": [
        {"kernel": "reduction", "params": {"data_size": 8}}]} for name in names})
    trace = execute(spec, ResourcePool(1, 1), seed=0)
    assert [r.task_name for r in trace.records] == names
    for prev, rec in zip(trace.records, trace.records[1:]):
        assert rec.start >= prev.end


def test_repeated_edge_counts_once():
    spec = wf(["a", "b"], [("a", "b"), ("a", "b")])
    assert topological_order(spec) == ["a", "b"]
    assert critical_path(spec, {"a": 2.0, "b": 3.0}) == 5.0
    trace = execute(spec, ResourcePool(1, 2), seed=0)
    assert [r.task_name for r in trace.records] == ["a", "b"]
    assert trace.records[1].start >= trace.records[0].end


def test_topological_order_respects_edges():
    spec = wf(["a", "b", "c", "d"], [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")])
    order = topological_order(spec)
    pos = {n: i for i, n in enumerate(order)}
    for p, s in spec.edges:
        assert pos[p] < pos[s]


def test_critical_path_chain():
    spec = wf(["a", "b", "c"], [("a", "b"), ("b", "c")])
    assert critical_path(spec, {"a": 2.0, "b": 3.0, "c": 2.0}) == 7.0


def test_critical_path_diamond():
    spec = wf(["s", "l", "r", "t"], [("s", "l"), ("s", "r"), ("l", "t"), ("r", "t")])
    assert critical_path(spec, {"s": 1.0, "l": 5.0, "r": 2.0, "t": 1.0}) == 7.0
    with pytest.raises(KeyError):
        critical_path(spec, {"s": 1.0})


def longest_path_oracle(spec, durations):
    """Enumerate every source-to-sink path (small graphs only)."""
    best = 0.0
    succs = {n: [] for n in spec.task_names}
    for p, s in spec.edges:
        succs[p].append(s)
    sources = set(succs) - {s for _, s in spec.edges}

    def walk(node, total):
        nonlocal best
        total += durations[node]
        if not succs[node]:
            best = max(best, total)
        for s in succs[node]:
            walk(s, total)

    for n in spec.task_names:
        if n in sources:
            walk(n, 0.0)
    return best


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_critical_path_matches_enumeration(data):
    n = data.draw(st.integers(min_value=1, max_value=8))
    names = [f"t{i}" for i in range(n)]
    edges = []
    for i, j in itertools.combinations(range(n), 2):
        if data.draw(st.booleans()):
            edges.append((names[i], names[j]))
    spec = wf(names, edges)
    durations = {name: data.draw(st.floats(min_value=0.1, max_value=9.9)) for name in names}
    assert critical_path(spec, durations) == pytest.approx(
        longest_path_oracle(spec, durations))


# --------------------------------------------------------------------------
# execution semantics

def overlapping(records):
    pairs = []
    for a, b in itertools.combinations(records, 2):
        if a.start < b.end and b.start < a.end:
            pairs.append((a.task_name, b.task_name))
    return pairs


def test_serial_model_never_overlaps():
    spec = wf(["a", "b", "c"], [], model="serial")
    trace = execute(spec, ResourcePool(1, 4), seed=0)
    assert overlapping(trace.records) == []


def test_parallel_model_overlaps_independent_tasks():
    spec = load_workflow({
        "execution_model": "parallel",
        "tasks": [sleep_task("a", 2), sleep_task("b", 2)],
        "edges": [],
    })
    trace = execute(spec, ResourcePool(1, 2), seed=0, copy_bandwidth=SLEEP_BW)
    assert overlapping(trace.records) == [("a", "b")]


def test_dependencies_are_honored():
    spec = wf(["a", "b", "c"], [("a", "b"), ("b", "c")])
    trace = execute(spec, ResourcePool(1, 4), seed=0)
    rec = {r.task_name: r for r in trace.records}
    assert rec["b"].start >= rec["a"].end
    assert rec["c"].start >= rec["b"].end


def test_slot_contention_queues_tasks():
    spec = load_workflow({
        "execution_model": "parallel",
        "tasks": [sleep_task("a"), sleep_task("b"), sleep_task("c")],
        "edges": [],
    })
    # only 2 slots for 3 tasks
    trace = execute(spec, ResourcePool(1, 2), seed=0, copy_bandwidth=SLEEP_BW)
    rec = {r.task_name: r for r in trace.records}
    assert rec["c"].start >= min(rec["a"].end, rec["b"].end) - 1e-9


def test_insufficient_pool_rejected():
    spec = wf(["big"], [], big={"ranks": 4})
    with pytest.raises(InsufficientPool):
        execute(spec, ResourcePool(1, 2), seed=0)


def test_task_without_cpus_rejected():
    spec = wf(["a"], [])
    spec = replace(spec, tasks=[replace(spec.tasks[0], cpus_per_rank=0)])
    with pytest.raises(SchemaError):
        execute(spec, ResourcePool(1, 2), seed=0)


TINY = [{"kernel": "reduction", "params": {"data_size": 8}}]


class FirstFit:
    """The start rule written out as the reference, with `engine._Scheduler`'s
    interface: scan every task in declaration order and start each one that
    is ready (not started, every predecessor completed ok) and fits the free
    slots, taking the lowest free slot ids; under the serial model start
    nothing while a task runs."""

    def __init__(self, spec, pool):
        self.tasks = spec.tasks
        names = [t.name for t in spec.tasks]
        self.preds = [[names.index(p) for p, s in spec.edges if s == name] for name in names]
        self.serial = spec.execution_model == "serial"
        self.free = {kind: [list(s) for s in pool.slots if s[0] == kind] for kind in ("cpu", "gpu")}
        self.started, self.done, self.running = set(), set(), {}

    def starts(self):
        block = []
        for i, t in enumerate(self.tasks):
            if self.serial and self.running:
                break
            cpu, gpu = t.num_ranks * t.cpus_per_rank, t.num_ranks * t.gpus_per_rank
            ready = i not in self.started and all(p in self.done for p in self.preds[i])
            if ready and len(self.free["cpu"]) >= cpu and len(self.free["gpu"]) >= gpu:
                slots = self.running[i] = self.free["cpu"][:cpu] + self.free["gpu"][:gpu]
                del self.free["cpu"][:cpu], self.free["gpu"][:gpu]
                self.started.add(i)
                block.append((i, slots))
        return block

    def complete(self, i, ok):
        slots = self.running.pop(i)
        if ok:
            self.done.add(i)
        for s in slots:
            self.free[s[0]].append(s)
        self.free["cpu"].sort()
        self.free["gpu"].sort()
        return slots


def seeded_spec(seed, model="parallel"):
    """40 tiny tasks of slot demand (1, 0), (2, 0) or (1, 1) on a random DAG."""
    rng = random.Random(seed)
    names = [f"t{i}" for i in range(40)]
    demands = [rng.choice([(1, 0), (2, 0), (1, 1)]) for _ in names]
    edges = [(names[i], names[j]) for i, j in itertools.combinations(range(40), 2)
             if rng.random() < 0.08]
    return load_workflow({
        "execution_model": model,
        "tasks": [task_doc(n, ranks=c, gpus=g, program=TINY) for n, (c, g) in zip(names, demands)],
        "edges": [list(e) for e in edges]})


def slot_events(trace):
    return [(e["kind"], e["task"], e["slot"]) for e in trace.events
            if e["kind"] in ("slot_busy", "slot_idle")]


def replayed(trace, rule):
    """The slot events a start rule gives when fed the run's completions in
    the order the run took them, read from its slot_idle events."""
    names = trace.tasks
    completions = dict.fromkeys(e["task"] for e in trace.events if e["kind"] == "slot_idle")
    events = []

    def start():
        events.extend(("slot_busy", names[i], s) for i, slots in rule.starts() for s in slots)

    start()
    for name in completions:
        events.extend(("slot_idle", name, s) for s in rule.complete(names.index(name), True))
        start()
    return events


@pytest.mark.parametrize("pool, gpus", [(ResourcePool(1, 2), 0), (ResourcePool(1, 2, 1), 1)],
                         ids=["cpus-busy", "gpu-busy"])
def test_scheduler_stops_its_pass_when_no_head_fits(monkeypatch, pool, gpus):
    fits = engine._Scheduler.fits
    calls = []

    def counted(self, demand):
        calls.append(demand)
        return fits(self, demand)

    monkeypatch.setattr(engine._Scheduler, "fits", counted)
    leaves = [f"t{i}" for i in range(200)]
    spec = load_workflow({
        "tasks": [task_doc("fork", program=TINY)]
        + [task_doc(n, program=TINY, gpus=gpus) for n in leaves],
        "edges": [["fork", n] for n in leaves]})
    trace = execute(spec, pool, seed=0)
    assert len(trace.records) == 201
    # trying every ready task on every completion made 19 902 calls with the
    # cpus busy; stopping once no cpu was free still made about 100 per task
    # with the one gpu busy
    assert len(calls) <= 2 * 201


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_start_order_matches_a_first_fit_scan(seed):
    """Replay the slot events: after each completion the tasks started, and
    their slots, are those of a first-fit scan of the ready tasks in
    declaration order, taking the lowest free slot ids."""
    spec = seeded_spec(seed)
    pool = ResourcePool(1, 3, 1)
    trace = execute(spec, pool, seed=0)
    assert [r.task_name for r in trace.records] == spec.task_names
    oracle = FirstFit(spec, pool)
    assert slot_events(trace) == replayed(trace, oracle)
    assert oracle.started == oracle.done == set(range(len(spec.tasks)))


@pytest.mark.parametrize("model", ["serial", "parallel"])
def test_execute_starts_what_the_scheduler_decides(model):
    """A fresh scheduler fed the run's completion order yields the run's
    slot events: execute starts exactly what the scheduler decides."""
    spec = seeded_spec(3, model)
    pool = ResourcePool(2, 2, 1)
    trace = execute(spec, pool, seed=0)
    assert slot_events(trace) == replayed(trace, engine._Scheduler(spec, pool))


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_scheduler_matches_a_first_fit_scan_at_every_step(data):
    """Drive the scheduler with no threads: random DAGs, both models, pools
    of one or two nodes with and without gpus, and random completion orders
    with an occasional failure. Every step matches the first-fit scan."""
    pool = ResourcePool(data.draw(st.integers(1, 2)), data.draw(st.integers(1, 3)),
                        data.draw(st.integers(0, 2)))
    n = data.draw(st.integers(1, 40))
    docs = []
    for i in range(n):
        ranks = data.draw(st.integers(1, min(3, pool.num_cpu_slots)))
        gpus = data.draw(st.integers(0, 1)) if ranks <= pool.num_gpu_slots else 0
        docs.append(task_doc(f"t{i}", ranks=ranks, gpus=gpus, program=TINY))
    pairs = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                               max_size=2 * n))
    spec = load_workflow({
        "execution_model": data.draw(st.sampled_from(["serial", "parallel"])),
        "tasks": docs,
        "edges": [[f"t{min(p)}", f"t{max(p)}"] for p in pairs if p[0] != p[1]]})
    scheduler, oracle = engine._Scheduler(spec, pool), FirstFit(spec, pool)
    all_ok = True
    while True:
        assert scheduler.starts() == oracle.starts()
        if not scheduler.running:
            break
        assert sorted(scheduler.running) == sorted(oracle.running)
        i = data.draw(st.sampled_from(sorted(scheduler.running)))
        ok = data.draw(st.integers(0, 9)) > 0
        all_ok &= ok
        assert scheduler.complete(i, ok) == oracle.complete(i, ok)
    if all_ok:
        assert oracle.done == set(range(n))


def test_kernel_raising_system_exit_fails_the_run():
    name = "raisesSystemExit"
    if name not in catalog_names():
        def leave(ctx, params):
            raise SystemExit(3)
        register_kernel(name, leave)
    spec = load_workflow({"tasks": [task_doc("a", ranks=2, program=[{"kernel": name}])]})
    raised = []

    def run():
        try:
            execute(spec, ResourcePool(1, 2), seed=0)
        except BaseException as e:
            raised.append(e)

    runner = threading.Thread(target=run, daemon=True)
    runner.start()
    runner.join(20)
    # a lane that let SystemExit through never posted the task's completion
    assert not runner.is_alive(), "execute still waits for the task"
    assert len(raised) == 1 and isinstance(raised[0], TaskFailed)


def test_task_failure_aborts_run():
    spec = load_workflow({
        "execution_model": "serial",
        "tasks": [task_doc("bad", program=[{"kernel": "fft", "params": {"data_size": 3}}]),
                  task_doc("never")],
        "edges": [["bad", "never"]],
    })
    with pytest.raises(TaskFailed):
        execute(spec, ResourcePool(1, 2), seed=0)


def test_of_two_failed_tasks_the_one_declared_first_is_named():
    # both start at once and both fail; the failure drained last used to be named
    failing = [{"loop": True, "count": 5,
                "body": [{"kernel": "reduction", "params": {"data_size": 8}}]},
               {"kernel": "fft", "params": {"data_size": 3}}]
    spec = load_workflow({"tasks": [task_doc("a", program=failing),
                                    task_doc("b", program=failing)]})
    named = set()
    for _ in range(30):
        with pytest.raises(TaskFailed) as failure:
            execute(spec, ResourcePool(1, 2), seed=0)
        named.add(str(failure.value).split(":")[0])
    assert named == {"task a failed"}


@pytest.mark.parametrize("dims", [(1, -1, 0), (1, 1, -1)])
def test_pool_rejects_negative_dimensions(dims):
    with pytest.raises(ValueError, match="non-negative"):
        ResourcePool(*dims)


def test_a_run_extends_a_log_once_per_rank_and_once_per_task(monkeypatch):
    # rank 0's log is the task's: the other ranks' logs join it, it goes to
    # the task's log in execute, which goes to the run's log
    calls = []
    extend = MetricsSink.extend
    monkeypatch.setattr(MetricsSink, "extend",
                        lambda self, events: calls.append(self) or extend(self, events))
    spec = wf(["one", "two", "three"], [], two={"ranks": 2}, three={"ranks": 3})
    execute(spec, ResourcePool(1, 3), seed=0)
    assert len(calls) == sum(t.num_ranks + 1 for t in spec.tasks) == 9


def test_slot_events_balanced():
    spec = wf(["a", "b"], [("a", "b")])
    trace = execute(spec, ResourcePool(1, 2), seed=0)
    busy = [e for e in trace.events if e["kind"] == "slot_busy"]
    idle = [e for e in trace.events if e["kind"] == "slot_idle"]
    assert len(busy) == len(idle) == 2


def test_each_task_events_end_in_its_slot_release():
    # a task's events reach the run's log when the engine takes its
    # completion: one contiguous block, then that task's slot_idle events
    names = [f"t{i}" for i in range(8)]
    spec = wf(names, [], **{n: {"ranks": 1 + i % 2} for i, n in enumerate(names)})
    events = list(execute(spec, ResourcePool(1, 3), seed=0).events)
    for name in names:
        at = [i for i, e in enumerate(events) if e["task"] == name and e["kind"] != "slot_busy"]
        kinds = [events[i]["kind"] for i in at]
        ranks = 1 + names.index(name) % 2
        assert at == list(range(at[0], at[0] + len(at))), name
        assert kinds == ["task_start"] + ["kernel"] * ranks + ["task_end"] + ["slot_idle"] * ranks


def test_run_id_and_pool_in_trace():
    spec = wf(["a"], [])
    trace = execute(spec, ResourcePool(1, 2), seed=0, run_id="demo")
    assert trace.run_id == "demo"
    assert trace.pool.num_cpu_slots == 2


# --------------------------------------------------------------------------
# execution-model transforms

def phased_spec():
    tasks, edges = [], []
    for p in (1, 2):
        tasks += [task_doc(f"sim_p{p}", phase=p, category="simulation"),
                  task_doc(f"train_p{p}", phase=p, category="training")]
        edges.append([f"sim_p{p}", f"train_p{p}"])
    edges += [["train_p1", "sim_p2"], ["train_p1", "train_p2"]]
    return load_workflow({"execution_model": "sync", "phases": 2,
                          "tasks": tasks, "edges": edges})


def test_async_overlap_drops_train_to_next_sims():
    spec = phased_spec()
    relaxed = async_overlap(spec)
    assert relaxed.execution_model == "async"
    assert ("train_p1", "sim_p2") not in relaxed.edges
    assert ("train_p1", "train_p2") in relaxed.edges
    assert ("sim_p1", "train_p1") in relaxed.edges
    assert len(relaxed.edges) == len(spec.edges) - 1


def test_async_overlap_single_phase_unchanged():
    spec = load_workflow({"execution_model": "sync", "tasks": [
        task_doc("sim", phase=1, category="simulation"),
        task_doc("train", phase=1, category="training")],
        "edges": [["sim", "train"]]})
    relaxed = async_overlap(spec)
    assert relaxed.edges == spec.edges
    assert relaxed.execution_model == "async"


def test_async_overlap_requires_shape():
    spec = wf(["a"], [])
    with pytest.raises(ShapeMismatch):
        async_overlap(spec)  # no phase annotations
    two_trains = load_workflow({"execution_model": "sync", "tasks": [
        task_doc("sim", phase=1, category="simulation"),
        task_doc("t1", phase=1, category="training"),
        task_doc("t2", phase=1, category="training")], "edges": []})
    with pytest.raises(ShapeMismatch):
        async_overlap(two_trains)


def test_fitting_pool_serial_vs_parallel():
    serial = load_workflow({"execution_model": "serial", "tasks": [
        task_doc("a", ranks=3), task_doc("b", ranks=2)], "edges": []})
    assert fitting_pool(serial).num_cpu_slots == 3
    par = load_workflow({"execution_model": "parallel", "tasks": [
        task_doc("a", ranks=3, phase=1), task_doc("b", ranks=2, phase=1)],
        "edges": []})
    assert fitting_pool(par).num_cpu_slots == 5


# fitting_pool at the code before its serial and phase branches became one
# loop: (cpus, gpus) per desk scale, the same for every configuration
PARENT_POOLS = {
    "ip:serial_cpu": {0.02: (2, 0), 0.08: (10, 0), 1.0: (128, 0)},
    "ip:serial_cpu_gpu": {0.02: (2, 1), 0.08: (10, 1), 1.0: (128, 16)},
    "ip:parallel_cpu": {0.02: (3, 0), 0.08: (11, 0), 1.0: (132, 0)},
    "ddmd:sync": dict.fromkeys((0.02, 0.08, 1.0), (15, 14)),
    "ddmd:async": dict.fromkeys((0.02, 0.08, 1.0), (15, 14)),
}


@pytest.mark.parametrize("selector, desk_scale", [
    (f"{model}:{config}", desk_scale)
    for model, configs in (("ip:serial_cpu", "V1 V2 V3"), ("ip:serial_cpu_gpu", "V1 V2 V3"),
                           ("ip:parallel_cpu", "V1 V2 V3"), ("ddmd:sync", "V1 V2"),
                           ("ddmd:async", "V1 V2"))
    for config in configs.split()
    for desk_scale in (0.02, 0.08, 1.0)])
def test_fitting_pool_of_every_exemplar(selector, desk_scale):
    pool = fitting_pool(exemplars.build(selector, desk_scale=desk_scale))
    model = selector.rsplit(":", 1)[0]
    assert pool.num_nodes == 1
    assert (pool.cpus_per_node, pool.gpus_per_node) == PARENT_POOLS[model][desk_scale]


# --------------------------------------------------------------------------
# dependency-safety property on random DAGs (graph-level; full traced runs
# are exercised in the acceptance suite)

@settings(max_examples=30, deadline=None)
@given(st.data())
def test_random_dag_execution_is_dependency_safe(data):
    n = data.draw(st.integers(min_value=1, max_value=6))
    names = [f"t{i}" for i in range(n)]
    edges = [(names[i], names[j]) for i, j in itertools.combinations(range(n), 2)
             if data.draw(st.booleans())]
    model = data.draw(st.sampled_from(["serial", "parallel"]))
    spec = wf(names, edges, model=model)
    trace = execute(spec, ResourcePool(1, 3), seed=1)
    rec = {r.task_name: r for r in trace.records}
    for p, s in edges:
        assert rec[s].start >= rec[p].end
    durations = {name: rec[name].end - rec[name].start for name in names}
    makespan = max(r.end for r in trace.records) - min(r.start for r in trace.records)
    assert makespan >= critical_path(spec, durations) - 1e-9
