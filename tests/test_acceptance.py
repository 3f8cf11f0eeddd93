"""Acceptance gate: one test per shipped claim, each printing a PASS/FAIL
line with the measured numbers (run pytest -s to see them on success).

Wall-time criteria run tiny rank counts (rank_scale=0.01) and, where a ratio
of makespans is asserted, take the best of three runs per point: on a shared
host the noise is strictly additive, so the minimum is the stable floor.
"""
import itertools
import random
import threading
import time

import numpy as np
import pytest

from wfmini import ops
from wfmini.calibrate import calibrate, derive_config, ingest_profile
from wfmini.engine import (
    WorkflowConfig,
    critical_path,
    execute,
    fitting_pool,
    load_workflow,
)
from wfmini.exemplars import build, deep_drive_md_spec, inverse_problem_spec
from wfmini.kernels import Communicator
from wfmini.metrics import compute_ratios, reproducibility_stats, summarize
from wfmini.scaling import run_scaling
from wfmini.tasks import get_param
from wfmini.trace import ResourcePool


def report(num, name, ok, detail):
    print(f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} {name}: {detail}"


def best_of(n, fn):
    """Minimum-makespan summary over n runs (bytes are identical by design)."""
    return min((fn() for _ in range(n)), key=lambda s: s.makespan)


# --------------------------------------------------------------------------
# 1. ratio constancy across configurations

@pytest.mark.timing
def test_criterion_1_ratio_constancy():
    t_start = time.monotonic()

    def run(config, desk_scale):
        spec = build(f"ip:serial_cpu:{config}", desk_scale=desk_scale,
                     rank_scale=0.01)
        pool = fitting_pool(spec)
        return best_of(3, lambda: summarize(execute(spec, pool, seed=1)))

    configs = ("V1", "V2", "V3")
    originals = [run(c, 0.08) for c in configs]
    minis = [run(c, 0.02) for c in configs]
    rep = compute_ratios(originals, minis, tolerance=1.15)

    byte_ok = all(abs(cfg["r_read"] - 0.25) <= 0.0025
                  and abs(cfg["r_write"] - 0.25) <= 0.0025
                  for cfg in rep.per_config)
    times = [cfg["r_time"] for cfg in rep.per_config]
    spread = max(times) / min(times)
    elapsed = time.monotonic() - t_start
    ok = byte_ok and spread <= 1.15 and elapsed < 300
    report(1, "ratio constancy", ok,
           f"r_read={rep.r_read:.4f} r_write={rep.r_write:.4f} "
           f"r_time={times} spread={spread:.3f} elapsed={elapsed:.0f}s")


# --------------------------------------------------------------------------
# 2. run-to-run reproducibility

@pytest.mark.timing
def test_criterion_2_reproducibility():
    spec = build("ip:serial_cpu:V1", desk_scale=0.02)
    pool = fitting_pool(spec)
    traces = [execute(spec, pool, seed=1) for _ in range(8)]

    totals = {(sum(r.bytes_read for r in t.records),
               sum(r.bytes_written for r in t.records)) for t in traces}
    orders = {tuple(r.task_name for r in sorted(t.records, key=lambda r: r.start))
              for t in traces}
    rep = reproducibility_stats([summarize(t) for t in traces])
    cv = rep.per_metric["makespan"]["coefficient_of_variation"]
    ok = len(totals) == 1 and len(orders) == 1 and cv <= 0.10
    report(2, "reproducibility", ok,
           f"8 runs, byte totals {'identical' if len(totals) == 1 else totals}, "
           f"orderings {'identical' if len(orders) == 1 else 'DIFFER'}, "
           f"makespan CV={cv:.2%}")


# --------------------------------------------------------------------------
# 3. dependency safety on random DAGs

def random_workflow(rnd):
    n = rnd.randint(1, 50)
    names = [f"t{i}" for i in range(n)]
    p = rnd.uniform(0.02, 0.25)
    edges = [[names[i], names[j]] for i, j in itertools.combinations(range(n), 2)
             if rnd.random() < p]
    tasks = [{"name": name, "category": "work", "num_ranks": rnd.randint(1, 3),
              "program": [{"kernel": "RNG", "params": {"data_size": 256}}]}
             for name in names]
    model = rnd.choice(["serial", "parallel"])
    spec = load_workflow({"execution_model": model, "tasks": tasks,
                          "edges": edges})
    need = max(t.num_ranks for t in spec.tasks)
    pool = ResourcePool(1, need + rnd.randint(0, 4))
    return spec, pool


def slot_intervals(trace):
    open_at, out = {}, {}
    for e in trace.events:
        if e["kind"] == "slot_busy":
            open_at[tuple(e["slot"])] = e["t"]
        elif e["kind"] == "slot_idle":
            key = tuple(e["slot"])
            out.setdefault(key, []).append((open_at.pop(key), e["t"]))
    return out


def test_criterion_3_dependency_safety():
    rnd = random.Random(2024)
    violations = []
    for trial in range(100):
        spec, pool = random_workflow(rnd)
        trace = execute(spec, pool, seed=trial)
        rec = {r.task_name: r for r in trace.records}
        for p, s in spec.edges:
            if rec[s].start < rec[p].end:
                violations.append((trial, "ordering", p, s))
        for slot, spans in slot_intervals(trace).items():
            spans.sort()
            for (a0, a1), (b0, b1) in zip(spans, spans[1:]):
                if b0 < a1:
                    violations.append((trial, "slot overlap", slot))
        durations = {n: rec[n].end - rec[n].start for n in spec.task_names}
        makespan = (max(r.end for r in trace.records)
                    - min(r.start for r in trace.records))
        if makespan < critical_path(spec, durations) - 1e-9:
            violations.append((trial, "below critical path"))
    report(3, "dependency safety", not violations,
           f"100 random DAGs, {len(violations)} violations"
           + (f": {violations[:3]}" if violations else ""))


# --------------------------------------------------------------------------
# 4. async execution beats sync by the critical-path prediction

def test_criterion_4_async_speedup():
    sync = deep_drive_md_spec("sync", "V1", desk_scale=0.02)
    relaxed = deep_drive_md_spec("async", "V1", desk_scale=0.02)
    pool = fitting_pool(sync)

    sync_trace = execute(sync, pool, seed=4)
    async_trace = execute(relaxed, pool, seed=4)
    sync_span = summarize(sync_trace).makespan
    async_span = summarize(async_trace).makespan

    def durations(trace):
        return {r.task_name: r.end - r.start for r in trace.records}

    measured = 1 - async_span / sync_span
    predicted = 1 - (critical_path(relaxed, durations(async_trace))
                     / critical_path(sync, durations(sync_trace)))
    train = sync_trace.task_record("train_p1")
    phase1_names = {t.name for t in sync.tasks if t.phase == 1}
    phase1 = [r for r in sync_trace.records if r.task_name in phase1_names]
    phase_span = max(r.end for r in phase1) - min(r.start for r in phase1)
    train_share = (train.end - train.start) / phase_span
    ok = async_span < sync_span and abs(measured - predicted) <= 0.05
    report(4, "async speedup", ok,
           f"sync={sync_span:.2f}s async={async_span:.2f}s "
           f"measured={measured:.1%} predicted={predicted:.1%} "
           f"train/phase={train_share:.0%}")


# --------------------------------------------------------------------------
# 5. strong-scaling I/O of the training stage

def test_criterion_5_strong_scaling_io():
    points = run_scaling((1, 2, 4))
    base = points[0]["read_bytes"]
    read_ratios = [pt["read_bytes"] / base for pt in points]
    reads_ok = all(abs(r - want) / want <= 0.01
                   for r, want in zip(read_ratios, (1, 2, 4)))
    writes = [pt["write_bytes"] for pt in points]
    writes_ok = max(writes) - min(writes) <= 0.01 * max(max(writes), 1)
    report(5, "strong-scaling I/O", reads_ok and writes_ok,
           f"read ratios {read_ratios}, writes {writes}")


# --------------------------------------------------------------------------
# 6. kernel math against independent oracles

def matmul_oracle(a, b):
    m, k = a.shape
    k2, n = b.shape
    out = np.zeros((m, n), dtype=a.dtype)
    for i in range(m):
        for j in range(n):
            acc = 0
            for t in range(k):
                acc += a[i, t] * b[t, j]
            out[i, j] = acc
    return out


def dft_oracle(x):
    n = len(x)
    ks = np.arange(n)
    return np.array([np.sum(x * np.exp(-2j * np.pi * k * ks / n)) for k in ks])


def on_all_ranks(comm, fn):
    out = [None] * comm.size
    threads = [threading.Thread(target=lambda r=r: out.__setitem__(r, fn(r)))
               for r in range(comm.size)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return out


def test_criterion_6_kernel_oracles():
    rng = np.random.default_rng(6)
    checks = 0
    for n in (1, 2, 3, 7, 16, 33, 64):
        ai = rng.integers(-50, 50, size=(n, n))
        bi = rng.integers(-50, 50, size=(n, n))
        assert (ops.matmul(ai, bi) == matmul_oracle(ai, bi)).all()
        ar, br = rng.random((n, n)), rng.random((n, n))
        assert np.allclose(ops.matmul(ar, br), matmul_oracle(ar, br), rtol=1e-9)
        # general matmul: a rectangular triple
        a2, b2 = rng.random((n, max(1, n // 2))), rng.random((max(1, n // 2), n))
        assert np.allclose(ops.matmul(a2, b2), matmul_oracle(a2, b2), rtol=1e-9)
        checks += 3

        x = rng.random(n)
        y = rng.random(n)
        a = 1.7
        assert np.allclose(ops.axpy(a, x, y), np.array([a * u + v for u, v in zip(x, y)]),
                           rtol=1e-9)
        assert abs(ops.reduction(x) - sum(float(v) for v in x)) <= 1e-9 * max(1.0, abs(sum(x)))
        idx = rng.integers(0, n, size=n)
        got = ops.scatter_add(x, idx, y)
        want = y.copy()
        for i, v in zip(idx, x):
            want[i] += v
        assert np.allclose(got, want, rtol=1e-9)
        assert np.allclose(ops.inplace_compute("square", x), x * x, rtol=1e-9)
        checks += 4

    for n in (2, 4, 8, 16, 32, 64):
        x = rng.random(n) + 1j * rng.random(n)
        assert np.allclose(ops.fft(x), dft_oracle(x), rtol=1e-9, atol=1e-9)
        checks += 1

    for size in (2, 3, 4):
        comm = Communicator(size)
        data = [rng.random(8) for _ in range(size)]
        for res in on_all_ranks(comm, lambda r: comm.allreduce(r, data[r])):
            assert np.allclose(res, sum(data), rtol=1e-9)
        comm = Communicator(size)
        for res in on_all_ranks(comm, lambda r: comm.allgather(r, data[r])):
            assert np.allclose(res, np.concatenate(data), rtol=1e-9)
        checks += 2

    report(6, "kernel oracles", True, f"{checks} oracle comparisons, sizes <= 64")


# --------------------------------------------------------------------------
# 7. calibration convergence and config derivation

@pytest.mark.timing
def test_criterion_7_calibration():
    spec = load_workflow({
        "execution_model": "serial",
        "tasks": [{
            "name": "t", "category": "compute", "num_ranks": 1,
            "program": [
                {"loop": True, "count": 400,
                 "body": [{"kernel": "RNG", "params": {"data_size": 200_000}}]},
                {"kernel": "readNonMPI", "params": {"data_size": 4_000_000}},
                {"kernel": "writeNonMPI", "params": {"data_size": 1_000_000}},
            ]}],
        "edges": []})
    pool = ResourcePool(1, 1)

    def runner(candidate):
        return best_of(3, lambda: summarize(execute(candidate, pool, seed=7)))

    baseline = runner(spec)
    # a fictitious original whose quarter is half the baseline time and
    # double the baseline bytes, so both knobs must move
    entry = {"makespan_s": 2 * baseline.makespan,
             "read_bytes": 8 * baseline.read_bytes,
             "write_bytes": 8 * baseline.write_bytes}
    target = ingest_profile({"workflow": dict(entry),
                             "categories": {"compute": dict(entry)}})
    base_config = WorkflowConfig(epochs=400, data_scale=1.0)
    tuned, mapping = calibrate(spec, target, ratio=0.25, tolerance=0.05,
                               max_iters=5, runner=runner,
                               base_config=base_config)
    worst = max(mapping.residual_error.values())

    same = derive_config(mapping, base_config)
    identity_ok = same.to_dict() == tuned.to_dict()
    doubled = derive_config(mapping, WorkflowConfig(epochs=800, data_scale=1.0))
    scaled_ok = (get_param(doubled.task("t"), "program.0.count")
                 == 2 * get_param(tuned.task("t"), "program.0.count"))
    ok = worst <= 0.05 and identity_ok and scaled_ok
    report(7, "calibration", ok,
           f"worst residual {worst:.2%} in <=5 iters, derived base config "
           f"{'matches' if identity_ok else 'DIFFERS'}, epoch scaling "
           f"{'exact' if scaled_ok else 'WRONG'}")


# --------------------------------------------------------------------------
# 8. exemplar structure at full scale

def test_criterion_8_exemplar_fidelity():
    ip = inverse_problem_spec("serial_cpu", "V1", desk_scale=1.0)
    ip_ok = (ip.task("sim_p1").num_ranks == 128
             and ip.task("train_p1").num_ranks == 4
             and ip.phases == 3 and len(ip.tasks) == 6
             and get_param(ip.task("train_p1"), "program.0.count") == 50)

    ddmd = deep_drive_md_spec("sync", "V1", desk_scale=1.0)
    sims_per_phase = [sum(1 for t in ddmd.tasks
                          if t.category == "simulation" and t.phase == p)
                      for p in (1, 2)]
    ddmd_ok = (len(ddmd.tasks) == 30 and ddmd.phases == 2
               and sims_per_phase == [12, 12]
               and ddmd.task("train_p1").num_ranks == 1
               and ddmd.task("agent_p1").num_ranks == 1)
    report(8, "exemplar fidelity", ip_ok and ddmd_ok,
           "ip: ranks 128/4, 3 phases, 50 epochs; ddmd: 30 tasks, 2 phases, "
           "ranks 12/1/1")
