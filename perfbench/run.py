"""wfmini benchmark: one workload, measured end to end or traced by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout of the repository; wfmini is imported from its `src/`.
Workloads: ip_serial, ddmd_async, dag_wide (see workloads.py and README.md).
The run measures samples for about S seconds in one process, checks every
sample for correctness, prints a table of metrics and, as the last line of
standard output, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (tracing off). With
--trace 1, samples alternate between untraced and traced; the metrics are
the per-layer ones from the traced samples plus the tracing overhead.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench-scratch"

# setup_s is the median of back-to-back setups: at least this many, and for
# at least this long, so a setup of tens of microseconds is timed thousands
# of times
SETUP_MIN_REPS = 40
SETUP_MIN_S = 0.5
MIN_SAMPLES = 2
# Peak memory is the median over a few fresh processes, started together
# after the timed samples. They run with glibc's mmap threshold fixed: with
# the default dynamic threshold, whether a freed multi-MB buffer goes back to
# the OS or stays in a thread's arena depends on thread timing, and the peak
# jumps between modes 4 MB apart.
RSS_CHILDREN = 5
RSS_ENV = {"MALLOC_MMAP_THRESHOLD_": "131072"}
CHILD_TIMEOUT_S = 60

WORKLOAD_NAMES = ("ip_serial", "ddmd_async", "dag_wide")
END_TO_END = {"setup_s": "s", "makespan_s": "s", "turnaround_s": "s", "peak_rss_mb": "MB"}


def tail(values):
    """(q, value) for the highest of a few percentiles with at least ten
    samples beyond it, or None when there are too few samples."""
    ordered = sorted(values)
    n = len(ordered)
    for q in (99.9, 99, 95, 90, 75, 50):
        if n * (1 - q / 100) >= 10:
            pos = q / 100 * (n - 1)
            lo = int(pos)
            hi = min(lo + 1, n - 1)
            return q, ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)
    return None


def import_program():
    """Import wfmini from this checkout's src/; exit non-zero if it is not there."""
    if not (SRC / "wfmini" / "__init__.py").is_file():
        sys.exit(f"error: no wfmini sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import wfmini
    if SRC not in Path(wfmini.__file__).resolve().parents:
        sys.exit(f"error: wfmini imported from {wfmini.__file__}, not {SRC}")


def peak_rss_kb():
    """High-water resident set of this process image. ru_maxrss is not used:
    it carries the parent's peak across fork and exec."""
    with open("/proc/self/status", encoding="ascii") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def run_child(args, scratch):
    import workloads
    sample = workloads.WORKLOADS[args.workload](args.seed).sample(scratch / "sample")
    print(json.dumps({"peak_kb": peak_rss_kb(), "problems": sample.problems,
                      "fingerprint": sample.fingerprint}))


def measure_rss(args, reference):
    """Start RSS_CHILDREN fresh processes that each run one sample; return
    one (MB or None, problems) pair per process. A child's kernel checksums
    must match this process's."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "1", "--trace", "0", "--rss-child"]
    env = dict(os.environ, **RSS_ENV)
    procs = [subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, cwd=ROOT, env=env) for _ in range(RSS_CHILDREN)]
    results = []
    try:
        for proc in procs:
            try:
                out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                results.append((None, [f"timed out after {CHILD_TIMEOUT_S} s"]))
                continue
            lines = out.strip().splitlines()
            if proc.returncode != 0 or not lines:
                results.append((None, [f"exited {proc.returncode}: {err.strip()[-300:]}"]))
                continue
            child = json.loads(lines[-1])
            problems = child["problems"]
            if child["fingerprint"] != reference:
                problems.append("kernel checksums differ from the parent process")
            results.append((child["peak_kb"] / 1024.0, problems))
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
    return results


def time_setups(wl):
    times = []
    start = time.perf_counter()
    while len(times) < SETUP_MIN_REPS or time.perf_counter() - start < SETUP_MIN_S:
        t0 = time.perf_counter()
        wl.setup()
        times.append(time.perf_counter() - t0)
    return times


class Tally:
    """Samples attempted and failed, with the first problems of each."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.problems = []

    def add(self, label, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"{label}: {p}" for p in problems[:3]]


def run_samples(wl, args, scratch, tally):
    """Run samples for about args.seconds (at least MIN_SAMPLES). Returns
    the untraced samples, the traced ones with their layer metrics, and the
    first sample's checksum fingerprint."""
    from spans import Recorder, tracing
    import layers

    plain, traced, durations = [], [], []
    reference = None
    t_window = time.perf_counter()
    while True:
        i = len(durations)
        with_trace = bool(args.trace) and i % 2 == 1
        sample_dir = scratch / f"sample-{i}"
        sample_dir.mkdir(parents=True)
        t0 = time.perf_counter()
        try:
            if with_trace:
                rec = Recorder()
                with tracing(rec):
                    sample = wl.sample(sample_dir)
                found = dict(layers.span_metrics(rec.spans, rec.counts),
                             **layers.schedule_metrics(sample.spec, sample.run))
                found["trace.bytes"] = sample.trace_bytes
            else:
                sample = wl.sample(sample_dir)
        except Exception as e:      # a sample that raises counts as failed
            problems = [f"{type(e).__name__}: {e}"]
        else:
            problems = list(sample.problems)
            reference = reference or sample.fingerprint
            if sample.fingerprint != reference:
                problems.append("kernel checksums differ from the first sample")
        finally:
            shutil.rmtree(sample_dir, ignore_errors=True)
        durations.append(time.perf_counter() - t0)
        tally.add(f"sample {i}", problems)
        if not problems:
            if with_trace:
                traced.append((sample, found))
            else:
                plain.append(sample)
        elapsed = time.perf_counter() - t_window
        if len(durations) >= MIN_SAMPLES and elapsed + statistics.median(durations) > args.seconds:
            return plain, traced, reference


def run(args, scratch):
    import workloads
    import layers

    wl = workloads.WORKLOADS[args.workload](args.seed)
    try:
        workloads.refuse_wide(wl.setup()[1])
    except workloads.PoolTooWide as e:
        sys.exit(f"error: {e}")
    workloads.warm_up(scratch / "warm")
    setup_times = [] if args.trace else time_setups(wl)

    tally = Tally()
    plain, traced, reference = run_samples(wl, args, scratch, tally)
    if args.trace:
        units = layers.PER_LAYER
        values = {name: [found[name] for _, found in traced if name in found]
                  for name in units}
        if traced and plain:
            values["bench.trace_overhead_s"] = [
                statistics.median(s.turnaround_s for s, _ in traced)
                - statistics.median(s.turnaround_s for s in plain)]
    else:
        units = END_TO_END
        rss_mb = []
        for mb, problems in measure_rss(args, reference):
            tally.add("rss sample", problems)
            if mb is not None and not problems:
                rss_mb.append(mb)
        values = {
            "setup_s": setup_times,
            "makespan_s": [s.makespan_s for s in plain],
            "turnaround_s": [s.turnaround_s for s in plain],
            "peak_rss_mb": rss_mb,
        }

    for p in tally.problems:
        print(f"FAIL {p}")
    print(f"workload {args.workload}  seed {args.seed}  samples {tally.attempted}  "
          f"failed {tally.failed}  fail_ratio {tally.failed / tally.attempted:.4f}")
    metrics = {}
    for name, unit in units.items():
        vals = values.get(name)
        if not vals:
            sys.exit(f"error: no valid samples for {name}")
        metrics[name] = {"value": statistics.median(vals), "unit": unit}
        t = tail(vals)
        extra = f"  p{t[0]:g} {t[1]:.6g}" if t else ""
        print(f"{name:30s} median {metrics[name]['value']:.6g} {unit}  n={len(vals)}{extra}")
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--rss-child", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    import_program()
    # a terminated run still removes its scratch directory
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    scratch = SCRATCH / f"{os.getpid()}"
    # every Scratch the program creates on its own lands here too
    os.environ["WFMINI_SCRATCH"] = str(scratch / "default")
    try:
        if args.rss_child:
            run_child(args, scratch)
        else:
            run(args, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    main()
