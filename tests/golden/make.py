"""Golden outputs: what two shipped exemplars produce at fixed seeds.

Each run is executed, written to a trace file and read back. Its outputs are
the exact facts a refactor must not move:
- per task: bytes read, bytes written, ranks and the number of slots held;
- the kernel-event count of each (task, rank, kernel);
- the trace header's schema and the set of event kinds;
- a digest of every rank lane's kernel checksums, in program order.

Checksums come from NumPy's generators and BLAS, so the file records the
NumPy version they were taken with. Regenerate from the repository root:

    PYTHONPATH=src python tests/golden/make.py
"""
from __future__ import annotations

import hashlib
import json
import tempfile
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

from wfmini import exemplars
from wfmini.engine import execute
from wfmini.kernels import Scratch
from wfmini.trace import ResourcePool, RunTrace

OUTPUTS = Path(__file__).resolve().parent / "outputs.json"
# selector -> (desk scale, pool)
RUNS = {
    "ip:serial_cpu:V1": (0.02, ResourcePool(1, 2)),
    "ddmd:async:V1": (0.005, ResourcePool(1, 2, 2)),
}
SEEDS = (1, 2)


def fingerprint(trace) -> str:
    """Digest of each (task, rank) lane's kernel names and checksums. A lane
    appends in program order, so the digest does not depend on how the
    lanes of a task interleave."""
    lanes = defaultdict(list)
    for e in trace.events:
        if e["kind"] == "kernel":
            lanes[(e["task"], e["rank"])].append(f"{e['kernel']}:{e['checksum']!r}")
    h = hashlib.sha256()
    for key in sorted(lanes):
        h.update(f"{key}|{'|'.join(lanes[key])}\n".encode())
    return h.hexdigest()


def observe(trace, schema) -> dict:
    kernels = Counter(f"{e['task']}/{e['rank']}/{e['kernel']}"
                      for e in trace.events if e["kind"] == "kernel")
    return {
        "schema": schema,
        "kinds": sorted({e["kind"] for e in trace.events}),
        "tasks": {r.task_name: [r.bytes_read, r.bytes_written, r.ranks, len(r.slots_used)]
                  for r in trace.records},
        "kernels": dict(sorted(kernels.items())),
        "fingerprint": fingerprint(trace),
    }


def run(selector, seed, workdir: Path) -> dict:
    """The outputs of one run, observed on the trace that was read back."""
    desk_scale, pool = RUNS[selector]
    spec = exemplars.build(selector, desk_scale=desk_scale)
    trace = execute(spec, pool, seed=seed, scratch=Scratch(workdir / "scratch"))
    path = workdir / "trace.jsonl"
    trace.write_jsonl(path)
    with path.open(encoding="utf-8") as f:
        schema = json.loads(f.readline())["schema"]
    return observe(RunTrace.read_jsonl(path), schema)


def key(selector, seed):
    return f"{selector}@{seed}"


def outputs() -> dict:
    runs = {}
    for selector in RUNS:
        for seed in SEEDS:
            with tempfile.TemporaryDirectory() as tmp:
                runs[key(selector, seed)] = run(selector, seed, Path(tmp))
    return {"numpy": np.__version__, "runs": runs}


if __name__ == "__main__":
    OUTPUTS.write_text(json.dumps(outputs(), indent=1) + "\n", encoding="utf-8")
    print(f"wrote {OUTPUTS}")
