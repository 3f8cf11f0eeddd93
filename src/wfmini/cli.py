"""Command-line surface: run workflows, validate ratios, compute
reproducibility, render reports, inspect/bench kernels, calibrate, and
export exemplars.

Exit codes: 0 success, 1 user error, 2 runtime failure. All outputs are
machine-readable UTF-8 files; no interactive prompts.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from pathlib import Path

from . import exemplars, plots
from .calibrate import calibrate as run_calibration, ingest_profile
from .engine import execute, fitting_pool, load_workflow
from .errors import TaskFailed, WfMiniError
from .kernels import (
    SEED_ENV,
    KernelCall,
    KernelContext,
    Scratch,
    catalog_names,
    execute_kernel,
)
from .metrics import compute_ratios, MetricsSummary, reproducibility_stats, summarize
from .trace import ResourcePool, RunTrace

EXIT_OK = 0
EXIT_USER = 1
EXIT_RUNTIME = 2


def _read_json(path):
    return json.loads(Path(path).read_text(encoding="utf-8"))


def _read_pool(path):
    """The resource pool in the JSON file at `path`; a bad one raises a
    ValueError that names the file."""
    try:
        return ResourcePool.from_dict(_read_json(path))
    except (KeyError, TypeError) as e:
        raise ValueError(f"{path}: not a pool: {type(e).__name__}: {e}") from None
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None


def _write_json(path, obj):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(obj, indent=2), encoding="utf-8")


def _default_seed(args):
    if args.seed is not None:
        return args.seed
    return int(os.environ.get(SEED_ENV, "0"))


def _load_spec(args):
    if args.workflow:
        return load_workflow(_read_json(args.workflow))
    return exemplars.build(args.exemplar, desk_scale=args.desk_scale,
                           rank_scale=args.rank_scale)


def cmd_run(args):
    if args.repeat < 1:
        print("error: --repeat must be >= 1", file=sys.stderr)
        return EXIT_USER
    spec = _load_spec(args)
    if args.resources:
        pool = _read_pool(args.resources)
    elif args.exemplar:
        pool = fitting_pool(spec)
    else:
        print("error: --resources is required with --workflow", file=sys.stderr)
        return EXIT_USER
    seed = _default_seed(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for i in range(args.repeat):
        run_dir = out / f"run-{i}"
        run_dir.mkdir(parents=True, exist_ok=True)
        scratch = Scratch(args.scratch) if args.scratch else Scratch()
        try:
            trace = execute(spec, pool, seed=seed, scratch=scratch, run_id=f"run-{i}")
        except TaskFailed as e:
            print(f"error: {e}", file=sys.stderr)
            return EXIT_RUNTIME
        finally:
            if not args.keep_scratch:
                scratch.cleanup()
        trace.write_jsonl(run_dir / "trace.jsonl")
        summary = summarize(trace)
        _write_json(run_dir / "summary.json", summary.to_dict())
        _write_json(run_dir / "config.json", {
            "seed": seed, "pool": pool.to_dict(), "workflow": spec.to_dict(),
            "exemplar": args.exemplar, "desk_scale": args.desk_scale,
        })
        print(f"run-{i}: makespan {summary.makespan:.3f}s -> {run_dir}")
    return EXIT_OK


def _load_summaries(paths):
    out = []
    for p in paths:
        p = Path(p)
        if p.is_dir():
            p = p / "summary.json"
        out.append(MetricsSummary.from_dict(_read_json(p)))
    return out


def cmd_validate(args):
    original = _load_summaries(args.original)
    mini = _load_summaries(args.mini)
    report = compute_ratios(original, mini, tolerance=args.tolerance)
    _write_json(args.out, report.to_dict())
    ok = all(report.constant.values())
    for i, cfg in enumerate(report.per_config):
        print(f"config {i}: r_time={cfg['r_time']:.4f} r_read={cfg['r_read']:.4f} "
              f"r_write={cfg['r_write']:.4f}")
    print(f"ratio constancy at tolerance {args.tolerance}: "
          f"{'pass' if ok else 'FAIL'}")
    return EXIT_OK if ok else EXIT_RUNTIME


def cmd_repro(args):
    run_dirs = sorted(Path(args.runs).glob("run-*"))
    summaries = _load_summaries(run_dirs)
    report = reproducibility_stats(summaries)
    _write_json(args.out, report.to_dict())
    m = report.per_metric["makespan"]
    print(f"{report.samples} runs: makespan {m['mean']:.3f}±{m['std']:.3f}s "
          f"(CV {m['coefficient_of_variation']:.3%})")
    return EXIT_OK


def cmd_report(args):
    trace_path = Path(args.trace)
    if trace_path.is_dir():
        trace_path = trace_path / "trace.jsonl"
    trace = RunTrace.read_jsonl(trace_path)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if args.format == "csv":
        n1 = plots.utilization_csv(trace, out / "utilization-timeline.csv")
        n2 = plots.io_csv(trace, out / "io-timeline.csv")
        print(f"wrote {n1} utilization rows, {n2} I/O rows to {out}")
    else:
        plots.utilization_svg(trace, out / "utilization-timeline.svg")
        plots.io_svg(trace, out / "io-timeline.svg")
        print(f"wrote SVG timelines to {out}")
    return EXIT_OK


def cmd_kernels(args):
    if args.action == "list":
        for name in catalog_names():
            print(name)
        return EXIT_OK
    # bench
    if args.trials < 1:
        print("error: --trials must be >= 1", file=sys.stderr)
        return EXIT_USER
    if not args.name:
        print("error: bench needs --name", file=sys.stderr)
        return EXIT_USER
    params = {}
    for kv in args.param or []:
        key, _, value = kv.partition("=")
        try:
            params[key] = json.loads(value)
        except json.JSONDecodeError:
            params[key] = value
    scratch = Scratch(args.scratch)
    ctx = KernelContext(scratch=scratch)
    times = []
    try:
        for _ in range(args.trials):
            t0 = time.perf_counter()
            execute_kernel(KernelCall(args.name, dict(params)), ctx=ctx)
            times.append(time.perf_counter() - t0)
    finally:
        scratch.cleanup()
    print(f"{args.name} {params}: median {statistics.median(times) * 1e3:.3f} ms "
          f"over {args.trials} trials "
          f"(min {min(times) * 1e3:.3f}, max {max(times) * 1e3:.3f})")
    return EXIT_OK


def cmd_calibrate(args):
    spec = _load_spec(args)
    profile = ingest_profile(_read_json(args.profile))
    if args.resources:
        pool = _read_pool(args.resources)
    else:
        pool = fitting_pool(spec)
    seed = _default_seed(args)

    def runner(candidate):
        return summarize(execute(candidate, pool, seed=seed))

    base_config = (exemplars.default_config(args.exemplar) if args.exemplar
                   else None)
    tuned, mapping = run_calibration(
        spec, profile, ratio=args.ratio, tolerance=args.tolerance,
        max_iters=args.max_iters, runner=runner, base_config=base_config)
    mapping.save(args.out)
    worst = max(mapping.residual_error.values(), default=0.0)
    print(f"calibrated: worst residual {worst:.3%}; mapping -> {args.out}")
    return EXIT_OK


def cmd_exemplar(args):
    spec = exemplars.build(args.id, desk_scale=args.desk_scale,
                           rank_scale=args.rank_scale)
    doc = spec.to_dict()
    if args.out:
        _write_json(args.out, doc)
        print(f"wrote {args.id} -> {args.out}")
    else:
        print(json.dumps(doc, indent=2))
    return EXIT_OK


def _add_spec_source(p):
    p.add_argument("--workflow", help="workflow JSON document")
    p.add_argument("--exemplar", help="exemplar selector family:model:config, "
                                      "e.g. ip:serial_cpu:V1 or ddmd:async:V2")
    p.add_argument("--desk-scale", type=float, default=exemplars.DEFAULT_DESK_SCALE)
    p.add_argument("--rank-scale", type=float, default=None)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="wfmini",
        description="Build, run, calibrate, and analyze workflow mini-apps.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="execute a workflow or exemplar")
    _add_spec_source(p)
    p.add_argument("--resources", help="resource pool JSON")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default="out")
    p.add_argument("--repeat", type=int, default=1)
    p.add_argument("--keep-scratch", action="store_true")
    p.add_argument("--scratch", help="scratch directory (default $WFMINI_SCRATCH)")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("validate", help="ratio report between original and mini runs")
    p.add_argument("--original", nargs="+", required=True,
                   help="summary.json files or run dirs, one per configuration")
    p.add_argument("--mini", nargs="+", required=True)
    p.add_argument("--tolerance", type=float, default=1.15)
    p.add_argument("--out", default="ratio-report.json")
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("repro", help="run-to-run variation statistics")
    p.add_argument("--runs", required=True, help="directory containing run-*/")
    p.add_argument("--out", default="variation-report.json")
    p.set_defaults(fn=cmd_repro)

    p = sub.add_parser("report", help="timeline artifacts from a trace")
    p.add_argument("--trace", required=True, help="trace.jsonl or run dir")
    p.add_argument("--format", choices=("csv", "svg"), default="csv")
    p.add_argument("--out", default="report")
    p.set_defaults(fn=cmd_report)

    p = sub.add_parser("kernels", help="list the catalog or bench one kernel")
    p.add_argument("action", choices=("list", "bench"))
    p.add_argument("--name")
    p.add_argument("--param", action="append", metavar="KEY=VALUE")
    p.add_argument("--trials", type=int, default=5)
    p.add_argument("--scratch")
    p.set_defaults(fn=cmd_kernels)

    p = sub.add_parser("calibrate", help="fine-tune parameters against a profile")
    _add_spec_source(p)
    p.add_argument("--profile", required=True, help="target profile JSON")
    p.add_argument("--ratio", type=float, required=True)
    p.add_argument("--tolerance", type=float, default=0.05)
    p.add_argument("--max-iters", type=int, default=5)
    p.add_argument("--resources")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default="mapping.json")
    p.set_defaults(fn=cmd_calibrate)

    p = sub.add_parser("exemplar", help="export an exemplar workflow document")
    p.add_argument("--id", required=True)
    p.add_argument("--desk-scale", type=float, default=exemplars.DEFAULT_DESK_SCALE)
    p.add_argument("--rank-scale", type=float, default=None)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_exemplar)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "fn", None) in (cmd_run, cmd_calibrate):
        if not args.workflow and not args.exemplar:
            parser.error("one of --workflow or --exemplar is required")
    try:
        return args.fn(args)
    except (WfMiniError, FileNotFoundError, json.JSONDecodeError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USER
    except KeyboardInterrupt:
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
