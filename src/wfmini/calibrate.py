"""Fine-tuning loop: run the mini-app, compare per-category metrics against
ratio x target, and nudge the responsible parameters until all relative
errors fall inside tolerance.

Attribution is declared, not fitted: each tunable parameter names the one
metric it drives (I/O sizes -> byte counters, compute-only loop counts ->
makespan). Updates are damped proportional steps; a step that overshoots
its own metric's goal is rejected for that metric alone. The resulting
mapping lets new original-workflow configurations be translated to mini-app
parameters without re-tuning.
"""
from __future__ import annotations

import copy
import json
from dataclasses import dataclass, field
from operator import getitem, setitem
from pathlib import Path

from .errors import (
    InvalidParameter,
    NonConvergence,
    RunnerFailure,
    SchemaError,
    UnmappedKnob,
)
from .engine import WorkflowConfig, WorkflowSpec, load_workflow
from .metrics import MetricsSummary
from .tasks import _walk, scale_values, walk_program

DAMPING = 0.8
STEP_CLIP = (0.1, 10.0)

IO_READ_KERNELS = {"readNonMPI", "readWithMPI"}
IO_WRITE_KERNELS = {"writeNonMPI", "writeWithMPI"}
IO_KERNELS = IO_READ_KERNELS | IO_WRITE_KERNELS | {
    "dataCopyH2D", "dataCopyD2H", "dataCopyH2DAsync", "dataCopyD2HAsync"}


@dataclass
class TargetMetrics:
    workflow: dict                      # makespan_s, read_bytes, write_bytes
    per_task_category: dict             # category -> same + num_ranks

    def to_dict(self):
        return {"workflow": dict(self.workflow),
                "categories": {k: dict(v) for k, v in self.per_task_category.items()}}


def ingest_profile(document) -> TargetMetrics:
    """Validate a neutral workflow-profile document."""
    if not isinstance(document, dict):
        raise SchemaError("profile must be an object")
    wf = document.get("workflow")
    cats = document.get("categories")
    if not isinstance(wf, dict):
        raise SchemaError("profile needs a 'workflow' object")
    if not isinstance(cats, dict) or not cats:
        raise SchemaError("profile needs a non-empty 'categories' object")
    for key in ("makespan_s", "read_bytes", "write_bytes"):
        if key not in wf or wf[key] < 0:
            raise SchemaError(f"workflow profile needs non-negative {key!r}")
    for name, cat in cats.items():
        for key in ("makespan_s", "read_bytes", "write_bytes"):
            if key not in cat or cat[key] < 0:
                raise SchemaError(f"category {name}: needs non-negative {key!r}")
    for key in ("read_bytes", "write_bytes", "makespan_s"):
        total = sum(cat[key] for cat in cats.values())
        # per-category sums may not exceed workflow totals (small float slack)
        if total > wf[key] * (1 + 1e-9) + 1e-9:
            raise SchemaError(f"category {key} sum {total} exceeds workflow total {wf[key]}")
    return TargetMetrics(workflow=dict(wf),
                         per_task_category={k: dict(v) for k, v in cats.items()})


@dataclass
class Attribution:
    path: str        # workflow-scoped dotted path: tasks.<name>.program...
    metric: str      # makespan | read_bytes | write_bytes
    category: str
    knob: str        # config knob this parameter tracks


def default_attribution(spec: WorkflowSpec) -> list:
    """Derive the parameter -> metric attribution from a workflow spec."""
    out = []
    for task in spec.tasks:
        for path, step in walk_program(task.program, f"tasks.{task.name}.program"):
            if step.kind == "loop":
                names = [s.kernel.kernel_name for _, s in walk_program(step.body)
                         if s.kind == "kernel"]
                if names and not IO_KERNELS.intersection(names):
                    out.append(Attribution(path=f"{path}.count", metric="makespan",
                                           category=task.category, knob="epochs"))
                continue
            name = step.kernel.kernel_name
            if name in IO_READ_KERNELS or name in IO_WRITE_KERNELS:
                metric = "read_bytes" if name in IO_READ_KERNELS else "write_bytes"
                out.append(Attribution(path=f"{path}.params.data_size", metric=metric,
                                       category=task.category, knob="data_scale"))
    return out


def _by_name(doc):
    """A view of a workflow document in which tasks.<name>.<rest> paths
    resolve; it shares the task dicts, so edits through it edit `doc`."""
    return {"tasks": {tdoc["name"]: tdoc for tdoc in doc["tasks"]}}


def measured_by_category(summary: MetricsSummary) -> dict:
    out = {}
    for info in summary.per_task.values():
        cat = out.setdefault(info.get("category", "task"),
                             {"makespan": 0.0, "read_bytes": 0, "write_bytes": 0})
        cat["makespan"] += info["makespan"]
        cat["read_bytes"] += info["read_bytes"]
        cat["write_bytes"] += info["write_bytes"]
    return out


def _residuals(summary, target: TargetMetrics, ratio, attribution):
    """Relative error per (category, metric) that some parameter drives."""
    measured = measured_by_category(summary)
    goals = {}
    for attr in attribution:
        cat = target.per_task_category.get(attr.category)
        if cat is None:
            continue
        goal = ratio * cat["makespan_s" if attr.metric == "makespan" else attr.metric]
        if goal <= 0:
            continue
        goals[(attr.category, attr.metric)] = goal
    out = {}
    for (category, metric), goal in goals.items():
        got = measured.get(category, {}).get(metric, 0.0)
        out[f"{category}.{metric}"] = abs(got - goal) / goal
    return out, goals, measured


@dataclass
class CalibrationMapping:
    ratio: float
    param_factors: dict            # path -> {knob, factor, base_knob, value}
    base_config: WorkflowConfig
    residual_error: dict
    spec_doc: dict = field(default_factory=dict)  # the tuned workflow document

    def save(self, path):
        Path(path).write_text(json.dumps({
            "ratio": self.ratio,
            "param_factors": self.param_factors,
            "base_config": self.base_config.to_dict(),
            "residual_error": self.residual_error,
            "spec": self.spec_doc,
        }, indent=2), encoding="utf-8")

    @classmethod
    def load(cls, path):
        d = json.loads(Path(path).read_text(encoding="utf-8"))
        return cls(ratio=d["ratio"], param_factors=d["param_factors"],
                   base_config=WorkflowConfig.from_dict(d["base_config"]),
                   residual_error=d["residual_error"], spec_doc=d["spec"])


def calibrate(spec: WorkflowSpec, target: TargetMetrics, ratio: float,
              tolerance: float, max_iters: int, runner,
              base_config: WorkflowConfig | None = None,
              attribution: list | None = None):
    """Tune spec parameters until per-category metrics hit ratio x target.

    `runner` maps a WorkflowSpec to a MetricsSummary. Returns the tuned spec
    and the persisted mapping; raises NonConvergence (with residuals) if
    max_iters is exhausted above tolerance.
    """
    if not 0 < ratio <= 1:
        raise InvalidParameter("ratio must be in (0, 1]")
    if not 0 < tolerance <= 0.5:
        raise InvalidParameter("tolerance must be in (0, 0.5]")
    if max_iters < 1:
        raise InvalidParameter("max_iters must be >= 1")
    if attribution is None:
        attribution = default_attribution(spec)
    if not attribution:
        raise InvalidParameter("no tunable parameters attributed to any metric")
    base_config = base_config or WorkflowConfig()

    doc = spec.to_dict()
    view = _by_name(doc)
    paths = {}
    for attr in attribution:
        paths.setdefault((attr.category, attr.metric), []).append(attr.path)
    best_doc, best_residuals = None, None
    # each metric accepts or rejects its own step, so a noisy makespan
    # sample does not also roll back the byte-size updates
    accepted = {}   # metric key -> (residual, measured value, {path: value})
    damping = dict.fromkeys(paths, DAMPING)
    for _ in range(max_iters):
        candidate = load_workflow(copy.deepcopy(doc))
        try:
            summary = runner(candidate)
        except Exception as e:
            raise RunnerFailure(f"workflow run failed during calibration: {e}") from e
        residuals, goals, measured = _residuals(summary, target, ratio, attribution)
        worst = max(residuals.values(), default=0.0)
        if best_residuals is None or worst < max(best_residuals.values(), default=0.0):
            best_doc, best_residuals = copy.deepcopy(doc), residuals
        if max(best_residuals.values(), default=0.0) <= tolerance:
            break
        # proportional update from each metric's last accepted state
        for key, goal in goals.items():
            category, metric = key
            residual = residuals[f"{category}.{metric}"]
            got = measured.get(category, {}).get(metric, 0.0)
            # a worse sample on the same side of the goal is fresh news about
            # the current values (host noise, drift); only a step that crossed
            # the goal and landed farther away overshot
            overshot = (key in accepted and residual >= accepted[key][0]
                        and (got > goal) != (accepted[key][1] > goal))
            if overshot:
                # back off to the accepted values and damp harder
                damping[key] *= 0.5
                for path, value in accepted[key][2].items():
                    setitem(*_walk(view, path), value)
            else:
                values = {p: getitem(*_walk(view, p)) for p in paths[key]}
                accepted[key] = (residual, got, values)
            got = accepted[key][1]
            if got <= 0:
                continue
            step = (goal / got) ** damping[key]
            step = min(max(step, STEP_CLIP[0]), STEP_CLIP[1])
            for path in paths[key]:
                scale_values(view, {path: step})

    tuned_doc = best_doc
    tuned = load_workflow(copy.deepcopy(tuned_doc))
    tuned_view = _by_name(tuned_doc)
    param_factors = {}
    for attr in attribution:
        value = getitem(*_walk(tuned_view, attr.path))
        base_knob = getattr(base_config, attr.knob)
        param_factors[attr.path] = {
            "knob": attr.knob, "base_knob": base_knob, "value": value,
            "factor": value / base_knob if base_knob else 0.0,
        }
    mapping = CalibrationMapping(ratio=ratio, param_factors=param_factors,
                                 base_config=base_config,
                                 residual_error=best_residuals,
                                 spec_doc=tuned_doc)
    if max(best_residuals.values(), default=0.0) > tolerance:
        raise NonConvergence(
            f"residuals above tolerance {tolerance} after {max_iters} iterations: "
            f"{best_residuals}", residuals=best_residuals)
    return tuned, mapping


MAPPED_KNOBS = ("epochs", "data_scale", "steps")


def derive_config(mapping: CalibrationMapping, new_config: WorkflowConfig) -> WorkflowSpec:
    """Mini-app spec for a new original-workflow configuration, derived from
    the persisted mapping without any runs."""
    base = mapping.base_config
    for label in ("phases", "num_nodes", "num_cpus", "num_gpus"):
        if getattr(new_config, label) != getattr(base, label):
            raise UnmappedKnob(f"{label} differs from base config and has no mapping")
    if dict(new_config.ranks) != dict(base.ranks):
        raise UnmappedKnob("ranks differ from base config and have no mapping")
    changed = {k for k in MAPPED_KNOBS
               if getattr(new_config, k) != getattr(base, k)}
    mapped = {entry["knob"] for entry in mapping.param_factors.values()}
    unmapped = changed - mapped
    if unmapped:
        raise UnmappedKnob(f"config knobs {sorted(unmapped)} changed but unmapped")
    doc = copy.deepcopy(mapping.spec_doc)
    view = _by_name(doc)
    for path, entry in mapping.param_factors.items():
        base_knob = entry["base_knob"]
        new_knob = getattr(new_config, entry["knob"])
        if base_knob == new_knob:
            continue
        scale_values(view, {path: new_knob / base_knob})
    return load_workflow(doc)
