"""Calibration loop tests against an analytic runner whose makespan is
exactly linear in one loop count and whose I/O is linear in size parameters,
plus profile ingestion and mapping derivation."""
import pytest

from wfmini.calibrate import (
    Attribution,
    CalibrationMapping,
    calibrate,
    default_attribution,
    derive_config,
    ingest_profile,
    measured_by_category,
)
from wfmini.engine import WorkflowConfig, load_workflow
from wfmini.errors import (
    InvalidParameter,
    NonConvergence,
    RunnerFailure,
    SchemaError,
    UnknownParameter,
    UnmappedKnob,
)
from wfmini.metrics import MetricsSummary

SECONDS_PER_ITER = 0.01


def linear_spec(count=100, read=1000, write=500):
    return load_workflow({
        "execution_model": "serial",
        "tasks": [{
            "name": "work", "category": "compute", "num_ranks": 1,
            "program": [
                {"kind": "loop", "loop": True, "count": count,
                 "body": [{"kernel": "RNG", "params": {"data_size": 64}}]},
                {"kernel": "readNonMPI", "params": {"data_size": read}},
                {"kernel": "writeNonMPI", "params": {"data_size": write}},
            ]}],
        "edges": [],
    })


def analytic_runner(spec):
    """Noise-free model: wall time proportional to the loop count, bytes
    equal to the declared sizes."""
    doc = spec.to_dict()["tasks"][0]
    count = doc["program"][0]["count"]
    read = doc["program"][1]["params"]["data_size"]
    write = doc["program"][2]["params"]["data_size"]
    makespan = count * SECONDS_PER_ITER
    return MetricsSummary(
        makespan=makespan, cpu_util_pct=100.0, gpu_util_pct=0.0,
        read_bytes=read, write_bytes=write,
        per_task={"work": {"makespan": makespan, "read_bytes": read,
                           "write_bytes": write, "category": "compute"}})


def profile(makespan_s, read_bytes, write_bytes):
    cat = {"makespan_s": makespan_s, "read_bytes": read_bytes,
           "write_bytes": write_bytes, "num_ranks": 1}
    return ingest_profile({"workflow": dict(cat), "categories": {"compute": cat}})


def test_ingest_profile_validation():
    with pytest.raises(SchemaError):
        ingest_profile("nope")
    with pytest.raises(SchemaError):
        ingest_profile({"workflow": {}})
    with pytest.raises(SchemaError):
        ingest_profile({"workflow": {"makespan_s": 1, "read_bytes": 1,
                                     "write_bytes": 1}})
    with pytest.raises(SchemaError):
        ingest_profile({"workflow": {"makespan_s": -1, "read_bytes": 1,
                                     "write_bytes": 1},
                        "categories": {"c": {"makespan_s": 0, "read_bytes": 0,
                                             "write_bytes": 0}}})
    # category totals may not exceed the workflow totals
    with pytest.raises(SchemaError):
        ingest_profile({"workflow": {"makespan_s": 1, "read_bytes": 10,
                                     "write_bytes": 1},
                        "categories": {"c": {"makespan_s": 1, "read_bytes": 99,
                                             "write_bytes": 1}}})
    target = profile(10.0, 100, 50)
    assert target.workflow["makespan_s"] == 10.0
    assert target.per_task_category["compute"]["read_bytes"] == 100


@pytest.mark.parametrize("value", ["1", float("nan"), float("inf"), True, None])
@pytest.mark.parametrize("where", ["workflow", "categories"])
def test_ingest_profile_rejects_a_value_that_is_not_a_finite_number(where, value):
    cat = {"makespan_s": 1.0, "read_bytes": 1, "write_bytes": 1}
    doc = {"workflow": dict(cat), "categories": {"c": dict(cat)}}
    (doc[where] if where == "workflow" else doc[where]["c"])["read_bytes"] = value
    with pytest.raises(SchemaError, match="'read_bytes'"):
        ingest_profile(doc)


def test_default_attribution_paths():
    attrs = default_attribution(linear_spec())
    by_metric = {a.metric: a for a in attrs}
    assert by_metric["makespan"].path == "tasks.work.program.0.count"
    assert by_metric["makespan"].knob == "epochs"
    assert by_metric["read_bytes"].path == "tasks.work.program.1.params.data_size"
    assert by_metric["write_bytes"].knob == "data_scale"


def test_loop_with_io_not_attributed_to_makespan():
    spec = load_workflow({
        "execution_model": "serial",
        "tasks": [{"name": "t", "category": "c", "num_ranks": 1,
                   "program": [{"loop": True, "count": 5, "body": [
                       {"kernel": "readNonMPI", "params": {"data_size": 10}}]}]}],
        "edges": []})
    attrs = default_attribution(spec)
    assert all(a.metric != "makespan" for a in attrs)


def test_nested_loops_attribute_the_inner_count_and_the_read_size():
    spec = load_workflow({
        "execution_model": "serial",
        "tasks": [{"name": "t", "category": "c", "num_ranks": 1,
                   "program": [{"loop": True, "count": 3, "body": [
                       {"loop": True, "count": 2, "body": [
                           {"kernel": "RNG", "params": {"data_size": 8}}]},
                       {"kernel": "readNonMPI", "params": {"data_size": 10}}]}]}],
        "edges": []})
    # the outer loop runs a read, so its count is not a makespan knob
    assert [(a.path, a.metric) for a in default_attribution(spec)] == [
        ("tasks.t.program.0.body.0.count", "makespan"),
        ("tasks.t.program.0.body.1.params.data_size", "read_bytes"),
    ]


@pytest.mark.parametrize("path", ["tasks.nope.program.0.count",
                                  "work.program.0.count"])
def test_unresolvable_attribution_path_raises(path):
    attribution = [Attribution(path=path, metric="makespan", category="compute",
                               knob="epochs")]
    runs = []

    def counting_runner(spec):
        runs.append(spec)
        return analytic_runner(spec)

    with pytest.raises(UnknownParameter):
        calibrate(linear_spec(), profile(2.0, 8000, 4000), ratio=0.25,
                  tolerance=0.05, max_iters=5, runner=counting_runner,
                  attribution=attribution)
    assert runs == []  # the path is checked before the first run


def test_measured_by_category():
    got = measured_by_category(analytic_runner(linear_spec(count=10)))
    assert got["compute"]["makespan"] == pytest.approx(0.1)
    assert got["compute"]["read_bytes"] == 1000


def test_precondition_errors():
    spec, target = linear_spec(), profile(1.0, 1000, 500)
    with pytest.raises(InvalidParameter):
        calibrate(spec, target, ratio=0.0, tolerance=0.05, max_iters=5,
                  runner=analytic_runner)
    with pytest.raises(InvalidParameter):
        calibrate(spec, target, ratio=1.5, tolerance=0.05, max_iters=5,
                  runner=analytic_runner)
    with pytest.raises(InvalidParameter):
        calibrate(spec, target, ratio=0.5, tolerance=0.0, max_iters=5,
                  runner=analytic_runner)
    with pytest.raises(InvalidParameter):
        calibrate(spec, target, ratio=0.5, tolerance=0.05, max_iters=0,
                  runner=analytic_runner)


def test_linear_response_converges_within_five_iters():
    spec = linear_spec(count=100, read=1000, write=500)
    # targets demand a mini at half the time and double the bytes
    target = profile(makespan_s=2.0, read_bytes=8000, write_bytes=4000)
    tuned, mapping = calibrate(spec, target, ratio=0.25, tolerance=0.05,
                               max_iters=5, runner=analytic_runner,
                               base_config=WorkflowConfig(epochs=100))
    final = analytic_runner(tuned)
    assert abs(final.makespan - 0.5) / 0.5 <= 0.05
    assert abs(final.read_bytes - 2000) / 2000 <= 0.05
    assert abs(final.write_bytes - 1000) / 1000 <= 0.05
    assert max(mapping.residual_error.values()) <= 0.05


def noisy_runner(slowdowns):
    """Analytic runner whose n-th makespan is scaled by slowdowns[n]."""
    factors = iter(slowdowns)

    def run(spec):
        summary = analytic_runner(spec)
        factor = next(factors, 1.0)
        summary.makespan *= factor
        summary.per_task["work"]["makespan"] *= factor
        return summary
    return run


def calibrate_linear(runner):
    spec = linear_spec(count=100, read=1000, write=500)
    target = profile(makespan_s=2.0, read_bytes=8000, write_bytes=4000)
    _, mapping = calibrate(spec, target, ratio=0.25, tolerance=0.05,
                           max_iters=5, runner=runner,
                           base_config=WorkflowConfig(epochs=100))
    return mapping.residual_error


def test_makespan_spike_does_not_hold_back_byte_steps():
    # the third run is 30% slow, as under a burst of host load; the byte
    # sizes keep converging regardless
    residual = calibrate_linear(noisy_runner([1.0, 1.0, 1.3]))
    assert residual["compute.makespan"] <= 0.05
    assert residual["compute.read_bytes"] <= 0.01
    assert residual["compute.write_bytes"] <= 0.01


def test_lucky_fast_sample_does_not_stall_makespan():
    # the second run is 10% fast; later, truthful runs look worse than it
    # but lie on the same side of the goal, so they still steer the count
    residual = calibrate_linear(noisy_runner([1.0, 0.9]))
    assert residual["compute.makespan"] <= 0.05


def test_already_converged_returns_immediately():
    spec = linear_spec(count=100, read=1000, write=500)
    target = profile(makespan_s=4.0, read_bytes=4000, write_bytes=2000)
    tuned, mapping = calibrate(spec, target, ratio=0.25, tolerance=0.05,
                               max_iters=1, runner=analytic_runner)
    assert tuned.to_dict() == spec.to_dict()
    assert max(mapping.residual_error.values()) == 0.0


def test_nonconvergence_reports_residuals():
    spec = linear_spec(count=100)
    target = profile(makespan_s=400.0, read_bytes=1000, write_bytes=500)
    with pytest.raises(NonConvergence) as exc:
        calibrate(spec, target, ratio=1.0, tolerance=0.05, max_iters=1,
                  runner=analytic_runner)
    assert exc.value.residuals["compute.makespan"] > 0.9


def test_runner_failure_wrapped():
    def boom(spec):
        raise RuntimeError("kaput")
    with pytest.raises(RunnerFailure):
        calibrate(linear_spec(), profile(1.0, 1000, 500), ratio=0.5,
                  tolerance=0.05, max_iters=3, runner=boom)


def test_mapping_save_load(tmp_path):
    spec = linear_spec()
    target = profile(2.0, 8000, 4000)
    _, mapping = calibrate(spec, target, ratio=0.25, tolerance=0.05,
                           max_iters=5, runner=analytic_runner,
                           base_config=WorkflowConfig(epochs=100))
    path = tmp_path / "mapping.json"
    mapping.save(path)
    back = CalibrationMapping.load(path)
    assert back.ratio == mapping.ratio
    assert back.param_factors == mapping.param_factors
    assert back.spec_doc == mapping.spec_doc


def derive_fixture():
    spec = linear_spec(count=100, read=1000, write=500)
    base = WorkflowConfig(epochs=100, data_scale=1.0)
    target = profile(2.0, 8000, 4000)
    tuned, mapping = calibrate(spec, target, ratio=0.25, tolerance=0.05,
                               max_iters=5, runner=analytic_runner,
                               base_config=base)
    return tuned, mapping, base


def test_derive_config_identity_for_base():
    tuned, mapping, base = derive_fixture()
    assert derive_config(mapping, base).to_dict() == tuned.to_dict()


def test_derive_config_scales_epoch_knob():
    tuned, mapping, base = derive_fixture()
    tuned_count = tuned.to_dict()["tasks"][0]["program"][0]["count"]
    doubled = derive_config(mapping, WorkflowConfig(epochs=200, data_scale=1.0))
    assert doubled.to_dict()["tasks"][0]["program"][0]["count"] == 2 * tuned_count


def test_derive_config_rejects_unmapped_changes():
    _, mapping, base = derive_fixture()
    with pytest.raises(UnmappedKnob):
        derive_config(mapping, WorkflowConfig(epochs=100, data_scale=1.0, phases=2))
    with pytest.raises(UnmappedKnob):
        derive_config(mapping, WorkflowConfig(epochs=100, data_scale=1.0,
                                              ranks={"sim": 3}))
    with pytest.raises(UnmappedKnob):
        derive_config(mapping, WorkflowConfig(epochs=100, data_scale=1.0, steps=7))


def test_attribution_is_plain_data():
    attr = Attribution(path="tasks.t.program.0.count", metric="makespan",
                       category="c", knob="epochs")
    assert attr.knob == "epochs"
