"""Structural checks on the shipped exemplar families: rank counts, phase
shape, loop counts, DAG edges, and desk-scale linearity of the I/O sizes."""
import pytest

from wfmini.engine import WorkflowConfig, validate_dag
from wfmini.errors import InvalidExemplar
from wfmini.exemplars import (
    DDMD_SIM_TASKS,
    build,
    deep_drive_md_spec,
    default_config,
    inverse_problem_spec,
)
from wfmini.tasks import get_param


def test_inverse_problem_serial_structure():
    spec = inverse_problem_spec("serial_cpu", "V1", desk_scale=1.0)
    assert spec.execution_model == "serial"
    assert spec.phases == 3
    assert len(spec.tasks) == 6  # one sim + one train per phase
    sim = spec.task("sim_p1")
    train = spec.task("train_p1")
    assert sim.num_ranks == 128
    assert train.num_ranks == 4
    # epochs encoded as the training loop count
    assert get_param(train, "program.0.count") == 50
    assert ("sim_p1", "train_p1") in spec.edges
    assert ("train_p1", "sim_p2") in spec.edges
    validate_dag(spec)


def test_inverse_problem_configs():
    v2 = inverse_problem_spec("serial_cpu", "V2", desk_scale=1.0)
    assert get_param(v2.task("train_p1"), "program.0.count") == 25
    # V3 doubles the data volume: sim outer loop count 5 -> 10
    v1 = inverse_problem_spec("serial_cpu", "V1", desk_scale=1.0)
    v3 = inverse_problem_spec("serial_cpu", "V3", desk_scale=1.0)
    assert get_param(v1.task("sim_p1"), "program.0.count") == 5
    assert get_param(v3.task("sim_p1"), "program.0.count") == 10


def test_inverse_problem_parallel_chains():
    spec = inverse_problem_spec("parallel_cpu", "V1", desk_scale=1.0)
    assert spec.execution_model == "parallel"
    assert ("sim_p1", "sim_p2") in spec.edges
    assert ("train_p1", "train_p2") in spec.edges
    assert ("train_p1", "sim_p2") not in spec.edges
    validate_dag(spec)


def test_inverse_problem_gpu_model():
    spec = inverse_problem_spec("serial_cpu_gpu", "V1", desk_scale=1.0)
    train = spec.task("train_p1")
    assert train.num_ranks == 16
    assert train.gpus_per_rank == 1
    assert get_param(train, "program.1.count") == 200
    # device copies bracket the training loop
    doc = train.to_dict()
    assert doc["program"][0]["kernel"] == "dataCopyH2D"
    assert doc["program"][-1]["kernel"] == "dataCopyD2H"


def test_ddmd_sync_structure():
    spec = deep_drive_md_spec("sync", "V1", desk_scale=1.0)
    assert spec.execution_model == "sync"
    assert spec.phases == 2
    assert len(spec.tasks) == 30  # (12 md + train + select + agent) x 2
    for phase in (1, 2):
        sims = [t for t in spec.tasks
                if t.category == "simulation" and t.phase == phase]
        assert len(sims) == DDMD_SIM_TASKS == 12
        assert all(t.num_ranks == 1 for t in sims)
        assert spec.task(f"train_p{phase}").num_ranks == 1
        assert spec.task(f"agent_p{phase}").num_ranks == 1
    md = spec.task("md_p1_1")
    assert get_param(md, "program.2.count") == 4000  # MD steps at full scale
    assert get_param(spec.task("train_p1"), "program.1.count") == 100
    assert ("md_p1_1", "train_p1") in spec.edges
    assert ("md_p1_1", "select_p1") in spec.edges
    assert ("select_p1", "agent_p1") in spec.edges
    assert ("agent_p1", "md_p2_1") in spec.edges
    assert ("train_p1", "md_p2_1") in spec.edges
    validate_dag(spec)


def test_ddmd_v2_structure():
    spec = deep_drive_md_spec("sync", "V2", desk_scale=1.0)
    assert spec.phases == 3
    assert len(spec.tasks) == 45
    assert get_param(spec.task("md_p1_1"), "program.2.count") == 5000
    assert get_param(spec.task("train_p1"), "program.1.count") == 150


def test_ddmd_async_drops_train_to_next_sims():
    sync = deep_drive_md_spec("sync", "V1")
    relaxed = deep_drive_md_spec("async", "V1")
    assert relaxed.execution_model == "async"
    dropped = set(sync.edges) - set(relaxed.edges)
    assert dropped == {("train_p1", f"md_p2_{k}") for k in range(1, 13)}
    assert len(sync.edges) - len(relaxed.edges) == (sync.phases - 1) * 12
    validate_dag(relaxed)


def test_desk_scale_preserves_shape():
    small = deep_drive_md_spec("sync", "V1", desk_scale=0.02)
    large = deep_drive_md_spec("sync", "V1", desk_scale=0.08)
    assert [t.name for t in small.tasks] == [t.name for t in large.tasks]
    assert small.edges == large.edges


def test_desk_scale_linear_io():
    # 0.08 is 4x 0.02, so every I/O size must be exactly 4x
    small = inverse_problem_spec("serial_cpu", "V1", desk_scale=0.02,
                                 rank_scale=0.02)
    large = inverse_problem_spec("serial_cpu", "V1", desk_scale=0.08,
                                 rank_scale=0.02)
    for path in ("program.0.body.0.params.data_size",
                 "program.0.body.3.params.data_size"):
        assert get_param(large.task("sim_p1"), path) == \
            4 * get_param(small.task("sim_p1"), path)
    assert get_param(large.task("train_p1"), "program.0.body.0.params.data_size") == \
        4 * get_param(small.task("train_p1"), "program.0.body.0.params.data_size")
    # loop counts come from the configuration, not the scale
    assert get_param(small.task("train_p1"), "program.0.count") == \
        get_param(large.task("train_p1"), "program.0.count") == 50


def test_rank_scale_independent_of_desk_scale():
    spec = inverse_problem_spec("serial_cpu", "V1", desk_scale=0.08,
                                rank_scale=0.01)
    assert spec.task("sim_p1").num_ranks == 1
    full = inverse_problem_spec("serial_cpu", "V1", desk_scale=0.02,
                                rank_scale=1.0)
    assert full.task("sim_p1").num_ranks == 128


INVALID_SELECTORS = [
    "ip:serial_cpu:V9", "ip:quantum:V1", "ddmd:sync:V3", "ddmd:chaotic:V1",
    "mystery:sync:V1", "not-a-selector",
]


@pytest.mark.parametrize("selector", INVALID_SELECTORS)
def test_invalid_exemplars_rejected(selector):
    with pytest.raises(InvalidExemplar):
        build(selector)


@pytest.mark.parametrize("selector", INVALID_SELECTORS)
def test_default_config_rejects_invalid_selectors(selector):
    with pytest.raises(InvalidExemplar):
        default_config(selector)


def test_desk_scale_must_be_positive():
    with pytest.raises(InvalidExemplar):
        inverse_problem_spec("serial_cpu", "V1", desk_scale=0.0)
    with pytest.raises(InvalidExemplar):
        deep_drive_md_spec("sync", "V1", desk_scale=-1.0)


def test_build_selector_aliases():
    a = build("ip:serial_cpu:V1", desk_scale=0.02)
    b = build("inverse_problem:serial_cpu:V1", desk_scale=0.02)
    assert a.to_dict() == b.to_dict()
    c = build("ddmd:async:V2", desk_scale=0.02)
    assert c.execution_model == "async"


def test_default_config_values():
    cfg = default_config("ip:serial_cpu:V1")
    assert cfg == WorkflowConfig(num_nodes=1, epochs=50, data_scale=1.0,
                                 phases=3, ranks={"sim": 128, "ml": 4})
    ddmd = default_config("ddmd:sync:V2")
    assert ddmd.epochs == 150 and ddmd.phases == 3 and ddmd.steps == 5000
