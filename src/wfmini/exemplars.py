"""Executable encodings of the two shipped workflow families.

"inverse_problem" alternates simulation/training phases (serial or parallel
dependency shape); "deepdrivemd" runs phases of many MD-simulation tasks
feeding one training, one selection, and one agent task (sync or async).

All kernel sizes and compute dimensions scale with `desk_scale` so the same
DAG runs in seconds on a laptop; rank counts scale with `rank_scale`
(defaulting to desk_scale) and floor at 1. Loop counts come from the
configuration (epochs, data scale, MD steps), so I/O totals scale exactly
linearly with desk_scale.
"""
from __future__ import annotations

from dataclasses import dataclass

from .engine import WorkflowConfig, WorkflowSpec, async_overlap
from .errors import InvalidExemplar
from .kernels import KernelCall
from .tasks import ProgramStep, TaskSpec

IP_MODELS = ("serial_cpu", "serial_cpu_gpu", "parallel_cpu")
DDMD_MODELS = ("sync", "async")
DEFAULT_DESK_SCALE = 0.02

# Emulated accelerator: host compute plus proportional sleep, so device
# dwell time overlaps across tasks even on a single host core.
ACCEL = {"kind": "accelerator", "slowdown_factor": 25.0}

# Full-size rank counts for the inverse-problem family.
IP_SIM_RANKS = 128
IP_ML_RANKS = {"serial_cpu": 4, "parallel_cpu": 4, "serial_cpu_gpu": 16}
# Mini-app epoch counts per execution model and configuration.
IP_EPOCHS = {
    "serial_cpu": {"V1": 50, "V2": 25, "V3": 25},
    "parallel_cpu": {"V1": 50, "V2": 25, "V3": 25},
    "serial_cpu_gpu": {"V1": 200, "V2": 100, "V3": 100},
}
IP_DATA_SCALE = {"V1": 1, "V2": 1, "V3": 2}
IP_PHASES = 3

DDMD_SIM_TASKS = 12
# Emulated device-link bandwidth for the MD family; slow enough that small
# desk-scale buffers still produce realistic transfer dwell.
DDMD_COPY_BW = 500_000.0
DDMD_EPOCHS = {"V1": 100, "V2": 150}
DDMD_PHASES = {"V1": 2, "V2": 3}
DDMD_STEPS = {"V1": 4000, "V2": 5000}


@dataclass(frozen=True)
class ExemplarId:
    family: str          # inverse_problem | deepdrivemd
    model: str
    config: str          # V1 | V2 | V3
    desk_scale: float = DEFAULT_DESK_SCALE

    def __post_init__(self):
        if self.desk_scale <= 0:
            raise InvalidExemplar("desk_scale must be > 0")
        if self.family == "inverse_problem":
            if self.model not in IP_MODELS or self.config not in ("V1", "V2", "V3"):
                raise InvalidExemplar(f"no inverse_problem {self.model}:{self.config}")
        elif self.family == "deepdrivemd":
            if self.model not in DDMD_MODELS or self.config not in ("V1", "V2"):
                raise InvalidExemplar(f"no deepdrivemd {self.model}:{self.config}")
        else:
            raise InvalidExemplar(f"unknown family {self.family!r}")


def _kernel(name, **params):
    return ProgramStep(kind="kernel", kernel=KernelCall(name, params))


def _loop(count, body):
    return ProgramStep(kind="loop", count=count, body=body)


def _sized(base, scale):
    """Deterministic integer size: base is chosen so common scales stay exact."""
    return max(1, int(round(base * scale)))


def _ranks(full, rank_scale):
    return max(1, int(full * rank_scale))


def inverse_problem_spec(model: str, config: str,
                         desk_scale: float = DEFAULT_DESK_SCALE,
                         rank_scale: float | None = None) -> WorkflowSpec:
    """Workflow spec for the alternating simulation/training family."""
    ex = ExemplarId("inverse_problem", model, config, desk_scale)
    rank_scale = desk_scale if rank_scale is None else rank_scale
    s = ex.desk_scale
    data_scale = IP_DATA_SCALE[config]
    epochs = IP_EPOCHS[model][config]
    on_gpu = model == "serial_cpu_gpu"

    sim_ranks = _ranks(IP_SIM_RANKS, rank_scale)
    ml_ranks = _ranks(IP_ML_RANKS[model], rank_scale)
    num_data = 5 * data_scale
    read_size = _sized(25_000_000, s)
    write_size = _sized(6_250_000, s)
    mat_dim = max(2, int(1600 * s))
    # sampling dominates wall time; a fixed block with a scale-proportional
    # repetition count keeps time linear in desk_scale. RNG streams each call
    # through the lane's fixed work block, so no call allocates in proportion
    # to its data_size
    sample_block = 500_000
    sim_reps = _sized(1000, s)
    train_reps = _sized(100, s)
    train_read = _sized(1_250_000, s)
    train_dim = max(2, int(800 * s))
    reduce_len = _sized(50_000, s)
    copy_size = _sized(2_000_000, s)

    sim_program = [
        _loop(num_data, [
            _kernel("readNonMPI", data_size=read_size),
            _loop(4, [_kernel("matMulSimple2D", dim=mat_dim)]),
            _kernel("RNG", data_size=sample_block, repetitions=sim_reps),
            _kernel("writeNonMPI", data_size=write_size),
        ]),
    ]
    train_device = {"device": ACCEL} if on_gpu else {}
    train_program = []
    if on_gpu:
        train_program.append(_kernel("dataCopyH2D", data_size=copy_size))
    train_program.append(_loop(epochs, [
        _kernel("readNonMPI", data_size=train_read),
        _kernel("RNG", data_size=sample_block, repetitions=train_reps),
        _kernel("matMulGeneral", dim_list=[[train_dim, train_dim, train_dim]],
                **train_device),
        _kernel("MPIallReduce", data_size=reduce_len, **train_device),
    ]))
    if on_gpu:
        train_program.append(_kernel("dataCopyD2H", data_size=copy_size))

    tasks, edges = [], []
    for phase in range(1, IP_PHASES + 1):
        tasks.append(TaskSpec(
            name=f"sim_p{phase}", category="simulation", num_ranks=sim_ranks,
            cpus_per_rank=1, gpus_per_rank=0, program=sim_program, phase=phase))
        tasks.append(TaskSpec(
            name=f"train_p{phase}", category="training", num_ranks=ml_ranks,
            cpus_per_rank=1, gpus_per_rank=1 if on_gpu else 0,
            program=train_program, phase=phase))
        edges.append((f"sim_p{phase}", f"train_p{phase}"))
        if phase > 1:
            if model == "parallel_cpu":
                edges.append((f"sim_p{phase - 1}", f"sim_p{phase}"))
                edges.append((f"train_p{phase - 1}", f"train_p{phase}"))
            else:
                edges.append((f"train_p{phase - 1}", f"sim_p{phase}"))
    execution_model = "parallel" if model == "parallel_cpu" else "serial"
    return WorkflowSpec(tasks=tasks, edges=edges, phases=IP_PHASES,
                        execution_model=execution_model)


def deep_drive_md_spec(model: str, config: str,
                       desk_scale: float = DEFAULT_DESK_SCALE,
                       rank_scale: float | None = None) -> WorkflowSpec:
    """Workflow spec for the MD-simulation/training/selection/agent family."""
    ex = ExemplarId("deepdrivemd", model, config, desk_scale)
    s = ex.desk_scale
    phases = DDMD_PHASES[config]
    epochs = DDMD_EPOCHS[config]
    md_steps = max(1, int(DDMD_STEPS[config] * s))

    # compute lengths kept small: wall time comes from dataCopy dwell, whose
    # sleep is deterministic (size/bandwidth), so concurrent tasks overlap
    # instead of contending for the single host core
    axpy_len = _sized(500_000, s)
    md_read = _sized(5_000_000, s)
    md_write = _sized(2_500_000, s)
    md_copy = _sized(7_500_000, s)
    train_dim = max(2, int(3_200 * s))
    train_read = _sized(2_500_000, s)
    train_weights = _sized(1_000_000, s)
    train_batch = _sized(50_000, s)
    reduce_len = _sized(50_000, s)
    select_len = _sized(1_000_000, s)
    agent_len = _sized(1_000_000, s)
    agent_copy = _sized(500_000, s)

    md_program = [
        _kernel("readNonMPI", data_size=md_read),
        _kernel("dataCopyH2D", data_size=md_copy, bandwidth=DDMD_COPY_BW),
        _loop(md_steps, [_kernel("axpy", data_size=axpy_len, a=1.5)]),
        _kernel("dataCopyD2H", data_size=md_copy, bandwidth=DDMD_COPY_BW),
        _kernel("writeNonMPI", data_size=md_write),
    ]
    train_program = [
        _kernel("dataCopyH2D", data_size=train_weights, buffer="weights",
                bandwidth=DDMD_COPY_BW),
        _loop(epochs, [
            _kernel("readNonMPI", data_size=train_read),
            _kernel("dataCopyH2D", data_size=train_batch, buffer="batch",
                    bandwidth=DDMD_COPY_BW),
            _kernel("matMulGeneral", dim_list=[[train_dim, train_dim, train_dim]]),
            _kernel("MPIallReduce", data_size=reduce_len),
        ]),
        _kernel("dataCopyD2H", data_size=train_weights, buffer="weights",
                bandwidth=DDMD_COPY_BW),
    ]
    select_program = [
        _kernel("readNonMPI", data_size=md_read),
        _loop(20, [_kernel("reduction", data_size=select_len)]),
        _kernel("writeNonMPI", data_size=md_write),
    ]
    agent_program = [
        _kernel("readNonMPI", data_size=md_read),
        _kernel("dataCopyH2D", data_size=agent_copy, bandwidth=DDMD_COPY_BW),
        _loop(20, [_kernel("inplaceCompute", data_size=agent_len,
                           functor="square")]),
        _kernel("dataCopyD2H", data_size=agent_copy, bandwidth=DDMD_COPY_BW),
        _kernel("writeNonMPI", data_size=md_write),
    ]

    tasks, edges = [], []
    for phase in range(1, phases + 1):
        sims = [f"md_p{phase}_{k}" for k in range(1, DDMD_SIM_TASKS + 1)]
        for name in sims:
            tasks.append(TaskSpec(name=name, category="simulation", num_ranks=1,
                                  cpus_per_rank=1, gpus_per_rank=1,
                                  program=md_program, phase=phase))
        tasks.append(TaskSpec(name=f"train_p{phase}", category="training",
                              num_ranks=1, cpus_per_rank=1, gpus_per_rank=1,
                              program=train_program, phase=phase))
        tasks.append(TaskSpec(name=f"select_p{phase}", category="selection",
                              num_ranks=1, cpus_per_rank=1, gpus_per_rank=0,
                              program=select_program, phase=phase))
        tasks.append(TaskSpec(name=f"agent_p{phase}", category="agent",
                              num_ranks=1, cpus_per_rank=1, gpus_per_rank=1,
                              program=agent_program, phase=phase))
        for name in sims:
            edges.append((name, f"train_p{phase}"))
            edges.append((name, f"select_p{phase}"))
        edges.append((f"select_p{phase}", f"agent_p{phase}"))
        if phase > 1:
            edges.append((f"train_p{phase - 1}", f"train_p{phase}"))
            for name in sims:
                edges.append((f"agent_p{phase - 1}", name))
                edges.append((f"train_p{phase - 1}", name))
    spec = WorkflowSpec(tasks=tasks, edges=edges, phases=phases,
                        execution_model="sync")
    if model == "async":
        spec = async_overlap(spec)
    return spec


_FAMILIES = {"ip": "inverse_problem", "ddmd": "deepdrivemd"}


def _exemplar_id(selector: str, desk_scale: float = DEFAULT_DESK_SCALE) -> ExemplarId:
    """The ExemplarId that a "family:model:config" selector names."""
    try:
        family, model, config = selector.split(":")
    except ValueError:
        raise InvalidExemplar(f"selector must be family:model:config, got {selector!r}")
    return ExemplarId(_FAMILIES.get(family, family), model, config, desk_scale)


def build(selector: str, desk_scale: float = DEFAULT_DESK_SCALE,
          rank_scale: float | None = None) -> WorkflowSpec:
    """Build an exemplar from a flat "family:model:config" selector, e.g.
    "ip:serial_cpu:V1" or "ddmd:async:V2"."""
    ex = _exemplar_id(selector, desk_scale)
    if ex.family == "inverse_problem":
        return inverse_problem_spec(ex.model, ex.config, desk_scale, rank_scale)
    return deep_drive_md_spec(ex.model, ex.config, desk_scale, rank_scale)


def default_config(selector: str) -> WorkflowConfig:
    """The WorkflowConfig knob values an exemplar encodes (calibration base)."""
    ex = _exemplar_id(selector)
    if ex.family == "inverse_problem":
        return WorkflowConfig(
            num_nodes=1, epochs=IP_EPOCHS[ex.model][ex.config],
            data_scale=float(IP_DATA_SCALE[ex.config]), phases=IP_PHASES,
            ranks={"sim": IP_SIM_RANKS, "ml": IP_ML_RANKS[ex.model]})
    return WorkflowConfig(
        num_nodes=1, epochs=DDMD_EPOCHS[ex.config], phases=DDMD_PHASES[ex.config],
        steps=DDMD_STEPS[ex.config], ranks={"sim": DDMD_SIM_TASKS, "ml": 1, "rest": 1})
