"""Table V: Slate-introduced operations, their scope — and their cost.

The paper's Table V inventories the operations Slate adds and where they
sit (inside kernel execution, outside it, offline); §V-D quantifies some
of them (BS executes ~3% more instructions; communication ≈4% of app
time; injection+compilation ≈1.5%).  This experiment measures every row
from live runs and reports cost shares next to the paper's scope labels.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import CostModel, DeviceConfig, TITAN_XP
from repro.gpu.device import DEFAULT_TASK_SIZE, SLATE_INJECT_FRAC, ExecutionMode, run_kernels
from repro.gpu.rates import SchedulingMode, rate_input
from repro.kernels.blackscholes import blackscholes
from repro.kernels.gaussian import gaussian
from repro.metrics.report import format_table
from repro.slate.profiler import offline_profile
from repro.workloads.harness import app_for, run_solo

__all__ = ["Tab5Result", "run", "format_result"]


@dataclass(frozen=True)
class OperationRow:
    operation: str
    scope: str
    measured: str


@dataclass(frozen=True)
class Tab5Result:
    rows: tuple[OperationRow, ...]
    #: Injected-instruction overhead for BS (paper: ~3%).
    injected_instruction_frac: float
    #: Atomic queue-pull time as a fraction of GS kernel time at the
    #: default task size (the cost grouping amortizes).
    atomic_time_frac: float
    comm_frac: float
    compile_frac: float


def run(device: DeviceConfig = TITAN_XP) -> Tab5Result:
    costs = CostModel()

    # -- inside kernel execution: injected instructions (BS, §V-D1) ------
    bs = [blackscholes().work()]
    slate = dict(device=device, costs=costs, mode=ExecutionMode.SLATE, task_size=DEFAULT_TASK_SIZE)
    (plain,) = run_kernels(bs, **slate)
    (injected,) = run_kernels(bs, **slate, inject_frac=SLATE_INJECT_FRAC)
    instr_frac = injected.instructions / plain.instructions - 1.0

    # -- inside kernel execution: atomic ops on the task queue (GS) ------
    # GS's offline profile is its solo Slate run (and the offline row's).
    gs = gaussian()
    work = gs.work()
    profile = offline_profile(gs, device, costs)
    n_tasks = -(-work.num_blocks // DEFAULT_TASK_SIZE)
    # Per-worker pull time amortized over the run (the §III-A3 cost),
    # over the workers the device runs GS with.
    workers = rate_input(
        work, device.num_sms, device, SchedulingMode.SLATE, DEFAULT_TASK_SIZE
    ).parallelism
    atomic_time = n_tasks * costs.atomic_latency / workers
    atomic_frac = atomic_time / profile.elapsed

    # -- outside kernel execution: comm + injection/compilation ----------
    app_result, _ = run_solo("Slate", app_for("GS"), device=device)
    comm_frac = app_result.comm_time / app_result.app_time
    compile_frac = app_result.compile_time / app_result.app_time

    rows = (
        OperationRow(
            "Exec of injected instructions",
            "inside kernel exec",
            f"+{instr_frac:.1%} instructions (BS; paper ~3%)",
        ),
        OperationRow(
            "Atomic ops on the task queue",
            "inside kernel exec",
            f"{atomic_frac:.1%} of GS kernel time at SLATE_ITERS="
            f"{DEFAULT_TASK_SIZE}",
        ),
        OperationRow(
            "Dynamic code injection & compilation",
            "outside kernel exec",
            f"{compile_frac:.1%} of app time (paper ~1.5%)",
        ),
        OperationRow(
            "Client-daemon communication",
            "outside kernel exec",
            f"{comm_frac:.1%} of app time (paper ~4%)",
        ),
        OperationRow(
            "Kernel profiling to build lookup table",
            "offline",
            f"one {profile.elapsed * 1e3:.2f} ms solo run per kernel, "
            "non-intrusive thereafter",
        ),
    )
    return Tab5Result(
        rows=rows,
        injected_instruction_frac=instr_frac,
        atomic_time_frac=atomic_frac,
        comm_frac=comm_frac,
        compile_frac=compile_frac,
    )


def format_result(result: Tab5Result) -> str:
    return format_table(
        ["operation", "scope", "measured"],
        [(r.operation, r.scope, r.measured) for r in result.rows],
        title="Table V: Slate-introduced operations and their measured cost",
    )
