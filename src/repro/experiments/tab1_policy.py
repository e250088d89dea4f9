"""Table I: empirical validation of the heuristic corun/solo policy.

The paper's policy table "is derived from empirical results": a pair is
worth co-running when its concurrent turnaround ``max(T'_a, T'_b)`` beats
its consecutive turnaround ``T_a + T_b`` (§III-B).  This experiment builds
a representative synthetic kernel per intensity class, measures both
turnarounds for every (active, candidate) class pair on the simulator, and
reports where the measured-best decision agrees with the published table.

Perfect agreement is not expected — several cells sit on the boundary
(e.g. two linear-scaling kernels co-run exactly as fast as they serialize),
and the paper's own table is visibly asymmetric — but the load-bearing
cells (memory pairs must not share; low-intensity kernels ride along with
saturating memory kernels) must agree.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import DeviceConfig, TITAN_XP
from repro.gpu.device import DEFAULT_TASK_SIZE, SLATE_INJECT_FRAC, ExecutionMode, run_kernels
from repro.kernels.kernel import KernelSpec
from repro.kernels.synthetic import synthetic
from repro.metrics.report import format_table
from repro.slate.classify import IntensityClass as C
from repro.slate.partition import choose_partition
from repro.slate.policy import DEFAULT_POLICY
from repro.slate.profiler import offline_profile

__all__ = ["Tab1Result", "class_representatives", "run", "format_result"]

CLASS_ORDER = (C.L_C, C.M_C, C.H_C, C.M_M, C.H_M)


def class_representatives() -> dict[C, KernelSpec]:
    """One synthetic kernel per intensity class.

    Structure mirrors the real benchmarks: low/med-compute kernels are
    *parallelism-limited* (small grids — they cannot fill the device, like
    RG), the M_M kernel saturates DRAM through imperfect coalescing (like
    BS, knee at ~14 SMs), the H_M kernel saturates near the full device
    (like TR), and H_C scales linearly with SMs (a compute hog).
    """
    # All representatives are sized for ~2.4 ms solo Slate runs so that
    # max(T')/sum(T) compares like against like (the paper equalizes by
    # looping every benchmark to ~30 s).
    return {
        C.L_C: synthetic(0.003, 0.02, name="syn-L_C", num_blocks=1920, block_time=240e-6),
        C.M_C: synthetic(0.12, 0.02, name="syn-M_C", num_blocks=2400, block_time=240e-6),
        C.H_C: synthetic(0.30, 0.05, name="syn-H_C", num_blocks=9600, block_time=120e-6),
        C.M_M: synthetic(
            0.01, 1.30, name="syn-M_M", num_blocks=9600, block_time=50e-6, dram_efficiency=0.60
        ),
        C.H_M: synthetic(
            0.0, 1.10, name="syn-H_M", num_blocks=9600, block_time=100e-6, dram_efficiency=0.95
        ),
    }


@dataclass(frozen=True)
class Tab1Result:
    #: (active, candidate) -> measured decision ("corun"/"solo").
    measured: dict[tuple[C, C], str]
    #: (active, candidate) -> ratio max(T')/sum(T)  (<1 favours corun).
    ratios: dict[tuple[C, C], float]
    #: Classes each representative actually landed in (sanity).
    realized_classes: dict[C, C]

    def agreement(self) -> float:
        agree = sum(
            self.measured[key] == DEFAULT_POLICY.decision(*key) for key in self.measured
        )
        return agree / len(self.measured)

    def agreement_on(self, keys: list[tuple[C, C]]) -> float:
        agree = sum(self.measured[k] == DEFAULT_POLICY.decision(*k) for k in keys)
        return agree / len(keys)


def _corun_times(
    spec_a: KernelSpec, spec_b: KernelSpec, device: DeviceConfig
) -> tuple[float, float]:
    """Best-effort static sharing: the better of the heuristic partition
    and an even split (a static run cannot rely on dynamic resizing to
    rescue a starved secondary, so both placements are legitimate)."""
    profile_a = offline_profile(spec_a, device)
    profile_b = offline_profile(spec_b, device)
    partition, primary, _ = choose_partition(profile_a, profile_b, device)
    if primary is profile_a:
        sms_a, sms_b = partition.primary_sms, partition.secondary_sms
    else:
        sms_a, sms_b = partition.secondary_sms, partition.primary_sms
    half = device.num_sms // 2
    candidates = [
        (sms_a, sms_b),
        (tuple(range(half)), tuple(range(half, device.num_sms))),
    ]
    best = None
    for sm_sets in candidates:
        a, b = run_kernels(
            [spec_a.work(), spec_b.work()],
            sm_sets,
            device,
            mode=ExecutionMode.SLATE,
            task_size=DEFAULT_TASK_SIZE,
            inject_frac=SLATE_INJECT_FRAC,
        )
        if best is None or max(a.elapsed, b.elapsed) < max(best):
            best = (a.elapsed, b.elapsed)
    return best


def run(device: DeviceConfig = TITAN_XP, margin: float = 0.05) -> Tab1Result:
    """Measure the corun-vs-solo decision for every class pair.

    ``margin`` requires corun to win by at least 5% before it is declared
    beneficial (ties favour solo, which has no scheduling risk).
    """
    reps = class_representatives()
    profiles = {cls: offline_profile(spec, device) for cls, spec in reps.items()}
    realized = {cls: profile.intensity for cls, profile in profiles.items()}
    solo = {cls: profile.elapsed for cls, profile in profiles.items()}
    measured: dict[tuple[C, C], str] = {}
    ratios: dict[tuple[C, C], float] = {}
    for active in CLASS_ORDER:
        for candidate in CLASS_ORDER:
            spec_a, spec_b = reps[active], reps[candidate]
            if active == candidate:
                # Distinct names so both kernels appear separately.
                spec_b = spec_b.scaled(1.0)
            ta, tb = _corun_times(spec_a, spec_b, device)
            concurrent = max(ta, tb)
            consecutive = solo[active] + solo[candidate]
            ratio = concurrent / consecutive
            ratios[(active, candidate)] = ratio
            measured[(active, candidate)] = (
                "corun" if ratio < 1.0 - margin else "solo"
            )
    return Tab1Result(measured=measured, ratios=ratios, realized_classes=realized)


#: The cells the paper's narrative leans on (must agree).
LOAD_BEARING_CELLS = [
    (C.M_M, C.M_M),  # memory kernels never share
    (C.H_M, C.H_M),
    (C.M_M, C.H_M),
    (C.H_M, C.M_M),
    (C.L_C, C.M_M),  # RG rides along with BS/GS/MM
    (C.M_M, C.L_C),
    (C.L_C, C.H_M),  # RG-TR
    (C.H_M, C.L_C),
]


def format_result(result: Tab1Result) -> str:
    rows = []
    for active in CLASS_ORDER:
        row = [active.value]
        for candidate in CLASS_ORDER:
            key = (active, candidate)
            ours = result.measured[key]
            paper = DEFAULT_POLICY.decision(*key)
            mark = "" if ours == paper else "*"
            row.append(f"{ours}{mark} ({result.ratios[key]:.2f})")
        rows.append(row)
    table = format_table(
        ["active \\ cand"] + [c.value for c in CLASS_ORDER],
        rows,
        title="Table I: measured corun/solo decisions (ratio max(T')/sum(T); * = differs from paper)",
    )
    return (
        f"{table}\n"
        f"agreement with published table: {result.agreement():.0%} overall, "
        f"{result.agreement_on(LOAD_BEARING_CELLS):.0%} on load-bearing cells"
    )
