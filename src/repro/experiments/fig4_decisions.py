"""Figure 4: the scheduler's corun/solo decisions, as they happen.

The paper's Figure 4 sketches the selection algorithm: when kernel
J_{k-1} completes and J_k is active, Slate examines whether the next
kernel J_{k+1} is complementary — corun (a) if yes, solo (b) otherwise.
This experiment replays the canonical three-tenant scenario (BS + RG
complementary, TR interfering) and emits the scheduler's structured
decision log: every (a)/(b) branch taken, with the classes and SM grants
that justified it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import DeviceConfig, TITAN_XP
from repro.kernels.blackscholes import blackscholes
from repro.kernels.quasirandom import quasirandom
from repro.kernels.transpose import transpose
from repro.slate.scheduler import Decision
from repro.workloads.app import AppSpec
from repro.workloads.harness import run_many

__all__ = ["Fig4Result", "run", "format_result"]


@dataclass(frozen=True)
class Fig4Result:
    decisions: tuple[Decision, ...]

    def kinds(self) -> list[str]:
        return [d.kind for d in self.decisions]

    def count(self, kind: str) -> int:
        return sum(d.kind == kind for d in self.decisions)

    def corun_partners(self) -> set[tuple[str, ...]]:
        return {d.classes for d in self.decisions if d.kind == "corun"}


def run(device: DeviceConfig = TITAN_XP) -> Fig4Result:
    """BS + RG + TR through the daemon; return the decision log."""
    apps = [
        AppSpec(name="bs-app", kernel=blackscholes(), reps=5),
        AppSpec(name="rg-app", kernel=quasirandom(), reps=5),
        AppSpec(name="tr-app", kernel=transpose(), reps=4),
    ]
    _, runtime = run_many(
        "Slate", apps, arrivals=[0.0, 1.2e-3, 2.4e-3], device=device
    )
    return Fig4Result(decisions=tuple(runtime.scheduler.decision_log))


def format_result(result: Fig4Result) -> str:
    lines = [
        "Figure 4: scheduling decisions for BS (M_M) + RG (L_C) + TR (H_M)",
        "",
    ]
    lines += [d.describe() for d in result.decisions]
    lines += [
        "",
        f"branch (a) corun taken {result.count('corun')}x "
        f"(BS/RG complementary), branch (b) solo {result.count('solo')}x "
        "(TR interferes with both memory-intensive tenants)",
    ]
    return "\n".join(lines)
