"""Figure 7: normalized application execution time over all 15 pairings.

Paper headline: Slate outperforms vanilla CUDA on every pairing and MPS on
all but MM-BS (-2%); on average Slate improves throughput by 11% over MPS
and 18% over CUDA; the best pairing gains 35% over MPS; MPS is ~6% better
than CUDA; GS-GS gains 24% from scheduling alone.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import DeviceConfig, TITAN_XP
from repro.kernels.registry import SHORT_NAMES
from repro.metrics.report import format_table
from repro.workloads.harness import pair_antt, solo_times
from repro.workloads.pairings import all_pairings, pairing_label

__all__ = ["PairingRow", "Fig7Result", "run", "format_result"]

RUNTIME_ORDER = ("CUDA", "MPS", "Slate")


@dataclass(frozen=True)
class PairingRow:
    """Normalized (to solo CUDA) ANTT of one pairing under each runtime."""

    pair: tuple[str, str]
    antt_by_runtime: dict[str, float]

    @property
    def label(self) -> str:
        return pairing_label(self.pair)

    def gain(self, over: str) -> float:
        """Slate's relative improvement over ``over`` (positive = better)."""
        base = self.antt_by_runtime[over]
        return (base - self.antt_by_runtime["Slate"]) / base


@dataclass(frozen=True)
class Fig7Result:
    rows: tuple[PairingRow, ...]
    solo_cuda: dict[str, float]

    def row(self, a: str, b: str) -> PairingRow:
        for r in self.rows:
            if r.pair in ((a, b), (b, a)):
                return r
        raise KeyError((a, b))

    def average_gain(self, over: str) -> float:
        return sum(r.gain(over) for r in self.rows) / len(self.rows)

    def best_pair(self, over: str = "MPS") -> PairingRow:
        return max(self.rows, key=lambda r: r.gain(over))

    def wins(self, over: str) -> int:
        return sum(r.gain(over) > 0 for r in self.rows)


def run(device: DeviceConfig = TITAN_XP) -> Fig7Result:
    """Run every pairing under every runtime; normalize to solo CUDA.

    Each of the 45 pairing cells and the 5 solo baselines is one
    :func:`~repro.workloads.harness.app_times` scenario, simulated once
    per process.
    """
    solo = solo_times(SHORT_NAMES, device)
    rows = [
        PairingRow(
            pair=(a, b),
            antt_by_runtime={
                runtime: pair_antt(runtime, a, b, solo, device)
                for runtime in RUNTIME_ORDER
            },
        )
        for a, b in all_pairings()
    ]
    return Fig7Result(rows=tuple(rows), solo_cuda=solo)


def format_result(result: Fig7Result) -> str:
    rows = []
    for r in result.rows:
        rows.append(
            (
                r.label,
                r.antt_by_runtime["CUDA"],
                r.antt_by_runtime["MPS"],
                r.antt_by_runtime["Slate"],
                f"{r.gain('MPS'):+.1%}",
                f"{r.gain('CUDA'):+.1%}",
            )
        )
    table = format_table(
        ["pair", "CUDA", "MPS", "Slate", "Slate vs MPS", "Slate vs CUDA"],
        rows,
        title="Figure 7: normalized application execution time (ANTT, lower=better)",
    )
    best = result.best_pair("MPS")
    return (
        f"{table}\n"
        f"avg gain vs MPS {result.average_gain('MPS'):.1%} (paper 11%), "
        f"vs CUDA {result.average_gain('CUDA'):.1%} (paper 18%); "
        f"Slate beats CUDA on {result.wins('CUDA')}/15 (paper 15/15), "
        f"MPS on {result.wins('MPS')}/15 (paper 14/15); "
        f"best pair {best.label} {best.gain('MPS'):+.1%} (paper RG-GS +35%)"
    )
