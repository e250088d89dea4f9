"""Device-generalization study (extension, paper §VII).

"As a software-based solution, Slate works on most GPU systems."  This
experiment re-runs the co-run pairings on a Volta-class device (80 SMs,
900 GB/s HBM2): the saturation knees move, the partitions adapt through
the same profiles-and-policy machinery, and the gains persist — typically
*growing*, because a bigger device leaves more leftover SMs beside a
saturating kernel.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import DeviceConfig, TESLA_V100, TITAN_XP
from repro.metrics.report import format_table
from repro.workloads.harness import pair_antt, solo_times
from repro.workloads.pairings import pairing_label

__all__ = ["GeneralizationResult", "run", "format_result", "PAIRS"]

PAIRS = [("BS", "RG"), ("GS", "RG"), ("MM", "RG"), ("RG", "TR")]

DEVICES: dict[str, DeviceConfig] = {
    "Titan Xp": TITAN_XP,
    "Tesla V100": TESLA_V100,
}


@dataclass(frozen=True)
class GeneralizationResult:
    #: device name -> pairing label -> {runtime: ANTT}.
    tables: dict[str, dict[str, dict[str, float]]]

    def gain(self, device: str, pair_label: str, over: str = "MPS") -> float:
        row = self.tables[device][pair_label]
        return (row[over] - row["Slate"]) / row[over]

    def average_gain(self, device: str, over: str = "MPS") -> float:
        labels = self.tables[device]
        return sum(self.gain(device, l, over) for l in labels) / len(labels)


def run() -> GeneralizationResult:
    benches = sorted({b for pair in PAIRS for b in pair})
    tables: dict[str, dict[str, dict[str, float]]] = {}
    for device_name, device in DEVICES.items():
        solo = solo_times(benches, device)
        tables[device_name] = {
            pairing_label(pair): {
                runtime: pair_antt(runtime, *pair, solo, device)
                for runtime in ("CUDA", "MPS", "Slate")
            }
            for pair in PAIRS
        }
    return GeneralizationResult(tables=tables)


def format_result(result: GeneralizationResult) -> str:
    rows = []
    for device_name, table in result.tables.items():
        for label, per_runtime in table.items():
            rows.append(
                (
                    device_name,
                    label,
                    per_runtime["CUDA"],
                    per_runtime["MPS"],
                    per_runtime["Slate"],
                    f"{result.gain(device_name, label):+.1%}",
                )
            )
    table = format_table(
        ["device", "pair", "CUDA", "MPS", "Slate", "Slate vs MPS"],
        rows,
        title="Generalization: corun pairings across devices",
    )
    avgs = ", ".join(
        f"{name}: {result.average_gain(name):+.1%}" for name in result.tables
    )
    return f"{table}\naverage Slate-vs-MPS gain by device: {avgs}"
