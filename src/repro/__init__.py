"""Slate: workload-aware GPU multiprocessing (IPDPS 2019) — reproduction.

A full reimplementation of the Slate framework on a simulated GPU
substrate.  Entry points:

* :class:`repro.slate.SlateRuntime` — the Slate daemon; open sessions,
  launch kernels, let the scheduler co-run complementary workloads.
* :class:`repro.cuda.VanillaCudaRuntime` / :class:`repro.mps.MpsRuntime` —
  the two baselines the paper compares against.
* :mod:`repro.kernels` — the five evaluation benchmarks plus synthetic
  kernels, calibrated to the paper's Table II.
* :mod:`repro.experiments` — one module per paper table/figure;
  ``python -m repro experiments`` reproduces the evaluation.
* ``python -m repro`` — command-line interface.

See README.md for a tour and EXPERIMENTS.md for paper-vs-measured results.
"""

from repro.config import CostModel, DeviceConfig, HostConfig, TESLA_V100, TITAN_XP

__version__ = "1.0.0"

__all__ = [
    "CostModel",
    "DeviceConfig",
    "HostConfig",
    "TESLA_V100",
    "TITAN_XP",
    "__version__",
]
