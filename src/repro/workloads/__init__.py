"""Multi-process application workloads and the pairing harness."""

from repro.workloads.app import AppResult, AppSpec, run_application
from repro.workloads.harness import (
    RUNTIMES,
    app_for,
    app_times,
    make_runtime,
    reset_app_times,
    run_many,
    run_pair,
    run_solo,
)
from repro.workloads.pairings import all_pairings, pairing_label

__all__ = [
    "AppResult",
    "AppSpec",
    "RUNTIMES",
    "all_pairings",
    "app_for",
    "app_times",
    "make_runtime",
    "pairing_label",
    "reset_app_times",
    "run_application",
    "run_many",
    "run_pair",
    "run_solo",
]
