"""Evaluation metrics: ANTT, STP, normalized times, report tables."""

from repro.metrics.antt import (
    antt,
    normalized_times,
    paper_antt_concurrent,
    paper_antt_consecutive,
    stp,
)
from repro.metrics.counters import METRIC_NAMES, NvprofReport, collect
from repro.metrics.fairness import fairness_index, max_slowdown, speedup_spread
from repro.metrics.timeline import build_timeline, render_timeline
from repro.metrics.utilization import UtilizationSummary, summarize_utilization
from repro.metrics.report import format_table

__all__ = [
    "METRIC_NAMES",
    "NvprofReport",
    "antt",
    "build_timeline",
    "collect",
    "fairness_index",
    "format_table",
    "max_slowdown",
    "normalized_times",
    "paper_antt_concurrent",
    "paper_antt_consecutive",
    "render_timeline",
    "speedup_spread",
    "stp",
    "summarize_utilization",
    "UtilizationSummary",
]
