"""Slate: the paper's workload-aware GPU multiprocessing framework.

Subsystems (paper section in parentheses):

* :mod:`repro.slate.source` — the FLEX-scanner analogue and code injector
  that rewrite user kernels (Listings 1-2, §IV-B).
* :mod:`repro.slate.transform` — the semantic grid transformation
  ``K(B, T) -> K*(B*, T)`` with exact block-index reconstruction (§III-A).
* :mod:`repro.slate.taskqueue` — the ``slateIdx`` task queue with
  ``SLATE_ITERS`` grouping and retreat signalling (§III-A, §III-C).
* :mod:`repro.slate.classify` / :mod:`repro.slate.policy` — intensity
  classification and the Table I corun/solo heuristic (§III-B).
* :mod:`repro.slate.profiler` — first-run/offline kernel profiling (§IV-B).
* :mod:`repro.slate.partition` — SM-split selection for corun pairs.
* :mod:`repro.slate.scheduler` — the daemon-side workload-aware scheduler
  with dynamic kernel resizing (§III-C, §IV-C).
* :mod:`repro.slate.daemon` — the client-server runtime: context funneling,
  named-pipe command channel, shared-buffer data channel, NVRTC injection
  with caching (§IV-A).
* :mod:`repro.slate.placement` — the multi-GPU fleet (extension, §VII):
  one placement book and the shard class every fleet runs on.
"""

from repro.slate.classify import IntensityClass, classify
from repro.slate.daemon import SlateRuntime, SlateSession
from repro.slate.policy import (
    DEFAULT_POLICY,
    POLICIES,
    AdmissionRejected,
    EdfPolicy,
    FairSharePolicy,
    MpsLeftoverPolicy,
    OnlinePredictivePolicy,
    PolicyTable,
    SchedulingPolicy,
    Table1Policy,
    make_policy,
    policy_names,
)
from repro.slate.profiler import (
    KernelProfile,
    ProfileCache,
    ProfileTable,
    configure_profile_cache,
    default_profile_cache,
    offline_profile,
    reset_profile_cache,
)
from repro.slate.partition import choose_partition
from repro.slate.predict import choose_partition_predictive, predict_corun_rates
from repro.slate.source import KernelSource, inject, scan_kernels
from repro.slate.taskqueue import SlateQueue
from repro.slate.transform import GridTransform, simulate_workers

__all__ = [
    "DEFAULT_POLICY",
    "POLICIES",
    "AdmissionRejected",
    "EdfPolicy",
    "FairSharePolicy",
    "GridTransform",
    "IntensityClass",
    "KernelProfile",
    "KernelSource",
    "MpsLeftoverPolicy",
    "OnlinePredictivePolicy",
    "PolicyTable",
    "SchedulingPolicy",
    "Table1Policy",
    "make_policy",
    "policy_names",
    "ProfileCache",
    "ProfileTable",
    "configure_profile_cache",
    "default_profile_cache",
    "reset_profile_cache",
    "SlateQueue",
    "SlateRuntime",
    "SlateSession",
    "choose_partition",
    "choose_partition_predictive",
    "predict_corun_rates",
    "classify",
    "inject",
    "offline_profile",
    "scan_kernels",
    "simulate_workers",
]
