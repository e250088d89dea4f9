"""Benchmark registry: name -> spec factory.

The evaluation refers to benchmarks by their paper short names (BS, GS,
MM, RG, TR); the registry gives harness code one place to resolve them.
"""

from __future__ import annotations

from typing import Callable

from repro.kernels.blackscholes import blackscholes
from repro.kernels.extra import hotspot, kmeans, pathfinder
from repro.kernels.gaussian import gaussian
from repro.kernels.kernel import KernelSpec
from repro.kernels.quasirandom import quasirandom
from repro.kernels.sgemm import sgemm
from repro.kernels.stream import stream
from repro.kernels.transpose import transpose

__all__ = ["BENCHMARKS", "SHORT_NAMES", "UnknownKernelError", "by_name"]


class UnknownKernelError(KeyError):
    """A benchmark/kernel name that is not in the registry.

    Subclasses :class:`KeyError` so existing ``except KeyError`` callers
    keep working; the serving daemon relies on the distinct type to send a
    structured ``UnknownKernel`` error reply instead of a traceback.
    """

#: The paper's five evaluation benchmarks (Table II order).
BENCHMARKS: dict[str, Callable[[], KernelSpec]] = {
    "BS": blackscholes,
    "GS": gaussian,
    "MM": sgemm,
    "RG": quasirandom,
    "TR": transpose,
}

#: Paper short names in Table II order.
SHORT_NAMES: tuple[str, ...] = ("BS", "GS", "MM", "RG", "TR")

#: Workloads beyond the paper's evaluation set (trace/cluster studies).
_EXTRAS: dict[str, Callable[[], KernelSpec]] = {
    "STREAM": stream,
    "HS": hotspot,
    "PF": pathfinder,
    "KM": kmeans,
}

#: One shared default-parameter spec per upper-cased name, built once.
_SPECS: dict[str, KernelSpec] = {
    key: factory() for key, factory in {**BENCHMARKS, **_EXTRAS}.items()
}


def by_name(name: str) -> KernelSpec:
    """Resolve a benchmark short name to its shared default-parameter spec.

    Every caller gets the same frozen spec, so its ``work()`` and the
    device records keyed on that work are built once; call a factory in
    :data:`BENCHMARKS` for a fresh copy.
    """
    spec = _SPECS.get(name.upper())
    if spec is None:
        known = ", ".join(_SPECS)
        raise UnknownKernelError(f"unknown benchmark {name!r}; known: {known}")
    return spec
