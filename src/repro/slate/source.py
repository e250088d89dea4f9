"""Kernel source scanning and code injection (the paper's Listings 1-2).

The real Slate uses a FLEX scanner to find ``__global__`` kernels in CUDA
source and injects (a) an SM-guard prologue that keeps only thread blocks on
the designated SM range alive, and (b) a scheduling loop in which persistent
workers pull grouped tasks from a global queue, reconstructing the user's
``blockIdx``/``gridDim`` values (§IV-B, Listings 1 and 2).

This module reproduces that source-to-source layer on CUDA-like text:
:func:`scan_kernels` is the scanner, :func:`inject` emits the transformed
source.  The *semantics* of the transformation are modelled and tested in
:mod:`repro.slate.transform`; this layer gives the daemon a concrete textual
artifact (and a cache key) per user kernel.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

__all__ = [
    "InjectionError",
    "KernelSource",
    "inject",
    "scan_kernels",
]

#: Built-in variables the injector must replace to preserve user semantics.
REPLACEABLE_BUILTINS = ("blockIdx.x", "blockIdx.y", "gridDim.x", "gridDim.y")

_KERNEL_RE = re.compile(
    r"__global__\s+void\s+(?P<name>\w+)\s*\((?P<params>[^)]*)\)\s*\{",
    re.MULTILINE,
)


class InjectionError(ValueError):
    """Raised when a kernel source cannot be transformed."""


@dataclass(frozen=True)
class KernelSource:
    """One scanned ``__global__`` kernel."""

    name: str
    params: str
    body: str
    builtins_used: tuple[str, ...] = field(default_factory=tuple)

    @property
    def uses_2d_grid(self) -> bool:
        return "blockIdx.y" in self.builtins_used or "gridDim.y" in self.builtins_used


def _match_braces(text: str, open_index: int) -> int:
    """Index just past the brace matching ``text[open_index]`` ('{')."""
    depth = 0
    for i in range(open_index, len(text)):
        if text[i] == "{":
            depth += 1
        elif text[i] == "}":
            depth -= 1
            if depth == 0:
                return i + 1
    raise InjectionError("unbalanced braces in kernel source")


def scan_kernels(source: str) -> list[KernelSource]:
    """Find every ``__global__`` kernel in ``source`` (the FLEX scan)."""
    kernels = []
    for match in _KERNEL_RE.finditer(source):
        brace = source.index("{", match.end() - 1)
        end = _match_braces(source, brace)
        body = source[brace + 1 : end - 1]
        used = tuple(b for b in REPLACEABLE_BUILTINS if b in body)
        kernels.append(
            KernelSource(
                name=match.group("name"),
                params=match.group("params").strip(),
                body=body,
                builtins_used=used,
            )
        )
    return kernels


_PROLOGUE = """\
    /* --- Slate injected: kernel-SM mapping guard (Listing 1) --- */
    __shared__ uint slate_id, slate_valid_task;
    __shared__ uint3 slate_shared_blockID;
    __shared__ int slate_iters;
    uint slate_globIdx;
    const int slate_leader = (threadIdx.x == 0 &&
                              threadIdx.y == 0 &&
                              threadIdx.z == 0);
    if (slate_leader) {
        slate_id = 0;
        uint slate_smid = __slate_get_smid();
        slate_valid_task = !(slate_smid < sm_low || slate_smid > sm_high);
    }
    __syncthreads();
    if (!slate_valid_task) { return; }
"""

_LOOP_HEAD = """\
    /* --- Slate injected: task-queue scheduling loop (Listing 2) --- */
    do {
        if (slate_leader) {
            slate_globIdx = atomicAdd(&slateIdx, SLATE_ITERS);
            slate_iters = min(SLATE_ITERS, slateMax - slate_globIdx);
            slate_id = slate_globIdx + SLATE_ITERS;
            slate_shared_blockID.x = slate_globIdx % slate_gridDim_x - 1;
            slate_shared_blockID.y = slate_globIdx / slate_gridDim_x;
        }
        __syncthreads();
        uint3 slate_blockID = {slate_shared_blockID.x, slate_shared_blockID.y, 1};
        const int slate_local_iters = slate_iters;
        for (int slate_count = 0; slate_count < slate_local_iters; ++slate_count) {
            ++slate_blockID.x;
            if (slate_blockID.x == slate_gridDim_x) {
                slate_blockID.x = 0;
                ++slate_blockID.y;
            }
"""

_LOOP_TAIL = """\
        }
    } while (!slate_retreat() && slate_id < slateMax);
"""

#: Replacement map applied to the user body inside the scheduling loop.
_BUILTIN_REPLACEMENTS = {
    "blockIdx.x": "slate_blockID.x",
    "blockIdx.y": "slate_blockID.y",
    "gridDim.x": "slate_gridDim_x",
    "gridDim.y": "slate_gridDim_y",
}


def inject(kernel: KernelSource) -> str:
    """Emit the transformed source for ``kernel``.

    The result declares the Slate scheduling parameters (``sm_low``,
    ``sm_high``, ``slateIdx``/``slateMax`` queue words, ``SLATE_ITERS``),
    prepends the SM-guard prologue, wraps the user body in the scheduling
    loop, and replaces every built-in grid variable.  Raises
    :class:`InjectionError` for bodies using unsupported builtins
    (``blockIdx.z`` — the paper transforms 1D/2D grids only).
    """
    if "blockIdx.z" in kernel.body or "gridDim.z" in kernel.body:
        raise InjectionError(
            f"kernel {kernel.name!r} uses a 3D grid; Slate transforms 1D/2D grids"
        )
    body = kernel.body
    for builtin, replacement in _BUILTIN_REPLACEMENTS.items():
        body = body.replace(builtin, replacement)

    params = "const uint sm_low, const uint sm_high"
    if kernel.params:
        params += ", " + kernel.params
    indented_body = "\n".join(
        "            " + line if line.strip() else line for line in body.splitlines()
    )
    return (
        f"extern \"C\" __global__ void {kernel.name}_slate({params})\n"
        "{\n"
        f"{_PROLOGUE}"
        f"{_LOOP_HEAD}"
        "            /* --- original user code, built-ins replaced --- */\n"
        f"{indented_body}\n"
        f"{_LOOP_TAIL}"
        "}\n"
    )
