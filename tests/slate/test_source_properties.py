"""Property-based tests for the scanner/injector on generated sources."""

import re

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.slate.source import inject, scan_kernels

identifier = st.from_regex(r"[a-z][a-z0-9_]{0,10}", fullmatch=True)

builtin = st.sampled_from(
    ["blockIdx.x", "blockIdx.y", "gridDim.x", "gridDim.y", "threadIdx.x", "blockDim.x"]
)


@st.composite
def kernel_source(draw):
    """A syntactically plausible __global__ kernel with random body refs."""
    name = draw(identifier)
    n_stmts = draw(st.integers(min_value=1, max_value=6))
    stmts = []
    for i in range(n_stmts):
        var = draw(identifier)
        ref = draw(builtin)
        stmts.append(f"  int {var}_{i} = {ref} * {draw(st.integers(0, 99))};")
    use_branch = draw(st.booleans())
    body = "\n".join(stmts)
    if use_branch:
        body = f"  if (p[0] > 0) {{\n{body}\n  }}"
    text = f"__global__ void {name}(float* p, int n)\n{{\n{body}\n}}\n"
    return name, text


@given(data=kernel_source())
@settings(max_examples=120)
def test_scanner_finds_generated_kernels(data):
    name, text = data
    kernels = scan_kernels(text)
    assert [k.name for k in kernels] == [name]
    # builtins_used only lists grid builtins actually present.
    for b in kernels[0].builtins_used:
        assert b in text


@given(data=kernel_source())
@settings(max_examples=120)
def test_injection_removes_all_grid_builtins(data):
    name, text = data
    kernel = scan_kernels(text)[0]
    out = inject(kernel)
    # Strip Slate's own replacements before checking.
    cleaned = (
        out.replace("slate_blockID", "")
        .replace("slate_gridDim_x", "")
        .replace("slate_gridDim_y", "")
    )
    for b in ("blockIdx.x", "blockIdx.y", "gridDim.x", "gridDim.y"):
        assert b not in cleaned
    # Thread-level builtins survive (inner block geometry preserved).
    if "threadIdx.x" in kernel.body:
        assert "threadIdx.x" in out
    # The transformed kernel is renamed and takes the SM bounds first.
    assert f"{name}_slate(const uint sm_low, const uint sm_high" in out
