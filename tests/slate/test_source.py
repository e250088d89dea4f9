"""Tests for the kernel scanner and code injector."""

import pytest

from repro.slate.source import InjectionError, inject, scan_kernels

AXPY = """
__global__ void axpy(float* y, const float* x, float a, int n)
{
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < n) { y[i] += a * x[i]; }
}
"""

TILED_2D = """
static __device__ float f(float v) { return v * 2.0f; }

__global__ void tile_op(float* out, const float* in, int n)
{
  int col = blockIdx.x * blockDim.x + threadIdx.x;
  int row = blockIdx.y * blockDim.y + threadIdx.y;
  if (row < gridDim.y && col < gridDim.x) {
    out[row * n + col] = f(in[col * n + row]);
  }
}

__global__ void second(float* p) { p[blockIdx.x] = 0.f; }
"""

THREE_D = """
__global__ void vol(float* p)
{
  int z = blockIdx.z;
  p[z] = 1.f;
}
"""


class TestScanner:
    def test_finds_single_kernel(self):
        kernels = scan_kernels(AXPY)
        assert [k.name for k in kernels] == ["axpy"]
        assert kernels[0].builtins_used == ("blockIdx.x",)
        assert not kernels[0].uses_2d_grid

    def test_finds_multiple_kernels_and_skips_device_functions(self):
        kernels = scan_kernels(TILED_2D)
        assert [k.name for k in kernels] == ["tile_op", "second"]

    def test_detects_2d_usage(self):
        kernels = scan_kernels(TILED_2D)
        assert kernels[0].uses_2d_grid
        assert "blockIdx.y" in kernels[0].builtins_used
        assert "gridDim.x" in kernels[0].builtins_used

    def test_params_captured(self):
        k = scan_kernels(AXPY)[0]
        assert "float* y" in k.params and "int n" in k.params

    def test_no_kernels_in_host_code(self):
        assert scan_kernels("int main() { return 0; }") == []

    def test_cache_key_stable_and_body_sensitive(self):
        k1 = scan_kernels(AXPY)[0]
        k2 = scan_kernels(AXPY)[0]
        k3 = scan_kernels(AXPY.replace("a * x[i]", "a + x[i]"))[0]
        assert k1.cache_key() == k2.cache_key()
        assert k1.cache_key() != k3.cache_key()

    def test_unbalanced_braces_detected(self):
        with pytest.raises(InjectionError):
            scan_kernels("__global__ void broken(int n) { if (n) {")


class TestInjector:
    def test_builtins_fully_replaced(self):
        for kernel in scan_kernels(TILED_2D):
            out = inject(kernel)
            # After stripping Slate's own variables, no raw builtin remains.
            cleaned = out.replace("slate_blockID", "").replace("slate_gridDim_x", "").replace(
                "slate_gridDim_y", ""
            )
            assert "blockIdx.x" not in cleaned
            assert "blockIdx.y" not in cleaned
            assert "gridDim.x" not in cleaned
            assert "gridDim.y" not in cleaned

    def test_sm_guard_prologue_present(self):
        out = inject(scan_kernels(AXPY)[0])
        assert "sm_low" in out and "sm_high" in out
        assert "if (!slate_valid_task) { return; }" in out

    def test_scheduling_loop_structure(self):
        out = inject(scan_kernels(AXPY)[0])
        assert "atomicAdd(&slateIdx, SLATE_ITERS)" in out
        assert "while (!slate_retreat() && slate_id < slateMax)" in out
        # Rollover reconstruction, not per-iteration division.
        assert "++slate_blockID.x;" in out
        assert "slate_blockID.x = 0;" in out

    def test_original_code_embedded(self):
        out = inject(scan_kernels(AXPY)[0])
        assert "y[i] += a * x[i];" in out

    def test_sm_bounds_prepended_to_params(self):
        out = inject(scan_kernels(AXPY)[0])
        assert "axpy_slate(const uint sm_low, const uint sm_high, float* y" in out

    def test_3d_grid_rejected(self):
        with pytest.raises(InjectionError, match="3D grid"):
            inject(scan_kernels(THREE_D)[0])

    def test_threadidx_untouched(self):
        """Inner block geometry is preserved (§III-A3)."""
        out = inject(scan_kernels(AXPY)[0])
        assert "threadIdx.x" in out
        assert "blockDim.x" in out
