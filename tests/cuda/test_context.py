"""Direct CudaContext unit tests."""

import pytest

from repro.cuda.context import CudaContext
from repro.cuda.errors import CudaContextDestroyed
from repro.cuda.memory_manager import DeviceMemoryManager


def make_context(capacity=1 << 20, owner="test"):
    return CudaContext(DeviceMemoryManager(capacity), owner=owner)


class TestContext:
    def test_alloc_tracked_per_context(self):
        mm = DeviceMemoryManager(1 << 20)
        a, b = CudaContext(mm, "a"), CudaContext(mm, "b")
        pa = a.alloc(1024)
        b.alloc(2048)
        assert a.allocated_bytes == 1024
        assert b.allocated_bytes == 2048
        a.free(pa)
        assert a.allocated_bytes == 0
        assert mm.used == 2048

    def test_destroy_frees_everything(self):
        mm = DeviceMemoryManager(1 << 20)
        ctx = CudaContext(mm)
        ctx.alloc(4096)
        ctx.alloc(4096)
        ctx.destroy()
        assert mm.used == 0
        assert not ctx.alive

    def test_destroy_idempotent(self):
        ctx = make_context()
        ctx.destroy()
        ctx.destroy()

    def test_operations_after_destroy_rejected(self):
        ctx = make_context()
        ptr = ctx.alloc(1)
        ctx.destroy()
        for op in (lambda: ctx.alloc(1), lambda: ctx.free(ptr)):
            with pytest.raises(CudaContextDestroyed):
                op()

    def test_free_foreign_pointer_rejected(self):
        mm = DeviceMemoryManager(1 << 20)
        a, b = CudaContext(mm), CudaContext(mm)
        ptr = a.alloc(512)
        with pytest.raises(ValueError):
            b.free(ptr)

    def test_unique_ids_and_owner(self):
        a, b = make_context(owner="x"), make_context(owner="y")
        assert a.id != b.id
        assert a.owner == "x"
