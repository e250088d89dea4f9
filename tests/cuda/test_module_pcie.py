"""NVRTC compile-cost and PCIe link tests."""

import pytest

from repro.config import CostModel, HostConfig
from repro.cuda.module import NvrtcCompiler
from repro.gpu.pcie import PcieLink
from repro.sim import Environment


class TestNvrtc:
    def test_first_compile_pays_cost(self):
        env = Environment()
        costs = CostModel()
        nv = NvrtcCompiler(env, costs)

        def proc(env):
            yield from nv.compile()

        env.run(until=env.process(proc(env)))
        assert env.now == pytest.approx(
            costs.nvrtc_compile_time + costs.code_injection_time
        )
        assert nv.compile_count == 1

    def test_no_injection_for_plain_load(self):
        env = Environment()
        costs = CostModel()
        nv = NvrtcCompiler(env, costs)

        def proc(env):
            yield from nv.compile(inject=False)

        env.run(until=env.process(proc(env)))
        assert env.now == pytest.approx(costs.nvrtc_compile_time)
        assert nv.total_injection_time == 0.0


class TestPcie:
    def test_transfer_time_model(self):
        env = Environment()
        host = HostConfig(pcie_bandwidth=10e9, pcie_latency=1e-5)
        link = PcieLink(env, host)

        def proc(env):
            yield from link.transfer(1e9)

        env.run(until=env.process(proc(env)))
        assert env.now == pytest.approx(1e-5 + 0.1)
        assert link.bytes_moved == 1e9
        assert link.transfer_count == 1

    def test_transfers_serialize(self):
        env = Environment()
        link = PcieLink(env)
        done = []

        def proc(env, nbytes):
            yield from link.transfer(nbytes)
            done.append(env.now)

        env.process(proc(env, 12e9))  # ~1 s
        env.process(proc(env, 12e9))
        env.run()
        assert done[1] == pytest.approx(2 * done[0], rel=0.01)

    def test_negative_size_rejected(self):
        env = Environment()
        link = PcieLink(env)
        with pytest.raises(ValueError):
            list(link.transfer(-1))
