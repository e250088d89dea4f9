"""NVRTC compile-cost and PCIe link tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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

    def test_second_transfer_waits_for_the_whole_first(self):
        """Two transfers that arrive together hold the one copy engine in
        turn: the shorter second one starts when the first ends."""
        env = Environment()
        link = PcieLink(env, HostConfig(pcie_bandwidth=1e9, pcie_latency=0.0))
        finished = []

        def proc(env, name, seconds):
            yield from link.transfer(seconds * 1e9)
            finished.append((name, env.now))

        env.process(proc(env, "a", 3.0))
        env.process(proc(env, "b", 2.0))
        env.run()
        assert finished == [("a", 3.0), ("b", 5.0)]

    def test_transfers_finish_in_arrival_order(self):
        """One copy engine, first come first served: a transfer that finds
        the link busy waits for every transfer that arrived before it, and
        an idle link serves the next arrival at once."""
        env = Environment()
        link = PcieLink(env, HostConfig(pcie_bandwidth=1e9, pcie_latency=0.0))
        finished = []

        def proc(env, name, arrive, seconds):
            yield env.timeout(arrive)
            yield from link.transfer(seconds * 1e9)
            finished.append((name, env.now))

        for name, arrive, seconds in (
            ("a", 0.0, 3.0),
            ("b", 0.1, 2.0),
            ("c", 0.2, 1.0),
            ("d", 0.3, 0.5),
            ("e", 10.0, 1.0),
        ):
            env.process(proc(env, name, arrive, seconds))
        env.run()
        assert finished == [
            ("a", 3.0), ("b", 5.0), ("c", 6.0), ("d", 6.5), ("e", 11.0)
        ]
        assert link.transfer_count == 5
        assert link.bytes_moved == 7.5e9

    def test_negative_size_rejected(self):
        env = Environment()
        link = PcieLink(env)
        with pytest.raises(ValueError):
            list(link.transfer(-1))


@given(
    n_transfers=st.integers(min_value=1, max_value=20),
    nbytes=st.floats(min_value=0, max_value=1e10, allow_nan=False),
)
@settings(max_examples=50)
def test_equal_concurrent_transfers_take_n_durations(n_transfers, nbytes):
    """N equal transfers started together end at N x one transfer's time."""
    env = Environment()
    link = PcieLink(env)

    def proc(env):
        yield from link.transfer(nbytes)

    for _ in range(n_transfers):
        env.process(proc(env))
    env.run()
    expected = n_transfers * link.transfer_time(nbytes)
    assert env.now == pytest.approx(expected, rel=1e-9)
    assert link.transfer_count == n_transfers
    assert link.bytes_moved == pytest.approx(n_transfers * nbytes, rel=1e-9)
