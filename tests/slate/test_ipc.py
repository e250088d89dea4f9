"""IPC channel unit tests (named pipe + shared buffers)."""

import pytest

from repro.config import CostModel
from repro.sim import Environment
from repro.slate.ipc import NamedPipe, SharedBufferChannel


class TestNamedPipe:
    def test_round_trip_cost_and_counters(self):
        env = Environment()
        costs = CostModel(pipe_roundtrip=1e-4)
        pipe = NamedPipe(env, costs)

        def proc(env):
            for _ in range(3):
                yield pipe.command()

        env.run(until=env.process(proc(env)))
        assert env.now == pytest.approx(3e-4)
        assert pipe.round_trips == 3
        assert pipe.total_time == pytest.approx(3e-4)


class TestSharedBuffer:
    def test_cost_independent_of_payload(self):
        """The whole point of the channel: no per-byte copy cost."""
        env = Environment()
        costs = CostModel(shared_buffer_overhead=5e-5)
        chan = SharedBufferChannel(env, costs)
        times = []

        def proc(env):
            for nbytes in (1 << 10, 1 << 30):
                t0 = env.now
                yield chan.handoff(nbytes)
                times.append(env.now - t0)

        env.run(until=env.process(proc(env)))
        assert times[0] == pytest.approx(times[1])
        assert chan.handoffs == 2
        assert chan.bytes_handled == (1 << 10) + (1 << 30)

    def test_negative_size_rejected(self):
        env = Environment()
        chan = SharedBufferChannel(env, CostModel())
        with pytest.raises(ValueError):
            chan.handoff(-1)
        assert chan.handoffs == 0


class TestRegistryMirroring:
    """The per-instance counters are mirrored into the process-wide
    metrics registry so IPC overhead shows up in ``repro obs dump``."""

    def test_pipe_counters_mirror_to_registry(self):
        from repro.obs.registry import registry

        reg = registry()
        trips0 = reg.counter("ipc.pipe.round_trips").value
        time0 = reg.gauge("ipc.pipe.time_total").value

        env = Environment()
        costs = CostModel(pipe_roundtrip=1e-4)
        pipe = NamedPipe(env, costs)

        def proc(env):
            for _ in range(5):
                yield pipe.command()

        env.run(until=env.process(proc(env)))
        assert reg.counter("ipc.pipe.round_trips").value - trips0 == 5
        assert reg.gauge("ipc.pipe.time_total").value - time0 == pytest.approx(5e-4)

    def test_shared_buffer_counters_mirror_to_registry(self):
        from repro.obs.registry import registry

        reg = registry()
        maps0 = reg.counter("ipc.shared_buffer.mappings").value
        bytes0 = reg.gauge("ipc.shared_buffer.bytes_total").value

        env = Environment()
        chan = SharedBufferChannel(env, CostModel(shared_buffer_overhead=1e-5))

        def proc(env):
            yield chan.handoff(1 << 20)
            yield chan.handoff(1 << 10)

        env.run(until=env.process(proc(env)))
        assert reg.counter("ipc.shared_buffer.mappings").value - maps0 == 2
        assert reg.gauge("ipc.shared_buffer.bytes_total").value - bytes0 == (
            (1 << 20) + (1 << 10)
        )
