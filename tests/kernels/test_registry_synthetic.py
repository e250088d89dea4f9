"""Registry and synthetic kernel tests."""

import pytest

from repro.config import TITAN_XP, CostModel
from repro.gpu.device import ExecutionMode, SimulatedGPU
from repro.kernels import BENCHMARKS, SHORT_NAMES, by_name, stream, synthetic
from repro.kernels.registry import UnknownKernelError
from repro.sim import Environment


class TestRegistry:
    def test_short_names_order(self):
        assert SHORT_NAMES == ("BS", "GS", "MM", "RG", "TR")

    def test_by_name_case_insensitive(self):
        assert by_name("bs").name == "BS"
        assert by_name("TR").name == "TR"

    def test_stream_resolvable(self):
        assert by_name("stream").name == "STREAM"

    def test_unknown_name(self):
        with pytest.raises(UnknownKernelError, match="unknown benchmark"):
            by_name("nope")

    def test_by_name_shares_one_spec_per_name(self):
        assert by_name("mm") is by_name("MM")
        assert by_name("MM").work() is by_name("mm").work()

    def test_factories_produce_fresh_specs(self):
        a, b = BENCHMARKS["BS"](), BENCHMARKS["BS"]()
        assert a == b
        assert a is not b


class TestSynthetic:
    def test_validation(self):
        with pytest.raises(ValueError):
            synthetic(compute_fraction=1.5, memory_fraction=0.1)
        with pytest.raises(ValueError):
            synthetic(compute_fraction=0.1, memory_fraction=-0.1)
        with pytest.raises(ValueError):
            synthetic(0.1, 0.1, block_time=0)

    def test_name_default(self):
        spec = synthetic(0.25, 0.50)
        assert "c=0.25" in spec.name and "m=0.50" in spec.name

    @pytest.mark.parametrize("cfrac,mfrac", [(0.02, 0.05), (0.10, 0.40), (0.01, 0.75)])
    def test_solo_rates_match_requested_fractions(self, cfrac, mfrac):
        """A synthetic kernel achieves (roughly) the rates it was asked for."""
        spec = synthetic(cfrac, mfrac, num_blocks=9600)
        env = Environment()
        gpu = SimulatedGPU(env, TITAN_XP, CostModel())
        counters = env.run(until=gpu.launch(spec.work()).done)
        assert counters.gflops * 1e9 == pytest.approx(
            cfrac * TITAN_XP.device_flops, rel=0.15
        )
        assert counters.l2_throughput == pytest.approx(
            mfrac * TITAN_XP.dram_bandwidth, rel=0.15
        )

    def test_oversubscribed_memory_fraction_throttles(self):
        spec = synthetic(0.01, 1.2, num_blocks=9600)
        env = Environment()
        gpu = SimulatedGPU(env, TITAN_XP, CostModel())
        counters = env.run(until=gpu.launch(spec.work()).done)
        assert counters.l2_throughput <= 1.01 * TITAN_XP.dram_bandwidth
        assert counters.mem_throttle_fraction > 0.1


class TestStreamFig1:
    def test_stream_validation(self):
        with pytest.raises(ValueError):
            stream(total_bytes=0)

    def test_stream_saturates_at_nine_sms(self):
        """The Figure 1 result, end to end through the kernel model."""
        bw = {}
        for n in (1, 2, 4, 6, 8, 9, 10, 15, 30):
            env = Environment()
            gpu = SimulatedGPU(env, TITAN_XP, CostModel())
            h = gpu.launch(stream(total_bytes=2 * 1024**3).work(), sm_ids=range(n))
            bw[n] = env.run(until=h.done).l2_throughput
        # Rising region approximately linear.
        assert bw[2] == pytest.approx(2 * bw[1], rel=0.05)
        assert bw[8] == pytest.approx(8 * bw[1], rel=0.06)
        # Knee at 9: within a few percent of the 30-SM plateau.
        assert bw[9] > 0.95 * bw[30]
        assert bw[10] == pytest.approx(bw[30], rel=0.03)
        # Plateau near device peak.
        assert bw[30] > 0.93 * TITAN_XP.dram_bandwidth
