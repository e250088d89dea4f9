"""The rate-derivation memo: cached results must be indistinguishable.

``derive_rates`` is pure, so memoized and uncached calls must agree
exactly — on single kernels, on fig7-style co-run pairings, on a 4-way
co-run through the simulated device, on the sliced and unsliced 4-wide
goldens, and across cache-key canonicalization (per-kernel keys are
positionised, so renaming a kernel still hits).  Keys are interned ids:
equal-valued but distinct config objects never share one, and an id is
never issued twice.  ``configure_rates_cache(0)`` must force full
derivations, and long runs must actually *hit* (>50% on the fig7 grid).
The rate path is pure Python: the trace and serve entry points never
import numpy.
"""

import json
import os
import subprocess
import sys

import pytest

import repro
from repro.config import TITAN_XP, CostModel
from repro.gpu.cache import LocalityModel
from repro.gpu.device import ExecutionMode, SimulatedGPU
from repro.gpu.occupancy import (
    BlockResources,
    occupancy,
    occupancy_cache_info,
    reset_occupancy_cache,
)
from repro.gpu import rates
from repro.gpu.rates import (
    RateInput,
    SchedulingMode,
    configure_rates_cache,
    derive_rates,
    memo_config,
    rate_input_signature,
    rates_cache_info,
    reset_rates_cache,
    signature_id,
)
from repro.kernels.registry import by_name
from repro.sim import Environment
from repro.slate.scheduler import SlateScheduler, SlateTicket

from tests.slate.difftrace import (
    load_golden,
    nway4_workload,
    scheduler_trace,
    sliced_nway4_counters,
)


@pytest.fixture(autouse=True)
def fresh_cache():
    reset_rates_cache()
    yield
    configure_rates_cache(4096)


def make_input(key="k", flops=1e6, bytes_pb=0.0, n_sms=30, **kw):
    defaults = dict(
        locality=LocalityModel(),
        dram_efficiency=1.0,
        min_block_time=0.0,
        inject_frac=0.0,
        order_factor=1.0,
        mode=SchedulingMode.HARDWARE,
        blocks_per_sm=16,
        task_size=1,
    )
    defaults.update(kw)
    defaults.setdefault("parallelism", defaults["blocks_per_sm"] * n_sms)
    return RateInput(
        key=key, flops_per_block=flops, bytes_per_block=bytes_pb, n_sms=n_sms, **defaults
    )


def corun_pairs():
    """Fig-7-style co-run grid: compute-heavy × memory-heavy splits."""
    pairs = []
    for split in (10, 15, 20):
        heavy = make_input(
            "heavy", flops=4e6, bytes_pb=3e6, n_sms=split,
            locality=LocalityModel(reuse_fraction=0.3, footprint=1e6),
            parallelism=16 * split,
        )
        light = make_input(
            "light", flops=2e6, bytes_pb=0.2e6, n_sms=30 - split,
            parallelism=16 * (30 - split),
        )
        pairs.append([heavy, light])
    return pairs


class TestMemoEquivalence:
    def test_memoized_equals_uncached_on_pairings(self):
        costs = CostModel()
        configure_rates_cache(0)
        uncached = [derive_rates(pair, TITAN_XP, costs) for pair in corun_pairs()]
        configure_rates_cache(4096)
        # Two passes: the first populates, the second must hit.
        for _ in range(2):
            for pair, expect in zip(corun_pairs(), uncached):
                assert derive_rates(pair, TITAN_XP, costs) == expect
        info = rates_cache_info()
        assert info["misses"] == 3
        assert info["hits"] == 3

    def test_keys_are_positionised(self):
        """Renamed kernels with identical physics share one memo entry."""
        costs = CostModel()
        a = derive_rates([make_input("alpha")], TITAN_XP, costs)
        b = derive_rates([make_input("beta")], TITAN_XP, costs)
        assert a["alpha"] == b["beta"]
        info = rates_cache_info()
        assert (info["hits"], info["misses"]) == (1, 1)

    def test_distinct_cost_models_do_not_collide(self):
        """Equal-valued configs may miss; different-valued must differ."""
        inp = [make_input(task_size=4, mode=SchedulingMode.SLATE)]
        out1 = derive_rates(inp, TITAN_XP, CostModel())
        out2 = derive_rates(inp, TITAN_XP, CostModel(atomic_latency=5e-6))
        assert out1["k"].block_time != out2["k"].block_time


class TestMemoKey:
    def test_equal_but_distinct_cost_models_never_share_an_entry(self):
        first, second = CostModel(), CostModel()
        assert first == second and first is not second
        inp = [make_input()]
        for costs in (first, second, first, second):
            derive_rates(inp, TITAN_XP, costs)
        info = rates_cache_info()
        assert (info["hits"], info["misses"], info["currsize"]) == (2, 2, 2)
        assert memo_config(TITAN_XP, first) != memo_config(TITAN_XP, second)

    def test_dropped_ids_are_never_issued_again(self):
        """A caller that kept an id (the device does) keeps a true name."""
        costs = CostModel()
        sig = rate_input_signature(make_input())
        config_id, sig_id = memo_config(TITAN_XP, costs), signature_id(sig)
        assert (memo_config(TITAN_XP, costs), signature_id(sig)) == (
            config_id,
            sig_id,
        )
        reset_rates_cache()
        fresh = {memo_config(TITAN_XP, costs), signature_id(sig)}
        assert fresh.isdisjoint({config_id, sig_id})

    def test_pin_overflow_drops_pins_ids_and_entries_together(self):
        """Past the pin bound everything interned goes; results stay exact.

        A device interns its config and signatures once, so it keeps ids
        from before the drop; they still name its own inputs.
        """
        configure_rates_cache(0)
        _, _, counters_off = four_way_corun()
        configure_rates_cache(4096)
        env = Environment()
        gpu = SimulatedGPU(env, TITAN_XP, CostModel())
        inp = [make_input()]
        for _ in range(rates._PIN_LIMIT):
            derive_rates(inp, TITAN_XP, CostModel())
        assert len(rates._PINS) <= rates._PIN_LIMIT
        assert rates_cache_info()["currsize"] < rates._PIN_LIMIT
        assert id(gpu.costs) not in rates._PINS
        _, _, counters_on = four_way_corun(env, gpu)
        assert counters_on == counters_off


class TestMemoOffGoldens:
    """The 4-wide goldens hold with every derivation a full one."""

    def test_sliced_nway4_counters_match_golden_with_memo_off(self):
        configure_rates_cache(0)
        record, sched = sliced_nway4_counters()
        assert sched.env.stats.rate_memo_hits == 0
        assert sched.env.stats.rate_scalar_evals == sched.env.stats.rate_recomputes
        assert json.loads(json.dumps(record)) == load_golden("sliced_nway4_counters")

    def test_nway4_decision_trace_matches_golden_with_memo_off(self):
        configure_rates_cache(0)
        rows, _ = scheduler_trace(
            nway4_workload(),
            SlateScheduler,
            SlateTicket,
            max_corun=4,
            enable_preemption=True,
        )
        assert rows == load_golden("decision_trace_nway4")


class TestMemoKnobs:
    def test_maxsize_zero_disables(self):
        configure_rates_cache(0)
        costs = CostModel()
        for _ in range(3):
            derive_rates([make_input()], TITAN_XP, costs)
        info = rates_cache_info()
        assert info["hits"] == 0 and info["misses"] == 0 and info["currsize"] == 0

    def test_evicts_first_stored_at_maxsize(self):
        """A hit does not refresh an entry: eviction follows store order."""
        configure_rates_cache(2)
        costs = CostModel()
        a, b, c = make_input(flops=1e6), make_input(flops=2e6), make_input(flops=3e6)
        derive_rates([a], TITAN_XP, costs)  # miss
        derive_rates([b], TITAN_XP, costs)  # miss
        derive_rates([a], TITAN_XP, costs)  # hit; a keeps its place
        derive_rates([c], TITAN_XP, costs)  # miss; evicts a, stored first
        derive_rates([b], TITAN_XP, costs)  # hit
        derive_rates([a], TITAN_XP, costs)  # miss again; evicts b
        info = rates_cache_info()
        assert info["hits"] == 2
        assert info["misses"] == 4
        assert info["currsize"] == 2


def four_way_corun(env=None, gpu=None):
    """Four Slate kernels on disjoint SM ranges, each relaunched back to back.

    Relaunches and completions repeat co-run signatures, so a run with the
    memo on both misses and hits.  Runs on a fresh device unless ``env``
    and ``gpu`` are given.  Returns (env, gpu, counters per launch).
    """
    if gpu is None:
        env = Environment()
        gpu = SimulatedGPU(env, TITAN_XP, CostModel())
    counters = []

    def tenant(bench, sms, reps):
        work = by_name(bench).work()
        for _ in range(reps):
            handle = gpu.launch(work, sms, mode=ExecutionMode.SLATE, task_size=10)
            counters.append((yield handle.done))

    for i, (bench, reps) in enumerate((("BS", 3), ("MM", 2), ("RG", 3), ("TR", 2))):
        env.process(tenant(bench, gpu.sm_range(7 * i, 7 * i + 6), reps))
    env.run()
    return env, gpu, counters


class TestDeviceMemo:
    def test_memo_on_equals_memo_off(self):
        configure_rates_cache(0)
        _, gpu_off, counters_off = four_way_corun()
        configure_rates_cache(4096)
        env, gpu_on, counters_on = four_way_corun()
        assert len(counters_on) == 10
        assert counters_on == counters_off
        assert gpu_on.rate_trace == gpu_off.rate_trace
        assert max(len(sample) for _, sample in gpu_on.rate_trace) == 4

    def test_device_accounting_matches_module_counters(self):
        env, _, _ = four_way_corun()
        stats = env.stats
        assert stats.rate_memo_hits > 0 and stats.rate_memo_misses > 0
        assert stats.rate_memo_hits + stats.rate_memo_misses == stats.rate_recomputes
        assert stats.rate_scalar_evals == stats.rate_memo_misses
        assert stats.rate_vector_evals == 0
        info = rates_cache_info()
        assert (info["hits"], info["misses"]) == (
            stats.rate_memo_hits,
            stats.rate_memo_misses,
        )
        assert info["currsize"] == stats.rate_memo_misses


def test_trace_and_serve_paths_import_without_numpy():
    """The rate path is pure Python; only the battery's detailed executor
    and trace generators need numpy."""
    code = (
        "import sys\n"
        "import repro.workloads.harness, repro.workloads.app, repro.serve.server\n"
        "assert 'numpy' not in sys.modules, 'numpy imported'\n"
    )
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    subprocess.run([sys.executable, "-c", code], check=True, env=env)


class TestOccupancyCache:
    def test_hit_counters_advance(self):
        reset_occupancy_cache()
        block = BlockResources(threads_per_block=256, registers_per_thread=32)
        occupancy(TITAN_XP, block)
        occupancy(TITAN_XP, block)
        info = occupancy_cache_info()
        assert info["misses"] >= 1
        assert info["hits"] >= 1

    def test_unlaunchable_block_still_raises_every_time(self):
        reset_occupancy_cache()
        block = BlockResources(threads_per_block=2048, registers_per_thread=32)
        for _ in range(2):
            with pytest.raises(ValueError):
                occupancy(TITAN_XP, block)


class TestBatteryHitRate:
    def test_fig7_memo_hit_rate_above_half(self, monkeypatch, tmp_path):
        """The fig7 grid re-derives the same signatures constantly."""
        from repro.experiments.runner import run_battery

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        (run,) = run_battery(["fig7"], profile=True)
        hits = run.stats["rate_memo_hits"]
        misses = run.stats["rate_memo_misses"]
        assert hits + misses > 0
        assert hits / (hits + misses) > 0.5
