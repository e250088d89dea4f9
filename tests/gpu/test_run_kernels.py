"""The one kernel-level recipe: :func:`repro.gpu.device.run_kernels`.

Figure 1, Tables I-III and V, Figure 5, the sweep, the model validation,
two ablations, offline profiling and ``repro profile`` measure kernels
alone or in static co-runs through it, and Table I, the sweep and Table V
read solo Slate times from the offline profile instead of simulating them
again.  These tests pin the identities they rest on.
"""

import ast
import dataclasses
import pathlib

import pytest

from repro.config import TESLA_V100, TITAN_XP, CostModel
from repro.experiments.tab1_policy import class_representatives
from repro.gpu.device import (
    DEFAULT_TASK_SIZE,
    SLATE_INJECT_FRAC,
    ExecutionMode,
    SimulatedGPU,
    run_kernels,
)
from repro.kernels.registry import SHORT_NAMES, by_name
from repro.sim import Environment
from repro.slate.profiler import ProfileCache, offline_profile

SLATE = dict(
    mode=ExecutionMode.SLATE, task_size=DEFAULT_TASK_SIZE, inject_frac=SLATE_INJECT_FRAC
)


def _solo_slate(spec, device):
    (counters,) = run_kernels([spec.work()], device=device, **SLATE)
    return counters.elapsed


class TestSoloIsTheProfile:
    @pytest.mark.parametrize("device", [TITAN_XP, TESLA_V100], ids=lambda d: d.name)
    @pytest.mark.parametrize("name", SHORT_NAMES)
    def test_benchmark_solo_equals_profile_elapsed(self, name, device, tmp_path):
        spec = by_name(name)
        solo = _solo_slate(spec, device)
        simulated = offline_profile(spec, device, cache=ProfileCache(root=tmp_path))
        # A fresh cache object on the same root reads the JSON back.
        from_disk = offline_profile(spec, device, cache=ProfileCache(root=tmp_path))
        assert simulated.elapsed == solo
        assert from_disk.elapsed == solo

    def test_class_representatives_solo_equals_profile_elapsed(self, tmp_path):
        for spec in class_representatives().values():
            solo = _solo_slate(spec, TITAN_XP)
            for _ in range(2):
                profile = offline_profile(spec, TITAN_XP, cache=ProfileCache(root=tmp_path))
                assert profile.elapsed == solo, spec.name


def _hand_built_pair(work_a, work_b, sms_a, sms_b, device, costs):
    """The two-launch recipe the experiments wrote out before run_kernels."""
    env = Environment()
    gpu = SimulatedGPU(env, device, costs)
    ha = gpu.launch(work_a, sm_ids=sms_a, **SLATE)
    hb = gpu.launch(work_b, sm_ids=sms_b, **SLATE)
    env.run(until=ha.done & hb.done)
    return ha.counters, hb.counters


class TestCorun:
    @pytest.mark.parametrize(
        "a, b, split", [("BS", "RG", 12), ("GS", "MM", 15), ("TR", "RG", 27), ("RG", "RG", 3)]
    )
    def test_pair_equals_the_hand_built_recipe(self, a, b, split):
        works = [by_name(a).work(), by_name(b).work()]
        sms = (range(split), range(split, TITAN_XP.num_sms))
        ours = run_kernels(works, sms, TITAN_XP, CostModel(), **SLATE)
        reference = _hand_built_pair(*works, *sms, TITAN_XP, CostModel())
        for got, want in zip(ours, reference):
            for field in dataclasses.fields(want):
                assert getattr(got, field.name) == getattr(want, field.name), field.name

    @pytest.mark.parametrize(
        "names, sizes",
        [(("BS", "RG", "GS"), (10, 8, 12)), (("MM", "RG", "TR", "BS"), (6, 6, 9, 9))],
    )
    def test_wide_static_corun_drains_every_block(self, names, sizes):
        works = [by_name(n).work() for n in names]
        bounds = [sum(sizes[:i]) for i in range(len(sizes) + 1)]
        sm_sets = [range(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
        counters = run_kernels(works, sm_sets, **SLATE)
        assert len(counters) == len(works)
        for work, c in zip(works, counters):
            assert c.blocks_executed == pytest.approx(work.num_blocks)
            assert c.end_time > c.start_time == 0.0
        # Sharing the device only slows a kernel: each takes at least as
        # long as it does alone on the same SMs (up to float rounding: a
        # co-run settles its progress at more epochs).
        for work, sms, c in zip(works, sm_sets, counters):
            (alone,) = run_kernels([work], (sms,), **SLATE)
            assert c.elapsed >= alone.elapsed * (1 - 1e-12), work.name

    def test_one_sm_set_per_work(self):
        work = by_name("RG").work()
        with pytest.raises(ValueError):
            run_kernels([work, work], (None,))


def test_no_experiment_builds_an_engine_or_a_device():
    """Experiments measure kernels through run_kernels and the harness."""
    root = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro" / "experiments"
    offenders = []
    for path in sorted(root.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name in ("Environment", "SimulatedGPU"):
                    offenders.append(f"{path.name}:{node.lineno} {name}")
    assert not offenders
