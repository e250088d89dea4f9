"""Workload harness tests: solo/pair scenarios across the runtimes."""

import pytest

from repro.workloads import (
    AppSpec,
    all_pairings,
    app_for,
    app_times,
    make_runtime,
    pairing_label,
    reset_app_times,
    run_pair,
    run_solo,
)
from repro.sim import Environment, aggregate_stats


class TestPairings:
    def test_fifteen_pairings(self):
        pairs = all_pairings()
        assert len(pairs) == 15
        assert ("BS", "BS") in pairs  # self pairings included
        assert ("BS", "TR") in pairs
        assert len(set(pairs)) == 15

    def test_labels(self):
        assert pairing_label(("BS", "RG")) == "BS-RG"


class TestRuntimeFactory:
    def test_known_runtimes(self):
        env = Environment()
        for name in ("CUDA", "MPS", "Slate"):
            rt = make_runtime(name, env)
            assert rt.name == name

    def test_unknown_runtime(self):
        with pytest.raises(KeyError, match="unknown runtime"):
            make_runtime("XLA", Environment())

    def test_app_for(self):
        app = app_for("BS", reps=3)
        assert app.kernel.name == "BS"
        assert app.effective_reps == 3
        default = app_for("BS")
        assert default.effective_reps == default.kernel.default_reps


class TestRunSolo:
    @pytest.mark.parametrize("runtime", ["CUDA", "MPS", "Slate"])
    def test_solo_produces_complete_result(self, runtime):
        result, rt = run_solo(runtime, app_for("RG", reps=3))
        assert result.launches == 3
        assert len(result.counters) == 3
        assert result.app_time > result.kernel_wall_time > 0
        assert result.kernel_exec_time > 0
        assert result.setup_time > 0
        assert result.h2d_time > 0 and result.d2h_time > 0

    def test_memory_freed_after_run(self):
        result, rt = run_solo("CUDA", app_for("BS", reps=1))
        assert rt.memory.used == 0

    def test_slate_breakdown_fields(self):
        result, rt = run_solo("Slate", app_for("GS", reps=2))
        assert result.comm_time > 0
        assert result.compile_time > 0
        # Comm is a few percent of app time (paper: ~4%).
        assert result.comm_time < 0.15 * result.app_time

    def test_transfers_can_be_disabled(self):
        app = AppSpec(name="RG", kernel=app_for("RG").kernel, reps=1, include_transfers=False)
        result, _ = run_solo("CUDA", app)
        assert result.h2d_time == 0.0 and result.d2h_time == 0.0


class TestRunPair:
    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="distinct names"):
            run_pair("CUDA", app_for("BS"), app_for("BS"))

    @pytest.mark.parametrize("runtime", ["CUDA", "MPS", "Slate"])
    def test_pair_returns_both_results(self, runtime):
        results, _ = run_pair(runtime, app_for("RG", reps=2), app_for("GS", name="GS", reps=2))
        assert set(results) == {"RG", "GS"}
        for r in results.values():
            assert r.launches == 2

    def test_pair_slower_than_solo(self):
        solo, _ = run_solo("CUDA", app_for("BS", reps=4))
        results, _ = run_pair(
            "CUDA", app_for("BS", reps=4), app_for("TR", name="TR", reps=4)
        )
        assert results["BS"].app_time > solo.app_time

    def test_slate_beats_mps_on_complementary_pair(self):
        """The headline: BS-RG under Slate vs MPS (paper: +30.55%)."""
        mps, _ = run_pair("MPS", app_for("BS"), app_for("RG"))
        slate, _ = run_pair("Slate", app_for("BS"), app_for("RG"))
        mps_total = sum(r.app_time for r in mps.values())
        slate_total = sum(r.app_time for r in slate.values())
        assert slate_total < 0.85 * mps_total

    def test_slate_runs_memory_pair_consecutively(self):
        _, rt = run_pair("Slate", app_for("BS"), app_for("TR"))
        assert rt.scheduler.corun_launches == 0

    def test_deterministic_repeat(self):
        r1, _ = run_pair("Slate", app_for("BS", reps=3), app_for("RG", reps=3))
        r2, _ = run_pair("Slate", app_for("BS", reps=3), app_for("RG", reps=3))
        assert r1["BS"].app_time == r2["BS"].app_time
        assert r1["RG"].app_time == r2["RG"].app_time


class TestRunMany:
    def test_three_apps_with_arrivals(self):
        from repro.workloads import run_many

        apps = [
            app_for("BS", name="bs", reps=3),
            app_for("RG", name="rg", reps=3),
            app_for("GS", name="gs", reps=3),
        ]
        results, runtime = run_many(
            "Slate", apps, arrivals=[0.0, 1e-3, 2e-3]
        )
        assert set(results) == {"bs", "rg", "gs"}
        assert results["rg"].start >= 1e-3
        assert results["gs"].start >= 2e-3
        assert runtime.scheduler.corun_launches >= 1

    def test_duplicate_names_rejected(self):
        from repro.workloads import run_many

        with pytest.raises(ValueError, match="unique"):
            run_many("CUDA", [app_for("BS"), app_for("BS")])

    def test_arrival_length_mismatch(self):
        from repro.workloads import run_many

        with pytest.raises(ValueError, match="arrivals"):
            run_many("CUDA", [app_for("BS")], arrivals=[0.0, 1.0])

    def test_single_app_equals_run_solo(self):
        from repro.workloads import run_many

        many, _ = run_many("CUDA", [app_for("RG", reps=2)])
        solo, _ = run_solo("CUDA", app_for("RG", reps=2))
        assert many["RG"] == solo


class TestOneRunner:
    """``run_solo``, ``run_pair``, ``replay_trace`` and ``run_many`` are one
    scenario runner: the same apps and arrivals give equal results for
    the same engine work, whichever entry point is called."""

    @staticmethod
    def events(runtime) -> int:
        return runtime.env.stats.events_processed

    @pytest.mark.parametrize("runtime", ["CUDA", "MPS", "Slate"])
    def test_zero_arrival_trace(self, runtime):
        from repro.workloads import run_many
        from repro.workloads.trace import TraceEntry, replay_trace

        bs, rg = app_for("BS", reps=2), app_for("RG", reps=2)
        solo, solo_rt = run_solo(runtime, rg)
        traced, traced_rt = replay_trace(runtime, [TraceEntry(0.0, rg)])
        many, many_rt = run_many(runtime, [rg], arrivals=[0.0])
        assert traced == many == {"RG": solo}
        assert self.events(traced_rt) == self.events(many_rt) == self.events(solo_rt)

        pair, pair_rt = run_pair(runtime, bs, rg)
        traced, traced_rt = replay_trace(
            runtime, [TraceEntry(0.0, bs), TraceEntry(0.0, rg)]
        )
        many, many_rt = run_many(runtime, [bs, rg])
        assert traced == many == pair
        assert self.events(traced_rt) == self.events(many_rt) == self.events(pair_rt)

    @pytest.mark.parametrize("runtime", ["CUDA", "MPS", "Slate"])
    def test_positive_arrival_trace(self, runtime):
        from repro.workloads import run_many
        from repro.workloads.trace import TraceEntry, replay_trace

        bs, rg = app_for("BS", reps=2), app_for("RG", reps=2)
        traced, traced_rt = replay_trace(
            runtime, [TraceEntry(0.0, bs), TraceEntry(1.5e-3, rg)]
        )
        many, many_rt = run_many(runtime, [bs, rg], arrivals=[0.0, 1.5e-3])
        assert traced == many
        assert many["RG"].start == 1.5e-3
        assert self.events(traced_rt) == self.events(many_rt)

    def test_empty_app_list_rejected(self):
        from repro.workloads import run_many

        with pytest.raises(ValueError, match="no applications"):
            run_many("CUDA", [])


class TestPairAntt:
    """One pairing recipe: the ``#2`` rename, the CUDA solo baselines and
    the pair's ANTT, all through the app-time memo."""

    def test_identical_pair_renames_the_second_app(self):
        from repro.workloads.harness import pair_apps

        assert [a.name for a in pair_apps("GS", "GS")] == ["GS", "GS#2"]
        assert [a.name for a in pair_apps("BS", "RG")] == ["BS", "RG"]

    @pytest.mark.parametrize("pair", [("BS", "RG"), ("GS", "GS")], ids=["BS-RG", "GS-GS"])
    def test_equals_the_hand_computed_ratio(self, pair):
        from repro.metrics.antt import antt
        from repro.workloads.harness import pair_antt, pair_apps, solo_times

        a, b = pair
        solo = solo_times(pair)
        assert solo == {
            bench: run_solo("CUDA", app_for(bench))[0].app_time for bench in pair
        }
        app_a, app_b = pair_apps(a, b)
        results, _ = run_pair("Slate", app_a, app_b)
        expected = antt(
            {name: r.app_time for name, r in results.items()},
            {app_a.name: solo[a], app_b.name: solo[b]},
        )
        assert pair_antt("Slate", a, b, solo) == expected


class TestAppTimes:
    """The in-process app-time memo: one simulation per distinct input."""

    @pytest.fixture(autouse=True)
    def empty_memo(self, monkeypatch):
        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        reset_app_times()
        yield
        reset_app_times()

    @staticmethod
    def events_of(*args, **kwargs) -> tuple[dict, int]:
        before = aggregate_stats().events_processed
        times = app_times(*args, **kwargs)
        return times, aggregate_stats().events_processed - before

    def test_same_numbers_as_run_solo_and_run_pair(self):
        solo, _ = run_solo("CUDA", app_for("RG", reps=2))
        assert app_times("CUDA", app_for("RG", reps=2)) == {"RG": solo.app_time}
        pair, _ = run_pair("Slate", app_for("BS", reps=2), app_for("RG", reps=2))
        times = app_times("Slate", app_for("BS", reps=2), app_for("RG", reps=2))
        assert list(times) == ["BS", "RG"]
        assert times == {name: r.app_time for name, r in pair.items()}

    def test_repeated_input_simulates_once(self):
        apps = (app_for("BS", reps=2), app_for("RG", reps=2))
        first, events = self.events_of("Slate", *apps)
        assert events > 0
        # Equal by value, not the same objects: the key is the fingerprint.
        again, events = self.events_of("Slate", app_for("BS", reps=2), app_for("RG", reps=2))
        assert events == 0
        assert again == first

    def test_different_device_runtime_or_kwargs_miss(self):
        from repro.config import TITAN_XP
        from repro.experiments.ablations import ALWAYS_CORUN

        apps = (app_for("BS", reps=2), app_for("RG", reps=2))
        self.events_of("Slate", *apps)
        for runtime, kwargs in (
            ("MPS", {}),
            ("Slate", {"device": TITAN_XP.with_sms(20)}),
            ("Slate", {"policy": ALWAYS_CORUN}),
            ("Slate", {"enable_grow": False}),
        ):
            _, events = self.events_of(runtime, *apps, **kwargs)
            assert events > 0, (runtime, kwargs)
            _, events = self.events_of(runtime, *apps, **kwargs)
            assert events == 0, (runtime, kwargs)

    def test_default_cost_model_shares_entries_and_others_miss(self):
        from dataclasses import replace

        from repro.config import CostModel
        from repro.workloads.harness import DEFAULT_COSTS

        apps = (app_for("BS", reps=2), app_for("RG", reps=2))
        omitted, events = self.events_of("Slate", *apps)
        assert events > 0
        # An equal-valued object shares the entry of the omitted default.
        passed, events = self.events_of("Slate", *apps, costs=CostModel())
        assert events == 0 and passed == omitted
        costly = replace(DEFAULT_COSTS, pipe_roundtrip=10 * DEFAULT_COSTS.pipe_roundtrip)
        slower, events = self.events_of("Slate", *apps, costs=costly)
        assert events > 0 and slower != omitted
        pair, _ = run_pair("Slate", *apps, costs=costly)
        assert slower == {name: r.app_time for name, r in pair.items()}

    def test_no_cache_simulates_every_call(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        app = app_for("RG", reps=2)
        first, events_a = self.events_of("CUDA", app)
        second, events_b = self.events_of("CUDA", app)
        assert events_a == events_b > 0
        assert first == second

    def test_returns_a_fresh_copy(self):
        app = app_for("RG", reps=2)
        times = app_times("CUDA", app)
        expected = dict(times)
        times["RG"] = -1.0
        times["extra"] = 0.0
        assert app_times("CUDA", app) == expected

    def test_reset_forgets_kept_times(self):
        app = app_for("RG", reps=2)
        self.events_of("CUDA", app)
        reset_app_times()
        _, events = self.events_of("CUDA", app)
        assert events > 0

    def test_one_or_two_apps_only(self):
        with pytest.raises(ValueError, match="one or two apps"):
            app_times("CUDA")
        with pytest.raises(ValueError, match="one or two apps"):
            app_times("CUDA", *(app_for(b, reps=1) for b in ("BS", "RG", "GS")))
