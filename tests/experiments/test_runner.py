"""Runner registry tests."""

import os
import subprocess
import sys

import pytest

import repro
from repro.__main__ import main as repro_main
from repro.experiments import runner


class TestRegistry:
    def test_keys_unique(self):
        keys = [e.key for e in runner.EXPERIMENTS]
        assert len(keys) == len(set(keys))

    def test_every_paper_artifact_registered(self):
        keys = {e.key for e in runner.EXPERIMENTS}
        for required in (
            "fig1",
            "fig3",
            "fig4",
            "fig5",
            "fig6",
            "fig7",
            "tab1",
            "tab2",
            "tab3",
            "tab4",
            "tab5",
        ):
            assert required in keys, required

    def test_extensions_registered(self):
        keys = {e.key for e in runner.EXPERIMENTS}
        for extension in (
            "abl-policy",
            "abl-partition",
            "abl-locality",
            "abl-resizing",
            "abl-tasksize",
            "validate",
            "sweep",
            "scaling",
            "cluster",
            "gen",
        ):
            assert extension in keys, extension

    def test_entries_are_runnable_pairs(self):
        for experiment in runner.EXPERIMENTS:
            assert callable(experiment.run)
            assert callable(experiment.format)
            assert experiment.title

    def test_run_all_filters_by_key(self):
        results = runner.run_all(["fig3"])
        assert set(results) == {"fig3"}
        assert results["fig3"].is_isomorphic

    def test_main_prints_selected(self, capsys):
        assert repro_main(["experiments", "fig3"]) == 0
        out = capsys.readouterr().out
        assert "Figure 3" in out
        assert "Figure 1" not in out


class TestUnknownKeys:
    def test_run_all_rejects_unknown_key(self):
        with pytest.raises(runner.UnknownExperimentError) as exc_info:
            runner.run_all(["tab9"])
        message = str(exc_info.value)
        assert "tab9" in message
        for valid in ("fig1", "tab5", "sweep", "gen"):
            assert valid in message

    def test_run_all_rejects_mixed_known_and_unknown(self):
        with pytest.raises(runner.UnknownExperimentError, match="tab9"):
            runner.run_all(["fig3", "tab9"])

    def test_main_unknown_key_errors_with_listing(self, capsys):
        assert repro_main(["experiments", "tab9"]) == 2
        captured = capsys.readouterr()
        assert "unknown experiment key 'tab9'" in captured.err
        assert "fig1" in captured.err  # lists the valid keys
        assert captured.out == ""  # nothing half-printed

    def test_unknown_experiment_error_is_a_value_error(self):
        assert issubclass(runner.UnknownExperimentError, ValueError)


class TestBattery:
    def test_run_battery_reports_timing_in_order(self):
        runs = runner.run_battery(["fig3", "fig1"], jobs=1)
        assert [r.key for r in runs] == ["fig1", "fig3"]  # battery order
        for run in runs:
            assert run.elapsed >= 0.0
            assert run.title
            assert run.formatted == [
                e for e in runner.EXPERIMENTS if e.key == run.key
            ][0].format(run.result)

    def test_run_all_jobs_matches_serial(self):
        serial = runner.run_all(["fig1", "fig3"], jobs=1)
        parallel = runner.run_all(["fig1", "fig3"], jobs=2)
        assert list(serial) == list(parallel)
        for key in serial:
            experiment = [e for e in runner.EXPERIMENTS if e.key == key][0]
            assert experiment.format(serial[key]) == experiment.format(parallel[key])

    def test_main_jobs_flag(self, capsys):
        assert repro_main(["experiments", "fig3", "fig1", "--jobs", "2"]) == 0
        out = capsys.readouterr().out
        assert "Figure 1" in out and "Figure 3" in out
        assert out.index("Figure 1") < out.index("Figure 3")
        assert "jobs=2" in out

    def test_main_prints_per_experiment_timing(self, capsys):
        assert repro_main(["experiments", "fig3"]) == 0
        out = capsys.readouterr().out
        assert "[" in out and "s]" in out  # "...  [0.01s]" in the header

    def test_battery_stays_off_the_serving_stack(self):
        """The runner and the cluster experiment load neither asyncio nor
        ``repro.serve``: the fleet they place and run on is
        ``repro.slate.placement``'s, and the serving stack would cost every
        battery its import time and memory."""
        code = (
            "import sys\n"
            "from repro.experiments import runner\n"
            "runner.run_battery(['cluster'])\n"
            "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'asyncio'"
            " or m == 'repro.serve' or m.startswith('repro.serve.'))\n"
            "assert not loaded, loaded\n"
        )
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        subprocess.run([sys.executable, "-c", code], check=True, env=env)


class TestProfile:
    def test_run_battery_without_profile_has_no_stats(self):
        (run,) = runner.run_battery(["fig3"], jobs=1)
        assert run.stats is None

    def test_run_battery_profile_attaches_engine_counters(self):
        (run,) = runner.run_battery(["fig1"], jobs=1, profile=True)
        assert run.stats is not None
        # fig1 has no result cache, so it always simulates: the engine
        # counters are non-trivial and the incremental recompute engages.
        assert run.stats["events_processed"] > 0
        assert run.stats["rate_recomputes"] > 0

    def test_profile_counters_isolated_per_experiment(self):
        runs = runner.run_battery(["fig1", "tab3"], jobs=1, profile=True)
        by_key = {r.key: r.stats for r in runs}
        # tab3 is far smaller than fig1; bleed-through would equalize them.
        assert by_key["tab3"]["events_processed"] < by_key["fig1"]["events_processed"]

    def test_profile_works_across_pool_workers(self):
        serial = runner.run_battery(["fig1", "fig3"], jobs=1, profile=True)
        parallel = runner.run_battery(["fig1", "fig3"], jobs=2, profile=True)
        assert [r.stats for r in parallel] == [r.stats for r in serial]

    def test_profiled_battery_folds_into_parent_aggregate(self):
        """The parent's process-wide aggregate reflects the whole battery —
        also under --jobs, where the engine work happened in pool workers."""
        from repro.sim import aggregate_stats, reset_aggregate_stats

        reset_aggregate_stats()
        serial = runner.run_battery(["fig1", "fig3"], jobs=1, profile=True)
        serial_agg = aggregate_stats().snapshot()
        expected = sum(r.stats["events_processed"] for r in serial)
        assert serial_agg["events_processed"] == expected

        reset_aggregate_stats()
        runner.run_battery(["fig1", "fig3"], jobs=2, profile=True)
        parallel_agg = aggregate_stats().snapshot()
        assert parallel_agg == serial_agg

    def test_profiled_run_does_not_inherit_prior_aggregate(self):
        """A stale parent accumulator must not bleed into profiled stats
        (the fork-inheritance double count)."""
        from repro.sim import aggregate_stats, reset_aggregate_stats

        baseline = runner.run_battery(["fig1", "fig3"], jobs=1, profile=True)
        # Poison the parent aggregate, then profile in forked workers.
        aggregate_stats().events_processed += 10_000_000
        forked = runner.run_battery(["fig1", "fig3"], jobs=2, profile=True)
        assert [r.stats for r in forked] == [r.stats for r in baseline]
        reset_aggregate_stats()

    def test_profiled_experiment_simulates_scenarios_run_before_it(
        self, monkeypatch
    ):
        """abl-policy runs fig7's CUDA solos and Slate pairs; a profiled fig7
        after it must still report the engine work of all of them."""
        from repro.workloads.harness import reset_app_times

        def profiled_fig7() -> int:
            (run,) = runner.run_battery(["fig7"], jobs=1, profile=True)
            return run.stats["events_processed"]

        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        runner.run_battery(["abl-policy"], jobs=1)
        after_ablation = profiled_fig7()
        reset_app_times()
        alone = profiled_fig7()
        assert after_ablation == alone > 0

    def test_profiled_runs_in_a_row_report_identical_counters(self, monkeypatch):
        """abl-partition runs predictive split searches; a second profiled
        run must search again, not read the first run's memo (the
        simulations behind those searches would go missing from the
        counters).  The caches are off, also the process profile cache, so
        the first run's offline profiles are not read back by the second."""
        from repro.slate import profiler

        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        profiler.configure_profile_cache(enabled=False)
        try:
            first, second = (
                runner.run_battery(["abl-partition"], jobs=1, profile=True)[0]
                for _ in range(2)
            )
        finally:
            # Rebuilt from the unpatched environment at its next use.
            profiler.reset_profile_cache()
        assert first.stats["events_processed"] > 0
        assert second.stats == first.stats

    def test_profile_counters_do_not_depend_on_on_disk_profiles(
        self, monkeypatch, tmp_path
    ):
        """A profiled run simulates every offline profile it asks for, so
        its counters read the same on an empty cache directory, on one an
        earlier run filled, and from pool workers.  The process's own
        profile cache is back in place after each run."""
        from repro.config import CACHE_DIR_ENV
        from repro.slate import profiler

        keys = ["tab4", "abl-resizing"]

        def counters(jobs):
            runs = runner.run_battery(keys, jobs=jobs, profile=True)
            return [run.stats for run in runs]

        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "serial"))
        profiler.reset_profile_cache()
        try:
            cache = profiler.default_profile_cache()
            fresh = counters(1)
            assert profiler.default_profile_cache() is cache
            refilled = counters(1)
            monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "parallel"))
            profiler.reset_profile_cache()
            parallel = counters(2)
        finally:
            # Rebuilt from the unpatched environment at its next use.
            profiler.reset_profile_cache()
        assert refilled == fresh
        assert parallel == fresh

    def test_profile_counters_read_the_same_warm_and_with_caches_off(
        self, monkeypatch, tmp_path
    ):
        """Nothing a profiled run reads comes from disk: after a battery
        filled the cache directory, fig7 and the sweep report the same
        engine work as with ``REPRO_NO_CACHE=1``."""
        from repro.config import CACHE_DIR_ENV
        from repro.slate import profiler

        keys = ["fig7", "sweep"]
        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path))
        profiler.reset_profile_cache()
        try:
            runner.run_battery(keys, jobs=1)
            warm = [r.stats for r in runner.run_battery(keys, jobs=1, profile=True)]
            monkeypatch.setenv("REPRO_NO_CACHE", "1")
            profiler.reset_profile_cache()
            off = [r.stats for r in runner.run_battery(keys, jobs=1, profile=True)]
        finally:
            # Rebuilt from the unpatched environment at its next use.
            profiler.reset_profile_cache()
        assert all(stats["events_processed"] > 0 for stats in warm)
        assert warm == off

    def test_format_profile_table_shape(self):
        runs = runner.run_battery(["fig1", "fig3"], jobs=1, profile=True)
        table = runner.format_profile_table(runs)
        lines = table.splitlines()
        assert lines[0].startswith("experiment")
        assert any(line.startswith("fig1") for line in lines)
        assert lines[-1].startswith("total")

    def test_profile_table_epoch_columns(self):
        """The decision-epoch and rate-derivation counters are tabulated."""
        runs = runner.run_battery(["fig4"], jobs=1, profile=True)
        table = runner.format_profile_table(runs)
        lines = table.splitlines()
        header = lines[0]
        for column in ("epochs", "mut/ep", "scal", "wall s", "µs/ev"):
            assert column in header
        # Host time per simulated event, per experiment and in total.
        (run,) = runs
        per_event = run.elapsed * 1e6 / run.stats["events_processed"]
        for line in (lines[2], lines[-1]):
            assert line.split()[-1] == f"{per_event:.1f}"
        stats = runs[0].stats
        for field in (
            "epoch_marks",
            "epoch_flushes",
            "rate_vector_evals",
            "rate_scalar_evals",
        ):
            assert field in stats
        # fig4 runs a fresh multi-tenant simulation: mutations were
        # actually batched into epochs, and the table shows the factor.
        assert stats["epoch_flushes"] > 0
        assert stats["epoch_marks"] >= stats["epoch_flushes"]

    def test_retreat_row_counts_the_slice_edges(self):
        """retreat is the one battery experiment that slices: its profiled
        row pins what the slice edges cost the engine (an epoch re-arms a
        completion timer only where it changed a rate)."""
        (run,) = runner.run_battery(["retreat"], jobs=1, profile=True)
        stats = run.stats
        assert stats["events_processed"] == 13_614
        assert stats["epoch_flushes"] == 7_066
        assert stats["slice_dispatches"] == 3_238
        assert stats["slice_preempts"] == 3

    def test_epoch_counters_reach_metrics_registry(self):
        """obs registry 'engine' source carries the epoch/derivation fields."""
        from repro.obs.registry import registry

        snapshot = registry().snapshot()["sources"]["engine"]
        for field in (
            "epoch_marks",
            "epoch_flushes",
            "rate_vector_evals",
            "rate_scalar_evals",
        ):
            assert field in snapshot

    def test_main_profile_flag_prints_table(self, capsys):
        assert repro_main(["experiments", "fig3", "--profile"]) == 0
        out = capsys.readouterr().out
        assert "Engine profile (per experiment):" in out
        assert "experiment" in out and "recomp" in out
