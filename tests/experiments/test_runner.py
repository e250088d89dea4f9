"""Runner registry tests."""

import pytest

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
        assert runner.main(["fig3"]) == 0
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
        assert runner.main(["tab9"]) == 2
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
        assert runner.main(["fig3", "fig1", "--jobs", "2"]) == 0
        out = capsys.readouterr().out
        assert "Figure 1" in out and "Figure 3" in out
        assert out.index("Figure 1") < out.index("Figure 3")
        assert "jobs=2" in out

    def test_main_prints_per_experiment_timing(self, capsys):
        assert runner.main(["fig3"]) == 0
        out = capsys.readouterr().out
        assert "[" in out and "s]" in out  # "...  [0.01s]" in the header


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
        assert runner.main(["fig3", "--profile"]) == 0
        out = capsys.readouterr().out
        assert "Engine profile (per experiment):" in out
        assert "experiment" in out and "recomp" in out
