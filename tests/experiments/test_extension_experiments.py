"""Shape tests for the extension experiments.

fig3, fig4, tab5, scaling, cluster, validate, sweep, shootout and retreat.
"""

import pytest

from repro.experiments import (
    cluster_study,
    fig3_transform,
    fig4_decisions,
    policy_shootout,
    retreat_vs_slice,
    scaling,
    sweep,
    tab5_operations,
    validation,
)
from repro.config import TESLA_V100, CostModel
from repro.gpu.device import DEFAULT_TASK_SIZE
from repro.gpu.rates import SchedulingMode, rate_input
from repro.kernels.gaussian import gaussian
from repro.slate.policy import policy_names
from repro.slate.profiler import offline_profile


class TestFig3:
    def test_isomorphism_for_various_shapes(self):
        for gx, gy, s, w in [(6, 4, 5, 3), (7, 3, 4, 2), (12, 1, 10, 5)]:
            result = fig3_transform.run(gx, gy, s, w)
            assert result.is_isomorphic, (gx, gy, s, w)

    def test_workers_pull_every_block_once(self):
        result = fig3_transform.run()
        assert sum(len(t.blocks) for t in result.traces) == result.grid.num_blocks

    def test_format_shows_grid_and_workers(self):
        out = fig3_transform.format_result(fig3_transform.run())
        assert "isomorphic: True" in out
        assert "worker 0" in out


class TestFig4:
    @pytest.fixture(scope="class")
    def result(self):
        return fig4_decisions.run()

    def test_both_branches_taken(self, result):
        assert result.count("corun") >= 5
        assert result.count("solo") >= 2

    def test_memory_pairs_never_corun(self, result):
        for classes in result.corun_partners():
            assert not {"M_M", "H_M"} <= set(classes)

    def test_every_corun_involves_the_light_rider(self, result):
        for classes in result.corun_partners():
            assert "L_C" in classes

    def test_format(self, result):
        out = fig4_decisions.format_result(result)
        assert "branch (a)" in out and "branch (b)" in out


class TestTab5:
    @pytest.fixture(scope="class")
    def result(self):
        return tab5_operations.run()

    def test_five_rows_matching_paper_table(self, result):
        assert len(result.rows) == 5
        scopes = {r.scope for r in result.rows}
        assert scopes == {"inside kernel exec", "outside kernel exec", "offline"}

    def test_quantified_fractions(self, result):
        assert 0.025 <= result.injected_instruction_frac <= 0.035  # ~3% (BS)
        assert 0.01 <= result.comm_frac <= 0.08
        assert 0.005 <= result.compile_frac <= 0.03
        assert 0.0 < result.atomic_time_frac < 0.3

    def test_format(self, result):
        assert "Table V" in tab5_operations.format_result(result)

    def test_atomic_share_counts_the_devices_own_workers(self):
        # V100 runs GS with 8 resident blocks on each of its 80 SMs: 640
        # persistent workers share the queue pulls, not Titan Xp's 240.
        gs = gaussian()
        work = gs.work()
        inp = rate_input(
            work, TESLA_V100.num_sms, TESLA_V100, SchedulingMode.SLATE, DEFAULT_TASK_SIZE
        )
        assert inp.parallelism == 640
        result = tab5_operations.run(device=TESLA_V100)
        n_tasks = -(-work.num_blocks // DEFAULT_TASK_SIZE)
        per_worker = n_tasks * CostModel().atomic_latency / 640
        kernel_time = offline_profile(gs, TESLA_V100).elapsed
        assert result.atomic_time_frac == pytest.approx(per_worker / kernel_time)


class TestScaling:
    @pytest.fixture(scope="class")
    def result(self):
        return scaling.run()

    def test_gain_monotone_until_reclassification(self, result):
        assert result.point(20).gain > result.point(30).gain > result.point(45).gain
        assert result.point(20).gain > 0.30
        assert result.point(45).corun

    def test_policy_break_and_fix(self, result):
        broken = result.point(60)
        assert not broken.corun and broken.rider_class == "M_M"
        assert broken.gain < 0
        # The scale-invariant per-SM classification basis fixes it.
        assert broken.gain_per_sm > 0.15

    def test_bases_agree_on_calibration_size(self, result):
        p30 = result.point(30)
        assert p30.gain == p30.gain_per_sm

    def test_format(self, result):
        assert "per-SM" in scaling.format_result(result)


class TestClusterStudy:
    @pytest.fixture(scope="class")
    def result(self):
        return cluster_study.run()

    def test_class_aware_separates_and_wins(self, result):
        ca = result.outcome("class-aware")
        rr = result.outcome("round-robin")
        assert ca.hogs_separated and not rr.hogs_separated
        assert ca.makespan < 0.95 * rr.makespan
        assert ca.total_coruns > rr.total_coruns

    def test_format(self, result):
        out = cluster_study.format_result(result)
        assert "class-aware" in out and "GPU 0" in out


class TestModelValidation:
    def test_fluid_executor_tracks_the_per_block_reference(self):
        result = validation.run()
        assert result.solo_mean_error < 0.05
        assert result.solo_max_error < 0.12
        assert result.corun_mean_error < 0.08
        assert result.corun_max_error < 0.25


class TestPartitionSweep:
    @pytest.fixture(scope="class")
    def result(self):
        return sweep.run()

    def test_valley_sits_in_the_saturation_region(self, result):
        assert 5 <= result.best_split().primary_sms <= 14

    def test_heuristic_pick_is_near_the_valley(self, result):
        # The heuristic's 14-SM pick optimizes the dynamic app-level case
        # (BS finishes fast, then RG grows onto the freed SMs), so it sits
        # on the valley's right shoulder of this static curve.
        best = result.best_split().concurrent_turnaround
        assert result.point(14).concurrent_turnaround <= 1.5 * best

    def test_both_walls_are_steep(self, result):
        best = result.best_split().concurrent_turnaround
        assert result.point(3).concurrent_turnaround > 1.5 * best
        assert result.point(27).concurrent_turnaround > 2 * best

    def test_valley_beats_consecutive_execution(self, result):
        assert result.best_split().concurrent_turnaround < result.consecutive_turnaround


class TestPolicyShootout:
    @pytest.fixture(scope="class")
    def result(self):
        return policy_shootout.run()

    def test_every_registered_policy_has_a_row(self, result):
        names = policy_names()
        assert len(names) >= 5, "the shoot-out needs the full policy roster"
        assert {r.policy for r in result.rows} == set(names)

    def test_only_edf_rejects(self, result):
        assert result.row("edf").rejected > 0, "edf must reject infeasible deadlines"
        assert all(r.policy == "edf" or r.rejected == 0 for r in result.rows)

    def test_fairness_and_throughput_are_sane(self, result):
        assert all(0.0 < r.fairness <= 1.0 for r in result.rows)
        assert all(r.throughput > 0 for r in result.rows)


class TestRetreatVsSlice:
    @pytest.fixture(scope="class")
    def result(self):
        return retreat_vs_slice.run()

    def test_slice_edge_resizes_cut_the_repartition_stall(self, result):
        retreat_stall = result.total_pair_stall("retreat")
        assert retreat_stall > 0
        assert result.total_pair_stall("slice-edge") < retreat_stall / 2

    def test_slicing_tax_on_every_pair_stays_small(self, result):
        for a, b in retreat_vs_slice.RESIZE_PAIRS:
            pair = f"{a}-{b}"
            classic = result.pair_row(pair, "retreat")
            sliced = result.pair_row(pair, "slice-edge")
            assert sliced.makespan <= classic.makespan * 1.06, pair
            assert sliced.resizes == classic.resizes, pair

    def test_slice_preemption_beats_drain_wait_for_the_vip(self, result):
        drain = result.burst_row("drain-wait")
        sliced = result.burst_row("slice-preempt")
        assert sliced.vip_p99 < drain.vip_p99
        assert sliced.vip_mean < drain.vip_mean
        assert sliced.preemptions > 0 and sliced.slice_preempts > 0
        assert drain.preemptions == 0
