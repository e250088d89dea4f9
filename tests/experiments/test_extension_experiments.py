"""Shape tests for the extension experiments.

fig3, fig4, tab5, scaling, cluster and retreat.
"""

import pytest

from repro.experiments import (
    cluster_study,
    fig3_transform,
    fig4_decisions,
    retreat_vs_slice,
    scaling,
    tab5_operations,
)


class TestFig3:
    def test_isomorphism_for_various_shapes(self):
        for gx, gy, s, w in [(6, 4, 5, 3), (7, 3, 4, 2), (12, 1, 10, 5)]:
            result = fig3_transform.run(gx, gy, s, w)
            assert result.is_isomorphic, (gx, gy, s, w)

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
        assert result.injected_instruction_frac == pytest.approx(0.03, abs=0.01)
        assert 0.01 <= result.comm_frac <= 0.08
        assert 0.005 <= result.compile_frac <= 0.03

    def test_format(self, result):
        assert "Table V" in tab5_operations.format_result(result)


class TestScaling:
    @pytest.fixture(scope="class")
    def result(self):
        return scaling.run()

    def test_gain_monotone_until_reclassification(self, result):
        assert result.point(20).gain > result.point(30).gain > result.point(45).gain

    def test_policy_break_and_fix(self, result):
        broken = result.point(60)
        assert not broken.corun and broken.rider_class == "M_M"
        assert broken.gain < 0 < broken.gain_per_sm

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
        assert ca.makespan < rr.makespan
        assert ca.total_coruns > rr.total_coruns

    def test_format(self, result):
        out = cluster_study.format_result(result)
        assert "class-aware" in out and "GPU 0" in out


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
